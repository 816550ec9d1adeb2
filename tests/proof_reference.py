"""Hand-written references for the proof wire and the Step-4 verifier.

Everything here is deliberately slow and straight-line — one byte at a
time, one ``hashlib`` call per node, no tables, no shared helpers — and
imports nothing from :mod:`repro.utils.encoding`,
:mod:`repro.core.protocol`, :mod:`repro.merkle.multiproof` or
:mod:`repro.core.verification`, so it cannot inherit their mistakes.
Values are plain tuples, not the library's classes:

* a **path** is ``(leaf_index, n_leaves, code, siblings)``,
* a **proof** is ``(index, claimed_result, path)``.

Three things live here:

* the **per-path form** — the paper's Step 3 as it is written, ``m``
  independent authentication paths (``m·H`` sibling digests), in the
  manner of SNIPPETS.md snippet 1's ``validate_merkle_proof``: one
  ``{"left": digest}`` / ``{"right": digest}`` dict per level per
  sample.  It was the wire format until cluster wire v7 and stays the
  reference the multiproof is checked against;
* the **multiproof codec**, built from that form: expand every sample
  to its per-level sibling dicts, then drop what the verifier works
  out for itself — the samples, the tree, each level-0 sibling (whose
  result travels instead) and every digest another sample determines
  (per-sample paths no one multiproof can say are refused with
  :class:`RefNoMultiproof`);
* the **per-path verifier** with its own books.
"""

import hashlib

# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------


class RefCodec(Exception):
    """The bytes are not a well-formed message."""


class RefShape(Exception):
    """Well-formed bytes describing an impossible authentication path."""


class RefNoMultiproof(Exception):
    """Per-sample proofs that no single multiproof can say."""


def ref_uint(value):
    out = []
    while value >= 0x80:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    out.append(value)
    return bytes(out)


def ref_read_uint(data, pos):
    # Up to eleven bytes: ten with the continuation bit, then a last.
    value = 0
    for k in range(11):
        if pos + k >= len(data):
            raise RefCodec("varint runs off the end")
        byte = data[pos + k]
        value += (byte & 0x7F) << (7 * k)
        if byte < 0x80:
            return value, pos + k + 1
    raise RefCodec("varint longer than eleven bytes")


def ref_bytes(payload):
    return ref_uint(len(payload)) + payload


def ref_read_bytes(data, pos):
    length, pos = ref_read_uint(data, pos)
    if pos + length > len(data):
        raise RefCodec("payload runs off the end")
    return data[pos : pos + length], pos + length


def ref_bytes_list(items):
    out = ref_uint(len(items))
    for item in items:
        out += ref_bytes(item)
    return out


def ref_read_bytes_list(data, pos):
    count, pos = ref_read_uint(data, pos)
    items = []
    for _ in range(count):
        item, pos = ref_read_bytes(data, pos)
        items.append(item)
    return items, pos


def ref_read_text(data, pos):
    raw, pos = ref_read_bytes(data, pos)
    try:
        return raw.decode("utf-8"), pos
    except UnicodeDecodeError:
        raise RefCodec("task id is not UTF-8") from None


# ----------------------------------------------------------------------
# The per-path form: m independent authentication paths (m·H digests)
# ----------------------------------------------------------------------


def ref_path(path):
    leaf_index, n_leaves, code, siblings = path
    return (
        ref_uint(leaf_index)
        + ref_uint(n_leaves)
        + ref_uint(code)
        + ref_bytes_list(siblings)
    )


def ref_per_path_proofs(proofs):
    """``count ‖ (index ‖ claimed result ‖ path) × count`` — what a
    bundle cost on the wire when every sample carried its own path."""
    out = ref_uint(len(proofs))
    for index, claimed, path in proofs:
        out += ref_uint(index) + ref_bytes(claimed) + ref_path(path)
    return out


def per_path_digest_count(proofs):
    """The paper's ``m·H``: sibling digests over all independent paths."""
    return sum(len(path[3]) for _index, _claimed, path in proofs)


def expand(proof):
    """One sample as snippet 1 takes it: a sibling dict per level,
    keyed by the side the sibling sits on."""
    _index, _claimed, (leaf_index, _n, _code, siblings) = proof
    steps = []
    for level, sibling in enumerate(siblings):
        if (leaf_index >> level) % 2:
            steps.append({"left": sibling})
        else:
            steps.append({"right": sibling})
    return steps


# ----------------------------------------------------------------------
# The multiproof: the per-path form minus what the verifier works out
# ----------------------------------------------------------------------


def ref_fixed_list(items):
    """``count ‖ width ‖ concatenation``; the count alone when empty."""
    if not items:
        return ref_uint(0)
    width = len(items[0])
    for item in items:
        if len(item) != width or width == 0:
            raise RefNoMultiproof("items of unequal or zero width")
    out = ref_uint(len(items)) + ref_uint(width)
    for item in items:
        out += item
    return out


def ref_read_fixed_list(data, pos):
    count, pos = ref_read_uint(data, pos)
    if count == 0:
        return [], pos
    width, pos = ref_read_uint(data, pos)
    if width == 0:
        raise RefCodec("items of width zero")
    if pos + count * width > len(data):
        raise RefCodec("more items than bytes")
    items = []
    for _ in range(count):
        items.append(data[pos : pos + width])
        pos += width
    return items, pos


def ref_shape(leaves, n_leaves, height):
    """The leaves whose results travel, and per level the sorted node
    indices whose digests no sample determines.  Both leaves of every
    pair a sample touches are known to the fold (the sample alone in a
    one-leaf tree); those past ``n_leaves`` are padding, whose digest
    the verifier knows, so they do not travel.  Above the leaves a
    digest is needed when it is the sibling of an ancestor of a sample
    and not itself one."""
    carried = set(leaves)
    if height > 0:
        for leaf in leaves:
            carried.add(leaf ^ 1)
    real = sorted(leaf for leaf in carried if leaf < n_leaves)
    needed = [[]] if height > 0 else []
    for level in range(1, height):
        ancestors = {leaf >> level for leaf in leaves}
        needed.append(
            sorted({node ^ 1 for node in ancestors if node ^ 1 not in ancestors})
        )
    return real, needed


def ref_multiproof(proofs, results_at):
    """The ``proofs`` field of a bundle: the result of every real leaf
    of every touched pair, ascending, then every undetermined digest
    from level 1 up, level-major.  A sampled leaf's result is its
    proof's claim, any other leaf's is ``results_at[leaf]``; nothing
    else — not the samples, not the tree — travels.

    One bundle is one tree: paths that mix leaf counts, encodings or
    heights, a path for another leaf than its sample, two results for
    one leaf, results of unequal width, or a needed digest no path
    holds raise :class:`RefNoMultiproof`."""
    if not proofs:
        return ref_fixed_list([]) + ref_fixed_list([])
    _index, _claimed, (_leaf, n_leaves, code, first_siblings) = proofs[0]
    height = len(first_siblings)
    claimed_at = {}
    sibling_at = {}  # (level, node) -> digest, from whichever path has it
    for proof in proofs:
        index, claimed, (leaf, n, c, siblings) = proof
        if (leaf, n, c, len(siblings)) != (index, n_leaves, code, height):
            raise RefNoMultiproof("a path of another leaf or tree")
        if claimed_at.setdefault(index, claimed) != claimed:
            raise RefNoMultiproof("two results for one leaf")
        for level, step in enumerate(expand(proof)):
            (digest,) = step.values()
            sibling_at[level, (index >> level) ^ 1] = digest
    real, needed = ref_shape(sorted(claimed_at), n_leaves, height)
    results = []
    for leaf in real:
        if leaf in claimed_at:
            results.append(claimed_at[leaf])
        else:
            results.append(results_at[leaf])
    supplied = []
    for level, nodes in enumerate(needed):
        for node in nodes:
            if (level, node) not in sibling_at:
                raise RefNoMultiproof("a needed digest is missing")
            supplied.append(sibling_at[level, node])
    return ref_fixed_list(results) + ref_fixed_list(supplied)


def ref_read_multiproof(data, pos):
    """Decode the ``proofs`` field to its two plain lists."""
    results, pos = ref_read_fixed_list(data, pos)
    digests, pos = ref_read_fixed_list(data, pos)
    return (results, digests), pos


def ref_bundle(task_id, proofs, results_at):
    return ref_bytes(task_id.encode("utf-8")) + ref_multiproof(proofs, results_at)


def ref_decode_bundle(data):
    task_id, pos = ref_read_text(data, 0)
    proofs, pos = ref_read_multiproof(data, pos)
    if pos != len(data):
        raise RefCodec("bytes after the bundle")
    return task_id, proofs


def ref_submission(task_id, root, n_leaves, proofs, results_at):
    out = ref_bytes(task_id.encode("utf-8")) + ref_bytes(root)
    return out + ref_uint(n_leaves) + ref_multiproof(proofs, results_at)


def ref_decode_submission(data):
    task_id, pos = ref_read_text(data, 0)
    root, pos = ref_read_bytes(data, pos)
    n_leaves, pos = ref_read_uint(data, pos)
    proofs, pos = ref_read_multiproof(data, pos)
    if pos != len(data):
        raise RefCodec("bytes after the bundle")
    return task_id, root, n_leaves, proofs


# ----------------------------------------------------------------------
# Library values as plain tuples
# ----------------------------------------------------------------------


def plain_path(path):
    code = 1 if path.leaf_encoding.value == "raw" else 0
    return (path.leaf_index, path.n_leaves, code, list(path.siblings))


def plain_proof(proof):
    return (proof.index, proof.claimed_result, plain_path(proof.path))


def plain_proofs(proofs):
    return [plain_proof(proof) for proof in proofs]


# ----------------------------------------------------------------------
# The per-path verifier (snippet 1), with its own books
# ----------------------------------------------------------------------


class RefBooks:
    """What a supervisor's ledger should read afterwards."""

    def __init__(self):
        self.hashes = 0
        self.hash_cost = 0.0
        self.verifications = 0
        self.verification_cost = 0.0
        self.samples_verified = 0


class RefHash:
    def __init__(self, name, rounds, cost, books):
        self.name, self.rounds, self.cost, self.books = name, rounds, cost, books
        self.digest_size = hashlib.new(name).digest_size

    def __call__(self, data):
        for _ in range(self.rounds):
            data = hashlib.new(self.name, data).digest()
        self.books.hashes += 1
        self.books.hash_cost += self.cost
        return data


def ref_root_from_path(h, leaf_phi, index, siblings):
    digest = leaf_phi
    for sibling in siblings:
        if index % 2:  # the sibling is a left node
            digest = h(b"\x01" + sibling + digest)
        else:  # the sibling is a right node
            digest = h(b"\x01" + digest + sibling)
        index //= 2
    return digest


def ref_tree_root(h, payloads, raw=False):
    level = [p if raw else h(b"\x00" + p) for p in payloads]
    width = 1
    while width < len(level):
        width *= 2
    level += [h(b"\x02repro/empty")] * (width - len(level))
    while len(level) > 1:
        level = [
            h(b"\x01" + level[i] + level[i + 1]) for i in range(0, len(level), 2)
        ]
    return level[0]


def ref_verify(h, books, proofs, expected, root, n_leaves, task, stop):
    """Step 4 by the book, one independent path per sample (plain
    proofs in, ``[(index, accepted, reason)]`` out)."""
    height = 0
    while (1 << height) < n_leaves:
        height += 1
    fn = task.function
    verdicts = []
    for (index, claimed, (leaf_index, _n, code, siblings)), want in zip(
        proofs, expected
    ):
        books.samples_verified += 1
        if (
            index != want
            or len(siblings) != height
            or leaf_index != want
            or any(len(s) != h.digest_size for s in siblings)
            or code != 0
        ):
            verdict = (want, False, "malformed_proof")
        else:
            books.verifications += 1
            books.verification_cost += fn.cost
            if fn.evaluate(task.domain[want]) != claimed:
                verdict = (want, False, "wrong_result")
            else:
                leaf = h(b"\x00" + claimed)
                rebuilt = ref_root_from_path(h, leaf, want, siblings)
                if rebuilt != root:
                    verdict = (want, False, "root_mismatch")
                else:
                    verdict = (want, True, "ok")
        verdicts.append(verdict)
        if stop and not verdict[1]:
            break
    return verdicts


def shared_fold_hashes(leaves, n_leaves, height, raw=False):
    """Hashes one fold of the tree ``leaves`` span costs, counted from
    the definition: one per leaf of each touched pair (none per real
    leaf under RAW; a padding leaf is the empty-leaf hash) and one per
    node of the cover above the leaf level, the root included."""
    touched = set(leaves)
    if height > 0:
        touched |= {leaf ^ 1 for leaf in leaves}
    padding = len([leaf for leaf in touched if leaf >= n_leaves])
    count = padding if raw else len(touched)
    for level in range(1, height + 1):
        count += len({leaf >> level for leaf in leaves})
    return count
