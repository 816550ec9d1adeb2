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
  to its per-level sibling dicts, then drop what another sample
  determines;
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
# The multiproof: the per-path form minus what other samples determine
# ----------------------------------------------------------------------

MAX_HEIGHT = 64
MAX_SIBLING_SLOTS = 1 << 21


def ref_needed(leaves, height):
    """Per level, the sorted node indices whose digests no sample
    determines: siblings of a sample's ancestor that are not themselves
    an ancestor of any sample."""
    needed = []
    for level in range(height):
        ancestors = {leaf >> level for leaf in leaves}
        needed.append(
            sorted({node ^ 1 for node in ancestors if node ^ 1 not in ancestors})
        )
    return needed


def ref_multiproof(proofs):
    """The ``proofs`` field of a bundle: one header, the sample indices,
    one result per distinct leaf, every undetermined digest once."""
    if not proofs:
        return ref_uint(0)
    _index, _claimed, (_leaf, n_leaves, code, first_siblings) = proofs[0]
    height = len(first_siblings)
    out = ref_uint(len(proofs)) + ref_uint(n_leaves) + ref_uint(code)
    out += ref_uint(height)
    for index, _claimed, _path in proofs:
        out += ref_uint(index)
    claimed_at = {}
    sibling_at = {}  # (level, node) -> digest, from whichever path has it
    for proof in proofs:
        index, claimed, _path = proof
        claimed_at[index] = claimed
        for level, step in enumerate(expand(proof)):
            (digest,) = step.values()
            sibling_at[level, (index >> level) ^ 1] = digest
    leaves = sorted(claimed_at)
    out += ref_bytes_list([claimed_at[leaf] for leaf in leaves])
    supplied = []
    for level, nodes in enumerate(ref_needed(leaves, height)):
        for node in nodes:
            supplied.append(sibling_at[level, node])
    return out + ref_bytes_list(supplied)


def ref_read_multiproof(data, pos):
    """Decode the ``proofs`` field to plain proofs, ``None`` at every
    sibling position another sample determines."""
    count, pos = ref_read_uint(data, pos)
    if count == 0:
        return [], pos
    n_leaves, pos = ref_read_uint(data, pos)
    code, pos = ref_read_uint(data, pos)
    if code not in (0, 1):
        raise RefCodec("no such leaf encoding")
    height, pos = ref_read_uint(data, pos)
    if count > len(data) - pos:
        raise RefCodec("more samples than bytes")
    if height > MAX_HEIGHT or count * height > MAX_SIBLING_SLOTS:
        raise RefCodec("more sibling slots than a bundle may claim")
    indices = []
    for _ in range(count):
        index, pos = ref_read_uint(data, pos)
        indices.append(index)
    leaves = sorted(set(indices))
    results, pos = ref_read_bytes_list(data, pos)
    if len(results) != len(leaves):
        raise RefCodec("one result per distinct leaf")
    supplied, pos = ref_read_bytes_list(data, pos)
    needed = ref_needed(leaves, height)
    if len(supplied) != sum(len(nodes) for nodes in needed):
        raise RefCodec("surplus or missing supplied digests")
    sibling_at = {}
    rest = list(supplied)
    for level, nodes in enumerate(needed):
        for node in nodes:
            sibling_at[level, node] = rest.pop(0)
    for index in indices:
        if n_leaves and index >= n_leaves:
            raise RefShape("leaf index outside the tree")
    claimed_at = dict(zip(leaves, results))
    proofs = []
    for index in indices:
        siblings = [
            sibling_at.get((level, (index >> level) ^ 1))
            for level in range(height)
        ]
        proofs.append((index, claimed_at[index], (index, n_leaves, code, siblings)))
    return proofs, pos


def compact(proofs):
    """What a bundle reads back as: the same proofs with ``None`` at
    every derivable sibling position."""
    return ref_read_multiproof(ref_multiproof(proofs), 0)[0]


def ref_bundle(task_id, proofs):
    return ref_bytes(task_id.encode("utf-8")) + ref_multiproof(proofs)


def ref_decode_bundle(data):
    task_id, pos = ref_read_text(data, 0)
    proofs, pos = ref_read_multiproof(data, pos)
    if pos != len(data):
        raise RefCodec("bytes after the bundle")
    return task_id, proofs


def ref_submission(task_id, root, n_leaves, proofs):
    out = ref_bytes(task_id.encode("utf-8")) + ref_bytes(root)
    return out + ref_uint(n_leaves) + ref_multiproof(proofs)


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
    code = 1 if getattr(path.leaf_encoding, "value", None) == "raw" else 0
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
    """Step 4 by the book, one independent path per sample (library
    ``SampleProof``s in, ``[(index, accepted, reason)]`` out)."""
    height = 0
    while (1 << height) < n_leaves:
        height += 1
    fn = task.function
    verdicts = []
    for proof, want in zip(proofs, expected):
        books.samples_verified += 1
        path = proof.path
        if (
            proof.index != want
            or len(path.siblings) != height
            or path.leaf_index != want
            or any(len(s) != h.digest_size for s in path.siblings)
            or getattr(path.leaf_encoding, "value", "hashed") != "hashed"
        ):
            verdict = (want, False, "malformed_proof")
        else:
            books.verifications += 1
            books.verification_cost += fn.cost
            if fn.evaluate(task.domain[want]) != proof.claimed_result:
                verdict = (want, False, "wrong_result")
            else:
                leaf = h(b"\x00" + proof.claimed_result)
                rebuilt = ref_root_from_path(h, leaf, want, path.siblings)
                if rebuilt != root:
                    verdict = (want, False, "root_mismatch")
                else:
                    verdict = (want, True, "ok")
        verdicts.append(verdict)
        if stop and not verdict[1]:
            break
    return verdicts


def shared_fold_hashes(leaves, height, raw=False):
    """Hashes one fold of the tree ``leaves`` span costs, counted from
    the definition: one per distinct leaf (none under RAW) and one per
    node of the cover above the leaf level, the root included."""
    count = 0 if raw else len(set(leaves))
    for level in range(1, height + 1):
        count += len({leaf >> level for leaf in leaves})
    return count
