"""The participant's compute path, shape by shape, against the reference.

``PasswordSearch.evaluate_many`` sends strictly ascending non-negative
ints through runs of one key width (the width's length frame absorbed
once) and every other input through the per-input encoding;
``ZeroGuess.guess_many`` and the D′ draw take 8-byte index tails the
same way; ``int_many`` decides a batch in one comprehension unless some
draw could be rejected.  Each case puts a boundary between two of those
paths inside one batch and must match ``tests/test_compute_oracle.py``'s
straight-line ``hashlib`` reference byte for byte.
"""

import pytest
from test_compute_oracle import (
    ref_choose_honest,
    ref_guess,
    ref_password,
    ref_prf_bytes,
    ref_prf_int,
)

from repro.cheating import SemiHonestCheater, ZeroGuess
from repro.exceptions import TaskError
from repro.tasks import ExplicitDomain, PasswordSearch, RangeDomain, TaskAssignment
from repro.tasks.workloads import _width_runs
from repro.utils.prf import PrfPrefix

FN = PasswordSearch(b"shape-salt")

#: Across the 1→2, 2→3 and 3→4 byte widths.
CROSSINGS = [range(0, 300), range(65_530, 65_540), range(16_777_210, 16_777_220)]

ASCENDING = [
    [0, 1, 255, 256, 257, 65_535, 65_536, 16_777_215, 16_777_216, 2**40],
    [200, 300],
    [7],
    (254, 255, 256),
    list(range(65_500, 65_600, 7)),
    [2**64 - 1, 2**64, 2**70],
]

PER_INPUT = [
    [5, 3, 300, 1],  # unsorted
    [1, 1, 2, 256, 256],  # duplicated
    [1, b"\x01", "1", 2**40, 0],  # mixed
    [b"abc", b"", "keys"],
    [0, True, 2],  # a bool is not an exact int
    range(300, 250, -1),  # descending
]


def expected(fn, xs):
    return [ref_password(fn, x) for x in xs]


class TestEvaluateMany:
    @pytest.mark.parametrize("xs", CROSSINGS, ids=str)
    def test_ranges_across_a_width(self, xs):
        assert FN.evaluate_many(xs) == expected(FN, xs)

    @pytest.mark.parametrize("xs", ASCENDING, ids=str)
    def test_ascending_lists_across_widths(self, xs):
        assert _width_runs(xs) is not None
        assert FN.evaluate_many(xs) == expected(FN, xs)

    @pytest.mark.parametrize("xs", PER_INPUT, ids=str)
    def test_other_shapes_take_the_per_input_encoding(self, xs):
        assert _width_runs(xs) is None
        assert FN.evaluate_many(xs) == expected(FN, xs)

    def test_runs_are_cut_where_the_encoding_widens(self):
        assert _width_runs(range(0, 300)) == [(0, 256, 1), (256, 300, 2)]
        assert _width_runs(range(65_530, 65_540)) == [(0, 6, 2), (6, 10, 3)]
        assert _width_runs([0, 255, 256, 2**24]) == [(0, 2, 1), (2, 3, 2), (3, 4, 4)]

    @pytest.mark.parametrize("digest_bytes", [4, 31, 32, 33, 64])
    def test_every_digest_width(self, digest_bytes):
        fn = PasswordSearch(b"s", digest_bytes=digest_bytes)
        for xs in (range(250, 260), [255, 256, 70_000]):
            assert fn.evaluate_many(xs) == expected(fn, xs)

    def test_empty_batches(self):
        assert FN.evaluate_many(range(0)) == FN.evaluate_many([]) == []

    @pytest.mark.parametrize("xs", [range(-3, 5), [-1, 0, 1], range(-1, 0)], ids=str)
    def test_negative_inputs_are_task_errors(self, xs):
        with pytest.raises(TaskError):
            FN.evaluate_many(xs)


class TestFixedWidthTails:
    INDICES = [9, 2, 2**40, 0, 7, 3, 2**64 - 1, 9]

    @pytest.mark.parametrize("result_size", [1, 16, 32, 33, 64])
    def test_zero_guess_on_unsorted_indices(self, result_size):
        got = ZeroGuess().guess_many(self.INDICES, None, None, result_size, b"salt")
        assert got == [
            ref_guess(ZeroGuess(), index, None, result_size, b"salt")
            for index in self.INDICES
        ]

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    def test_bytes_at_any_width(self, width):
        values = [0, 1, 200, (1 << 8 * width) - 1]
        assert PrfPrefix(b"a", b"b").fixed_bytes_many(values, width, 20) == [
            ref_prf_bytes(b"a", b"b", v.to_bytes(width, "big"), n_bytes=20)
            for v in values
        ]

    def test_a_value_wider_than_the_width_is_refused(self):
        with pytest.raises(OverflowError):
            PrfPrefix(b"a").fixed_bytes_many([256], 1)


class TestIntMany:
    N = 64
    PARTS = (b"dprime", b"shape", b"")

    def bounds(self):
        # Bounds of 2..4096, with 2**63 + 1 (which rejects about every
        # other draw) every seventh item from the middle of the batch on.
        return [
            2**63 + 1 if i >= self.N // 2 and i % 7 == 0 else 2 + i * 97 % 4095
            for i in range(self.N)
        ]

    def test_the_fallback_runs_mid_batch(self):
        bounds = self.bounds()
        tails = [i.to_bytes(8, "big") for i in range(self.N)]
        want = [
            ref_prf_int(*self.PARTS, tail, bound=bound)
            for tail, bound in zip(tails, bounds)
        ]
        # Some counter-0 draw in the batch really is rejected.
        limit = 2**64 - 2**64 % (2**63 + 1)
        assert any(
            int.from_bytes(ref_prf_bytes(*self.PARTS, tail, bytes(8), n_bytes=8), "big")
            >= limit
            for tail, bound in zip(tails, bounds)
            if bound == 2**63 + 1
        )
        prefix = PrfPrefix(*self.PARTS)
        assert prefix.int_many(tails, bounds) == want
        assert prefix.fixed_int_many(range(self.N), 8, bounds) == want
        assert prefix.fixed_int_many(list(range(self.N)), 8, bounds) == want

    def test_small_bounds_take_one_comprehension(self):
        bounds = [2 + i * 97 % 4095 for i in range(self.N)]
        assert PrfPrefix(*self.PARTS).fixed_int_many(range(self.N), 8, bounds) == [
            ref_prf_int(*self.PARTS, i.to_bytes(8, "big"), bound=bound)
            for i, bound in enumerate(bounds)
        ]

    @pytest.mark.parametrize("bound", [0, -5, 2**64 + 1])
    def test_bad_bounds_still_raise(self, bound):
        bounds = [10, bound, 10]
        with pytest.raises(ValueError):
            PrfPrefix(b"k").fixed_int_many(range(3), 8, bounds)
        with pytest.raises(ValueError):
            PrfPrefix(b"k").int_many([b"a", b"b", b"c"], bounds)


class TestChooseHonest:
    @pytest.mark.parametrize("selection", ["spread", "prefix"])
    @pytest.mark.parametrize("n, ratio", [(1, 0.5), (17, 0.0), (40, 0.3), (300, 0.5), (64, 1.0)])
    def test_ascending_halves_of_the_reference_subset(self, selection, n, ratio):
        cheater = SemiHonestCheater(ratio, selection=selection)
        honest, skipped = cheater._choose_honest(n, "t-7", b"salt")
        want = ref_choose_honest(cheater, n, "t-7", b"salt")
        assert list(honest) == sorted(want)
        assert list(skipped) == sorted(set(range(n)) - want)


class TestProduce:
    @pytest.mark.parametrize(
        "domain",
        [
            RangeDomain(65_280, 65_800),  # 2 → 3 bytes inside the honest subset
            RangeDomain(0, 300),
            ExplicitDomain([3, 1, b"x", 256, "y", 70_000]),
        ],
        ids=["range-2-3", "range-1-2", "explicit"],
    )
    @pytest.mark.parametrize("selection", ["spread", "prefix"])
    def test_a_cheater_places_every_payload(self, domain, selection):
        fn = PasswordSearch()
        cheater = SemiHonestCheater(0.5, selection=selection)
        task = TaskAssignment("t-9", domain, fn)
        work = cheater.produce(task, fn.evaluate, salt=b"s")
        honest = ref_choose_honest(cheater, len(domain), "t-9", b"s")
        assert work.honest_indices == honest
        assert work.leaf_payloads == [
            ref_password(fn, domain[i])
            if i in honest
            else ref_guess(cheater.guesser, i, None, fn.result_size, b"s")
            for i in range(len(domain))
        ]
