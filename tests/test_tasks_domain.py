"""Tests for input domains and partitioning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DomainError
from repro.tasks import ExplicitDomain, RangeDomain


class TestRangeDomain:
    def test_len_and_items(self):
        dom = RangeDomain(10, 15)
        assert len(dom) == 5
        assert [dom[i] for i in range(5)] == [10, 11, 12, 13, 14]

    def test_iteration(self):
        assert list(RangeDomain(0, 4)) == [0, 1, 2, 3]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            RangeDomain(5, 5)
        with pytest.raises(DomainError):
            RangeDomain(5, 3)

    def test_index_bounds(self):
        dom = RangeDomain(0, 3)
        with pytest.raises(DomainError):
            dom[3]
        with pytest.raises(DomainError):
            dom[-1]

    def test_slice(self):
        dom = RangeDomain(100, 200)
        sub = dom.slice(10, 20)
        assert sub == RangeDomain(110, 120)

    def test_equality_and_hash(self):
        assert RangeDomain(0, 5) == RangeDomain(0, 5)
        assert RangeDomain(0, 5) != RangeDomain(0, 6)
        assert hash(RangeDomain(0, 5)) == hash(RangeDomain(0, 5))

    def test_indices(self):
        assert list(RangeDomain(7, 10).indices()) == [0, 1, 2]


class TestExplicitDomain:
    def test_arbitrary_values(self):
        dom = ExplicitDomain(["mol-a", "mol-b", "mol-c"])
        assert len(dom) == 3
        assert dom[1] == "mol-b"

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ExplicitDomain([])

    def test_slice(self):
        dom = ExplicitDomain([1, 2, 3, 4, 5])
        assert list(dom.slice(1, 4)) == [2, 3, 4]

    def test_equality(self):
        assert ExplicitDomain([1, 2]) == ExplicitDomain([1, 2])
        assert ExplicitDomain([1, 2]) != ExplicitDomain([2, 1])


class TestPartition:
    def test_even_split(self):
        parts = RangeDomain(0, 100).partition(4)
        assert [len(p) for p in parts] == [25, 25, 25, 25]
        assert parts[0][0] == 0
        assert parts[3][24] == 99

    def test_uneven_split_sizes_differ_by_at_most_one(self):
        parts = RangeDomain(0, 10).partition(3)
        assert [len(p) for p in parts] == [4, 3, 3]

    def test_covers_every_input_once(self):
        dom = RangeDomain(0, 37)
        parts = dom.partition(5)
        seen = [x for p in parts for x in p]
        assert seen == list(dom)

    def test_single_part(self):
        parts = RangeDomain(0, 8).partition(1)
        assert len(parts) == 1
        assert list(parts[0]) == list(range(8))

    def test_more_parts_than_inputs_rejected(self):
        with pytest.raises(DomainError):
            RangeDomain(0, 3).partition(4)

    def test_nonpositive_parts_rejected(self):
        with pytest.raises(DomainError):
            RangeDomain(0, 3).partition(0)

    def test_explicit_domain_partition(self):
        dom = ExplicitDomain(list("abcdefg"))
        parts = dom.partition(2)
        assert list(parts[0]) == list("abcd")
        assert list(parts[1]) == list("efg")
        assert list(dom.part(1, 2)) == list("efg")

    @pytest.mark.parametrize("index, n_parts", [(-1, 3), (3, 3), (0, 0), (0, 4)])
    def test_part_refuses_what_has_no_part(self, index, n_parts):
        with pytest.raises(DomainError):
            RangeDomain(0, 3).part(index, n_parts)

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, n, k):
        if k > n:
            return
        parts = RangeDomain(0, n).partition(k)
        sizes = [len(p) for p in parts]
        assert sizes == [n // k + (i < n % k) for i in range(k)]
        assert [RangeDomain(0, n).part(i, k) for i in range(k)] == parts
        flat = [x for p in parts for x in p]
        assert flat == list(range(n))
