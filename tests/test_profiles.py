import pytest
from hypothesis import Phase, given, settings, strategies as st

from profmatch import Profile, high_weight

from helpers import DenseProfile


profile_entries = st.lists(st.integers(-3, 3), max_size=8)


def test_lex_examples():
    assert Profile([0, 0, 1, -1]) < Profile([0, 0, 1, 0])
    assert Profile([2, 0]) <= Profile([2]) <= Profile([2, 0])
    assert Profile([1, -5]) > Profile([0, 99])


def test_trailing_zeros_insignificant():
    assert Profile([2, 0]) == Profile([2])
    assert hash(Profile([2, 0, 0])) == hash(Profile([2]))
    assert Profile([2, 0]).degree == 1


def test_entries_must_be_integers():
    # Read like an index: 1.5 and "3" are refused, not truncated or parsed,
    # and a bool is the int it stands for.
    for entries in ([1.5, 0.4], ["3", True], [1, None]):
        with pytest.raises(TypeError):
            Profile(entries)
    assert Profile([True, False, 2]) == Profile([1, 0, 2])
    assert [type(v) for _rank, v in Profile([True, 2]).pairs] == [int, int]


def test_degree_and_sign():
    assert Profile().degree == 0
    assert Profile().sign == 0
    assert Profile([0, 0, -1, 2]).degree == 4
    assert Profile([0, 0, -1, 2]).sign == -1
    assert Profile([0, 3]).sign == 1


def test_add_identity_and_subtract():
    p = Profile([1, -2, 3])
    assert p + Profile.zero() == p
    assert p - p == Profile.zero()
    assert Profile([1, 2]) + Profile([0, 0, 5]) == Profile([1, 2, 5])


def test_abs_flips_negative_leader():
    assert Profile([-2, 1, 1, 1, 0, -1]).abs_value() == Profile([2, -1, -1, -1, 0, 1])
    assert Profile([0, 0, 1, -1]).abs_value() == Profile([0, 0, 1, -1])
    assert Profile.zero().abs_value() == Profile.zero()


def test_reverse_negate_example():
    assert Profile([1, 0, 2]).reverse_negate(3) == Profile([-2, 0, -1])


def test_reverse_negate_window_too_small():
    with pytest.raises(ValueError):
        Profile([1, 0, 2]).reverse_negate(2)


def test_padded():
    p = Profile([4, 0, -1])
    assert p.padded(5) == (4, 0, -1, 0, 0)
    with pytest.raises(ValueError):
        p.padded(2)


def test_display():
    assert Profile([6, 2, 1, 2, 2, 3, 0, 0]).display() == "6,2,1,2,2,3"
    assert Profile().display() == "0"


def test_high_weight_golden_values():
    # Base 17 with n = 8.
    assert high_weight(Profile([0, 0, 1, -1]), 8) == 1336336
    assert high_weight(Profile([2, -1, -1, -1, 0, 1]), 8) == 795036688
    assert high_weight(Profile([1, 0, -1, -1, 1]), 8) == 408840208
    assert high_weight(Profile([1, -2, 0, 0, 0, 1]), 8) == 362063824
    assert high_weight(Profile([2, 0, -1, -1, -1, -2, 1, 2]), 8) == 819168496
    assert high_weight(Profile.zero(), 8) == 0


def test_high_weight_rejects_overlong_profile():
    with pytest.raises(ValueError):
        high_weight(Profile([1, 1, 1]), 2)


@given(profile_entries, profile_entries)
def test_lex_matches_high_weight_sign(a, b):
    p, q = Profile(a), Profile(b)
    n = 8
    wp, wq = high_weight(p, n), high_weight(q, n)
    cmp = (p > q) - (p < q)
    assert cmp == (wp > wq) - (wp < wq)


@given(profile_entries, profile_entries, profile_entries)
def test_add_associative_commutative(a, b, c):
    p, q, r = Profile(a), Profile(b), Profile(c)
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)


@given(profile_entries)
def test_abs_idempotent_and_nonneg_leader(a):
    p = Profile(a).abs_value()
    assert p.sign >= 0
    assert p.abs_value() == p


@given(profile_entries)
def test_reverse_negate_involution(a):
    p = Profile(a)
    k = max(p.degree, len(a), 1)
    assert p.reverse_negate(k).reverse_negate(k) == p


@given(profile_entries, profile_entries)
def test_order_total_and_consistent(a, b):
    p, q = Profile(a), Profile(b)
    assert (p < q) + (p == q) + (p > q) == 1
    if p < q:
        assert q > p


def test_foreign_type_comparisons():
    assert Profile([1]) != [1]
    with pytest.raises(TypeError):
        Profile([1]) < 5


# Signed entries padded with trailing zeros, which must not matter.
padded_entries = st.builds(
    lambda es, zeros: es + [0] * zeros,
    st.lists(st.integers(-4, 4), max_size=10),
    st.integers(0, 4),
)


def _agree(a, b, lengths):
    """Every operation on Profile(a), Profile(b) against the dense reference;
    windows are taken from ``lengths``."""
    p, q, dp, dq = Profile(a), Profile(b), DenseProfile(a), DenseProfile(b)
    assert p.elements == dp.elements and tuple(p) == dp.elements
    pairs = ((p + q, dp + dq), (p - q, dp - dq), (-p, -dp), (p.abs_value(), dp.abs_value()))
    for got, want in pairs:
        # Equal pairs, not just equal dense views: a stored zero entry
        # would break equality and hashing.
        assert got.pairs == Profile(want.elements).pairs
    c = dp.cmp(dq)
    assert ((p < q), (p <= q), (p > q), (p >= q)) == (c < 0, c <= 0, c > 0, c >= 0)
    assert (p == q) == (dp == dq) and (p == q) == (c == 0)
    if p == q:
        assert hash(p) == hash(q)
    assert hash(p) == hash(Profile(dp.elements)) == hash(Profile(list(a) + [0, 0]))
    assert (p.sign, p.degree, p.is_zero) == (dp.sign, dp.degree, not dp.elements)
    assert p.display() == dp.display()
    for length in lengths:
        if length >= dp.degree:
            assert p.padded(length) == dp.padded(length)
            assert p.reverse_negate(length).elements == dp.reverse_negate(length).elements
            assert high_weight(p, length) == dp.high_weight(length)
    if dp.degree:
        with pytest.raises(ValueError):
            p.padded(dp.degree - 1)
        with pytest.raises(ValueError):
            p.reverse_negate(dp.degree - 1)
        with pytest.raises(ValueError):
            high_weight(p, dp.degree - 1)


@given(padded_entries, padded_entries, st.integers(0, 16))
def test_sparse_profile_matches_dense_reference(a, b, k):
    degree = len(DenseProfile(a).elements)
    _agree(a, b, (k, degree, degree + 3))


@given(st.lists(padded_entries, max_size=6), st.integers(0, 6))
def test_sum_equals_the_dense_sum(entries, cancelled):
    # Empty lists, and lists whose first few vectors are taken back, so
    # that entries cancel and may leave the zero vector.
    profiles = [Profile(e) for e in entries]
    profiles += [-p for p in profiles[:cancelled]]
    dense = DenseProfile()
    for p in profiles:
        dense += DenseProfile(p.elements)
    want = Profile(dense.elements).pairs
    assert Profile.sum(profiles).pairs == want
    assert Profile.sum(iter(profiles)).pairs == want
    counts = dict(enumerate(dense.padded(dense.degree + 2), start=1))
    assert Profile.from_counts(counts).pairs == want


# Shrinking 100,000-entry dense vectors takes minutes, and two nonzero
# entries are already a small counterexample.
@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(
    st.lists(st.tuples(st.integers(1, 100_000), st.integers(-3, 3)), min_size=2, max_size=2),
    st.lists(st.tuples(st.integers(1, 100_000), st.integers(-3, 3)), min_size=2, max_size=2),
)
def test_sparse_profile_matches_dense_reference_at_degree_100000(a, b):
    # Two nonzero entries at ranks up to 100,000: O(nonzeros) arithmetic on
    # one side, dense tuples of that length on the other.
    def dense(entries):
        out = [0] * 100_000
        for rank, value in entries:
            out[rank - 1] = value
        return out

    _agree(dense(a), dense(b), (100_000,))
