import math
import pickle
import re
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lomlab import ranges
from lomlab.cli import sequence_from_json
from lomlab.errors import BadExponentError, ParseError
from lomlab.ranges import (
    INFINITY,
    DimSequence,
    asymptotic_certificate,
    check_isomorphism,
    power_family,
    range_weights,
    replace_head,
    shift_right,
    window_sum,
    witness_violates,
)


def brute_window(seq, lo, hi):
    """Independent oracle: direct summation over the dims tuple, indices below 0 zero."""
    if lo <= 0 <= hi and seq.dims[0] == INFINITY:
        return INFINITY
    return sum(seq.dims[k] for k in range(max(lo, 0), hi + 1))


def brute_inequality_holds(h, k, p, n, m):
    """sum_{n..m} h <= sum_{n-p..m+p} k, evaluated by brute force."""
    lhs = brute_window(h, n, m)
    rhs = brute_window(k, n - p, m + p)
    if rhs == INFINITY:
        return True
    if lhs == INFINITY:
        return False
    return lhs <= rhs


# --- DimSequence ------------------------------------------------------------------

def test_dims_validation():
    with pytest.raises(ValueError):
        DimSequence((1, INFINITY))
    with pytest.raises(ValueError):
        DimSequence((1, -2))
    with pytest.raises(ValueError):
        DimSequence((1, 2.5))
    seq = DimSequence((INFINITY, 1, 4))
    assert seq.horizon == 2 and seq.infinite_head


@pytest.mark.parametrize("dims, message", [
    ((INFINITY, 1, -2), "dims[2] = -2 is not"),
    ((INFINITY,) + (1,) * 100 + (-1,), "dims[101] = -1 is not"),
    ((1, 2.5, 3), "dims[1] = 2.5 is not"),
    ((-1, 2), "dims[0] = -1 is not"),
    ((INFINITY, 1, INFINITY), "INFINITY is only allowed at index 0"),
])
def test_dims_validation_names_the_bad_entry(dims, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        DimSequence(dims)


def test_dims_are_cleaned_to_python_ints():
    seq = DimSequence([INFINITY, 2.0, np.int64(3), True, 5])
    assert seq.dims == (INFINITY, 2, 3, 1, 5)
    assert isinstance(seq.dims, tuple)
    assert [type(d) for d in seq.dims[1:]] == [int] * 4
    assert DimSequence((np.float64(INFINITY), 1)).dims[0] is INFINITY
    assert DimSequence((7, 0, 1)).dims == (7, 0, 1)


def test_window_sum_matches_brute():
    seq = DimSequence((INFINITY, 1, 4, 9, 16))
    for lo in range(-3, 4):
        for hi in range(lo, 5):
            if hi > seq.horizon:
                continue
            assert window_sum(seq, lo, hi) == brute_window(seq, lo, hi)
    with pytest.raises(ValueError):
        window_sum(seq, 0, 10)


def test_range_weights_examples():
    assert range_weights(DimSequence((1, 1))) == [(1.0, 1), (0.5, 1)]
    assert range_weights(DimSequence((0, 3))) == [(1.0, 0), (0.5, 3)]
    w = range_weights(DimSequence((INFINITY, 1, 4)))
    assert w[0] == (1.0, INFINITY)
    assert w[1:] == [(0.5, 1), (0.25, 4)]


def test_shift_right():
    seq = DimSequence((0, 1, 4, 9))
    shifted = shift_right(seq, 2)
    assert shifted.dims == (0, 0, 0, 1, 4, 9)
    with pytest.raises(ValueError):
        shift_right(DimSequence((INFINITY, 1)), 1)


def test_replace_head():
    seq = power_family(2.0, 3)
    assert replace_head(seq, 7).dims == (7, 1, 4, 9) and seq.dims == (INFINITY, 1, 4, 9)
    assert replace_head(seq, 7).values.dtype == np.int64
    assert replace_head(seq, 2 ** 63).values.dtype == object
    with pytest.raises(ValueError, match="not a nonnegative integer"):
        replace_head(seq, -1)


# --- check_isomorphism ----------------------------------------------------------------

def squares(horizon, head=0):
    return DimSequence((head,) + tuple(k * k for k in range(1, horizon + 1)))


def test_identical_isomorphic_at_zero():
    h = squares(60)
    verdict = check_isomorphism(h, h, p_max=5, horizon=60)
    assert verdict.isomorphic and verdict.p == 0


def test_identical_with_infinite_heads():
    h = power_family(2.0, 60)
    verdict = check_isomorphism(h, h, p_max=5, horizon=60)
    assert verdict.isomorphic and verdict.p == 0


def test_shifted_isomorphic_at_exactly_three():
    h = squares(500)
    k = shift_right(squares(497), 3)
    verdict = check_isomorphism(h, k, p_max=10, horizon=500)
    assert verdict.isomorphic and verdict.p == 3
    # oracle: p = 2 really fails somewhere, p = 3 really works on a sample
    found = False
    for n in range(0, 40):
        for m in range(n + 1, 60):
            if not brute_inequality_holds(h, k, 2, n, m) \
                    or not brute_inequality_holds(k, h, 2, n, m):
                found = True
    assert found
    for n in range(0, 30):
        for m in range(n + 1, 50):
            assert brute_inequality_holds(h, k, 3, n, m)
            assert brute_inequality_holds(k, h, 3, n, m)


def test_power_families_non_isomorphic():
    h = power_family(2.0, 2040)
    k = power_family(3.0, 2040)
    verdict = check_isomorphism(h, k, p_max=20, horizon=2000)
    assert verdict.verdict == "non_isomorphic"
    n, m, direction = verdict.witness
    assert direction == "right_exceeds_left"  # cubes outgrow squares
    for p in range(21):
        assert witness_violates(h, k, n, m, p, direction)
        # independent re-check by brute summation
        assert not brute_inequality_holds(k, h, p, n, m)


def test_check_isomorphism_sums_each_sequence_once(monkeypatch):
    h = power_family(2.0, 2020)
    k = power_family(3.0, 2020)
    calls = {"prefix_sums": 0, "_direction_violation": 0}

    def counting(fn, name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(DimSequence, "prefix_sums",
                        counting(DimSequence.prefix_sums, "prefix_sums"))
    monkeypatch.setattr(ranges, "_direction_violation",
                        counting(ranges._direction_violation, "_direction_violation"))
    verdict = check_isomorphism(h, k, p_max=20, horizon=2000)
    assert verdict.verdict == "non_isomorphic"
    # both directions are scanned once, at p_max = 20: the right one fails there,
    # so it fails at every smaller p, and that scan is the witness
    assert calls == {"prefix_sums": 2, "_direction_violation": 2}


def test_symmetry_of_verdicts():
    h = power_family(2.0, 300)
    k = power_family(3.0, 300)
    v1 = check_isomorphism(h, k, p_max=6, horizon=280)
    v2 = check_isomorphism(k, h, p_max=6, horizon=280)
    assert v1.verdict == v2.verdict == "non_isomorphic"
    assert v1.witness[2] != v2.witness[2]  # direction flips

    a = squares(100)
    b = shift_right(squares(98), 2)
    va = check_isomorphism(a, b, p_max=6, horizon=100)
    vb = check_isomorphism(b, a, p_max=6, horizon=100)
    assert va.isomorphic and vb.isomorphic


def test_reflexivity_various():
    for seq in (squares(50), power_family(2.5, 50),
                DimSequence((0, 5, 0, 7, 1)), DimSequence((INFINITY, 2, 2))):
        verdict = check_isomorphism(seq, seq, p_max=3, horizon=min(50, seq.horizon))
        assert verdict.isomorphic and verdict.p == 0


def test_undecided_on_tiny_horizon():
    h = DimSequence((0, 5, 0, 0))
    k = DimSequence((0, 0, 0, 0))
    verdict = check_isomorphism(h, k, p_max=3, horizon=3)
    assert verdict.verdict == "undecided"
    assert verdict.p_max == 3 and verdict.horizon == 3


def test_infinite_head_against_finite_head():
    h = power_family(2.0, 50)
    k = squares(50)
    verdict = check_isomorphism(h, k, p_max=4, horizon=50)
    assert verdict.verdict == "non_isomorphic"
    n, m, direction = verdict.witness
    assert direction == "left_exceeds_right" and n == 0
    for p in range(5):
        assert witness_violates(h, k, n, m, p, direction)


dim_sequences = st.builds(
    lambda dims, head: DimSequence((INFINITY,) * head + tuple(dims[head:])),
    st.lists(st.integers(0, 5), min_size=1, max_size=12),
    st.booleans(),
)


def brute_violations(big, small, p, horizon):
    """Pairs 0 <= n < m within every horizon where ``big`` exceeds ``small`` at
    shift p, and whether any such pair has both windows finite."""
    m_top = min(horizon, big.horizon, small.horizon - p)
    pairs = [(n, m) for m in range(1, m_top + 1) for n in range(m)]
    bad = [(n, m) for n, m in pairs if not brute_inequality_holds(big, small, p, n, m)]
    finite = any(brute_window(big, n, m) != INFINITY
                 and brute_window(small, n - p, m + p) != INFINITY for n, m in pairs)
    return bad, finite


@given(dim_sequences, dim_sequences, st.integers(0, 4), st.integers(2, 14))
@settings(max_examples=400, deadline=None)
def test_check_isomorphism_matches_brute_force(a, b, p_max, horizon):
    verdict = check_isomorphism(a, b, p_max=p_max, horizon=horizon)
    for p in range(p_max + 1):
        bad_ab, finite_ab = brute_violations(a, b, p, horizon)
        bad_ba, finite_ba = brute_violations(b, a, p, horizon)
        if not bad_ab and not bad_ba and finite_ab and finite_ba:
            assert verdict.verdict == "isomorphic" and verdict.p == p
            return
    for direction, big, small, bad in (("left_exceeds_right", a, b, bad_ab),
                                       ("right_exceeds_left", b, a, bad_ba)):
        if bad:
            assert verdict.verdict == "non_isomorphic"
            n, m, got = verdict.witness
            assert got == direction and m == min(m for _, m in bad)
            assert not any(brute_inequality_holds(big, small, p, n, m)
                           for p in range(p_max + 1))
            return
    assert verdict.verdict == "undecided"


def loop_direction_violation(h, k, p, m_max):
    """Reference scan, one Python loop over list prefix sums: the first m whose
    right end exceeds the running minimum of D(n) = ph[n] - pk[max(n - p, 0)]
    over n < m, with the first n attaining that minimum (a strict <)."""
    ph = list(accumulate((0 if d == INFINITY else d for d in h.dims), initial=0))
    pk = list(accumulate((0 if d == INFINITY else d for d in k.dims), initial=0))
    m_top, lo = min(m_max, h.horizon, k.horizon - p), (p + 1 if k.infinite_head else 0)
    if m_top < 1:
        return None, False
    if h.infinite_head and not k.infinite_head:
        return (0, 1), True
    best_n, best_d = None, math.inf
    for m in range(lo + 1, m_top + 1):
        d = ph[m - 1] - (pk[m - 1 - p] if m > p else 0)
        if d < best_d:
            best_n, best_d = m - 1, d
        if ph[m + 1] - pk[m + p + 1] > best_d:
            return (best_n, m), True
    return None, m_top > lo


def reference_check_isomorphism(h, k, p_max, horizon):
    """Both directions scanned by the loop at every p, with no reuse between shifts."""
    for p in range(p_max + 1):
        fail_hk, checked_hk = loop_direction_violation(h, k, p, horizon)
        fail_kh, checked_kh = loop_direction_violation(k, h, p, horizon)
        if fail_hk is None and fail_kh is None and checked_hk and checked_kh:
            return "isomorphic", p, None
    if fail_hk is not None:
        return "non_isomorphic", None, fail_hk + ("left_exceeds_right",)
    if fail_kh is not None:
        return "non_isomorphic", None, fail_kh + ("right_exceeds_left",)
    return "undecided", None, None


@given(dim_sequences, dim_sequences, st.integers(0, 8), st.integers(2, 14))
@settings(max_examples=400, deadline=None)
def test_check_isomorphism_matches_scan_at_every_p(a, b, p_max, horizon):
    verdict = check_isomorphism(a, b, p_max=p_max, horizon=horizon)
    assert (verdict.verdict, verdict.p, verdict.witness) == \
        reference_check_isomorphism(a, b, p_max, horizon)


huge_dim_sequences = st.builds(
    lambda dims, head: DimSequence((INFINITY,) * head + tuple(dims[head:])),
    st.lists(st.one_of(st.integers(0, 5), st.integers(2 ** 62, 2 ** 64)),
             min_size=1, max_size=12),
    st.booleans(),
)


@given(huge_dim_sequences, huge_dim_sequences, st.integers(0, 8), st.integers(2, 14))
@settings(max_examples=300, deadline=None)
def test_check_isomorphism_on_python_ints_matches_scan_at_every_p(a, b, p_max, horizon):
    # entries of 2**62 and more push the prefix sums past int64 into Python ints
    verdict = check_isomorphism(a, b, p_max=p_max, horizon=horizon)
    assert (verdict.verdict, verdict.p, verdict.witness) == \
        reference_check_isomorphism(a, b, p_max, horizon)
    for seq in (a, b):
        sums = seq.prefix_sums()
        big = sum(d for d in seq.dims if d != INFINITY) >= 2 ** 62
        assert sums.dtype == (object if big else np.int64)
        assert sums.tolist() == [0] + [sum(d for d in seq.dims[:i + 1] if d != INFINITY)
                                       for i in range(len(seq.dims))]


def assert_holds(seq, dims):
    """``seq`` is what the tuple constructor builds from ``dims``: the same dims (Python
    ints after the head), prefix sums and dtype, int64 exactly while the total is below
    2**62, with read-only arrays."""
    ref = DimSequence(tuple(dims))
    sums = list(accumulate((0 if d == INFINITY else d for d in dims), initial=0))
    assert seq.dims == ref.dims == tuple(dims)
    assert [type(d) for d in seq.dims[seq.infinite_head:]] == [int] * (len(dims) - seq.infinite_head)
    assert seq.prefix_sums().tolist() == ref.prefix_sums().tolist() == sums
    dtype = object if sums[-1] >= 2 ** 62 else np.int64
    assert seq.values.dtype == seq.prefix_sums().dtype == ref.prefix_sums().dtype == dtype
    assert not seq.values.flags.writeable and not seq.prefix_sums().flags.writeable


# totals at 2**62 - 1 (int64) and 2**62 (object), and int64 sums that wrap: 2**63 to a
# negative, 2**64 back to 0
BOUNDARY_DIMS = [(2 ** 62 - 1,), (2 ** 62,), (INFINITY, 2 ** 61, 2 ** 61 - 1),
                 (INFINITY, 2 ** 61, 2 ** 61), (0, 2 ** 63 - 1), (5, 2 ** 63),
                 (2 ** 62, 2 ** 62), (2 ** 62,) * 4, (INFINITY,)]


@pytest.mark.parametrize("dims", BOUNDARY_DIMS)
def test_boundary_totals_pick_the_dtype_on_every_path(dims):
    seq = DimSequence(dims)
    assert_holds(seq, dims)
    assert_holds(DimSequence(list(dims)), dims)
    for s in (0, 1, 3) if not seq.infinite_head else (0,):
        assert_holds(shift_right(seq, s), (0,) * s + dims)


@given(huge_dim_sequences, st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_tuple_and_shift_paths_match_the_tuple(seq, s):
    assert_holds(seq, seq.dims)
    if seq.infinite_head:
        assert_holds(shift_right(seq, 0), seq.dims)
    else:
        assert_holds(shift_right(seq, s), (0,) * s + seq.dims)


def total_crossing(num):
    """The smallest horizon whose sum of k**num reaches 2**62."""
    total, k = 0, 0
    while total < 2 ** 62:
        k += 1
        total += k ** num
    return k


@given(st.integers(3, 6), st.integers(-2, 1), st.integers(1, 40), st.booleans())
@settings(max_examples=60, deadline=None)
def test_power_family_integer_path_matches_the_tuple(num, offset, small, at_crossing):
    # near the crossing the int64 powers sum to either side of 2**62; the guard keeps
    # every power itself in int64
    horizon = total_crossing(num) + offset if at_crossing else small
    assert horizon ** num < 2 ** 62
    assert_holds(power_family(float(num), horizon),
                 (INFINITY,) + tuple(k ** num for k in range(1, horizon + 1)))


@given(st.sampled_from([2.5, 2.25, 3.5, 2.2, 6.0]), st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_power_family_floor_path_matches_the_tuple(t, horizon):
    if t == 6.0:  # past the int64 guard of k**6, to the floor path
        horizon += int64_guard_horizon(6)
    floor_power = ranges._floor_power_of(t)
    assert_holds(power_family(t, horizon),
                 (INFINITY,) + tuple(floor_power(k) for k in range(1, horizon + 1)))


@given(st.sampled_from([2.0, 3.0, 2.5]), st.integers(1, 30),
       st.one_of(st.integers(0, 5), st.integers(2 ** 62 - 5, 2 ** 64)), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_sequence_from_json_head_and_shift_match_the_tuple(t, horizon, head, shift):
    tail = power_family(t, horizon).dims[1:]
    spec = {"floor_power": t, "horizon": horizon, "head": head}
    assert_holds(sequence_from_json(spec), (head,) + tail)
    assert_holds(sequence_from_json({**spec, "shift": shift}), (0,) * shift + (head,) + tail)
    assert_holds(sequence_from_json({"floor_power": t, "horizon": horizon}), (INFINITY,) + tail)


def test_sequence_from_json_head_at_the_boundary_totals():
    tail = (1, 4, 9)
    for head in (2 ** 62 - 1 - 14, 2 ** 62 - 14, 2 ** 63, 2 ** 64):
        spec = {"floor_power": 2.0, "horizon": 3, "head": head}
        assert_holds(sequence_from_json(spec), (head,) + tail)
        assert_holds(sequence_from_json({**spec, "shift": 2}), (0, 0, head) + tail)
    for head in (-1, -2 ** 64):
        with pytest.raises(ParseError, match=re.escape(f"dims[0] = {head} is not")):
            sequence_from_json({"floor_power": 2.0, "horizon": 3, "head": head})


@given(huge_dim_sequences)
@settings(max_examples=100, deadline=None)
def test_window_sum_matches_brute_on_every_window(seq):
    for lo in range(-3, seq.horizon + 1):
        for hi in range(-3, seq.horizon + 1):
            assert window_sum(seq, lo, hi) == (0 if hi < lo else brute_window(seq, lo, hi))


def test_prefix_sums_are_computed_once_and_read_only():
    for built in (power_family(3.0, 50), DimSequence((0, 2 ** 63, 1)), shift_right(squares(9), 2)):
        for seq in (built, pickle.loads(pickle.dumps(built))):
            assert_holds(seq, built.dims)
            assert seq.prefix_sums() is seq.prefix_sums()
            for array in (seq.values, seq.prefix_sums()):
                with pytest.raises(ValueError):
                    array[0] = 1


def test_witness_violates_never_reads_prefix_sums(corpus, monkeypatch):
    spec = corpus["ranges_power23"]
    h, k = sequence_from_json(spec["left"]), sequence_from_json(spec["right"])
    n, m, direction = check_isomorphism(h, k, spec["p_max"], spec["horizon"]).witness

    def unread(self):
        raise AssertionError("witness_violates read the prefix sums")

    monkeypatch.setattr(DimSequence, "prefix_sums", unread)
    assert witness_violates(h, k, n, m, spec["p_max"], direction)


@given(dim_sequences, dim_sequences, st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_a_witness_violating_at_p_max_violates_at_every_smaller_shift(h, k, p_max):
    # the ranges runner re-verifies a witness at p_max alone and reports it for all p
    witness = check_isomorphism(h, k, p_max, 12).witness
    assume(witness is not None)
    n, m, direction = witness
    assert witness_violates(h, k, n, m, p_max, direction)
    assert all(witness_violates(h, k, n, m, p, direction) for p in range(p_max + 1))


def test_held_direction_with_no_pair_left_is_undecided():
    # h <= k holds at p = 0 and p = 1; at p = 2, k's horizon leaves no pair to
    # check in that direction, while k <= h holds from p = 2 on.
    h = DimSequence((0, 0, 0, 5, 0, 0))
    k = DimSequence((0, 3, 0))
    assert check_isomorphism(h, k, p_max=1, horizon=5).witness == \
        (0, 1, "right_exceeds_left")
    for p_max in (2, 3):
        verdict = check_isomorphism(h, k, p_max=p_max, horizon=5)
        assert verdict.verdict == "undecided"
        assert reference_check_isomorphism(h, k, p_max, 5) == ("undecided", None, None)


# --- power_family ----------------------------------------------------------------------

def test_power_family_examples():
    fam = power_family(2.0, 10)
    assert fam.dims[0] == INFINITY
    assert fam.dims[3] == 9
    assert power_family(2.5, 4).dims[4] == 32  # 4^2.5 = 2^5 exactly
    assert power_family(3.0, 10).dims[10] == 1000


def test_power_family_bad_exponent():
    with pytest.raises(BadExponentError):
        power_family(1.0, 10)
    with pytest.raises(BadExponentError):
        power_family(0.5, 10)


def test_power_family_matches_mpmath():
    for t in (2.0, 2.2, 2.5, 3.7):
        fam = power_family(t, 200)
        for k in (1, 7, 63, 200):
            with mpmath.workdps(40):
                expected = int(mpmath.floor(mpmath.power(k, mpmath.mpf(t))
                                            + mpmath.mpf("1e-25")))
            assert fam.dims[k] == expected


@given(st.integers(2, 500), st.sampled_from([2.5, 3.5, 2.25, 4.5]))
@settings(max_examples=50, deadline=None)
def test_power_family_exact_path_consistent(k, t):
    fam_val = power_family(t, k).dims[k]
    # oracle: largest n with n <= k^t, checked in exact integer arithmetic
    from fractions import Fraction
    frac = Fraction(t)
    assert fam_val ** frac.denominator <= k ** frac.numerator
    assert (fam_val + 1) ** frac.denominator > k ** frac.numerator


def int64_guard_horizon(num):
    """The largest horizon whose num-th power stays below 2**62."""
    return ranges._integer_root(2 ** 62 - 1, num)


@given(st.integers(2, 6), st.integers(-3, 3), st.integers(1, 3000))
@settings(max_examples=60, deadline=None)
def test_power_family_integer_exponent_is_exact(num, offset, horizon):
    # for num >= 4 the horizon sits on either side of the int64 guard (46,340 at
    # most), so both the one-array-op path and the Python-int path are taken; for
    # num = 2 and 3 the guard (2**31 and 1,664,510) is out of reach of a test
    if num >= 4:
        horizon = int64_guard_horizon(num) + offset
    dims = power_family(float(num), horizon).dims
    assert dims[0] == INFINITY
    assert [type(d) for d in dims[1:]] == [int] * horizon
    assert list(dims[1:]) == [ranges._integer_root(k ** num, 1) for k in range(1, horizon + 1)]


# --- asymptotic_certificate --------------------------------------------------------------

def test_asymptotic_certificate_example():
    m0 = asymptotic_certificate(3.0, 2.0, 1, 200)
    assert m0 is not None
    # oracle: exact partial sums by direct loops, checking minimality
    def left(m):
        return sum(int(math.floor(k ** 3)) for k in range(2, m + 1))
    def right(m):
        return sum(int(math.floor(k ** 2)) for k in range(1, m + 2))
    assert left(m0) > right(m0)
    for m in range(2, m0):
        assert left(m) <= right(m)


def test_asymptotic_certificate_requires_order():
    with pytest.raises(BadExponentError):
        asymptotic_certificate(2.0, 2.0, 1, 100)
    with pytest.raises(BadExponentError):
        asymptotic_certificate(2.0, 3.0, 1, 100)


def test_asymptotic_certificate_can_be_absent():
    assert asymptotic_certificate(2.2, 2.0, 5, 12) is None


def test_asymptotic_certificate_monotone_in_p():
    prev = 0
    for p in range(0, 21):
        m0 = asymptotic_certificate(3.0, 2.0, p, 2000)
        assert m0 is not None
        assert m0 >= prev
        prev = m0
