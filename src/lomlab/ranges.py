"""Dimension-sequence calculus for operator-range isomorphism.

A dense operator range is modeled by the sequence dim H_k of its graded
pieces, with weight 2^-k attached to level k; index 0 may carry an infinite
dimension.  Two ranges are isomorphic iff there is a shift p making the
windowed dimension sums of each sequence dominate the other's.  The check
over a finite horizon is semi-decidable: the verdict records exactly what was
established (a working p, a witness pair violating every p up to the bound,
or undecided with the search bounds).

All partial sums are exact integer arithmetic, on int64 arrays while they fit
and on arrays of Python ints past that, taken once per sequence; witnesses can
be re-verified by independent summation.  ``mpmath`` is imported only by
``_floor_power_of``, for exponents whose exact ratio has a denominator above 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadExponentError

__all__ = [
    "INFINITY",
    "DimSequence",
    "IsoVerdict",
    "range_weights",
    "check_isomorphism",
    "power_family",
    "asymptotic_certificate",
    "shift_right",
    "window_sum",
    "witness_violates",
]

INFINITY = math.inf


@dataclass(frozen=True, init=False, eq=False)
class DimSequence:
    """Nonnegative integer dimensions indexed from 0; only index 0 may be INFINITY.

    Indices beyond the materialized horizon are unknown (not zero); indices
    below 0 are implicitly zero.  ``values`` keeps the dims as one read-only
    exact integer array, an infinite head as 0 with ``infinite_head`` set: int64
    while the total stays below 2**62, so every sum and difference of entries
    fits too, and Python ints (``dtype=object``) past that.  ``dims`` is the
    tuple of Python ints, with INFINITY for an infinite head, built when read.
    """

    values: np.ndarray
    infinite_head: bool

    def __init__(self, dims):
        dims = tuple(dims)
        if not dims:
            raise ValueError("a dimension sequence needs at least one entry")
        head = bool(dims[0] == INFINITY)
        tail = dims[head:]
        if set(map(type, tail)) != {int}:  # clean to Python ints, exactly
            for idx, d in enumerate(tail, head):
                if d == INFINITY:
                    raise ValueError("INFINITY is only allowed at index 0")
                if int(d) != d or d < 0:
                    raise ValueError(f"dims[{idx}] = {d!r} is not a nonnegative integer")
            tail = tuple(map(int, tail))
        values = (0,) * head + tail
        array = np.array(values)  # int64 when every entry fits
        self._seal(array if array.dtype == np.int64 else np.array(values, dtype=object), head)

    @classmethod
    def _from_array(cls, values: np.ndarray, infinite_head: bool = False) -> DimSequence:
        """Sequence of a fresh 1-D int64 array, or an object array of Python ints
        whose total is 2**62 or more, which it takes over; entry 0 stands for the
        infinite head when ``infinite_head``."""
        seq = cls.__new__(cls)
        seq._seal(values, infinite_head)
        return seq

    def _seal(self, values: np.ndarray, infinite_head: bool):
        """The one storage path: check ``values``, pick the dtype, sum once."""
        if values.min() < 0:
            idx = int(np.argmax(values < 0))
            raise ValueError(f"dims[{idx}] = {int(values[idx])!r} is not a nonnegative integer")
        sums = np.cumsum(np.concatenate(([0], values)))
        # the terms are nonnegative, so an int64 sum that wraps first reads negative
        if sums.dtype != object and (sums[-1] >= 2 ** 62 or sums.min() < 0):
            values = values.astype(object)
            sums = np.cumsum(np.concatenate(([0], values)))
        values.flags.writeable = sums.flags.writeable = False
        for name, value in (("values", values), ("infinite_head", infinite_head), ("_sums", sums)):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # rebuilt from the tuple, so a copy's arrays are read-only too
        return DimSequence, (self.dims,)

    @property
    def dims(self) -> tuple:
        return (INFINITY,) * self.infinite_head + tuple(self.values[self.infinite_head:].tolist())

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def prefix_sums(self) -> np.ndarray:
        """Exact integer prefix sums, from 0, with the infinite head counted as
        zero, in the dtype of ``values``: one read-only array, computed once."""
        return self._sums


def window_sum(seq: DimSequence, lo: int, hi: int):
    """Exact sum of dims over indices lo..hi (inclusive), by direct summation.

    Negative indices contribute zero; any window containing an infinite head
    is INFINITY.  Raises if the window runs past the materialized horizon.
    """
    if hi > seq.horizon:
        raise ValueError(f"window end {hi} beyond the materialized horizon {seq.horizon}")
    if hi < max(lo, 0):  # an empty window, or one of negative indices only
        return 0
    if lo <= 0 and seq.infinite_head:
        return INFINITY
    return sum(seq.values[max(lo, 0):max(hi + 1, 0)].tolist())


@dataclass(frozen=True)
class IsoVerdict:
    """Outcome of the windowed-sum comparison.

    ``verdict`` is one of "isomorphic" (with the smallest working shift p),
    "non_isomorphic" (with a witness pair (n, m) and the direction whose sum
    is too large, valid for every p <= p_max), or "undecided".
    """

    verdict: str
    p: Optional[int] = None
    witness: Optional[tuple[int, int, str]] = None  # (n, m, direction)
    p_max: int = 0
    horizon: int = 0

    @property
    def isomorphic(self) -> bool:
        return self.verdict == "isomorphic"


def range_weights(seq: DimSequence):
    """Diagonal model of the range-defining operator: [(2^-k, dims[k])]."""
    return [(2.0 ** (-k), d) for k, d in enumerate(seq.dims)]


def _pair_bounds(h: DimSequence, k: DimSequence, p: int, m_max: int):
    """``(m_top, lo)``: the largest m, and the smallest n with both windows
    finite, of the pairs on which h is checked against k at shift p."""
    return min(m_max, h.horizon, k.horizon - p), (p + 1 if k.infinite_head else 0)


def _direction_violation(h: DimSequence, k: DimSequence, ph: np.ndarray, pk: np.ndarray,
                         p: int, m_max: int):
    """First pair (n, m) with sum_{n..m} h > sum_{n-p..m+p} k, else None.

    ``ph`` and ``pk`` are the prefix sums of h and k.  Only pairs whose windows
    stay within both materialized horizons are examined.
    """
    m_top, lo = _pair_bounds(h, k, p, m_max)
    if m_top <= lo:  # lo = 0 unless k's head is infinite
        return None
    if h.infinite_head and not k.infinite_head:
        # n = 0 makes the left window infinite while the right stays finite.
        return 0, 1

    # A finite pair n < m violates when ph[m+1] - pk[m+p+1] exceeds
    # D(n) = ph[n] - pk[max(n-p, 0)], so the running minimum of D over n < m
    # decides every m, and its first argmin is the witness n.  Pairs from n = lo
    # on have both windows finite: an infinite right head satisfies every
    # n <= p, which covers n = 0 of an infinite left head (a finite right head
    # with one returned above).
    d = ph[lo:m_top] - pk[np.maximum(np.arange(lo - p, m_top - p), 0)]  # n = lo..m_top-1
    ends = ph[lo + 2:m_top + 2] - pk[lo + p + 2:m_top + p + 2]  # m = lo+1..m_top
    bad = np.flatnonzero(ends > np.minimum.accumulate(d))
    if not len(bad):
        return None
    i = int(bad[0])
    return lo + int(np.argmin(d[:i + 1])), lo + 1 + i


def check_isomorphism(h: DimSequence, k: DimSequence, p_max: int, horizon: int) -> IsoVerdict:
    """Compare two dimension sequences over all window pairs up to ``horizon``.

    The verdict is "isomorphic" at the smallest p in 0..p_max at which both
    directional inequalities hold on every checkable pair, "non_isomorphic" with
    one witness pair violating a direction for every p <= p_max, and "undecided"
    when neither can be established within the materialized horizons.

    A direction that holds at p holds at every larger p: the checkable pairs at
    p + 1 are a subset of those at p, the dominating window at p + 1 contains the
    one at p and every dim is nonnegative, and the early (0, 1) violation does
    not depend on p.  So both directions are scanned at p_max first, and a
    failure there is the witness.  Otherwise each direction's smallest holding
    shift is found by scanning p = 0, 1, ...; both hold from the larger of the two
    on, which is the verdict if a finite pair of each direction is still
    checkable there (read off the pair bounds, which only shrink with p).
    """
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    ph = h.prefix_sums()
    pk = k.prefix_sums()
    directions = ((h, k, ph, pk, "left_exceeds_right"), (k, h, pk, ph, "right_exceeds_left"))
    for big, small, pb, ps, direction in directions:
        fail = _direction_violation(big, small, pb, ps, p_max, horizon)
        if fail is not None:
            return IsoVerdict("non_isomorphic", witness=fail + (direction,),
                              p_max=p_max, horizon=horizon)
    p = max(next((q for q in range(p_max)
                  if _direction_violation(big, small, pb, ps, q, horizon) is None), p_max)
            for big, small, pb, ps, _ in directions)
    if all(m_top > lo for m_top, lo in (_pair_bounds(big, small, p, horizon)
                                        for big, small, *_ in directions)):
        return IsoVerdict("isomorphic", p=p, p_max=p_max, horizon=horizon)
    return IsoVerdict("undecided", p_max=p_max, horizon=horizon)


def witness_violates(h: DimSequence, k: DimSequence, n: int, m: int, p: int,
                     direction: str) -> bool:
    """Re-check a witness pair at shift p by direct summation (no prefix arrays)."""
    if direction == "left_exceeds_right":
        big, small = h, k
    elif direction == "right_exceeds_left":
        big, small = k, h
    else:
        raise ValueError(f"unknown direction {direction!r}")
    lhs = window_sum(big, n, m)
    rhs = window_sum(small, n - p, m + p)
    if lhs == INFINITY:
        return rhs != INFINITY
    if rhs == INFINITY:
        return False
    return lhs > rhs


def _integer_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) by Newton iteration on integers."""
    if x < 0 or n < 1:
        raise ValueError("integer root needs x >= 0 and n >= 1")
    if x in (0, 1) or n == 1:
        return x
    g = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        ng = ((n - 1) * g + x // g ** (n - 1)) // n
        if ng >= g:
            break
        g = ng
    while g ** n > x:
        g -= 1
    while (g + 1) ** n <= x:
        g += 1
    return g


def _floor_power_of(t: float):
    """The function k -> exact floor(k ** t) for k >= 1, with t read once.

    Exponents whose exact ratio num/den has den <= 64 go through an integer
    root of k**num (exact, so integer-valued powers like 4**2.5 floor
    correctly); other exponents are evaluated with 50-digit working precision
    and a guard band.
    """
    num, den = t.as_integer_ratio()
    if den <= 64:
        return lambda k: _integer_root(k ** num, den)

    import mpmath

    def floor_power(k: int) -> int:
        with mpmath.workdps(50):
            val = mpmath.power(k, mpmath.mpf(t))
            return int(mpmath.floor(val + mpmath.mpf("1e-30")))
    return floor_power


def power_family(t: float, horizon: int) -> DimSequence:
    """Sequence with an infinite head and dims[k] = floor(k^t) for k >= 1."""
    if not t > 1:
        raise BadExponentError(f"exponent must exceed 1, got {t}")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    num, den = t.as_integer_ratio()
    if den == 1 and horizon ** num < 2 ** 62:  # floor(k^t) = k^num, exact in int64
        return DimSequence._from_array(np.arange(horizon + 1, dtype=np.int64) ** num, True)
    floor_power = _floor_power_of(t)
    return DimSequence((INFINITY, *(floor_power(k) for k in range(1, horizon + 1))))


def asymptotic_certificate(t: float, r: float, p: int, horizon: int) -> Optional[int]:
    """Smallest m <= horizon with sum_{k=p+1..m} floor(k^t) > sum_{k=1..m+p} floor(k^r).

    Such an m concretely violates the window inequality at shift p for the two
    power families; absence within the horizon is reported as None, not as
    equality of the families.
    """
    if not (t > r > 1):
        raise BadExponentError(f"need t > r > 1, got t={t}, r={r}")
    if p < 0:
        raise ValueError("p must be nonnegative")
    floor_t, floor_r = _floor_power_of(t), _floor_power_of(r)
    left = 0
    right = sum(floor_r(k) for k in range(1, p + 1))
    for m in range(p + 1, horizon + 1):
        left += floor_t(m)
        right += floor_r(m + p)
        if left > right:
            return m
    return None


def shift_right(seq: DimSequence, s: int) -> DimSequence:
    """New sequence with dims'[k] = dims[k - s] (zeros in front).

    Only defined for finite-headed sequences: shifting would move an infinite
    head to a positive index.
    """
    if s < 0:
        raise ValueError("shift must be nonnegative")
    if seq.infinite_head and s > 0:
        raise ValueError("cannot shift a sequence with an infinite head")
    return DimSequence._from_array(
        np.concatenate((np.zeros(s, seq.values.dtype), seq.values)), seq.infinite_head)
