"""Top-level classification of transitive matrix algebras.

Three independently computed integers must agree for any transitive algebra:
the commutant dimension, the minimal rank of a nonzero element, and the
density degree.  This module computes all three, produces the interpolation
obstruction witness for the non-real types, and builds the enveloping
commutant algebra End_D(V) that contains the input.  A transitive A is all of
End_D(V): ``engine.min_rank`` checks it on the generators for ``classify``, which then
counts the envelope as n^2 / d and reads density and its witness off D's units and
dim A, and ``envelope`` checks it the same way; nothing here reads A's basis or span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .division import AlgebraType, DivisionStructure
from .engine import (
    MatrixAlgebra,
    commutant,  # noqa: F401 -- unused; perfbench/smoke.py checks the tracer patches it here
    commutes,
    d_frame,
    d_linear_maps,
    is_transitive,
    min_rank,
)
from .errors import NotTransitiveError
from .numeric import DEFAULT_TOL, Tolerance, svd

__all__ = [
    "DensityObstruction",
    "ClassificationReport",
    "classify_type",
    "density_degree",
    "envelope",
    "classify",
]


@dataclass(frozen=True, eq=False)
class DensityObstruction:
    """Certificate that no algebra element can separate x from its unit image.

    No element T of End_D(V) = A can map x to 0 and ``unit_image`` (= W x for a
    structure unit W) to ``target``: ``margin`` is the least residual
    ||(T x, T W x - target)|| / ||target|| over all of End_D(V).
    """

    x: np.ndarray
    unit_image: np.ndarray
    target: np.ndarray
    margin: float


@dataclass(frozen=True)
class ClassificationReport:
    type: AlgebraType
    commutant_dim: int
    min_rank: int
    density_degree: int
    density_witness: Optional[DensityObstruction]
    envelope_dim: int


def _certified(algebra: MatrixAlgebra, tol: Tolerance, seed: int = 0):
    """The transitivity report; NotTransitiveError with its witness when it fails."""
    report = is_transitive(algebra, tol, seed=seed)
    if not report.transitive:
        raise NotTransitiveError("algebra has a nontrivial invariant subspace",
                                 witness=report.witness)
    return report


def classify_type(algebra: MatrixAlgebra, tol: Tolerance = DEFAULT_TOL) -> AlgebraType:
    """Type of a transitive algebra, from the dimension of its commutant."""
    return _certified(algebra, tol).structure.type


def _obstruction_witness(w: np.ndarray, seed: int) -> DensityObstruction:
    """The infeasible pair (x, W x) for the unit W, with its margin in closed form.

    Every T in End_D(V) commutes with W and sends x to any y, so the least residual
    of T x = 0, T W x = t over End_D(V) is min_y ||(y, W y - t)||.  With t the left
    singular vector of W's smallest singular value s it is 1 / hypot(1, s).  W^2 = -I
    pairs each singular value with its inverse, so s <= 1 and the margin is at least
    1/sqrt(2) however badly conditioned a similarity was applied to the algebra.
    """
    u, s, _ = svd(w)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(len(w))
    x /= np.linalg.norm(x)
    return DensityObstruction(x=x, unit_image=w @ x, target=u[:, -1],
                              margin=float(1 / np.hypot(1, s[-1])))


def _closed_form_residuals(units: list, xs: np.ndarray, ys: np.ndarray,
                           tol: Tolerance) -> np.ndarray:
    """Worst residual max_i ||T x_i - y_i|| of each trial's D-linear interpolant:
    T^T = X_D^-1 Y_D over the rows x_i, U x_i, ... and y_i, U y_i, ... for the units
    U, refined once from the rows r_i, U r_i of the residuals r_i = y_i - T x_i
    (Y_D - X_D T^T would put back the unit rows' rounding).  Each trial's X_D is
    inverted once, for both.  Infinite for every trial where an X_D has no inverse or
    an interpolant does not commute with the units."""
    try:
        x_d_inv = np.linalg.inv(d_frame(xs, units))
    except np.linalg.LinAlgError:  # X_D singular or not square: a structure that does not fit
        return np.full(len(xs), np.inf)

    def interpolant(rows):  # T with T x_i = rows_i over D
        return np.swapaxes(x_d_inv @ d_frame(rows, units), 1, 2)

    t = interpolant(ys)
    t += interpolant(ys - xs @ np.swapaxes(t, 1, 2))
    if not commutes(t, units, tol):
        return np.full(len(xs), np.inf)
    return np.linalg.norm(ys - xs @ np.swapaxes(t, 1, 2), axis=2).max(axis=1)


def density_degree(algebra: MatrixAlgebra, structure: DivisionStructure,
                   trials: int = 25, tol: Tolerance = DEFAULT_TOL, seed: int = 0):
    """Density degree k (the algebra is 1/k-dense) with an obstruction witness.

    Precondition: A commutes with D's units, which ``min_rank`` checks and ``classify``
    calls first.  Density checks dim A * k = n^2 itself (NotTransitiveError otherwise),
    so A is End_D(V), and the witness's margin, a minimum over End_D(V), is one over A.

    Verification: for ``trials`` seeded random instances, n/k random vectors must
    interpolate onto n/k random targets exactly.  All trials are interpolated in one
    batch by the D-linear maps Y_D X_D^-1, each X_D inverted once, which lie in
    End_D(V) = A when they commute with the units.  An invertible X_D fixes the
    interpolant in End_D(V), so it is the only one in A and nothing is left to solve:
    the trials test, from D's units alone, that the seeded vectors are D-independent
    (X_D inverts) and that their interpolant reaches the targets within
    ``interpolation_ok``.  The first trial that misses raises NoSolutionError with its
    residual.  For k > 1 the witness is read off the first unit W alone.

    Returns ``(k, witness_or_None)``.
    """
    k = structure.commutant_dim
    n = algebra.ambient_dim
    if algebra.dim * k != n * n:
        raise NotTransitiveError("the algebra is not End_D(V) for the recognized commutant D")
    units = list(structure.units)
    rng = np.random.default_rng(seed)

    n_targets = n // k
    # One draw holds each trial's vectors and then its targets, in the stream
    # order of drawing them trial by trial.
    draws = rng.standard_normal((trials, 2 * n_targets, n))
    xs, targets = draws[:, :n_targets], draws[:, n_targets:]
    targets = targets / np.linalg.norm(targets, axis=2, keepdims=True)
    worst = _closed_form_residuals(units, xs, targets, tol)
    max_y = np.linalg.norm(targets, axis=2).max(axis=1)
    misses = np.flatnonzero(~tol.interpolation_ok(worst, max_y))
    if misses.size:  # the first trial that misses raises
        tol.check_interpolation(worst[misses[0]], max_y[misses[0]])
    return k, (_obstruction_witness(units[0], seed) if k > 1 else None)


def envelope(algebra: MatrixAlgebra, structure: DivisionStructure,
             tol: Tolerance = DEFAULT_TOL) -> MatrixAlgebra:
    """Enveloping algebra End_D(V): everything commuting with the structure units.

    The input must be End_D(V) itself: its generators commute with D's units and
    dim A * d = n^2, or NotTransitiveError (without a witness; ``is_transitive``
    finds one).  With the D-frame check of ``d_linear_maps`` this certifies that A
    is transitive and contained in the result, so no commutant is computed.  For the
    complex type this is the commutant algebra of W, for the quaternion type of the
    unit triple, and for the real type the full matrix algebra M_n(R).
    """
    n = algebra.ambient_dim
    if not commutes(algebra.generators, structure.units, tol) \
            or algebra.dim * structure.commutant_dim != n * n:
        raise NotTransitiveError("the algebra is not End_D(V) for the recognized commutant D")
    return MatrixAlgebra(n, d_linear_maps(structure.units, n, tol), unital=True)


def classify(algebra: MatrixAlgebra, tol: Tolerance = DEFAULT_TOL,
             density_trials: int = 25, seed: int = 0) -> ClassificationReport:
    """Full classification pipeline for a transitive algebra.

    The commutant is computed and recognized at most once, by the transitivity
    certificate, which reads M_n(R) off its count alone.  ``min_rank`` checks once
    that A = End_D(V), raising NotTransitiveError otherwise, so the envelope End_D(V)
    (the double commutant A'' of a transitive A) is counted as n^2 / d without
    building it.
    """
    report = _certified(algebra, tol, seed)
    n, d = algebra.ambient_dim, report.structure.commutant_dim
    rank = min_rank(algebra, report.structure, tol)
    k, witness = density_degree(algebra, report.structure, density_trials, tol, seed)
    return ClassificationReport(
        type=report.structure.type,
        commutant_dim=d,
        min_rank=rank,
        density_degree=k,
        density_witness=witness,
        envelope_dim=n * n // d,
    )
