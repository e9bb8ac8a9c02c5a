"""Top-level classification of transitive matrix algebras.

Three independently computed integers must agree for any transitive algebra:
the commutant dimension, the minimal rank of a nonzero element, and the
density degree.  This module computes all three, produces the interpolation
obstruction witness for the non-real types, and builds the enveloping
commutant algebra End_D(V) that contains the input.  A transitive A is all of
End_D(V): ``engine.min_rank`` checks it for ``classify``, which then counts the
envelope as n^2 / d, and ``envelope`` checks it the same way before it builds one.
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
    strict_interpolate,
)
from .errors import NotTransitiveError
from .numeric import DEFAULT_TOL, Tolerance, solve_least_squares, svd

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
    """Certificate that one algebra element cannot separate x from its unit image.

    No element T of the algebra can map x to 0 and ``unit_image`` (= W x for a
    structure unit W) to ``target``: the normalized least-squares residual of
    that interpolation system over the whole coefficient space is ``margin``.
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


def _obstruction_witness(algebra: MatrixAlgebra, structure: DivisionStructure,
                         tol: Tolerance, seed: int) -> DensityObstruction:
    """Build the infeasible pair (x, W x) with the largest normalized margin.

    The target is chosen along the smallest singular direction of the unit W,
    which keeps the margin at least 1/sqrt(2) no matter how badly conditioned
    a similarity was applied to the algebra.
    """
    n = algebra.ambient_dim
    w = structure.units[0]
    u, _, _ = svd(w)
    target = u[:, -1]  # left singular vector of the smallest singular value
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    wx = w @ x

    system = np.vstack([(algebra.basis @ x).T, (algebra.basis @ wx).T])
    rhs = np.concatenate([np.zeros(n), target])
    _, residual = solve_least_squares(system, rhs, tol)
    margin = residual / np.linalg.norm(target)
    return DensityObstruction(x=x, unit_image=wx, target=target, margin=float(margin))


def _closed_form_residuals(algebra: MatrixAlgebra, units: list, xs: np.ndarray,
                           ys: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Worst residual max_i ||T x_i - y_i|| of each trial's D-linear interpolant:
    T^T = X_D^-1 Y_D over the rows x_i, U x_i, ... and y_i, U y_i, ... for the units
    U, projected onto the algebra's ``span`` and refined once from the rows r_i, U r_i
    of the residuals r_i = y_i - T x_i (Y_D - X_D T^T would put back the unit rows'
    rounding).  Each trial's X_D is inverted once, for both.  Infinite where X_D has
    no inverse."""
    n, span = algebra.ambient_dim, algebra.span
    try:
        x_d_inv = np.linalg.inv(d_frame(xs, units))
    except np.linalg.LinAlgError:  # X_D singular or not square: a structure that does not fit
        return np.full(len(xs), np.inf)

    def interpolant(rows):  # T with T x_i = rows_i over D, projected onto the span
        t = np.swapaxes(x_d_inv @ d_frame(rows, units), 1, 2).reshape(len(rows), -1)
        return ((t @ span.T) @ span).reshape(-1, n, n)

    t = interpolant(ys)
    t += interpolant(ys - xs @ np.swapaxes(t, 1, 2))
    return np.linalg.norm(ys - xs @ np.swapaxes(t, 1, 2), axis=2).max(axis=1)


def density_degree(algebra: MatrixAlgebra, structure: DivisionStructure,
                   trials: int = 25, tol: Tolerance = DEFAULT_TOL, seed: int = 0):
    """Density degree k (the algebra is 1/k-dense) with an obstruction witness.

    Verification: for ``trials`` seeded random instances, n/k random vectors must
    interpolate onto n/k random targets exactly.  Each trial is interpolated by the
    closed-form D-linear map Y_D X_D^-1 projected onto the algebra's stored ``span``,
    all trials in one batch, each X_D inverted once.  Only a trial whose residual
    misses the threshold is solved again by ``strict_interpolate`` on the same
    vectors; its least-squares residual is the minimum over the algebra, so it
    decides the trial and is what a failure reports.
    A failure is raised for the first failing trial.  For k > 1 an infeasible
    witness pair is produced as well.

    Returns ``(k, witness_or_None)``.
    """
    k = structure.commutant_dim
    n = algebra.ambient_dim
    units = list(structure.units)
    rng = np.random.default_rng(seed)

    n_targets = n // k
    # One draw holds each trial's vectors and then its targets, in the stream
    # order of drawing them trial by trial.
    draws = rng.standard_normal((trials, 2 * n_targets, n))
    xs, targets = draws[:, :n_targets], draws[:, n_targets:]
    targets = targets / np.linalg.norm(targets, axis=2, keepdims=True)
    worst = _closed_form_residuals(algebra, units, xs, targets, tol) if trials else np.zeros(0)
    hits = tol.interpolation_ok(worst, np.linalg.norm(targets, axis=2).max(axis=1))
    for trial in np.flatnonzero(~hits):  # least squares on the same vectors decides a miss
        strict_interpolate(algebra, list(zip(xs[trial], targets[trial])), tol)

    witness = None
    if k > 1:
        witness = _obstruction_witness(algebra, structure, tol, seed)
    return k, witness


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
