"""Tolerant dense real linear algebra: the substrate for every other module.

All rank decisions in this package reduce to a singular-value zero test, so
the cutoff policy lives here and is threaded explicitly through every
operation.  Matrices are plain float64 ndarrays treated as immutable values:
operations never modify their arguments and always return fresh arrays.  Inputs
are checked finite only here, and every (k, n, n) stack (a basis, D's units, a
group representation) is read once, by ``as_stack``.
``scipy.linalg`` is imported only by ``svd``'s ``gesvd`` retry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoSolutionError, NonFiniteError, ShapeMismatchError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "as_vector",
    "as_stack",
    "frobenius_norms",
    "rank_of",
    "nullspace_of",
    "solve_least_squares",
    "orthonormal_rows",
]


# A similarity of condition kappa amplifies commutator and interpolation noise
# to ~kappa^2 * machine-eps; budgeting for kappa up to 1e3 keeps genuine
# commutant directions (noise floor ~1e-7) far below non-commuting ones.
_CONDITIONING_BUDGET = 1e3
# engine.commutant adds spin vectors while s_n < _CYCLIC_FLOOR * s_1 for their word
# matrix [w_i x_j]: X = Psi Phi^+ then amplifies the kernel's rounding at most
# sqrt(budget)-fold, so the two solves together stay within the budget.
_CYCLIC_FLOOR = _CONDITIONING_BUDGET ** -0.5
# A quaternion twist is singular when s_min <= _TWIST_RCOND * max(1, s_max).
_TWIST_RCOND = 1e-12
# A cluster point's conjugate is present within _CONJUGATE_MATCH * max(1, |c|).
_CONJUGATE_MATCH = 1e-8


@dataclass(frozen=True)
class Tolerance:
    """Zero-test policy: a singular value s is zero iff s <= max(abs_eps, rel_eps * s_max).

    Every threshold in lomlab is a method here; each acceptance test multiplies
    a cutoff by the rounding error its residual accumulates.
    """

    rel_eps: float = 1e-9
    abs_eps: float = 1e-12

    def __post_init__(self):
        # NaN fails every comparison, so it is rejected with the infinities
        if not 0 < self.rel_eps < math.inf:
            raise ValueError(f"rel_eps must be positive and finite, got {self.rel_eps!r}")
        if not 0 <= self.abs_eps < math.inf:
            raise ValueError(f"abs_eps must be nonnegative and finite, got {self.abs_eps!r}")

    def cutoff(self, scale):
        """Absolute cutoff for quantities whose natural scale is ``scale``; elementwise
        for an array of scales."""
        if isinstance(scale, np.ndarray):
            return np.maximum(self.abs_eps, self.rel_eps * scale)
        return max(self.abs_eps, self.rel_eps * float(scale))

    def rank(self, s, budget: float = 1.0) -> int:
        """Count of the descending singular values ``s`` above ``cutoff(s[0] * budget)``."""
        return int(np.count_nonzero(s > self.cutoff(float(s[0]) * budget))) if len(s) else 0

    def is_zero(self, value, scale: float) -> bool:
        """``value <= cutoff(scale)``: a norm of size ``scale`` with no error to budget."""
        return value <= self.cutoff(scale)

    def residual_ok(self, residual, scale: float = 1.0):
        """``residual <= cutoff(1) * scale * 1e3``: a least-squares residual of a
        quantity of size ``scale``, 1e3 for the solve's rounding (elementwise)."""
        return residual <= self.cutoff(1.0) * scale * 1e3

    def relation_ok(self, residual, scale, n: int):
        """``residual <= cutoff(scale) * n * 10``: a commutator or relation of
        n x n matrices with products of size ``scale``, each entry a sum of n
        (elementwise)."""
        return residual <= self.cutoff(scale) * n * 10

    def leak_ok(self, leak, scale, n: int):
        """``leak <= cutoff(scale) * n * 100``: a residual formed through a projection
        or a chain of products (a subspace leak, the quaternion group relations;
        elementwise)."""
        return leak <= self.cutoff(scale) * n * 100

    def spectral_floor(self, scale: float) -> float:
        """``10 * cutoff(scale)``: eigenvalue moduli and gaps at or below it are zero."""
        return 10 * self.cutoff(scale)

    def interpolation_ok(self, worst, max_y):
        """``worst <= cutoff(max_y * _CONDITIONING_BUDGET)``: the worst residual of
        T x_i = y_i, max_y the largest target norm (elementwise, one per trial)."""
        return worst <= self.cutoff(max_y * _CONDITIONING_BUDGET)

    def check_interpolation(self, worst: float, max_y: float) -> None:
        """Raise NoSolutionError unless ``interpolation_ok(worst, max_y)``."""
        if not self.interpolation_ok(worst, max_y):
            threshold = self.cutoff(max_y * _CONDITIONING_BUDGET)
            raise NoSolutionError(
                f"interpolation infeasible (residual {worst:.3e} > {threshold:.3e})",
                residual=worst,
            )


DEFAULT_TOL = Tolerance()


def svd(a, full_matrices: bool = True, compute_uv: bool = True):
    """``np.linalg.svd``, retried with LAPACK ``gesvd`` where it fails.

    numpy uses the divide-and-conquer routine ``gesdd``, which on rare inputs
    stops with "SVD did not converge" although the QR-iteration routine
    ``gesvd`` converges on the same matrix.  Only those inputs take the
    retry, so every other result keeps its bits.  ``a`` is one 2-d matrix.
    """
    try:
        return np.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        import scipy.linalg
        return scipy.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv,
                                lapack_driver="gesvd")


def as_matrix(m, square: bool = False) -> np.ndarray:
    """Coerce to a finite float64 2-d array (copying), validating shape."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeMismatchError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    if square and a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_vector(v) -> np.ndarray:
    """Coerce to a finite float64 1-d array (copying)."""
    a = np.array(v, dtype=float).reshape(-1)
    if a.size < 1:
        raise ShapeMismatchError("expected a nonempty vector")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("vector contains NaN or Inf entries")
    return a


def as_stack(mats, n: int | None = None) -> np.ndarray:
    """Copy to a finite, read-only float64 (k, n, n) stack, n >= 1 (any one n if None);
    an empty sequence is (0, n, n).  ShapeMismatchError for ragged, non-square or
    wrong-n input, NonFiniteError for NaN or Inf."""
    try:  # a ragged sequence raises ValueError
        a = np.array(mats, dtype=float)
    except ValueError as exc:
        raise ShapeMismatchError(f"not a stack of equal-shape matrices: {exc}") from exc
    if n is not None and a.shape[:1] == (0,):
        a = np.zeros((0, n, n))
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[2] < 1 or n not in (None, a.shape[1]):
        raise ShapeMismatchError(f"expected a (k, n, n) stack, n = {n}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    a.flags.writeable = False
    return a


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """||a||_F of each matrix a in a (..., r, c) stack, bit for bit ``np.linalg.norm(a)``.

    Both sum the squares with one BLAS dot per matrix, as a (1, rc) @ (rc, 1)
    product does; ``np.linalg.norm(stack, axis=(-2, -1))`` sums them pairwise
    and moves the last bits of about half the norms.  An empty stack has none.
    """
    rows = stack.reshape(stack.shape[:-2] + (1, stack.shape[-2] * stack.shape[-1]))
    return np.sqrt((rows @ rows.swapaxes(-1, -2))[..., 0, 0])


def rank_of(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above the tolerance cutoff."""
    a = as_matrix(m)
    return tol.rank(svd(a, compute_uv=False))


def nullspace_of(m, tol: Tolerance = DEFAULT_TOL, budget: float = 1.0) -> np.ndarray:
    """Orthonormal basis of the numerical kernel, as the columns of an (n, k) array.

    k equals ``cols - tol.rank(s, budget)``; an empty (n, 0) array means trivial
    kernel.  This is the one kernel cut.  The result stays a view of Vᵀ: witnesses
    move if its memory order does.
    """
    a = as_matrix(m)
    _, s, vt = svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vt[tol.rank(s, budget):].T


def solve_least_squares(a, b, tol: Tolerance = DEFAULT_TOL):
    """Minimum-norm least-squares solution of ``a x = b``.

    Returns ``(x, residual)`` with ``residual = ||a x - b||`` (Frobenius norm
    when b has several columns).  Singular values below the tolerance cutoff
    are discarded, which is what makes the solution the minimum-norm one.
    """
    am = as_matrix(a)
    bm = np.array(b, dtype=float)
    if not np.all(np.isfinite(bm)):
        raise NonFiniteError("right-hand side contains NaN or Inf entries")
    vector_rhs = bm.ndim == 1
    if vector_rhs:
        bm = bm[:, None]
    if bm.ndim != 2 or bm.shape[0] != am.shape[0]:
        raise ShapeMismatchError(f"row counts disagree: {am.shape} vs {bm.shape}")
    u, s, vt = svd(am, full_matrices=False)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=np.arange(len(s)) < tol.rank(s))
    x = vt.T @ (inv_s[:, None] * (u.T @ bm))
    residual = float(np.linalg.norm(am @ x - bm))
    return (x[:, 0] if vector_rhs else x), residual


def orthonormal_rows(m, tol: Tolerance = DEFAULT_TOL, against=None) -> np.ndarray:
    """Orthonormal basis (rows) of the row space of the 2-d array ``m``.

    Given ``against``, orthonormal rows, the basis is of what ``m`` adds to their
    span: ``m`` is projected off it twice, as one pass leaves rounding along it, and
    the residual is cut at ``cutoff(||[against; m]||_F)``.  The residual's own s_max
    would be rounding when ``m`` adds nothing, and a cut against it keeps noise.
    """
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return np.zeros((0, a.shape[-1]))
    if against is not None:
        scale = math.hypot(np.linalg.norm(against), np.linalg.norm(a))
        for _ in range(2):
            a = a - (a @ against.T) @ against
    _, s, vt = svd(a, full_matrices=False)
    keep = tol.rank(s) if against is None else int(np.count_nonzero(s > tol.cutoff(scale)))
    return vt[:keep].copy()
