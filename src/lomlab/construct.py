"""Builders for the model objects: partial complex structures, generic pairs,
quaternion group representations, group means, and the interpolation
functional solver.

A partial complex structure (PCS) is a square matrix S with S^2 = -I; its
commutant is a transitive algebra of complex type of dimension n^2/2.  A
quaternion group representation pi assigns the eight elements of the group
{+-1, +-i, +-j, +-k} matrices satisfying the defining relations; the algebra
commuting with pi is transitive of quaternion type of dimension n^2/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .division import Quaternion, left_mult_matrix, quat_mul
from .engine import MatrixAlgebra, d_linear_maps
from .errors import (
    BadScheduleError,
    NonFiniteError,
    NotComplementaryError,
    NotInvariantError,
    ShapeMismatchError,
    SingularSystemError,
    SingularTwistError,
)
from .numeric import (_TWIST_RCOND, DEFAULT_TOL, Tolerance, as_matrix, as_vector,
                      frobenius_norms, rank_of, solve_least_squares, svd)

__all__ = [
    "GROUP_ELEMENTS",
    "GROUP_UNITS",
    "group_mult",
    "group_inverse",
    "CONJUGATION_BY_J",
    "PCSOperator",
    "GroupRep",
    "GenericPair",
    "build_pcs",
    "t_vf",
    "pcs_commutant_algebra",
    "generic_pair_pcs",
    "build_quaternion_rep",
    "twisted_rep",
    "group_mean",
    "solve_popolam",
    "rep_commutant_algebra",
]


GROUP_ELEMENTS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")

GROUP_UNITS = {
    "1": Quaternion(1, 0, 0, 0),
    "-1": Quaternion(-1, 0, 0, 0),
    "i": Quaternion(0, 1, 0, 0),
    "-i": Quaternion(0, -1, 0, 0),
    "j": Quaternion(0, 0, 1, 0),
    "-j": Quaternion(0, 0, -1, 0),
    "k": Quaternion(0, 0, 0, 1),
    "-k": Quaternion(0, 0, 0, -1),
}


# Products and conjugates of the units have entries in {0, +-1} and are exact,
# so they are looked up, not matched; -0.0 == 0.0 and both hash alike.
_LABELS = {unit: label for label, unit in GROUP_UNITS.items()}


def group_mult(a: str, b: str) -> str:
    return _LABELS[quat_mul(GROUP_UNITS[a], GROUP_UNITS[b])]


def group_inverse(a: str) -> str:
    return _LABELS[GROUP_UNITS[a].conjugate()]


# _CAYLEY[a, b] is the index of g_a g_b in GROUP_ELEMENTS, so a stack of the eight
# operators in that order indexed by it is the stack of the products' images.
_CAYLEY = np.array([[GROUP_ELEMENTS.index(group_mult(a, b)) for b in GROUP_ELEMENTS]
                    for a in GROUP_ELEMENTS])
_INVERSE = np.nonzero(_CAYLEY == 0)[1]  # g h = 1, pi(1) first: h = g^-1 in row g
_IJK = [GROUP_ELEMENTS.index(g) for g in "ijk"]
_LEFT_UNITS = np.stack([left_mult_matrix(GROUP_UNITS[g]) for g in GROUP_ELEMENTS])


# Conjugation by j, q -> j q j^{-1}: fixes +-1 and +-j, negates +-i and +-k.
CONJUGATION_BY_J = {
    "1": "1", "-1": "-1",
    "i": "-i", "-i": "i",
    "j": "j", "-j": "-j",
    "k": "-k", "-k": "k",
}
_CONJ_J = np.array([GROUP_ELEMENTS.index(CONJUGATION_BY_J[g]) for g in GROUP_ELEMENTS])


@dataclass(frozen=True, eq=False)
class PCSOperator:
    """A matrix S with S^2 = -I, built from 2x2 blocks with prescribed norms.

    ``norm_schedule`` holds the per-plane spectral norms (the singular values
    of S at or above 1); ``cond`` reports the conditioning of the subspace
    decomposition when S came from a generic pair.
    """

    matrix: np.ndarray
    norm_schedule: tuple
    cond: Optional[float] = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def anti_involution_residual(self) -> float:
        n = self.dim
        return float(np.linalg.norm(self.matrix @ self.matrix + np.eye(n)))

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> float:
        """Check S^2 = -I and that S has no real eigenvalue; returns the anti-involution residual."""
        residual = self.anti_involution_residual()
        scale = max(1.0, float(np.linalg.norm(self.matrix)) ** 2)
        if not tol.relation_ok(residual, scale, self.dim):
            raise ShapeMismatchError("S^2 + I is not numerically zero")
        eigs = np.linalg.eigvals(self.matrix)
        if np.min(np.abs(eigs.imag)) < tol.spectral_floor(1.0):
            raise ShapeMismatchError("S has a real eigenvalue")
        return residual


@dataclass(frozen=True, eq=False)
class GroupRep:
    """The eight operators of a quaternion group representation, as one read-only
    (8, n, n) float64 stack ``ops`` in GROUP_ELEMENTS order."""

    n: int
    ops: np.ndarray

    def __post_init__(self):
        ops = np.array(self.ops, dtype=float)
        if self.n < 1 or ops.shape != (len(GROUP_ELEMENTS), self.n, self.n):
            raise ShapeMismatchError("representation matrices must be n x n")
        if not np.all(np.isfinite(ops)):
            raise NonFiniteError("matrix contains NaN or Inf entries")
        ops.flags.writeable = False
        object.__setattr__(self, "ops", ops)

    @property
    def pi(self) -> dict:
        """Each group label mapped to its (read-only) view of ``ops``."""
        return dict(zip(GROUP_ELEMENTS, self.ops))

    def homomorphism_residual(self) -> float:
        """max over g, h of ||pi(g) pi(h) - pi(gh)||_F."""
        return float(frobenius_norms(self.ops[:, None] @ self.ops[None] - self.ops[_CAYLEY]).max())

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> float:
        """Check the group relations; returns the homomorphism residual."""
        scale = max(1.0, float(frobenius_norms(self.ops).max()) ** 2)
        residual = self.homomorphism_residual()
        worst = max(*frobenius_norms(self.ops[:2] - [np.eye(self.n), -np.eye(self.n)]), residual)
        if not tol.leak_ok(worst, scale, self.n):
            raise ShapeMismatchError(f"group relations violated (residual {worst:.3e})")
        return residual


@dataclass(frozen=True, eq=False)
class GenericPair:
    """Column bases of two complementary subspaces of the ambient space."""

    m_basis: np.ndarray
    n_basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m_basis", as_matrix(self.m_basis))
        object.__setattr__(self, "n_basis", as_matrix(self.n_basis))
        if self.m_basis.shape[0] != self.n_basis.shape[0]:
            raise ShapeMismatchError("subspace bases live in different ambient spaces")

    @property
    def ambient_dim(self) -> int:
        return self.m_basis.shape[0]

    def decomposition(self, tol: Tolerance = DEFAULT_TOL):
        """(P_M, P_N, cond): the two projections of the direct sum M + N = R^n."""
        n = self.ambient_dim
        p = self.m_basis.shape[1]
        q = self.n_basis.shape[1]
        if p + q != n:
            raise NotComplementaryError(
                f"subspace dimensions {p} + {q} do not fill the ambient space {n}"
            )
        joint = np.hstack([self.m_basis, self.n_basis])
        svals = svd(joint, compute_uv=False)
        if tol.rank(svals) < n:
            raise NotComplementaryError("subspaces intersect nontrivially")
        coords = np.linalg.solve(joint, np.eye(n))
        proj_m = self.m_basis @ coords[:p]
        proj_n = self.n_basis @ coords[p:]
        return proj_m, proj_n, float(svals[0] / svals[-1])


def build_pcs(norm_schedule) -> PCSOperator:
    """Direct sum of 2x2 blocks [[0, -s], [1/s, 0]], one per finite schedule entry s_m >= 1;
    each squares to -I and the m-th block has spectral norm s_m."""
    schedule = [float(s) for s in norm_schedule]
    if not schedule:
        raise BadScheduleError("at least one block is required")
    if not all(1.0 <= s < np.inf for s in schedule):  # NaN fails both comparisons
        raise BadScheduleError("schedule entries must be finite and >= 1")
    n = 2 * len(schedule)
    s = np.zeros((n, n))
    for m, sm in enumerate(schedule):
        s[2 * m, 2 * m + 1] = -sm
        s[2 * m + 1, 2 * m] = 1.0 / sm
    return PCSOperator(matrix=s, norm_schedule=tuple(schedule))


def t_vf(v, f, pcs: PCSOperator) -> np.ndarray:
    """Rank-2 operator v (x) f - Sv (x) (f o S); it commutes with S.

    ``v`` is a column vector and ``f`` a functional given as a row of
    coefficients; the adjoint of S acts on functionals as f -> f o S.
    """
    s = pcs.matrix
    vv = as_vector(v)
    fv = as_vector(f)
    if vv.size != s.shape[0] or fv.size != s.shape[0]:
        raise ShapeMismatchError("vector/functional dimensions must match S")
    return np.outer(vv, fv) - np.outer(s @ vv, fv @ s)


def pcs_commutant_algebra(pcs: PCSOperator, tol: Tolerance = DEFAULT_TOL) -> MatrixAlgebra:
    """The algebra of all matrices commuting with S: transitive, complex type,
    dimension n^2/2."""
    return MatrixAlgebra(pcs.dim, d_linear_maps([pcs.matrix], pcs.dim, tol), unital=True)


def _check_invariant(pair: GenericPair, names, ops: np.ndarray, tol: Tolerance) -> None:
    """Raise NotInvariantError unless both subspaces of the pair are invariant
    under every operator of the (k, n, n) stack ``ops``, named by ``names``.

    Called once ``pair.decomposition`` has shown [M | N] to have full rank, so
    each basis B has full column rank and its Q factor is an orthonormal basis
    of its subspace: the leak g B - Q Q^T g B stays at rounding whatever
    cond([M | N]).  Both bases are factored in one call, the narrower padded
    with zero columns, whose images are zero and whose Q columns are dropped.
    """
    dims = np.array([pair.m_basis.shape[1], pair.n_basis.shape[1]])
    bases = np.zeros((2, pair.ambient_dim, dims.max()))
    bases[0, :, :dims[0]], bases[1, :, :dims[1]] = pair.m_basis, pair.n_basis
    q = np.linalg.qr(bases)[0] * (np.arange(dims.max()) < dims[:, None])[:, None]
    imgs = ops @ bases[:, None]  # (2, k, n, d): each basis under each operator
    proj = q[:, None] @ (q.transpose(0, 2, 1)[:, None] @ imgs)
    leaks, sizes = frobenius_norms(np.stack([imgs - proj, imgs]))
    ok = tol.leak_ok(leaks, np.maximum(1.0, sizes), pair.ambient_dim)
    if not ok.all():  # name the first failing operator of M, else of N
        raise NotInvariantError(
            f"subspace is not invariant under {names[np.argwhere(~ok)[0, 1]]}")


def generic_pair_pcs(pair: GenericPair, structure_unit, tol: Tolerance = DEFAULT_TOL) -> PCSOperator:
    """PCS acting as U on M and as -U on N, for complementary U-invariant M, N.

    The conditioning of the decomposition [M | N] is the finite shadow of how
    'generic' the pair is and is reported on the result.
    """
    u = as_matrix(structure_unit, square=True)
    n = pair.ambient_dim
    if u.shape[0] != n:
        raise ShapeMismatchError("structure unit must match the ambient dimension")
    proj_m, proj_n, cond = pair.decomposition(tol)
    _check_invariant(pair, ["the structure unit"], u[None], tol)
    s = u @ proj_m - u @ proj_n
    svals = svd(s, compute_uv=False)
    schedule = tuple(float(x) for x in svals[: n // 2])
    return PCSOperator(matrix=s, norm_schedule=schedule, cond=cond)


def build_quaternion_rep(m: int, twists=None) -> GroupRep:
    """Direct sum of m copies of left multiplication on H, each conjugated by
    an invertible 4x4 change of basis."""
    if m < 1:
        raise ShapeMismatchError("at least one block is required")
    if twists is None:
        twists = [np.eye(4)] * m
    mats = [as_matrix(t, square=True) for t in twists]
    if len(mats) != m or any(t.shape != (4, 4) for t in mats):
        raise ShapeMismatchError("expected one 4x4 twist per block")
    for t in mats:
        svals = svd(t, compute_uv=False)
        if svals[-1] <= _TWIST_RCOND * max(1.0, svals[0]):
            raise SingularTwistError("twist matrix is singular")
    blocks = np.stack(mats)[None] @ _LEFT_UNITS[:, None] @ np.linalg.inv(mats)[None]  # (8, m, 4, 4)
    pis = np.zeros((len(GROUP_ELEMENTS), m, 4, m, 4))
    pis[:, np.arange(m), :, np.arange(m)] = blocks.swapaxes(0, 1)  # block b on the diagonal
    return GroupRep(n=4 * m, ops=pis.reshape(-1, 4 * m, 4 * m))


def twisted_rep(pair: GenericPair, tau: GroupRep, tol: Tolerance = DEFAULT_TOL) -> GroupRep:
    """Representation acting as tau(g) on M and tau(alpha(g)) on N, alpha the
    conjugation by j (``CONJUGATION_BY_J``, so alpha(i) = -i); both subspaces of
    the pair must be invariant under every tau(g).
    """
    n = tau.n
    if pair.ambient_dim != n:
        raise ShapeMismatchError("pair and representation ambient dimensions differ")
    proj_m, proj_n, _ = pair.decomposition(tol)
    _check_invariant(pair, [f"tau({g})" for g in GROUP_ELEMENTS], tau.ops, tol)
    return GroupRep(n=n, ops=tau.ops @ proj_m + tau.ops[_CONJ_J] @ proj_n)


def group_mean(k, rep: GroupRep) -> np.ndarray:
    """Sum of pi(g) K pi(g)^{-1} over the group; commutes with every pi(g)."""
    km = as_matrix(k, square=True)
    if km.shape != (rep.n, rep.n):
        raise ShapeMismatchError("operator shape must match the representation")
    return np.sum(rep.ops @ km @ rep.ops[_INVERSE], axis=0)


def solve_popolam(x, rep: GroupRep, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Functional f with f(x) = 1/2 and f(pi(g^{-1}) x) = 0 for g = i, j, k.

    Returns the minimum-norm solution of the rank-4 linear system; for a
    genuine quaternion representation and x != 0 the system always has full
    rank, so degeneracy signals a malformed representation.
    """
    xv = as_vector(x)
    if xv.size != rep.n:
        raise ShapeMismatchError("vector dimension must match the representation")
    if np.linalg.norm(xv) <= tol.abs_eps:
        raise ValueError("x must be nonzero")
    rows = np.vstack([xv, rep.ops[_INVERSE[_IJK]] @ xv])  # x, pi(g^-1) x for g = i, j, k
    if rank_of(rows, tol) < 4:
        raise SingularSystemError("the four functional constraints are dependent")
    rhs = np.array([0.5, 0.0, 0.0, 0.0])
    f, residual = solve_least_squares(rows, rhs, tol)
    if not tol.residual_ok(residual):
        raise SingularSystemError("functional constraints are inconsistent")
    return f


def rep_commutant_algebra(rep: GroupRep, tol: Tolerance = DEFAULT_TOL) -> MatrixAlgebra:
    """The algebra of all matrices commuting with the representation:
    transitive, quaternion type, dimension n^2/4."""
    return MatrixAlgebra(rep.n, d_linear_maps(list(rep.ops[_IJK]), rep.n, tol), unital=True)
