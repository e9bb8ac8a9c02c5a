"""Core computations on matrix algebras.

An algebra is stored as a linear basis of n x n matrices, one read-only (dim, n, n)
array from ``numeric.as_stack``, with its ambient dimension and a unitality flag; a
commutant is an array of the same form.  An algebra also carries its orthonormal row
``span`` in R^(n^2), which ``generate_algebra`` hands over (its basis is that span) and
an explicit basis factors once, on first read, and its ``generators``, the matrices it
is generated by: commuting with them is commuting with the algebra.  The operations here
cover generated closure, commutants, transitivity certificates, minimal rank, strict
interpolation over the commutant division algebra, real spectral (Riesz)
projections, and idempotent lifting modulo a nilpotent ideal.

An algebra's commutant is solved on vectors, as the MeatAxe does (Holt and
Rees, 1994): seeded vectors spun under the basis fix X through X x_j, so its
kernel system has n k columns, k = 1 on most transitive algebras.  The commutant
of D's units, End_D(V), needs no solve: ``d_linear_maps`` writes its basis down
from one D-frame of seeded vectors, ``min_rank`` writes its probe down from the same
frame and is the one check that A = End_D(V) (A's generators commute with D's units
and dim A * d = n^2), and a rejection's invariant subspace is a spun vector (Norton's
irreducibility test).  No n^2 x n^2 system is built.  ``is_transitive`` solves a
commutant only when dim A is n^2 / 2 or n^2 / 4: Burnside's count alone accepts a span
of rank n^2 as M_n(R) and rejects a dim A that no D of dimension 1, 2 or 4 fits.  Only
``is_transitive`` reads the closure's basis; ``min_rank`` and a witness's leak read the
generators: a subspace is invariant under A exactly when it is under each generator.

Everything is pure: randomized searches take an explicit seed so results are
reproducible and instances can be processed in parallel by the caller.
``scipy.linalg`` is imported only by ``riesz_projection``, which alone calls it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .division import AlgebraType, DivisionStructure, frobenius_recognize
from .errors import (
    BadDimensionError,
    ClusterContainsZeroError,
    ClusterNotSeparatedError,
    NoConvergenceError,
    NotAntiInvolutiveError,
    NotCommutativeError,
    NotTransitiveError,
    ShapeMismatchError,
)
from .numeric import (
    _CONDITIONING_BUDGET,
    _CONJUGATE_MATCH,
    _CYCLIC_FLOOR,
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_stack,
    as_vector,
    frobenius_norms,
    nullspace_of,
    orthonormal_rows,
    rank_of,
    solve_least_squares,
    svd,
)

__all__ = [
    "MatrixAlgebra",
    "TransitivityReport",
    "generate_algebra",
    "commutant",
    "commutes",
    "is_transitive",
    "min_rank",
    "strict_interpolate",
    "riesz_projection",
    "lift_idempotent",
    "d_frame",
    "d_linear_maps",
]


@dataclass(frozen=True, eq=False)
class MatrixAlgebra:
    """Linear basis of an algebra of n x n real matrices.

    ``basis`` is kept as ``as_stack`` copies it, read-only float64 of shape (dim, n, n),
    (0, n, n) for the zero algebra.  Its elements are linearly independent as vectors in
    R^(n^2) and the span is expected to be closed under products; ``validate``
    checks both.  ``unital`` records whether the identity lies in the span.

    ``span`` is a read-only orthonormal basis of that span as rows in R^(n^2), and
    ``generators`` a read-only (k, n, n) stack of matrices that generate the algebra
    (with the identity, if it is unital).  ``generate_algebra`` sets both: its basis
    rows are the span, and the generators are its inputs scaled to unit norm.  For an
    explicit basis the generators are the basis, and the span is factored once, at
    ``DEFAULT_TOL``, when it is first read.
    """

    ambient_dim: int
    basis: np.ndarray
    unital: bool

    def __post_init__(self):
        object.__setattr__(self, "basis", as_stack(self.basis, self.ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def span(self) -> np.ndarray:
        span = orthonormal_rows(self.vec_basis())
        span.flags.writeable = False
        return span

    @functools.cached_property
    def generators(self) -> np.ndarray:
        return self.basis

    def vec_basis(self) -> np.ndarray:
        return self.basis.reshape(self.dim, self.ambient_dim ** 2)

    def element(self, coeffs) -> np.ndarray:
        return np.tensordot(np.asarray(coeffs, dtype=float), self.basis, axes=1)

    def contains(self, m, tol: Tolerance = DEFAULT_TOL):
        """Expand ``m`` in the basis; returns ``(coeffs, residual)``."""
        target = as_matrix(m, square=True).reshape(-1)
        return solve_least_squares(self.vec_basis().T, target, tol)

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> float:
        """Check linear independence and product closure; returns the worst residual
        ||ab - proj(ab)|| / max(1, ||ab||), all products projected onto ``span``."""
        n = self.ambient_dim
        span = self.span
        if span.shape[0] != self.dim:
            raise ShapeMismatchError("basis is linearly dependent")
        products = np.einsum("aij,bjk->abik", self.basis, self.basis).reshape(-1, n * n)
        residuals = np.linalg.norm(products - (products @ span.T) @ span, axis=1)
        scales = np.maximum(1.0, np.linalg.norm(products, axis=1))
        worst = float(np.max(residuals / scales))
        if not tol.residual_ok(worst):
            raise ShapeMismatchError(
                f"basis span is not closed under products (residual {worst:.3e})"
            )
        if self.unital:
            eye = np.eye(n).reshape(-1)
            res = float(np.linalg.norm(eye - (span @ eye) @ span))
            if not tol.residual_ok(res / math.sqrt(n)):
                raise ShapeMismatchError("unital flag set but identity not in span")
        return worst


@dataclass(frozen=True, eq=False)
class TransitivityReport:
    """Outcome of the Burnside count, with the recognized ``structure`` of the commutant
    (None: no division algebra, or a dim A that no D fits, so none was solved).  When
    not ``transitive``, ``witness`` is None or ``(x, W)``, W orthonormal columns of a
    proper invariant subspace whose leak is checked against the generators; the seed
    that steered its search is the caller's."""

    transitive: bool
    witness: Optional[tuple[np.ndarray, np.ndarray]] = None
    structure: Optional[DivisionStructure] = None


def generate_algebra(generators, include_identity: bool, tol: Tolerance = DEFAULT_TOL) -> MatrixAlgebra:
    """Smallest algebra containing the generators (and the identity, if asked).

    Semi-naive breadth-first expansion, append-only: each round multiplies only
    the rows the previous round appended by the generators, and appends what the
    products, unscaled, add to the span (``orthonormal_rows(..., against=span)``).
    No accepted row is factored again.  It stops when a round adds nothing or the
    span is all of M_n.  The algebra keeps those rows as its basis and its ``span``,
    and the generators scaled to unit norm (zero ones dropped) as its ``generators``.
    """
    if not len(generators):
        raise ShapeMismatchError("at least one generator is required")
    stack = as_stack(generators)
    n = stack.shape[1]

    # Unit generators weigh alike in the cut; orthonormal rows keep words from growing.
    # A product r g is cut unscaled: its rounding is ~u ||r|| ||g|| whatever ||r g||.
    norms = frobenius_norms(stack)
    gens = stack[norms > tol.abs_eps] / norms[norms > tol.abs_eps, None, None]
    words = gens.reshape(-1, n * n)
    if include_identity:
        words = np.vstack([words, np.eye(n).reshape(1, -1) / math.sqrt(n)])
    span = new = orthonormal_rows(words, tol)
    while len(new) and len(span) < n * n:
        new = orthonormal_rows((new.reshape(-1, 1, n, n) @ gens).reshape(-1, n * n), tol,
                               against=span)
        span = np.vstack([span, new])

    eye = np.eye(n).reshape(-1)
    ident_res = np.linalg.norm(eye - (span @ eye) @ span) / math.sqrt(n)
    algebra = MatrixAlgebra(n, span.reshape(-1, n, n), unital=bool(tol.residual_ok(ident_res)))
    gens.flags.writeable = False
    # the appended rows are orthonormal, so they are the span: nothing to factor
    object.__setattr__(algebra, "span", algebra.vec_basis())
    object.__setattr__(algebra, "generators", gens)
    return algebra


@functools.lru_cache(maxsize=8)
def _spin_draws(n: int) -> np.ndarray:
    """Seeded vectors in R^n, drawn once per n (for the last 8 n), read-only: callers share them."""
    draws = np.random.default_rng(12345).standard_normal((n, n))
    draws.flags.writeable = False
    return draws


def commutes(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ||a_i b_j - b_j a_i|| passes ``relation_ok`` at max(1, ||a_i|| ||b_j||) times the
    budget for all pairs of two (k, n, n) stacks, in one batched product and one
    ``frobenius_norms`` call per stack; True, with no product, if one is empty."""
    a, b = np.asarray(a), np.asarray(b)
    if not (len(a) and len(b)):
        return True
    worst = frobenius_norms(a[:, None] @ b[None] - b[None] @ a[:, None])
    scale = np.maximum(1.0, np.outer(frobenius_norms(a), frobenius_norms(b)))
    return bool(np.all(tol.relation_ok(worst, scale * _CONDITIONING_BUDGET, a.shape[-1])))


def commutant(algebra: MatrixAlgebra, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal (k, n, n) basis (trace form) of the algebra's commutant, solved in R^(n k).

    The words are w_0 = I and the basis, scaled to unit norm.  Seeded vectors x_1..x_k
    are spun until Phi = [w_i x_j] has s_n >= _CYCLIC_FLOOR * s_1, from k = ceil(n / #words),
    below which Phi cannot reach rank n, to at most n; on a transitive algebra k = 1
    unless Phi is ill-conditioned.  As the words span an algebra, X commutes with it
    exactly when X w_i x_j = w_i X x_j, that is X = Psi Phi^+ with Psi = [w_i v_j],
    v_j = X x_j, where (v_1..v_k) runs over the kernel of Psi (I - Phi^+ Phi).  Every
    candidate is checked against every generator, which is to commute with the algebra
    they generate; a miss raises NoConvergenceError.
    """
    basis, n = algebra.basis, algebra.ambient_dim
    norms = np.linalg.norm(basis, axis=(1, 2))
    live = norms > tol.abs_eps  # a zero element adds no relation
    words = np.concatenate([np.eye(n)[None] / math.sqrt(n),
                            basis[live] / norms[live, None, None]])
    m = len(words)
    draws = _spin_draws(n)  # x_j = draws[j]
    for k in range(-(-n // m), n + 1):
        u, s, vt = svd((words @ draws[:k].T).transpose(1, 0, 2).reshape(n, m * k),
                       full_matrices=False)
        if s[-1] >= s[0] * _CYCLIC_FLOOR:
            break
    # g[a, b, r, l] = sum_i w_i[a, b] vt[r, i, l], so (Psi V_r)[a, r] = g[a, :, r, :] . v
    g = (words.reshape(m, n * n).T
         @ vt.reshape(n, m, k).transpose(1, 0, 2).reshape(m, n * k)).reshape(n, n, n, k)
    # the relations Psi (I - V_r V_r^T) = 0, rows (a, i, j), columns (b, l) of v
    psi = words.transpose(1, 0, 2)[:, :, None, :, None] * np.eye(k)[:, None]  # w_i[a, b] d_jl
    system = psi.reshape(n, m * k, n * k) \
        - (g.transpose(0, 1, 3, 2).reshape(n, n * k, n) @ vt).transpose(0, 2, 1)
    r = np.linalg.qr(system.reshape(n * m * k, n * k), mode="r")
    kernel = nullspace_of(r, tol, _CONDITIONING_BUDGET)
    psi_vr = (g.transpose(0, 2, 1, 3).reshape(n * n, n * k) @ kernel).reshape(n, n, -1)
    cands = (psi_vr / s[:, None]).transpose(2, 0, 1) @ u.T  # Psi V_r S^-1 U^T
    comm = orthonormal_rows(cands.reshape(-1, n * n), tol).reshape(-1, n, n)
    if commutes(comm, algebra.generators, tol):
        return comm
    raise NoConvergenceError("commutant candidates fail to commute with a generator")


def d_frame(v: np.ndarray, units) -> np.ndarray:
    """Rows v_i, U v_i, ... over the units U of each (..., m, n) stack v, in (i, U) order (v
    itself if there are none), from one broadcast product v U^T over all units."""
    units = np.asarray(units)
    if not len(units):
        return v
    rows = v[..., None, :, :]
    rows = np.concatenate([rows, rows @ units.transpose(0, 2, 1)], axis=-3).swapaxes(-3, -2)
    return rows.reshape(v.shape[:-2] + (v.shape[-2] * (len(units) + 1), v.shape[-1]))


def _d_frame_inverse(units: np.ndarray, n: int, tol: Tolerance):
    """Words [I, units...] and X_D^-1 = U S^-1 V^T, (m, 1, #words, n), of the D-frame X_D^T =
    ``d_frame`` of m = n / #words seeded vectors; NoConvergenceError unless it has rank n."""
    words = np.concatenate([np.eye(n)[None], units])
    m = n // len(words)
    u, s, vt = svd(d_frame(_spin_draws(n)[:m], words[1:]))
    if tol.rank(s, _CONDITIONING_BUDGET) != n:
        raise NoConvergenceError("the units have no invertible D-frame")
    return words, ((u / s) @ vt).reshape(m, 1, len(words), n)


def d_linear_maps(units, n: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """(n m, n, n) basis of End_D(V), what commutes with the units of a division algebra D
    on V = R^n, from the D-frame x_i, U x_i, ... of ``_d_frame_inverse``: map (i, a) sends
    x_i to e_a and U x_i to U e_a: sum_U U[:, a] (x) X_D^-1[(i, U), :].  An X that commutes
    with the units is fixed by the X x_i, so it lies in the span of the maps; each map is
    checked against each unit, so the span is exactly the commutant or NoConvergenceError.
    """
    words, inv = _d_frame_inverse(as_stack(units, n), n, tol)
    maps = (words.transpose(2, 1, 0) @ inv).reshape(-1, n, n)
    if commutes(maps, words[1:], tol):
        return maps
    raise NoConvergenceError("a D-linear map fails to commute with the units")


def _witness(algebra: MatrixAlgebra, tol: Tolerance, seed: int):
    """Leak-checked proper invariant subspace ``(x, W)`` of a non-transitive algebra, x =
    W[:, 0], or None, by Norton's irreducibility test (Holt and Rees, 1994).

    Each of at most 32 seeded draws a = sum c_i b_i takes the eigenvalue lambda nearest
    the real axis and f = a - lambda I, or a^2 - 2 Re(lambda) a + |lambda|^2 I for a
    non-real lambda.  A seeded kernel vector v of f spins to range[v, b_1 v, ...], which
    is invariant as the basis spans an algebra; a kernel vector of f^T spins under the
    b_i^T, and the complement of that span is invariant.  An irreducible algebra fills
    both; a draw whose spins fill the space proves nothing and is drawn again.  A spin is
    kept when its leak against the generators (none for span{I}: 0) passes ``leak_ok``."""
    n, basis, eye = algebra.ambient_dim, algebra.basis, np.eye(algebra.ambient_dim)
    if not any(np.linalg.norm(b) > tol.abs_eps for b in basis):
        return eye[0], eye[:, :1]  # the zero algebra leaves every line invariant
    rng = np.random.default_rng(seed)
    for _ in range(32):
        a = np.tensordot(rng.standard_normal(algebra.dim), basis, axes=1)
        eigs = np.linalg.eigvals(a)
        lam = eigs[np.argmin(np.abs(eigs.imag))]
        real = abs(lam.imag) <= tol.spectral_floor(float(np.max(np.abs(eigs))))
        f = a - lam.real * eye if real else a @ a - 2 * lam.real * a + abs(lam) ** 2 * eye
        for g, stack, dual in ((f, basis, False), (f.T, basis.transpose(0, 2, 1), True)):
            kernel = nullspace_of(g, tol, _CONDITIONING_BUDGET)
            if not kernel.shape[1]:
                continue
            v = kernel @ rng.standard_normal(kernel.shape[1])
            u, s, _ = svd(np.vstack([v, stack @ v]).T, full_matrices=False)
            w = u[:, :tol.rank(s, _CONDITIONING_BUDGET)]
            w = nullspace_of(w.T, tol) if dual else w
            if not 0 < w.shape[1] < n:
                continue
            imgs = algebra.generators @ w
            leak = np.linalg.norm(imgs - w @ (w.T @ imgs), axis=(1, 2)).max(initial=0.0)
            if tol.leak_ok(leak, 1.0, n):
                return w[:, 0], w
    return None


def is_transitive(algebra: MatrixAlgebra, tol: Tolerance = DEFAULT_TOL,
                  seed: int = 0) -> TransitivityReport:
    """Burnside's count: transitive exactly when the commutant is a division algebra D
    and dim A * dim D = n^2.  The verdict does not depend on ``seed``, which steers
    only the witness search.

    The count is read before anything is solved.  A span of rank n^2 is M_n(R), so D =
    R; its rank is read, not ``dim`` alone, as an explicit basis may be dependent.  A
    dim A with n^2 neither 2 dim A nor 4 dim A fits no D, so A is rejected with no
    ``structure``.  Only dim A = n^2 / 2 or n^2 / 4 solves and recognizes the commutant."""
    n2 = algebra.ambient_dim ** 2
    if algebra.dim == n2 and len(algebra.span) == n2:
        return TransitivityReport(True, None, DivisionStructure(AlgebraType.REAL, ()))
    structure = None
    if n2 in (2 * algebra.dim, 4 * algebra.dim):
        try:
            structure = frobenius_recognize(commutant(algebra, tol), tol)
        except (BadDimensionError, NotAntiInvolutiveError):
            pass
        if structure is not None and algebra.dim * structure.commutant_dim == n2:
            return TransitivityReport(True, None, structure)
    return TransitivityReport(False, _witness(algebra, tol, seed), structure)


def strict_interpolate(algebra: MatrixAlgebra, pairs, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Element T of the algebra span with T x_i = y_i for all given pairs.

    The x's must be independent over the commutant division algebra; when the
    system is infeasible (e.g. some x_j is a commutant multiple of x_i with an
    incompatible target) NoSolutionError carries the attained residual.
    Among exact solutions the minimum-coefficient-norm one is returned.
    """
    if not pairs:
        raise ShapeMismatchError("at least one interpolation pair is required")
    xs, ys = ([as_vector(v) for v in vs] for vs in zip(*pairs))  # each read once
    if any(v.size != algebra.ambient_dim for v in xs + ys):
        raise ShapeMismatchError("interpolation vectors must match the ambient dimension")
    system = np.vstack([(algebra.basis @ x).T for x in xs])  # columns indexed by basis element
    coeffs, _ = solve_least_squares(system, np.concatenate(ys), tol)
    t = algebra.element(coeffs)
    worst = max(float(np.linalg.norm(t @ x - y)) for x, y in zip(xs, ys))
    tol.check_interpolation(worst, max(float(np.linalg.norm(y)) for y in ys))
    return t


def min_rank(algebra: MatrixAlgebra, structure, tol: Tolerance = DEFAULT_TOL) -> int:
    """Minimal rank of a nonzero element of a transitive algebra, cross-checked against
    the commutant dimension d.

    A transitive algebra with commutant D is all of End_D(V): A's generators commute
    with D's units (so A does) and dim A * d = n^2, or NotTransitiveError.  This is the
    one check of A = End_D(V); ``classify`` counts End_D(V) as n^2 / d once it has passed.
    T0 = U S V^T is the first nonzero generator (or a unital A's I), z_1 = u_1 and
    x_1 = v_1 / s_1, so T0 x_1 = z_1.  K is written down: the D-linear map that sends the
    frame vector x_i of ``_d_frame_inverse`` to x_1 and the other frame vectors to 0, i
    maximizing ||X_D^-1[i] z_1|| so that K z_1 != 0.  K lies in A, and T0 K T0 has image
    T0 (D x_1) = D z_1, of rank d.
    """
    units = as_stack(structure.units, algebra.ambient_dim)
    gens = algebra.generators[frobenius_norms(algebra.generators) > tol.abs_eps]
    t0 = gens[0] if len(gens) else (np.eye(algebra.ambient_dim) if algebra.unital else None)
    if t0 is None:
        raise NotTransitiveError("zero algebra has no minimal rank")
    expected = structure.commutant_dim
    contained = commutes(algebra.generators, units, tol)
    inv = _d_frame_inverse(units, algebra.ambient_dim, tol)[1]
    if not contained or algebra.dim * expected != algebra.ambient_dim ** 2:
        raise NotTransitiveError("the algebra is not End_D(V) for the recognized commutant D")
    u, s, vt = svd(t0)
    i = np.argmax(np.linalg.norm(inv[:, 0] @ u[:, 0], axis=1))
    k = d_frame(vt[:1] / s[0], units).T @ inv[i, 0]
    result = rank_of(t0 @ k @ t0, tol)
    if result != expected:
        raise NotTransitiveError(
            f"constructed element has rank {result}, expected {expected}"
        )
    return result


def riesz_projection(t, cluster, tol: Tolerance = DEFAULT_TOL):
    """Real spectral projection for a conjugation-closed eigenvalue cluster.

    Computed from a sorted real Schur form; returns ``(P, residual)`` where
    ``residual`` is the least-squares distance from P to the span of
    T, T^2, ..., T^n (the non-unital algebra generated by T).  The cluster
    must exclude zero and be separated from the rest of the spectrum.
    """
    tm = as_matrix(t, square=True)
    n = tm.shape[0]
    cl = [complex(c) for c in cluster]
    if not cl:
        raise ClusterNotSeparatedError("empty cluster")
    for c in cl:
        if min(abs(c.conjugate() - d) for d in cl) > _CONJUGATE_MATCH * max(1.0, abs(c)):
            raise ValueError("cluster must be closed under complex conjugation")

    eigs = np.linalg.eigvals(tm)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    floor = tol.spectral_floor(scale)
    if any(abs(c) <= floor for c in cl):
        raise ClusterContainsZeroError("cluster contains a point at (or touching) zero")

    dists = np.array([min(abs(lam - c) for c in cl) for lam in eigs])
    match_err = max(min(abs(lam - c) for lam in eigs) for c in cl)
    theta = max(floor, 3 * match_err)
    matched = dists <= theta
    if not matched.any():
        raise ClusterNotSeparatedError("no eigenvalue matches the cluster")
    unmatched = dists[~matched]
    if unmatched.size:
        sep = float(unmatched.min())
        if sep < 3 * theta:
            raise ClusterNotSeparatedError(
                f"cluster separation {sep:.3e} below the required margin"
            )
    lam_in = eigs[matched]
    if np.min(np.abs(lam_in)) <= floor:
        raise ClusterContainsZeroError("a matched eigenvalue is numerically zero")

    if matched.all():
        proj = np.eye(n)
    else:
        lam_out = eigs[~matched]
        gap = min(abs(a - b) for a in lam_in for b in lam_out)

        def select(re, im):
            z = np.atleast_1d(np.asarray(re, dtype=float)) \
                + 1j * np.atleast_1d(np.asarray(im, dtype=float))
            d = np.min(np.abs(z[:, None] - lam_in[None, :]), axis=1)
            hit = d <= gap / 2
            return bool(hit[0]) if hit.size == 1 else hit

        import scipy.linalg
        r, q, sdim = scipy.linalg.schur(tm, output="real", sort=select)
        s = int(sdim)
        if s == 0 or s == n:
            raise ClusterNotSeparatedError("Schur reordering did not split the cluster")
        r11, r12, r22 = r[:s, :s], r[:s, s:], r[s:, s:]
        x = scipy.linalg.solve_sylvester(r11, -r22, r12)
        pr = np.zeros((n, n))
        pr[:s, :s] = np.eye(s)
        pr[:s, s:] = x
        proj = q @ pr @ q.T

    # Distance to the non-unital polynomial algebra of T.
    powers = []
    acc = np.eye(n)
    for _ in range(n):
        acc = acc @ tm
        col = acc.reshape(-1)
        powers.append(col / max(np.linalg.norm(col), tol.abs_eps))
    _, residual = solve_least_squares(np.stack(powers, axis=1), proj.reshape(-1), tol)
    return proj, residual


def lift_idempotent(comm_algebra: MatrixAlgebra, j_ideal, w, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Lift an idempotent-mod-ideal to an exact idempotent of a commutative algebra.

    Newton iteration P <- 3P^2 - 2P^3 starting from W converges quadratically
    modulo a nilpotent ideal; the bound ceil(log2 n) + 2 steps is enforced and
    the output is checked to differ from W by an ideal element.
    """
    n = comm_algebra.ambient_dim
    basis = comm_algebra.basis
    scale = max(1.0, max(float(np.linalg.norm(b)) for b in basis))
    worst = frobenius_norms(basis[:, None] @ basis[None] - basis[None] @ basis[:, None])
    if not np.all(tol.relation_ok(worst, scale, n)):
        raise NotCommutativeError("algebra is not commutative")

    wm = as_matrix(w, square=True)
    w_scale = max(1.0, float(np.linalg.norm(wm)))
    ideal = MatrixAlgebra(n, j_ideal, unital=False)  # an ideal is closed under products
    _, res = comm_algebra.contains(wm, tol)
    if not tol.residual_ok(res, w_scale):
        raise ValueError("W does not lie in the span of the commutative algebra")

    def in_ideal(m):  # relative residual of expanding m in the ideal
        if not ideal.dim:  # contains() needs a nonempty basis
            return float(np.linalg.norm(m))
        return ideal.contains(m, tol)[1] / max(1.0, float(np.linalg.norm(m)))

    defect = wm @ wm - wm
    if not tol.residual_ok(in_ideal(defect)):
        raise ValueError("W^2 - W does not lie in the ideal span")
    for j in ideal.basis:
        radius = float(np.max(np.abs(np.linalg.eigvals(j))))
        if not tol.residual_ok(radius, max(1.0, float(np.linalg.norm(j)))):
            raise ValueError("ideal basis element is not nilpotent")

    max_steps = math.ceil(math.log2(n)) + 2 if n > 1 else 2
    p = wm.copy()
    for step in range(max_steps + 1):
        if tol.is_zero(np.linalg.norm(p @ p - p), w_scale):
            break
        if step == max_steps:
            raise NoConvergenceError(
                f"idempotent iteration did not converge in {max_steps} steps"
            )
        p = 3 * (p @ p) - 2 * (p @ p @ p)
    if not tol.residual_ok(in_ideal(p - wm)):
        raise NoConvergenceError("lifted idempotent does not differ from W by an ideal element")
    return p
