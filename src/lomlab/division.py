"""Quaternion arithmetic, real block embeddings, and division-algebra recognition.

A commutant of a transitive matrix algebra is a finite-dimensional division
algebra over the reals, hence isomorphic to R, C or H.  This module provides
the two block embeddings (complex n x n matrices into 2n x 2n real ones,
quaternion n x n matrices into 4n x 4n real ones) and the recognizer that
extracts explicit anti-involutive units from a commutant basis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDimensionError, NotAntiInvolutiveError, ShapeMismatchError
from .numeric import (_CONDITIONING_BUDGET, DEFAULT_TOL, Tolerance, as_stack, frobenius_norms,
                      orthonormal_rows)

__all__ = [
    "Quaternion",
    "AlgebraType",
    "DivisionStructure",
    "quat_mul",
    "left_mult_matrix",
    "embed_complex",
    "embed_quaternion",
    "frobenius_recognize",
]


@dataclass(frozen=True)
class Quaternion:
    """q = a + b*i + c*j + d*k with i^2 = j^2 = k^2 = -1 and ijk = -1."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return quat_mul(self, other)
        return Quaternion(self.a * other, self.b * other,
                          self.c * other, self.d * other)

    __rmul__ = __mul__  # reached only for scalar * quaternion, which commutes

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm(self) -> float:
        return math.sqrt(self.a ** 2 + self.b ** 2 + self.c ** 2 + self.d ** 2)

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])

    def isclose(self, other: "Quaternion", atol: float = 1e-12) -> bool:
        return bool(np.allclose(self.as_array(), other.as_array(), atol=atol))


def quat_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product (ij = k convention): ``left_mult_matrix(p)`` applied to q."""
    return Quaternion(*map(float, left_mult_matrix(p) @ q.as_array()))


class AlgebraType(enum.Enum):
    """Isomorphism class of a finite-dimensional real division algebra."""

    REAL = 1
    COMPLEX = 2
    QUATERNION = 4

    @property
    def commutant_dim(self) -> int:
        return self.value

    @property
    def label(self) -> str:
        return {1: "Real", 2: "Complex", 4: "Quaternion"}[self.value]


@dataclass(frozen=True, eq=False)
class DivisionStructure:
    """Recognized division algebra: its type tag plus explicit anti-involutive units.

    ``units`` is empty for the real type, ``[W]`` with W^2 = -1 for the
    complex type, and ``[I_op, J_op, K_op]`` satisfying the quaternion
    relations for the quaternion type.
    """

    type: AlgebraType
    units: tuple[np.ndarray, ...]

    @property
    def commutant_dim(self) -> int:
        return self.type.commutant_dim


def left_mult_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix of left multiplication by q on H in the basis (1, i, j, k)."""
    a, b, c, d = q.a, q.b, q.c, q.d
    return np.array([
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ])


def embed_complex(t, r) -> np.ndarray:
    """Real 2n x 2n matrix representing the complex matrix T + iR.

    The image is the block matrix [[T, -R], [R, T]]; the map is a unital
    algebra homomorphism of M_n(C) into M_2n(R).
    """
    tm, rm = as_stack([t, r])
    return np.block([[tm, -rm], [rm, tm]])


def embed_quaternion(q) -> np.ndarray:
    """Real 4n x 4n matrix of left multiplication by a quaternion n x n matrix.

    ``q`` is a Quaternion, or a square nested sequence of Quaternion values.
    Each scalar entry becomes its 4x4 left-multiplication block, so the map
    is a unital algebra homomorphism of M_n(H) into M_4n(R).
    """
    if isinstance(q, Quaternion):
        rows = [[q]]
    else:
        rows = [list(row) for row in q]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ShapeMismatchError("quaternion matrix must be square")
    out = np.zeros((4 * n, 4 * n))
    for i in range(n):
        for j in range(n):
            entry = rows[i][j]
            if not isinstance(entry, Quaternion):
                entry = Quaternion(float(entry))
            out[4 * i:4 * i + 4, 4 * j:4 * j + 4] = left_mult_matrix(entry)
    return out


def _pure_form(x: np.ndarray, y: np.ndarray) -> float:
    # On traceless elements of a division algebra, -tr(xy)/n is the Euclidean
    # pairing of the imaginary parts; it is invariant under similarity, which
    # the Frobenius pairing tr(x^T y) is not.
    return -float(np.trace(x @ y)) / x.shape[0]


def frobenius_recognize(commutant_basis, tol: Tolerance = DEFAULT_TOL) -> DivisionStructure:
    """Recognize a commutant span as R, C or H and extract explicit units.

    The caller guarantees the span is a division algebra (e.g. the commutant
    of a transitive algebra).  Units are obtained from the traceless parts of
    basis elements, orthogonalized under the multiplicative trace form, with
    K_op defined as I_op @ J_op so the ijk = -1 convention holds exactly.  The
    basis is read as one (k, n, n) array: its traceless parts are one broadcast,
    and the scales and relation residuals one ``frobenius_norms`` call each.
    """
    if not len(commutant_basis):
        raise BadDimensionError("empty commutant basis")
    mats = as_stack(commutant_basis)
    n = mats.shape[1]
    dim = orthonormal_rows(mats.reshape(len(mats), n * n), tol).shape[0]
    if dim not in (1, 2, 4):
        raise BadDimensionError(f"commutant span has dimension {dim}, expected 1, 2 or 4")

    if dim == 1:
        return DivisionStructure(AlgebraType.REAL, ())

    # Gram-Schmidt on the traceless parts under the pure form.
    eye = np.eye(n)
    units = []
    scale = float(frobenius_norms(mats).max())
    for x in mats - (np.trace(mats, axis1=1, axis2=2) / n)[:, None, None] * eye:
        for u in units:
            x = x - _pure_form(x, u) * u
        nrm = math.sqrt(max(_pure_form(x, x), 0.0))
        # a basis element near the identity leaves a traceless part of rounding noise,
        # amplified by a similarity of condition up to the conditioning budget
        if tol.is_zero(nrm, scale * _CONDITIONING_BUDGET):
            continue
        units.append(x / nrm)
        if len(units) == dim - 1:
            break
    if len(units) != dim - 1:
        raise NotAntiInvolutiveError(
            "could not extract enough anti-involutive units; span is not a division algebra"
        )

    unit_scale = max(1.0, float(frobenius_norms(np.array(units)).max()))
    if dim == 2:
        w = units[0]
        if not tol.relation_ok(frobenius_norms(w @ w + eye), unit_scale ** 2, n):
            raise NotAntiInvolutiveError("rescaled candidate W fails W^2 = -1")
        return DivisionStructure(AlgebraType.COMPLEX, (w,))

    i_op, j_op = units[:2]
    k_op = i_op @ j_op
    # i j k, evaluated (i j) k, is k k bit for bit: one residual serves both relations.
    # k = ij carries two unit factors, so its relations live at scale^4.
    residuals = frobenius_norms(np.array([i_op @ i_op + eye, j_op @ j_op + eye,
                                          k_op + j_op @ i_op, k_op @ k_op + eye]))
    if not (tol.relation_ok(residuals[:3].max(), unit_scale ** 2, n)
            and tol.relation_ok(residuals[3], unit_scale ** 4, n)):
        raise NotAntiInvolutiveError(
            f"candidate units fail the quaternion relations (residual {residuals.max():.3e})"
        )
    return DivisionStructure(AlgebraType.QUATERNION, (i_op, j_op, k_op))
