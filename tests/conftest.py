import json

import numpy as np
import pytest

from lomlab.cli import corpus_paths, load_instance, matrix_from_json
from lomlab.division import Quaternion, embed_complex, embed_quaternion
from lomlab.engine import MatrixAlgebra, generate_algebra
from lomlab.numeric import _CONDITIONING_BUDGET, DEFAULT_TOL, nullspace_of, orthonormal_rows


def random_similarity(rng, n, cond):
    """Random invertible matrix with the prescribed condition number."""
    a = rng.standard_normal((n, n))
    u, _, vt = np.linalg.svd(a)
    s = np.geomspace(1.0, cond, n)
    return u @ np.diag(s) @ vt


def random_quaternion(rng):
    return Quaternion(*rng.standard_normal(4))


def planted_generators(rng, kind, max_ambient=16):
    """Two generators of a full matrix algebra of the given type.

    Returns (generators, ambient_dim).  Two generic elements generate the
    whole algebra, so the span of words is all of M_n over R, C or H.
    """
    if kind == "Real":
        n = int(rng.integers(2, max_ambient + 1))
        return [rng.standard_normal((n, n)) for _ in range(2)], n
    if kind == "Complex":
        n = int(rng.integers(1, max_ambient // 2 + 1))
        gens = [embed_complex(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
                for _ in range(2)]
        return gens, 2 * n
    if kind == "Quaternion":
        n = int(rng.integers(1, max_ambient // 4 + 1))
        gens = [embed_quaternion([[random_quaternion(rng) for _ in range(n)]
                                  for _ in range(n)]) for _ in range(2)]
        return gens, 4 * n
    raise ValueError(kind)


def planted_algebra(rng, kind, max_ambient=16, cond=None):
    """Full matrix algebra of the given type, optionally conjugated."""
    gens, ambient = planted_generators(rng, kind, max_ambient)
    if cond is not None:
        p = random_similarity(rng, ambient, cond)
        pinv = np.linalg.inv(p)
        gens = [p @ g @ pinv for g in gens]
    return generate_algebra(gens, include_identity=True)


def kronecker_commutant(mats, tol=DEFAULT_TOL):
    """Reference commutant, independent of lomlab's spin: an orthonormal (k, n, n) basis
    of the common kernel of the stacked maps X -> XB - BX, each B scaled to unit norm,
    as an n^2 x n^2 Kronecker system per matrix."""
    n = len(mats[0])
    eye = np.eye(n)
    blocks = []
    for b in mats:
        nrm = float(np.linalg.norm(b))
        bb = b / nrm if nrm > tol.abs_eps else b
        # row-major vec: vec(X B) = (I (x) B^T) vec X, vec(B X) = (B (x) I) vec X
        blocks.append(np.kron(eye, bb.T) - np.kron(bb, eye))
    return nullspace_of(np.vstack(blocks), tol, _CONDITIONING_BUDGET).T.reshape(-1, n, n)


def greedy_oracle(vectors, units, need=None):
    """Reference greedy D-basis: the indices of the rows of ``vectors`` picked in order,
    each one kept when it is not in the module span {x, U x, ...} of the picks so far
    (``units`` are D's anti-involutive units), stopping after ``need`` picks.  The whole
    span is re-orthonormalized after each pick."""
    picked, span = [], np.zeros((0, vectors.shape[1]))
    for idx, x in enumerate(vectors):
        if len(picked) == need:
            break
        nrm = np.linalg.norm(x)
        if nrm <= DEFAULT_TOL.abs_eps \
                or DEFAULT_TOL.residual_ok(np.linalg.norm(x - span.T @ (span @ x)), nrm):
            continue
        picked.append(idx)
        block = np.stack([o / np.linalg.norm(o) for o in [x] + [u @ x for u in units]])
        span = orthonormal_rows(np.vstack([span, block]))
    return picked


def conjugated_reducible_algebra(kind, n, split, p):
    """The algebra p X p^-1 over X in: block upper-triangular matrices with diagonal
    blocks of sizes split and n - split ("triangular"), M_split + M_(n - split)
    ("diagonal"), or M_(n/2) (x) I_2 ("tensor").  Returns the conjugated matrix
    units that span it, and the algebra with an orthonormal basis, as
    generate_algebra returns it."""
    if kind == "tensor":
        m = n // 2
        units = [np.kron(np.outer(np.eye(m)[i], np.eye(m)[j]), np.eye(2))
                 for i in range(m) for j in range(m)]
    else:
        units = [np.outer(np.eye(n)[i], np.eye(n)[j]) for i in range(n) for j in range(n)
                 if (i < split or j >= split)
                 and (kind == "triangular" or (i < split) == (j < split))]
    return conjugated_span(units, p)


def conjugated_span(units, p):
    """The matrices p u p^-1 over ``units``, and the algebra they span with an
    orthonormal basis, as generate_algebra returns it but with no closure rounds."""
    n = len(p)
    mats = [p @ u @ np.linalg.inv(p) for u in units]
    basis = orthonormal_rows(np.stack([m.reshape(-1) for m in mats]))
    return mats, MatrixAlgebra(n, tuple(basis.reshape(-1, n, n)), unital=True)


def load_corpus():
    """All shipped corpus payloads, keyed by name."""
    out = {}
    for path in corpus_paths():
        payload = load_instance(path)
        out[payload["name"]] = payload
    return out


def corpus_algebra(payload):
    """Build the MatrixAlgebra described by an algebra corpus payload."""
    gens = [matrix_from_json(g) for g in payload["generators"]]
    return generate_algebra(gens, bool(payload["include_identity"]))


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def corpus_algebras(corpus):
    """Transitive corpus algebras with their expected classification."""
    out = {}
    for name, payload in corpus.items():
        if payload["kind"] != "algebra" or "error" in payload.get("expect", {}):
            continue
        out[name] = (corpus_algebra(payload), payload["expect"])
    return out
