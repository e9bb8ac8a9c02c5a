import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lomlab.errors import NonFiniteError, ShapeMismatchError
from lomlab.numeric import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    nullspace_of,
    orthonormal_rows,
    rank_of,
    solve_least_squares,
    svd,
)

small_matrices = arrays(
    float, st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel_eps=0.0)
    with pytest.raises(ValueError):
        Tolerance(abs_eps=-1.0)
    assert Tolerance(rel_eps=1e-6).cutoff(100.0) == pytest.approx(1e-4)


def test_rank_examples():
    assert rank_of([[1, 0], [0, 0]]) == 1
    assert rank_of([[0, 0], [0, 0]]) == 0
    assert rank_of([[0, -1], [1, 0]]) == 2


def test_rank_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        rank_of([[np.nan, 0], [0, 1]])
    with pytest.raises(NonFiniteError):
        rank_of([[np.inf, 0], [0, 1]])


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_rank_transpose_invariant(m):
    assert rank_of(m) == rank_of(m.T)


def test_rank_similarity_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(0, n + 1))
        m = rng.standard_normal((n, r)) @ rng.standard_normal((r, n)) if r else np.zeros((n, n))
        # invertible factors with condition number well below 1/rel_eps
        def well_conditioned():
            a = rng.standard_normal((n, n))
            u, _, vt = np.linalg.svd(a)
            return u @ np.diag(np.geomspace(1, 50, n)) @ vt
        p, q = well_conditioned(), well_conditioned()
        assert rank_of(p @ m @ q) == r


def test_nullspace_examples():
    ns = nullspace_of([[1, 1], [1, 1]])
    assert ns.shape == (2, 1)
    expected = np.array([1, -1]) / np.sqrt(2)
    assert abs(abs(ns[:, 0] @ expected) - 1) < 1e-12

    assert nullspace_of(np.eye(3)).shape == (3, 0)

    ns2 = nullspace_of([[1, 0], [0, 0]])
    assert ns2.shape == (2, 1)
    assert abs(abs(ns2[1, 0]) - 1) < 1e-12


def test_nullspace_vectors_annihilate():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        r = int(rng.integers(0, min(rows, cols) + 1))
        m = (rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
             if r else np.zeros((rows, cols)))
        ns = nullspace_of(m)
        assert ns.shape[1] == cols - rank_of(m)
        if ns.shape[1]:
            s = np.linalg.svd(m, compute_uv=False)
            cut = DEFAULT_TOL.cutoff(s[0] if s.size else 0.0)
            assert np.linalg.norm(m @ ns, axis=0).max() <= 10 * max(cut, 1e-12)
        # columns orthonormal
        assert np.allclose(ns.T @ ns, np.eye(ns.shape[1]), atol=1e-12)


def test_lstsq_examples():
    x, res = solve_least_squares(np.eye(2), [3, 4])
    assert np.allclose(x, [3, 4]) and res < 1e-12

    x, res = solve_least_squares([[1], [1]], [0, 2])
    assert np.allclose(x, [1.0]) and abs(res - np.sqrt(2)) < 1e-12

    # normal equations by hand: A^T A x = A^T b gives x1 + x2 = 2, and the
    # minimum-norm representative is (1, 1) with zero residual
    x, res = solve_least_squares([[1, 1], [1, 1]], [2, 2])
    assert np.allclose(x, [1, 1]) and res < 1e-12


def test_lstsq_matches_normal_equations():
    rng = np.random.default_rng(2)
    for _ in range(30):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 5))
        a = rng.standard_normal((rows, cols))
        b = rng.standard_normal(rows)
        if min(rows, cols) > 4 or rank_of(a) < min(rows, cols):
            continue
        _, res = solve_least_squares(a, b)
        x_ne = np.linalg.solve(a.T @ a, a.T @ b) if cols <= rows else None
        if x_ne is None:
            # underdetermined full-rank: exact solve, residual 0
            assert res < 1e-10
        else:
            res_ne = np.linalg.norm(a @ x_ne - b)
            assert abs(res - res_ne) < 1e-12


def test_lstsq_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        solve_least_squares([[1, 0]], [1, 2])


def test_as_matrix_square_check():
    with pytest.raises(ShapeMismatchError):
        as_matrix([[1, 2, 3]], square=True)


def test_orthonormal_rows():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 6))
    stacked = np.vstack([m, m, 2 * m])
    q = orthonormal_rows(stacked)
    assert q.shape == (3, 6)
    assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)


def test_lstsq_batch_matches_single_solves():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 6, 4))
    a[1, :, 3] = a[1, :, 0]  # rank deficient: its own cutoff drops a direction
    b = rng.standard_normal((3, 6))
    x, res = solve_least_squares(a, b)
    assert x.shape == (3, 4) and res.shape == (3,)
    for i in range(3):
        xi, ri = solve_least_squares(a[i], b[i])
        assert np.allclose(x[i], xi, atol=1e-12)
        assert res[i] == pytest.approx(ri, abs=1e-12)
    with pytest.raises(ShapeMismatchError):
        solve_least_squares(a, b[:2])


def flaky_svd(monkeypatch, failures):
    """Make ``np.linalg.svd`` raise LinAlgError on its first ``failures`` calls."""
    real_svd = np.linalg.svd
    calls = []

    def flaky(*args, **kwargs):
        calls.append(args[0])
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky)
    return calls


def test_svd_retries_with_gesvd(monkeypatch):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 6))
    calls = flaky_svd(monkeypatch, failures=1)
    q = orthonormal_rows(np.vstack([m, m, 2 * m]))
    assert len(calls) == 1  # the retry ran through scipy's gesvd
    assert q.shape == (3, 6)
    assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)
    assert np.allclose(m @ q.T @ q, m, atol=1e-12)  # same row space


def test_svd_retry_keeps_batches(monkeypatch):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 5, 3))
    want = [np.linalg.svd(m, compute_uv=False) for m in a]
    calls = flaky_svd(monkeypatch, failures=1)
    u, s, vt = svd(a, full_matrices=False)
    assert len(calls) == 3  # the batch, then each matrix on its own
    for i, ws in enumerate(want):
        assert np.allclose(s[i], ws, atol=1e-12)
        assert np.allclose(u[i] * s[i] @ vt[i], a[i], atol=1e-12)
