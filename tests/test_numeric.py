import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lomlab.division import embed_complex, frobenius_recognize
from lomlab.engine import commutant, generate_algebra, min_rank, riesz_projection
from lomlab.errors import (
    ClusterContainsZeroError,
    NoSolutionError,
    NonFiniteError,
    ShapeMismatchError,
)
from lomlab.numeric import (
    _CONDITIONING_BUDGET,
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_stack,
    frobenius_norms,
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


@pytest.mark.parametrize("field, value", [
    ("abs_eps", float("nan")), ("abs_eps", float("inf")),
    ("rel_eps", float("nan")), ("rel_eps", float("inf")),
])
def test_tolerance_rejects_nonfinite(field, value):
    with pytest.raises(ValueError, match=field):
        Tolerance(**{field: value})


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


@pytest.mark.parametrize("mats, n", [
    ([np.eye(2), np.eye(3)], None),
    ([np.eye(2), np.eye(3)], 2),
    (np.ones((2, 2, 3)), None),
    (np.ones((2, 3, 3)), 2),
    (np.eye(2), 2),
    (np.ones((1, 0, 0)), None),
    ([], None),
], ids=["ragged", "ragged-with-n", "not-square", "wrong-n", "2-d", "size-0", "empty-without-n"])
def test_as_stack_rejects_misshapen_input(mats, n):
    with pytest.raises(ShapeMismatchError):
        as_stack(mats, n)


def test_as_stack_rejects_nonfinite_input():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteError):
            as_stack([np.eye(2), np.array([[1.0, bad], [0.0, 1.0]])], 2)


def test_as_stack_reads_an_empty_sequence_as_no_matrices_of_size_n():
    for empty in ([], (), np.zeros((0, 3, 3))):
        stack = as_stack(empty, 2)
        assert stack.shape == (0, 2, 2) and stack.dtype == np.float64


def test_as_stack_is_a_read_only_copy():
    mats = np.random.default_rng(0).standard_normal((3, 4, 4))
    for source in (mats, list(mats), mats.astype(np.float32)):
        stack = as_stack(source, 4)
        assert stack.dtype == np.float64 and stack.shape == (3, 4, 4)
        assert np.array_equal(stack, np.asarray(source, dtype=float))
        assert not np.shares_memory(stack, mats) and not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0
    assert as_stack(mats).shape == (3, 4, 4)


def test_orthonormal_rows():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 6))
    stacked = np.vstack([m, m, 2 * m])
    q = orthonormal_rows(stacked)
    assert q.shape == (3, 6)
    assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)


def test_orthonormal_rows_cuts_each_matrix_at_its_own_rank():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 3, 6))
    a[1, 2] = a[1, 0] + a[1, 1]  # rank 2
    a[2] = 0.0  # rank 0
    a[3, 1] *= 1e-13  # below the matrix's own cutoff
    assert [len(orthonormal_rows(ai)) for ai in a] == [3, 2, 0, 2]
    assert orthonormal_rows(a[2]).shape == (0, 6)


@st.composite
def complement_cases(draw):
    """Orthonormal S, and M = A S + B E + rounding-level noise for an orthonormal E
    orthogonal to S, with B of known rank; M's rows are of size ``scale``."""
    cols = draw(st.integers(2, 12))
    k = draw(st.integers(1, cols - 1))
    j = draw(st.integers(1, cols - k))
    rows = draw(st.integers(1, 8))
    rank_b = draw(st.integers(0, min(rows, j)))
    scale = 10.0 ** draw(st.floats(0.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.standard_normal((cols, k + j)))[0].T
    s, e = q[:k], q[k:]
    left = np.linalg.qr(rng.standard_normal((rows, rows)))[0][:, :rank_b]
    right = np.linalg.qr(rng.standard_normal((j, j)))[0][:rank_b]
    b = left @ np.diag(rng.uniform(0.1, 1.0, rank_b)) @ right
    m = scale * (rng.standard_normal((rows, k)) @ s + b @ e
                 + 1e-16 * rng.standard_normal((rows, cols)))
    return s, m, rank_b


@given(complement_cases())
@settings(max_examples=100, deadline=None)
def test_orthonormal_rows_against_a_span_keeps_only_what_m_adds(case):
    s, m, rank_b = case
    q = orthonormal_rows(m, against=s)
    assert q.shape == (rank_b, m.shape[1])
    assert np.allclose(q @ q.T, np.eye(rank_b), atol=1e-12)
    assert np.max(np.abs(q @ s.T), initial=0.0) <= 1e-12


def test_rows_in_the_span_up_to_rounding_add_nothing():
    # a cut relative to the residual's own s_max keeps its rounding as directions
    rng = np.random.default_rng(1)
    s = np.linalg.qr(rng.standard_normal((6, 3)))[0].T
    m = 1e6 * (rng.standard_normal((4, 3)) @ s)
    assert orthonormal_rows(m, against=s).shape == (0, 6)
    residual = m
    for _ in range(2):
        residual = residual - (residual @ s.T) @ s
    assert len(orthonormal_rows(residual)) > 0


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


def test_svd_retry_covers_min_rank(monkeypatch):
    rng = np.random.default_rng(6)
    alg = generate_algebra([embed_complex(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
                            for _ in range(2)], include_identity=True)
    structure = frobenius_recognize(commutant(alg))
    calls = flaky_svd(monkeypatch, failures=1)
    assert min_rank(alg, structure) == 2
    assert calls[0].shape == (4, 4)  # the probe element's SVD took the retry


# --- the tolerance policy at its thresholds -----------------------------------

tolerances = st.builds(Tolerance, rel_eps=st.floats(1e-12, 1e-4), abs_eps=st.floats(0.0, 1e-8))
sizes = st.floats(1e-3, 1e6)
above = st.just(True) | st.just(False)


def one_ulp_above(x):
    return float(np.nextafter(x, np.inf))


@given(tolerances, sizes, st.integers(2, 5), st.integers(2, 5), above)
@settings(max_examples=80, deadline=None)
def test_singular_value_at_cutoff_is_zero(tol, s0, rows, cols, bump):
    cut = tol.cutoff(s0)  # below s0 for every drawn tolerance
    second = one_ulp_above(cut) if bump else cut
    m = np.zeros((rows, cols))
    m[0, 0], m[1, 1] = s0, second
    # diagonal input: every SVD path returns these exact singular values
    for s in (svd(m, compute_uv=False), svd(m)[1], svd(m, full_matrices=False)[1]):
        assume(s[0] == s0 and s[1] == second)
    rank = 2 if bump else 1
    assert rank_of(m, tol) == rank
    assert nullspace_of(m, tol).shape[1] == cols - rank
    s = svd(m, compute_uv=False)
    for budget in (1.0, 1e3):  # the commutant and witness cuts pass 1e3
        kept = 1 + int(second > tol.cutoff(s0 * budget))
        assert tol.rank(s, budget) == kept
        assert nullspace_of(m, tol, budget).shape[1] == cols - kept
    assert orthonormal_rows(m, tol).shape[0] == rank
    b = np.zeros(rows)
    b[1] = 1.0
    x, res = solve_least_squares(m, b, tol)
    if bump:
        assert x[1] == pytest.approx(1.0 / second) and res < 1e-12
    else:
        assert x[1] == 0.0 and res == 1.0


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_rank_plus_nullity_is_cols(m):
    rank = rank_of(m)
    assert rank + nullspace_of(m).shape[1] == m.shape[1]
    assert orthonormal_rows(m).shape[0] == rank


@given(tolerances, sizes, st.integers(1, 64))
@settings(max_examples=80, deadline=None)
def test_policy_accepts_at_threshold_and_rejects_one_ulp_above(tol, scale, n):
    checks = [
        (tol.is_zero, (scale,), tol.cutoff(scale)),
        (tol.residual_ok, (scale,), tol.cutoff(1.0) * scale * 1e3),
        (tol.relation_ok, (scale, n), tol.cutoff(scale) * n * 10),
        (tol.leak_ok, (scale, n), tol.cutoff(scale) * n * 100),
    ]
    for method, args, threshold in checks:
        assert method(threshold, *args)
        assert not method(one_ulp_above(threshold), *args)
    threshold = tol.cutoff(scale * _CONDITIONING_BUDGET)
    tol.check_interpolation(threshold, scale)
    with pytest.raises(NoSolutionError, match="interpolation infeasible"):
        tol.check_interpolation(one_ulp_above(threshold), scale)


@given(tolerances, st.lists(sizes, min_size=1, max_size=6), st.integers(1, 64))
@settings(max_examples=80, deadline=None)
def test_policy_on_arrays_decides_each_entry_as_on_scalars(tol, scales, n):
    # one array comparison stands for a loop of scalar decisions, bit for bit, at
    # each threshold and one ulp above it
    checks = [
        (tol.relation_ok, lambda s: tol.cutoff(s) * n * 10, (n,)),
        (tol.leak_ok, lambda s: tol.cutoff(s) * n * 100, (n,)),
        (tol.interpolation_ok, lambda s: tol.cutoff(s * _CONDITIONING_BUDGET), ()),
    ]
    for method, threshold, rest in checks:
        values = [threshold(s) if i % 2 else one_ulp_above(threshold(s))
                  for i, s in enumerate(scales)]
        got = method(np.array(values), np.array(scales), *rest)
        assert got.tolist() == [bool(method(v, s, *rest)) for v, s in zip(values, scales)]
        assert got.tolist() == [bool(i % 2) for i in range(len(scales))]


@given(st.integers(0, 3), st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_frobenius_norms_match_one_norm_per_matrix_bit_for_bit(count, rows, cols, seed):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((count, 2, rows, cols)) * 10.0 ** rng.uniform(-8, 8)
    got = frobenius_norms(stack)
    assert got.shape == (count, 2)
    assert got.tolist() == [[float(np.linalg.norm(m)) for m in pair] for pair in stack]


@given(tolerances, st.floats(1.0, 1e3))
@settings(max_examples=40, deadline=None)
def test_spectral_floor_separates_eigenvalues_from_zero(tol, top):
    floor = tol.spectral_floor(top)
    assert floor == 10 * tol.cutoff(top)
    with pytest.raises(ClusterContainsZeroError):
        riesz_projection(np.diag([top, floor]), [floor], tol)
    small = one_ulp_above(floor)
    proj, _ = riesz_projection(np.diag([top, small]), [small], tol)
    assert np.allclose(proj, np.diag([0.0, 1.0]))
