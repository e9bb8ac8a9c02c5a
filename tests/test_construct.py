import numpy as np
import pytest

from conftest import greedy_oracle, random_similarity
from lomlab.classify import classify_type
from lomlab.construct import (
    _CAYLEY,
    CONJUGATION_BY_J,
    GROUP_ELEMENTS,
    GROUP_UNITS,
    GenericPair,
    build_pcs,
    build_quaternion_rep,
    generic_pair_pcs,
    group_inverse,
    group_mean,
    group_mult,
    pcs_commutant_algebra,
    rep_commutant_algebra,
    solve_popolam,
    t_vf,
    twisted_rep,
)
from lomlab.division import AlgebraType, Quaternion, embed_quaternion, left_mult_matrix, quat_mul
from lomlab.errors import (
    BadScheduleError,
    NotComplementaryError,
    NotInvariantError,
    ShapeMismatchError,
    SingularSystemError,
    SingularTwistError,
)
from lomlab.numeric import rank_of

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
L_I = embed_quaternion(Quaternion(0, 1, 0, 0))
L_J = embed_quaternion(Quaternion(0, 0, 1, 0))


# --- group table ---------------------------------------------------------------

def test_group_table():
    assert group_mult("i", "j") == "k"
    assert group_mult("j", "i") == "-k"
    assert group_mult("-1", "-1") == "1"
    assert group_inverse("i") == "-i"
    assert group_inverse("1") == "1"
    # conjugation by j fixes j, negates i and k
    assert CONJUGATION_BY_J["i"] == "-i"
    assert CONJUGATION_BY_J["j"] == "j"
    assert CONJUGATION_BY_J["k"] == "-k"
    # it really is conjugation: alpha(g) = j g j^{-1}
    for g in GROUP_ELEMENTS:
        assert CONJUGATION_BY_J[g] == group_mult(group_mult("j", g), group_inverse("j"))

    # the whole table against a tolerant search over the units
    def label_of(q):
        (label,) = [g for g, unit in GROUP_UNITS.items() if q.isclose(unit)]
        return label

    for a in GROUP_ELEMENTS:
        assert group_inverse(a) == label_of(GROUP_UNITS[a].conjugate())
        for b in GROUP_ELEMENTS:
            assert group_mult(a, b) == label_of(quat_mul(GROUP_UNITS[a], GROUP_UNITS[b]))


def test_cayley_table_is_the_group_table():
    assert _CAYLEY.shape == (8, 8)
    for a, g in enumerate(GROUP_ELEMENTS):
        for b, h in enumerate(GROUP_ELEMENTS):
            assert GROUP_ELEMENTS[_CAYLEY[a, b]] == group_mult(g, h)


# --- build_pcs -------------------------------------------------------------------

def test_build_pcs_unit_block():
    pcs = build_pcs(1, [1.0])
    assert np.array_equal(pcs.matrix, J2)
    assert pcs.anti_involution_residual() == 0.0


def test_build_pcs_scaled_block():
    pcs = build_pcs(2, [1.0, 2.0])
    block = pcs.matrix[2:, 2:]
    assert np.array_equal(block, np.array([[0.0, -2.0], [0.5, 0.0]]))
    assert np.allclose(block @ block, -np.eye(2))
    assert np.linalg.norm(block, 2) == pytest.approx(2.0)
    pcs.validate()


def test_build_pcs_growing_schedule():
    pcs = build_pcs(4, [1.0, 2.0, 3.0, 4.0])
    svals = np.linalg.svd(pcs.matrix, compute_uv=False)
    assert svals[0] == pytest.approx(4.0)
    assert pcs.anti_involution_residual() <= 1e-12


def test_build_pcs_bad_schedule():
    with pytest.raises(BadScheduleError):
        build_pcs(1, [0.5])
    with pytest.raises(BadScheduleError):
        build_pcs(2, [1.0])


# --- t_vf -------------------------------------------------------------------------

def test_t_vf_identity_example():
    pcs = build_pcs(1, [1.0])
    t = t_vf([1.0, 0.0], [1.0, 0.0], pcs)
    assert np.allclose(t, np.eye(2))


def test_t_vf_zero_vector():
    pcs = build_pcs(1, [1.0])
    assert np.allclose(t_vf([0.0, 0.0], [1.0, 2.0], pcs), np.zeros((2, 2)))


def test_t_vf_rank_and_commutation():
    rng = np.random.default_rng(0)
    pcs = build_pcs(3, [1.0, 2.0, 3.0])
    s = pcs.matrix
    for _ in range(10):
        v, f = rng.standard_normal(6), rng.standard_normal(6)
        t = t_vf(v, f, pcs)
        assert rank_of(t) == 2
        assert np.linalg.norm(t @ s - s @ t) <= 1e-12 * max(1, np.linalg.norm(t))
        # action rule: T x = f(x) v - f(Sx) Sv
        x = rng.standard_normal(6)
        assert np.allclose(t @ x, (f @ x) * v - (f @ (s @ x)) * (s @ v), atol=1e-12)
        # range of T is S-invariant (it is spanned by v and Sv)
        basis = np.stack([v, s @ v]).T
        img = s @ t
        coeff, *_ = np.linalg.lstsq(basis, img, rcond=None)
        assert np.linalg.norm(basis @ coeff - img) <= 1e-10


# --- pcs commutant ------------------------------------------------------------------

def test_pcs_commutant_r2():
    alg = pcs_commutant_algebra(build_pcs(1, [1.0]))
    assert alg.dim == 2
    assert classify_type(alg) is AlgebraType.COMPLEX


def test_pcs_commutant_r4_dimension():
    alg = pcs_commutant_algebra(build_pcs(2, [1.0, 1.0]))
    assert alg.dim == 8  # n^2 / 2


def test_pcs_commutant_contains_every_t_vf():
    rng = np.random.default_rng(1)
    pcs = build_pcs(2, [1.0, 3.0])
    alg = pcs_commutant_algebra(pcs)
    assert alg.dim == 8
    for _ in range(10):
        t = t_vf(rng.standard_normal(4), rng.standard_normal(4), pcs)
        _, res = alg.contains(t)
        assert res <= 1e-10


# --- generic pairs -------------------------------------------------------------------

def test_generic_pair_block_example():
    unit = np.kron(np.eye(2), J2)
    pair = GenericPair(np.eye(4)[:, :2], np.eye(4)[:, 2:])
    pcs = generic_pair_pcs(pair, unit)
    expected = np.zeros((4, 4))
    expected[:2, :2] = J2
    expected[2:, 2:] = -J2
    assert np.allclose(pcs.matrix, expected)
    assert pcs.cond == pytest.approx(1.0)


def test_generic_pair_rejects_equal_subspaces():
    unit = np.kron(np.eye(2), J2)
    pair = GenericPair(np.eye(4)[:, :2], np.eye(4)[:, :2])
    with pytest.raises(NotComplementaryError):
        generic_pair_pcs(pair, unit)


def test_generic_pair_rejects_wrong_dimensions():
    unit = np.kron(np.eye(2), J2)
    pair = GenericPair(np.eye(4)[:, :2], np.eye(4)[:, 2:3])
    with pytest.raises(NotComplementaryError):
        generic_pair_pcs(pair, unit)


def test_generic_pair_rejects_noninvariant():
    unit = np.kron(np.eye(2), J2)
    m = np.eye(4)[:, :2]
    n = np.zeros((4, 2))
    n[2, 0] = 1.0                 # e3
    n[1, 1] = 1.0; n[3, 1] = 1.0  # e2 + e4: complementary but not U-invariant
    with pytest.raises(NotInvariantError):
        generic_pair_pcs(GenericPair(m, n), unit)


def tilted_pair(theta):
    """Second subspace = the first rotated by theta in a J-commuting plane.

    theta -> 0 collapses the pair onto itself; theta = pi/2 is orthogonal.
    """
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([
        [c, 0.0, -s, 0.0],
        [0.0, c, 0.0, -s],
        [s, 0.0, c, 0.0],
        [0.0, s, 0.0, c],
    ])
    m = np.eye(4)[:, :2]
    return GenericPair(m, rot @ m)


def test_generic_pair_norm_grows_as_tilt_closes():
    unit = np.kron(np.eye(2), J2)
    norms = []
    conds = []
    for theta in (0.8, 0.4, 0.2, 0.1):
        pcs = generic_pair_pcs(tilted_pair(theta), unit)
        pcs.validate()
        norms.append(np.linalg.norm(pcs.matrix, 2))
        conds.append(pcs.cond)
    assert norms == sorted(norms)
    assert conds == sorted(conds)
    assert norms[-1] > 5 * norms[0]


# --- quaternion representations -------------------------------------------------------

def test_rep_untwisted_matches_embedding():
    rep = build_quaternion_rep(1)
    assert np.array_equal(rep.pi["i"], L_I)
    rep.validate()
    assert np.array_equal(rep.pi["1"], np.eye(4))
    assert np.array_equal(rep.pi["-1"], -np.eye(4))


def test_rep_twist_conjugation_keeps_relations():
    rep = build_quaternion_rep(2, [np.eye(4), np.diag([1.0, 2.0, 1.0, 1.0])])
    rep.validate()
    assert rep.homomorphism_residual() <= 1e-12


def test_rep_growing_twists_raise_norms():
    norms = []
    for scale in (1.0, 4.0, 16.0):
        rep = build_quaternion_rep(1, [np.diag([1.0, scale, 1.0, 1.0])])
        norms.append(max(np.linalg.norm(rep.pi[g], 2) for g in GROUP_ELEMENTS))
    assert norms == sorted(norms)
    assert norms[-1] > norms[0]


def test_rep_rejects_singular_twist():
    with pytest.raises(SingularTwistError):
        build_quaternion_rep(1, [np.diag([1.0, 0.0, 1.0, 1.0])])


def test_twisted_rep_block_actions():
    tau = build_quaternion_rep(2)
    pair = GenericPair(np.eye(8)[:, :4], np.eye(8)[:, 4:])
    rep = twisted_rep(pair, tau)
    rep.validate()
    zero = np.zeros((4, 4))
    assert np.allclose(rep.pi["i"], np.block([[L_I, zero], [zero, -L_I]]))
    assert np.allclose(rep.pi["j"], np.block([[L_J, zero], [zero, L_J]]))
    assert rep.homomorphism_residual() <= 1e-12


def test_twisted_rep_rejects_noninvariant_pair():
    tau = build_quaternion_rep(2)
    m = np.eye(8)[:, :4]
    n = np.eye(8)[:, 3:7]  # mixes the two quaternionic blocks
    with pytest.raises((NotInvariantError, NotComplementaryError)):
        twisted_rep(GenericPair(m, n), tau)


def loop_quaternion_rep(m, twists):
    """Reference builder: each block t L(g) t^-1 placed by its own product."""
    pi = {}
    for g in GROUP_ELEMENTS:
        lg = left_mult_matrix(GROUP_UNITS[g])
        blocks = np.zeros((4 * m, 4 * m))
        for b, t in enumerate(twists):
            blocks[4 * b:4 * b + 4, 4 * b:4 * b + 4] = t @ lg @ np.linalg.inv(t)
        pi[g] = blocks
    return pi


def loop_homomorphism_residual(rep):
    """Reference residual: one product and one norm per pair of group elements."""
    return max(float(np.linalg.norm(rep.pi[g] @ rep.pi[h] - rep.pi[group_mult(g, h)]))
               for g in GROUP_ELEMENTS for h in GROUP_ELEMENTS)


def loop_group_mean(k, rep):
    out = np.zeros_like(k)
    for g in GROUP_ELEMENTS:
        out += rep.pi[g] @ k @ rep.pi[group_inverse(g)]
    return out


@pytest.mark.parametrize("seed", range(24))
def test_batched_rep_matches_the_loops_bit_for_bit(seed):
    # untwisted reps, twists up to kappa = 1e2, and reps twisted on a pair
    rng = np.random.default_rng(seed)
    m = 1 + seed % 4
    twists = [np.eye(4)] * m if seed % 3 == 0 else \
        [random_similarity(rng, 4, 10.0 ** rng.uniform(0.0, 2.0)) for _ in range(m)]
    rep = build_quaternion_rep(m, None if seed % 3 == 0 else twists)
    reference = loop_quaternion_rep(m, twists)
    for g in GROUP_ELEMENTS:
        assert np.array_equal(rep.pi[g], reference[g])
    reps = [rep]
    if m > 1:
        n = 4 * m
        pair = GenericPair(np.eye(n)[:, :4], np.eye(n)[:, 4:])
        reps.append(twisted_rep(pair, rep))
    for r in reps:
        assert r.homomorphism_residual() == loop_homomorphism_residual(r)
        k = rng.standard_normal((r.n, r.n))
        assert np.array_equal(group_mean(k, r), loop_group_mean(k, r))


def quaternion_basis_of(columns, tau, tol_rank=1e-9):
    """Greedy quaternionic basis of a tau-invariant subspace given by columns."""
    units = [tau.pi["i"], tau.pi["j"], tau.pi["k"]]
    return [columns[:, j] for j in greedy_oracle(columns.T, units)]


def test_twisted_rep_swap_conjugacy():
    # swapping the two subspaces yields a representation conjugate to the
    # original by an explicit tau-equivariant swap V with V(M)=N and V(N)=M
    tau = build_quaternion_rep(2, [np.eye(4), np.diag([1.0, 1.5, 1.0, 0.5])])
    m_cols, n_cols = np.eye(8)[:, :4], np.eye(8)[:, 4:]
    pair_mn = GenericPair(m_cols, n_cols)
    pair_nm = GenericPair(n_cols, m_cols)
    rep_mn = twisted_rep(pair_mn, tau)
    rep_nm = twisted_rep(pair_nm, tau)

    m_basis = quaternion_basis_of(m_cols, tau)
    n_basis = quaternion_basis_of(n_cols, tau)
    assert len(m_basis) == len(n_basis) == 1
    cols, targets = [], []
    for g in ("1", "i", "j", "k"):
        for mi, ni in zip(m_basis, n_basis):
            cols.append(tau.pi[g] @ mi)
            targets.append(tau.pi[g] @ ni)
            cols.append(tau.pi[g] @ ni)
            targets.append(tau.pi[g] @ mi)
    cols = np.stack(cols, axis=1)
    targets = np.stack(targets, axis=1)
    v = targets @ np.linalg.inv(cols)
    for g in GROUP_ELEMENTS:
        lhs = v @ rep_mn.pi[g] @ np.linalg.inv(v)
        assert np.allclose(lhs, rep_nm.pi[g], atol=1e-9)


# --- group mean and the functional solver ----------------------------------------------

def test_group_mean_identity():
    rep = build_quaternion_rep(1)
    assert np.allclose(group_mean(np.eye(4), rep), 8 * np.eye(4))


def test_group_mean_commutes():
    rng = np.random.default_rng(2)
    rep = build_quaternion_rep(1)
    k = rng.standard_normal((4, 4))
    m = group_mean(k, rep)
    for g in GROUP_ELEMENTS:
        assert np.linalg.norm(rep.pi[g] @ m - m @ rep.pi[g]) <= 1e-12 * max(1, np.linalg.norm(m))


def test_group_mean_equals_tensor_sum():
    # independent formula: sum over g of (pi(g) y) (x) (f o pi(g^{-1}))
    rng = np.random.default_rng(3)
    rep = build_quaternion_rep(2, [np.eye(4), np.diag([1.0, 2.0, 1.0, 1.0])])
    y, f = rng.standard_normal(8), rng.standard_normal(8)
    direct = group_mean(np.outer(y, f), rep)
    tensor = sum(np.outer(rep.pi[g] @ y, f @ rep.pi[group_inverse(g)])
                 for g in GROUP_ELEMENTS)
    assert np.allclose(direct, tensor, atol=1e-12)


def test_group_mean_shape_mismatch():
    rep = build_quaternion_rep(1)
    with pytest.raises(ShapeMismatchError):
        group_mean(np.eye(3), rep)


def test_popolam_untwisted_basis_vector():
    rep = build_quaternion_rep(1)
    f = solve_popolam(np.eye(4)[0], rep)
    assert np.allclose(f, [0.5, 0.0, 0.0, 0.0], atol=1e-12)


def test_popolam_rejects_zero():
    rep = build_quaternion_rep(1)
    with pytest.raises(ValueError):
        solve_popolam(np.zeros(4), rep)


def test_popolam_rejects_degenerate_rep():
    # a malformed "representation" with pi(g) = I for every g collapses the system
    fake = build_quaternion_rep(1)
    object.__setattr__(fake, "pi", {g: np.eye(4) for g in GROUP_ELEMENTS})
    with pytest.raises(SingularSystemError):
        solve_popolam(np.eye(4)[0], fake)


def test_popolam_feeds_interpolation():
    rng = np.random.default_rng(4)
    for twists in (None, [np.eye(4), np.diag([1.0, 2.0, 1.0, 1.0])]):
        rep = build_quaternion_rep(2, twists)
        for _ in range(20):
            x = rng.standard_normal(8)
            y = rng.standard_normal(8)
            f = solve_popolam(x, rep)
            t = group_mean(np.outer(y, f), rep)
            assert np.linalg.norm(t @ x - y) <= 1e-9 * max(1, np.linalg.norm(y))


# --- rep commutant ---------------------------------------------------------------------

def test_rep_commutant_dimensions():
    alg4 = rep_commutant_algebra(build_quaternion_rep(1))
    assert alg4.dim == 4
    alg8 = rep_commutant_algebra(build_quaternion_rep(2))
    assert alg8.dim == 16  # n^2 / 4
    assert classify_type(alg8) is AlgebraType.QUATERNION


def test_rep_commutant_contains_means():
    rng = np.random.default_rng(5)
    rep = build_quaternion_rep(2, [np.eye(4), np.diag([1.0, 2.0, 1.0, 1.0])])
    alg = rep_commutant_algebra(rep)
    assert alg.dim == 16
    for _ in range(5):
        m = group_mean(rng.standard_normal((8, 8)), rep)
        _, res = alg.contains(m)
        assert res <= 1e-9 * max(1, np.linalg.norm(m))
