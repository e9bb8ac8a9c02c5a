import dataclasses
import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    conjugated_reducible_algebra,
    conjugated_span,
    planted_algebra,
    random_quaternion,
    random_similarity,
)
from lomlab.classify import classify, classify_type, density_degree, envelope
from lomlab.cli import run_instance
from lomlab.division import (
    AlgebraType,
    DivisionStructure,
    Quaternion,
    embed_complex,
    embed_quaternion,
    frobenius_recognize,
    left_mult_matrix,
)
from lomlab.engine import (
    _d_frame_inverse,
    commutant,
    commutes,
    generate_algebra,
    is_transitive,
    min_rank,
    strict_interpolate,
)
from lomlab.errors import NoSolutionError, NotTransitiveError, RealTypeInputError
from lomlab.numeric import solve_least_squares

# The module, not the function of the same name that the package exports.
classify_module = importlib.import_module("lomlab.classify")
engine_module = importlib.import_module("lomlab.engine")

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def embedded_complex_algebra(rng, n):
    gens = [embed_complex(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            for _ in range(2)]
    return generate_algebra(gens, include_identity=True)


def embedded_quaternion_algebra(rng, n):
    gens = [embed_quaternion([[random_quaternion(rng) for _ in range(n)]
                              for _ in range(n)]) for _ in range(2)]
    return generate_algebra(gens, include_identity=True)


# --- classify_type ------------------------------------------------------------

def test_classify_type_examples():
    rng = np.random.default_rng(0)
    full = generate_algebra([rng.standard_normal((5, 5)) for _ in range(2)],
                            include_identity=True)
    assert classify_type(full) is AlgebraType.REAL
    assert classify_type(embedded_complex_algebra(rng, 3)) is AlgebraType.COMPLEX
    assert classify_type(embedded_quaternion_algebra(rng, 2)) is AlgebraType.QUATERNION


def test_classify_type_rejects_nontransitive():
    upper = generate_algebra(
        [np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([0.0, 1.0])],
        include_identity=True)
    with pytest.raises(NotTransitiveError) as exc:
        classify_type(upper)
    assert exc.value.witness is not None


def test_classify_type_similarity_invariant():
    rng = np.random.default_rng(1)
    for kind in ("Real", "Complex", "Quaternion"):
        alg = planted_algebra(rng, kind, max_ambient=8)
        conj = planted_algebra(rng, kind, max_ambient=8, cond=1e3)
        assert classify_type(alg).label == kind
        assert classify_type(conj).label == kind


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["triangular", "diagonal", "tensor"]), n=st.integers(2, 8),
       split=st.integers(1, 7), log_kappa=st.floats(0.0, 3.0), seed=st.integers(0, 2**16))
def test_conjugated_reducible_algebras_are_rejected_with_a_witness(kind, n, split,
                                                                   log_kappa, seed):
    n = 2 * (n // 2) if kind == "tensor" else n
    split = 1 + (split - 1) % (n - 1)
    rng = np.random.default_rng(seed)
    mats, alg = conjugated_reducible_algebra(kind, n, split,
                                             random_similarity(rng, n, 10.0 ** log_kappa))
    with pytest.raises(NotTransitiveError) as exc:
        classify_type(alg)
    _, w = exc.value.witness
    assert 0 < w.shape[1] < n
    assert np.allclose(w.T @ w, np.eye(w.shape[1]), atol=1e-10)
    for m in mats:
        assert np.linalg.norm(m @ w - w @ (w.T @ m @ w)) <= 1e-6 * np.linalg.norm(m)
    # the seed steers the witness search, never the verdict
    assert not is_transitive(alg, seed=seed).transitive


# --- density_degree -------------------------------------------------------------

def test_density_real_no_witness():
    rng = np.random.default_rng(2)
    alg = generate_algebra([rng.standard_normal((4, 4)) for _ in range(2)],
                           include_identity=True)
    structure = frobenius_recognize(commutant(alg))
    k, witness = density_degree(alg, structure, trials=10)
    assert k == 1 and witness is None


def test_density_complex_witness_margin():
    rng = np.random.default_rng(3)
    alg = embedded_complex_algebra(rng, 2)
    structure = frobenius_recognize(commutant(alg))
    k, witness = density_degree(alg, structure, trials=10)
    assert k == 2
    # plain embedding: the unit is orthogonal, margin is exactly 1/sqrt(2)
    assert witness.margin == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert witness.margin >= 0.1
    # closed form oracle: margin^2 = y^T (I + W W^T)^{-1} y for unit y
    w = structure.units[0]
    gram = np.linalg.inv(np.eye(4) + w @ w.T)
    y = witness.target / np.linalg.norm(witness.target)
    assert witness.margin ** 2 == pytest.approx(float(y @ gram @ y), abs=1e-9)
    # the witness really is (x, W x)
    assert np.allclose(witness.unit_image, w @ witness.x, atol=1e-10)


def test_density_quaternion_witness():
    rng = np.random.default_rng(4)
    alg = embedded_quaternion_algebra(rng, 1)
    structure = frobenius_recognize(commutant(alg))
    k, witness = density_degree(alg, structure, trials=10)
    assert k == 4
    assert witness.margin >= 0.1


def test_density_margin_survives_conjugation():
    rng = np.random.default_rng(5)
    gens = [embed_complex(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
            for _ in range(2)]
    p = random_similarity(rng, 4, 1e3)
    pinv = np.linalg.inv(p)
    alg = generate_algebra([p @ g @ pinv for g in gens], include_identity=True)
    structure = frobenius_recognize(commutant(alg))
    _, witness = density_degree(alg, structure, trials=5)
    assert witness.margin >= 0.1


def test_density_witness_infeasibility_is_real():
    # brute re-check: no algebra element comes close to the witness demands
    rng = np.random.default_rng(6)
    alg = embedded_complex_algebra(rng, 2)
    structure = frobenius_recognize(commutant(alg))
    _, witness = density_degree(alg, structure, trials=5)
    stack = alg.basis
    system = np.vstack([(stack @ witness.x).T, (stack @ witness.unit_image).T])
    rhs = np.concatenate([np.zeros(4), witness.target])
    _, residual = solve_least_squares(system, rhs)
    assert residual == pytest.approx(witness.margin * np.linalg.norm(witness.target),
                                     abs=1e-12)


def trial_by_trial_failure(algebra, structure, trials, seed=0):
    """The first NoSolutionError of the density trials, each drawn as n/k vectors and
    then n/k targets and solved on its own with ``strict_interpolate`` (the reference
    for the least squares that decides a trial the closed form misses)."""
    n = algebra.ambient_dim
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        xs, targets = np.split(rng.standard_normal((2 * (n // structure.commutant_dim), n)), 2)
        targets /= np.linalg.norm(targets, axis=1)[:, None]
        try:
            strict_interpolate(algebra, list(zip(xs, targets)))
        except NoSolutionError as exc:
            return exc
    return None


def test_density_mismatched_structure_fails_like_single_trials(corpus_algebras):
    alg, _ = corpus_algebras["complex_m2_plain"]
    wrong = DivisionStructure(AlgebraType.REAL, ())
    with pytest.raises(NoSolutionError) as exc:
        density_degree(alg, wrong, trials=5)
    assert np.isfinite(exc.value.residual) and exc.value.residual > 1e-3
    reference = trial_by_trial_failure(alg, wrong, trials=5)
    assert exc.value.residual == pytest.approx(reference.residual, rel=1e-9)


def least_squares_fallbacks():
    """Patch that counts the density trials solved again by least squares, the
    ones on which the closed form missed (``call_count`` of the patch)."""
    return mock.patch.object(classify_module, "strict_interpolate", wraps=strict_interpolate)


def test_density_closed_form_needs_its_refinement_step():
    # M_2(C) on R^4 conjugated at kappa = 1e3: its recognized unit has condition
    # ~2.5e5, and the unrefined closed form misses the threshold by about 8x.  The
    # refinement step must extend the residual rows D-linearly to pass.
    rng = np.random.default_rng(19)
    gens = [embed_complex(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
            for _ in range(2)]
    p = random_similarity(rng, 4, 1e3)
    pinv = np.linalg.inv(p)
    alg = generate_algebra([p @ g @ pinv for g in gens], include_identity=True)
    structure = frobenius_recognize(commutant(alg))
    assert np.linalg.cond(structure.units[0]) > 1e5
    with least_squares_fallbacks() as fallbacks:
        k, witness = density_degree(alg, structure)
    assert k == 2 and witness.margin >= 0.1
    assert fallbacks.call_count == 0


# Real bases of R, C and H, as matrices of left multiplication.
DIVISION_BASES = {"Real": [np.eye(1)], "Complex": [np.eye(2), J2],
                  "Quaternion": [left_mult_matrix(Quaternion(*e)) for e in np.eye(4)]}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(DIVISION_BASES)), m=st.integers(1, 8),
       log_kappa=st.floats(0.0, 3.0), seed=st.integers(0, 2**16))
# One commutant basis element of this M_2(H) is about I/sqrt(8); its traceless part
# is rounding of pure-form norm 1.3e-9, which recognition must not make a unit.
@example(kind="Quaternion", m=2, log_kappa=1e-8, seed=0)
def test_density_closed_form_decides_conjugated_full_algebras(kind, m, log_kappa, seed):
    # M_m(D) on R^(km), ambient at most 8, conjugated by a similarity of condition
    # 10^[0, 3]; an exact orthonormal basis keeps the closure out of the test
    d_basis = DIVISION_BASES[kind]
    k = len(d_basis)
    m = min(m, 8 // k)
    eye = np.eye(m)
    units = [np.kron(np.outer(eye[i], eye[j]), u)
             for i in range(m) for j in range(m) for u in d_basis]
    rng = np.random.default_rng(seed)
    _, alg = conjugated_span(units, random_similarity(rng, k * m, 10.0 ** log_kappa))
    report = is_transitive(alg)
    assert report.transitive and report.structure.commutant_dim == k
    with least_squares_fallbacks() as fallbacks:
        assert density_degree(alg, report.structure, seed=seed)[0] == k
    assert fallbacks.call_count == 0


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_corpus_density_needs_no_least_squares(corpus, seed):
    with least_squares_fallbacks() as fallbacks:
        for payload in corpus.values():
            if payload["kind"] == "algebra":
                run_instance(payload, seed_override=seed)
    assert fallbacks.call_count == 0


def test_density_zero_trials(corpus_algebras):
    alg, _ = corpus_algebras["complex_m2_plain"]
    structure = frobenius_recognize(commutant(alg))
    k, witness = density_degree(alg, structure, trials=0)
    assert k == 2 and witness.margin >= 0.1
    assert density_degree(alg, DivisionStructure(AlgebraType.REAL, ()), trials=0) == (1, None)


def test_density_earlier_trials_fail_before_extraction(corpus_algebras, monkeypatch):
    # the closed form is forced to miss trials 2 and 4: least squares solves each on
    # the vectors the closed form had, in trial order, and both pass
    alg, _ = corpus_algebras["complex_m2_plain"]
    closed_form_residuals = classify_module._closed_form_residuals
    given = []

    def miss_trials_2_and_4(algebra, units, xs, ys, tol):
        given.append(xs)
        worst = closed_form_residuals(algebra, units, xs, ys, tol)
        worst[[2, 4]] = np.inf
        return worst

    monkeypatch.setattr(classify_module, "_closed_form_residuals", miss_trials_2_and_4)
    structure = frobenius_recognize(commutant(alg))
    with least_squares_fallbacks() as fallbacks:
        assert density_degree(alg, structure, trials=5)[0] == 2
    solved = [np.array([x for x, _ in call.args[1]]) for call in fallbacks.call_args_list]
    assert len(solved) == 2
    assert np.array_equal(solved[0], given[0][2]) and np.array_equal(solved[1], given[0][4])
    # with the wrong structure every trial misses, and trial 0's least squares fails
    # first: no later trial is solved
    with least_squares_fallbacks() as fallbacks, \
            pytest.raises(NoSolutionError, match="interpolation infeasible"):
        density_degree(alg, DivisionStructure(AlgebraType.REAL, ()), trials=5)
    assert fallbacks.call_count == 1


@pytest.mark.parametrize("name", ["full_m3_plain", "quat_m2_plain"])
def test_density_hit_picks_nothing(corpus_algebras, name):
    # a trial the closed form decides is not solved again
    alg, _ = corpus_algebras[name]
    structure = frobenius_recognize(commutant(alg))
    with least_squares_fallbacks() as fallbacks:
        assert density_degree(alg, structure)[0] == structure.commutant_dim
    assert fallbacks.call_count == 0


# --- envelope -------------------------------------------------------------------

def test_envelope_of_rotation_line_is_itself():
    alg = generate_algebra([J2], include_identity=False)
    structure = frobenius_recognize(commutant(alg))
    env = envelope(alg, structure)
    assert env.dim == 2
    coeff, res = env.contains(J2)
    assert res < 1e-10


def test_envelope_rejects_nontransitive():
    diag_cplx = generate_algebra(
        [np.kron(np.diag([1.0, 0.0]), J2), np.kron(np.diag([0.0, 1.0]), J2)],
        include_identity=True)
    structure = frobenius_recognize([np.eye(4), np.kron(np.eye(2), J2)])
    with pytest.raises(NotTransitiveError):
        envelope(diag_cplx, structure)


def test_envelope_quaternion_left_regular():
    alg = generate_algebra([embed_quaternion(Quaternion(0, 1, 0, 0)),
                            embed_quaternion(Quaternion(0, 0, 1, 0))],
                           include_identity=True)
    structure = frobenius_recognize(commutant(alg))
    env = envelope(alg, structure)
    assert env.dim == 4
    assert classify_type(env) is AlgebraType.QUATERNION


def test_envelope_real_needs_flag():
    rng = np.random.default_rng(7)
    alg = generate_algebra([rng.standard_normal((3, 3)) for _ in range(2)],
                           include_identity=True)
    structure = frobenius_recognize(commutant(alg))
    with pytest.raises(RealTypeInputError):
        envelope(alg, structure)
    env = envelope(alg, structure, allow_real=True)
    assert env.dim == 9


def test_envelope_properties():
    rng = np.random.default_rng(8)
    alg = embedded_complex_algebra(rng, 2)
    structure = frobenius_recognize(commutant(alg))
    env = envelope(alg, structure)
    assert env.dim == 8  # n^2 / 2
    for b in alg.basis:
        _, res = env.contains(b)
        assert res <= 1e-8
    assert classify_type(env) is AlgebraType.COMPLEX
    # idempotence: the envelope of the envelope is the same span
    structure2 = frobenius_recognize(commutant(env))
    env2 = envelope(env, structure2)
    assert env2.dim == env.dim
    for b in env.basis:
        _, res = env2.contains(b)
        assert res <= 1e-8


# --- full report -----------------------------------------------------------------

def test_classify_report_consistency():
    rng = np.random.default_rng(9)
    for kind, k in (("Real", 1), ("Complex", 2), ("Quaternion", 4)):
        alg = planted_algebra(rng, kind, max_ambient=8)
        report = classify(alg, density_trials=5)
        assert report.type.label == kind
        assert report.commutant_dim == report.min_rank == report.density_degree == k
        assert report.envelope_dim == alg.ambient_dim ** 2 // k
        if k == 1:
            assert report.density_witness is None
        else:
            assert report.density_witness.margin >= 0.1


def test_containment_fails_for_a_unit_the_input_does_not_commute_with(monkeypatch):
    # A lies in End_D(V) exactly when it commutes with D's units.  With the recognized
    # unit of a conjugated M_n(C) moved by a similarity (a unit in general position)
    # A does not commute with it, and classify and envelope raise rather than report a
    # structure that is not A's commutant (End_D(V) of the moved unit misses A's basis
    # by 0.86); the real type has no unit and always contains its input
    rng = np.random.default_rng(11)
    alg = planted_algebra(rng, "Complex", max_ambient=8, cond=10.0)
    report = is_transitive(alg)
    p = random_similarity(rng, alg.ambient_dim, 10.0)
    (w,) = report.structure.units
    moved = DivisionStructure(AlgebraType.COMPLEX, (p @ w @ np.linalg.inv(p),))
    assert not commutes(alg.basis, moved.units)
    monkeypatch.setattr(classify_module, "_certified",
                        lambda *args: dataclasses.replace(report, structure=moved))
    with pytest.raises(NotTransitiveError, match="not End_D"):
        classify(alg, density_trials=5)
    with pytest.raises(NotTransitiveError, match="not End_D"):
        envelope(alg, moved)
    monkeypatch.undo()
    real = generate_algebra([rng.standard_normal((3, 3)) for _ in range(2)], True)
    assert commutes(real.basis, ())
    assert classify(real, density_trials=5).envelope_dim == 9


def test_classify_computes_containment_and_the_frame_once():
    # min_rank's one containment check and one D-frame certify A = End_D(V), which
    # envelope_dim counts; the commutant certificate's own check is the other commutes call
    alg = planted_algebra(np.random.default_rng(2), "Quaternion", max_ambient=8, cond=10.0)
    with mock.patch.object(engine_module, "_d_frame_inverse", wraps=_d_frame_inverse) as frame, \
            mock.patch.object(engine_module, "commutes", wraps=commutes) as check:
        report = classify(alg, density_trials=5)
    assert report.min_rank == 4 and report.envelope_dim * 4 == alg.ambient_dim ** 2
    assert frame.call_count == 1
    assert [call.args[0] is alg.basis for call in check.call_args_list].count(True) == 1


def test_classify_integers_similarity_invariant():
    rng = np.random.default_rng(10)
    gens = [embed_complex(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
            for _ in range(2)]
    alg = generate_algebra(gens, include_identity=True)
    p = random_similarity(rng, 6, 500.0)
    pinv = np.linalg.inv(p)
    conj = generate_algebra([p @ g @ pinv for g in gens], include_identity=True)
    r1 = classify(alg, density_trials=5)
    r2 = classify(conj, density_trials=5)
    assert (r1.type, r1.commutant_dim, r1.min_rank, r1.density_degree, r1.envelope_dim) \
        == (r2.type, r2.commutant_dim, r2.min_rank, r2.density_degree, r2.envelope_dim)


def test_interpolation_budgets_for_conditioning():
    # M_6(C) conjugated by a similarity of condition 1e3: the minimal-rank
    # interpolation residual is ~2e-9, above a threshold without the budget.
    rng = np.random.default_rng(9)
    gens = [embed_complex(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))
            for _ in range(2)]
    u, _, vt = np.linalg.svd(rng.standard_normal((12, 12)))
    p = u @ np.diag(np.geomspace(1, 1e3, 12)) @ vt
    pinv = np.linalg.inv(p)
    alg = generate_algebra([p @ g @ pinv for g in gens], include_identity=True)
    report = classify(alg)
    assert report.type is AlgebraType.COMPLEX
    assert report.min_rank == report.density_degree == 2
