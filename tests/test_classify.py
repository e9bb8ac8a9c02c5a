import dataclasses
import importlib
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    conjugated_reducible_algebra,
    conjugated_span,
    conjugated_triangular_pair,
    planted_algebra,
    random_quaternion,
    random_similarity,
)
from lomlab.classify import classify, classify_type, density_degree, envelope
from lomlab.cli import _check_expectation, run_instance
from lomlab.construct import GroupRep
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
    MatrixAlgebra,
    _d_frame_inverse,
    commutant,
    commutes,
    d_linear_maps,
    generate_algebra,
    is_transitive,
    min_rank,
)
from lomlab.errors import NoSolutionError, NotTransitiveError, ShapeMismatchError
from lomlab.numeric import DEFAULT_TOL, solve_least_squares

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


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["Complex", "Quaternion"]), m=st.integers(1, 8),
       log_kappa=st.floats(0.0, 3.0), seed=st.integers(0, 2**16))
@example(kind="Complex", m=2, log_kappa=0.0, seed=6)
def test_density_witness_infeasibility_is_real(kind, m, log_kappa, seed):
    # brute re-check: no algebra element comes close to the witness demands.  The
    # reference is the least squares over the algebra's basis, on M_m(D) on R^(km),
    # ambient at most 16, conjugated by a similarity of condition 10^[0, 3]; the
    # closed-form margin is the minimum over End_D(V) = A
    alg = conjugated_full_algebra(kind, m, log_kappa, seed, max_ambient=16)
    _, witness = density_degree(alg, is_transitive(alg).structure, trials=5, seed=seed)
    stack = alg.basis
    system = np.vstack([(stack @ witness.x).T, (stack @ witness.unit_image).T])
    rhs = np.concatenate([np.zeros(alg.ambient_dim), witness.target])
    _, residual = solve_least_squares(system, rhs)
    assert abs(witness.margin - residual / np.linalg.norm(witness.target)) <= 1e-12
    assert witness.margin >= 1 / np.sqrt(2) - 1e-12


@pytest.mark.parametrize("name", ["complex_m2_conj", "quat_m1_conj"])
def test_density_margin_does_not_depend_on_the_seed(corpus_algebras, name):
    # the margin is W's alone; the seed draws only x and the trials
    alg, _ = corpus_algebras[name]
    margins = {classify(alg, seed=seed).density_witness.margin for seed in (0, 1, 7)}
    assert len(margins) == 1


def test_density_mismatched_structure_is_not_end_d(corpus_algebras):
    # a Real structure on M_2(C): dim A * 1 != n^2, so A is not End_D(V), whatever
    # the trials would give
    alg, _ = corpus_algebras["complex_m2_plain"]
    with pytest.raises(NotTransitiveError, match="not End_D"):
        density_degree(alg, DivisionStructure(AlgebraType.REAL, ()), trials=5)


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
    k, witness = density_degree(alg, structure)
    assert k == 2 and witness.margin >= 0.1


# Real bases of R, C and H, as matrices of left multiplication.
DIVISION_BASES = {"Real": [np.eye(1)], "Complex": [np.eye(2), J2],
                  "Quaternion": [left_mult_matrix(Quaternion(*e)) for e in np.eye(4)]}


def conjugated_full_algebra(kind, m, log_kappa, seed, max_ambient):
    """M_m(D) on R^(km), m cut to fit ``max_ambient``, spanned by its matrix units
    conjugated by a similarity of condition 10^log_kappa from ``default_rng(seed)``;
    an exact orthonormal basis keeps the closure out of the tests."""
    d_basis = DIVISION_BASES[kind]
    k = len(d_basis)
    m = min(m, max_ambient // k)
    eye = np.eye(m)
    units = [np.kron(np.outer(eye[i], eye[j]), u)
             for i in range(m) for j in range(m) for u in d_basis]
    rng = np.random.default_rng(seed)
    return conjugated_span(units, random_similarity(rng, k * m, 10.0 ** log_kappa))[1]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(DIVISION_BASES)), m=st.integers(1, 8),
       log_kappa=st.floats(0.0, 3.0), seed=st.integers(0, 2**16))
# One commutant basis element of this M_2(H) is about I/sqrt(8); its traceless part
# is rounding of pure-form norm 1.3e-9, which recognition must not make a unit.
@example(kind="Quaternion", m=2, log_kappa=1e-8, seed=0)
def test_density_closed_form_decides_conjugated_full_algebras(kind, m, log_kappa, seed):
    # M_m(D) on R^(km), ambient at most 8, conjugated by a similarity of condition
    # 10^[0, 3]
    k = len(DIVISION_BASES[kind])
    alg = conjugated_full_algebra(kind, m, log_kappa, seed, max_ambient=8)
    report = is_transitive(alg)
    assert report.transitive and report.structure.commutant_dim == k
    assert density_degree(alg, report.structure, seed=seed)[0] == k


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_corpus_density_needs_no_least_squares(corpus, seed):
    # the closed form decides every trial of every corpus algebra: a miss would raise
    for payload in corpus.values():
        if payload["kind"] == "algebra":
            report = run_instance(payload, seed_override=seed)
            assert not _check_expectation(report, payload["expect"]), payload["name"]


def test_density_zero_trials(corpus_algebras):
    alg, _ = corpus_algebras["complex_m2_plain"]
    structure = frobenius_recognize(commutant(alg))
    k, witness = density_degree(alg, structure, trials=0)
    assert k == 2 and witness.margin >= 0.1
    with pytest.raises(NotTransitiveError, match="not End_D"):
        density_degree(alg, DivisionStructure(AlgebraType.REAL, ()), trials=0)


@pytest.mark.parametrize("trials", [25, 0])
def test_density_witness_x_is_the_first_vector_of_the_seeded_stream(corpus_algebras, trials):
    # one generator serves the trials and the witness: x is the first vector it draws
    for name in ("complex_m2_conj", "quat_m1_conj"):
        alg, _ = corpus_algebras[name]
        structure = is_transitive(alg).structure
        for seed in (0, 3):
            _, witness = density_degree(alg, structure, trials=trials, seed=seed)
            x = np.random.default_rng(seed).standard_normal(alg.ambient_dim)
            assert witness.x.tobytes() == (x / np.linalg.norm(x)).tobytes()


def test_density_earlier_trials_fail_before_extraction(corpus_algebras, monkeypatch):
    # the closed form is forced to miss trials 2 and 4: trial 2 raises, with its own
    # residual, and no witness is extracted
    alg, _ = corpus_algebras["complex_m2_plain"]
    closed_form_residuals = classify_module._closed_form_residuals

    def miss_trials_2_and_4(units, xs, ys, tol):
        worst = closed_form_residuals(units, xs, ys, tol)
        worst[[2, 4]] = [0.5, 0.25]
        return worst

    monkeypatch.setattr(classify_module, "_closed_form_residuals", miss_trials_2_and_4)
    structure = frobenius_recognize(commutant(alg))
    with mock.patch.object(classify_module, "_obstruction_witness") as extract, \
            pytest.raises(NoSolutionError, match="interpolation infeasible") as exc:
        density_degree(alg, structure, trials=5)
    assert exc.value.residual == 0.5 and extract.call_count == 0


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


def test_envelope_of_real_type_is_the_full_matrix_algebra():
    rng = np.random.default_rng(7)
    alg = generate_algebra([rng.standard_normal((3, 3)) for _ in range(2)],
                           include_identity=True)
    structure = frobenius_recognize(commutant(alg))
    env = envelope(alg, structure)
    assert env.dim == 9  # M_3(R)


def test_envelope_computes_no_commutant(corpus_algebras):
    # commutes and the count dim A * d = n^2 certify A = End_D(V) for the structure the
    # caller holds, so envelope neither certifies transitivity nor solves a commutant
    alg, _ = corpus_algebras["complex_m2_plain"]
    structure = is_transitive(alg).structure
    with mock.patch.object(classify_module, "is_transitive", wraps=is_transitive) as certify, \
            mock.patch.object(engine_module, "commutant", wraps=commutant) as solve:
        env = envelope(alg, structure)
    assert env.dim == alg.dim
    assert certify.call_count == solve.call_count == 0


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
    # min_rank's one containment check, on the generators, and one D-frame certify
    # A = End_D(V), which envelope_dim counts; the commutant certificate's own check,
    # its candidates against the generators, is the other commutes call
    alg = planted_algebra(np.random.default_rng(2), "Quaternion", max_ambient=8, cond=10.0)
    with mock.patch.object(engine_module, "_d_frame_inverse", wraps=_d_frame_inverse) as frame, \
            mock.patch.object(engine_module, "commutes", wraps=commutes) as check:
        report = classify(alg, density_trials=5)
    assert report.min_rank == 4 and report.envelope_dim * 4 == alg.ambient_dim ** 2
    assert frame.call_count == 1
    assert [call.args[0] is alg.generators for call in check.call_args_list].count(True) == 1
    assert not any(arg is alg.basis for call in check.call_args_list for arg in call.args)


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


def svd_calls(fn, *args):
    """The argument shapes of the ``np.linalg.svd`` calls that ``fn(*args)`` makes."""
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as spy:
        fn(*args)
    return [call.args[0].shape for call in spy.call_args_list]


def test_classify_density_factors_only_w():
    # density reads D's units alone: classify of this M_2(H) makes 8 SVDs, and density
    # itself only factors W, for the obstruction witness; a stand-in with A's counts and
    # generators and neither basis nor span gives the same rank, degree and witness
    alg = planted_algebra(np.random.default_rng(2), "Quaternion", max_ambient=8, cond=10.0)
    n, structure = alg.ambient_dim, is_transitive(alg).structure
    assert len(svd_calls(classify, alg)) == 8
    assert svd_calls(density_degree, alg, structure) == [(n, n)]
    k, witness = density_degree(alg, structure)
    counts = SimpleNamespace(ambient_dim=n, dim=alg.dim, generators=alg.generators)
    assert min_rank(counts, structure) == min_rank(alg, structure)
    k_counts, witness_counts = density_degree(counts, structure)
    assert k_counts == k and witness_counts.margin == witness.margin
    assert np.array_equal(witness_counts.x, witness.x)
    real = planted_algebra(np.random.default_rng(2), "Real", max_ambient=8, cond=10.0)
    assert svd_calls(density_degree, real, is_transitive(real).structure) == []


@pytest.mark.parametrize("n", [2, 3])
def test_the_identity_alone_is_rejected_with_an_invariant_line(n):
    # span{I} from a zero generator has an empty generator stack; I leaves every line
    # invariant, so the witness leaks nothing against it
    alg = generate_algebra([np.zeros((n, n))], include_identity=True)
    assert alg.generators.shape == (0, n, n)
    with pytest.raises(NotTransitiveError) as exc:
        classify(alg)
    assert exc.value.witness[1].shape == (n, 1)


def test_the_identity_alone_on_a_line_has_minimal_rank_one():
    # on R^1, span{I} is M_1(R): with no nonzero generator, min_rank takes T0 = I
    report = classify(generate_algebra([np.zeros((1, 1))], include_identity=True))
    assert (report.type, report.min_rank, report.density_degree) == (AlgebraType.REAL, 1, 1)


def test_explicit_basis_factors_its_span_once():
    # the span is the one SVD of a (dim, n^2) matrix across validate and classify
    alg = planted_algebra(np.random.default_rng(2), "Complex", max_ambient=8, cond=10.0)
    explicit = MatrixAlgebra(alg.ambient_dim, alg.basis, alg.unital)
    shape = (alg.dim, alg.ambient_dim ** 2)
    assert svd_calls(lambda: (explicit.validate(), classify(explicit))).count(shape) == 1
    assert explicit.span.shape == shape


@pytest.mark.parametrize("kind", ["Real", "Complex", "Quaternion"])
@pytest.mark.parametrize("kappa", [1.0, 100.0, 1e3])
def test_generated_and_explicit_basis_paths_agree(kind, kappa):
    # generate_algebra hands over its span and its generators; the same basis given
    # explicitly factors its span and has the basis as its generators
    alg = planted_algebra(np.random.default_rng(5), kind, max_ambient=8, cond=kappa)
    reports = [classify(a) for a in (alg, MatrixAlgebra(alg.ambient_dim, alg.basis, alg.unital))]
    facts = [(r.type, r.commutant_dim, r.min_rank, r.density_degree, r.envelope_dim,
              None if r.density_witness is None else r.density_witness.margin)
             for r in reports]
    assert facts[0] == facts[1]
    assert facts[0][0] is AlgebraType[kind.upper()]


def noisy_planted_generators(kind, n, kappa, seed, eta):
    """Two generators of M_(n/2)(C) or M_(n/4)(H) on R^n from ``default_rng(seed)``,
    conjugated by a similarity of condition ``kappa``, each g moved to
    g + eta ||g|| N(0, 1) / n with the noise from ``default_rng(1000 + seed)``."""
    rng = np.random.default_rng(seed)
    if kind == "Complex":
        m = n // 2
        gens = [embed_complex(rng.standard_normal((m, m)), rng.standard_normal((m, m)))
                for _ in range(2)]
    else:
        m = n // 4
        gens = [embed_quaternion([[random_quaternion(rng) for _ in range(m)]
                                  for _ in range(m)]) for _ in range(2)]
    p = random_similarity(rng, n, kappa)
    pinv = np.linalg.inv(p)
    noise = np.random.default_rng(1000 + seed)
    return [g + eta * np.linalg.norm(g) * noise.standard_normal((n, n)) / n
            for g in [p @ g @ pinv for g in gens]]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 7")
@pytest.mark.parametrize("kind, n, kappa", [("Complex", 8, 100.0), ("Complex", 16, 1.0),
                                            ("Quaternion", 8, 100.0), ("Quaternion", 16, 100.0)])
def test_noise_below_the_tolerance_keeps_the_type(kind, n, kappa):
    # noise of rel_eps / 10 per generator: the closure takes it into new directions and
    # reaches all of M_n(R), so each of these reads Real today
    eta = DEFAULT_TOL.rel_eps / 10
    alg = generate_algebra(noisy_planted_generators(kind, n, kappa, 0, eta), include_identity=True)
    assert classify_type(alg) is AlgebraType[kind.upper()]


# derandomized: about 1 draw in 1,000 at eps = 1e-12 reads Real, pinned by the xfail below
@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(3, 8), k=st.integers(1, 7), log_kappa=st.floats(0.0, 2.0),
       seed=st.integers(0, 2**16))
@pytest.mark.parametrize("eps", [1e-4, 1e-12])
def test_near_reducible_pairs_are_real_far_above_the_cut_and_reducible_far_below(
        eps, n, k, log_kappa, seed):
    # eps = 1e-4 is far above the closure's cut (rel_eps), so the algebra is M_n(R);
    # eps = 1e-12 is far below it, and within what the witness's leak check allows
    k = 1 + (k - 1) % (n - 1)
    gens = conjugated_triangular_pair(n, k, log_kappa, eps, seed)
    alg = generate_algebra(gens, include_identity=True)
    if eps > DEFAULT_TOL.rel_eps:
        assert classify_type(alg) is AlgebraType.REAL
        return
    with pytest.raises(NotTransitiveError) as exc:
        classify_type(alg)
    _, w = exc.value.witness
    for g in gens:
        assert np.linalg.norm(g @ w - w @ (w.T @ g @ w)) <= 1e-6 * np.linalg.norm(g)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 7")
@pytest.mark.parametrize("n, k, log_kappa, seed", [(4, 2, 0.08860584123652271, 60088),
                                                   (3, 2, 1.6679853145214714, 18971)])
def test_a_near_reducible_pair_far_below_the_cut_is_not_transitive(n, k, log_kappa, seed):
    # a generator conditioned 1e3 to 5e3: the closure accepts a row from a residual of
    # about 1e-4, so the row's rounding and the leak are magnified 1e4 times, and the
    # next round's products carry them over the cut to all of M_n(R)
    gens = conjugated_triangular_pair(n, k, log_kappa, 1e-12, seed)
    alg = generate_algebra(gens, include_identity=True)
    assert not is_transitive(alg).transitive


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 4 and 7")
@pytest.mark.parametrize("n, k, log_kappa, seed", [(3, 1, 1.3840642417636784, 12609),
                                                   (4, 1, 1.6326762076381514, 26279),
                                                   (6, 1, 1.8558113694890488, 16085),
                                                   (5, 1, 1.9018763911636996, 34046)])
def test_a_near_reducible_pair_just_above_the_cut_is_rejected_only_with_a_witness(
        n, k, log_kappa, seed):
    # eps = 1e-6, an invariant line: each is called not transitive with no invariant
    # subspace to show for it; a closure that rescaled each product to unit norm did so
    # on the first and called the other three transitive
    gens = conjugated_triangular_pair(n, k, log_kappa, 1e-6, seed)
    report = is_transitive(generate_algebra(gens, include_identity=True))
    assert report.transitive or report.witness is not None


MISSHAPEN_UNIT = DivisionStructure(AlgebraType.COMPLEX, (np.ones((3, 3)),))


@pytest.mark.parametrize("call", [
    lambda: min_rank(generate_algebra([J2], True), MISSHAPEN_UNIT),
    lambda: density_degree(generate_algebra([J2], True), MISSHAPEN_UNIT),
    lambda: envelope(generate_algebra([J2], True), MISSHAPEN_UNIT),
    lambda: d_linear_maps([np.ones((2, 3))], 2),
    lambda: GroupRep(4, [np.eye(4)] * 7 + [np.eye(3)]),
], ids=["min_rank", "density_degree", "envelope", "d_linear_maps", "GroupRep-ragged"])
def test_a_misshapen_stack_is_a_shape_mismatch(call):
    # each stack is read by numeric.as_stack, not reshaped or stacked by numpy, so a
    # unit or matrix of the wrong shape raises ShapeMismatchError, not numpy's ValueError
    with pytest.raises(ShapeMismatchError):
        call()
