"""Acceptance suite: each test implements one release criterion at its stated
tolerance and prints a single PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math
import time

import numpy as np
import pytest

from conftest import corpus_algebra, greedy_oracle, planted_generators, random_similarity
from lomlab.classify import classify, classify_type, density_degree, envelope
from lomlab.construct import (
    GROUP_ELEMENTS,
    GenericPair,
    build_pcs,
    build_quaternion_rep,
    group_mean,
    solve_popolam,
    t_vf,
    twisted_rep,
)
from lomlab.division import frobenius_recognize
from lomlab.engine import (
    MatrixAlgebra,
    commutant,
    generate_algebra,
    lift_idempotent,
    min_rank,
    riesz_projection,
    strict_interpolate,
)
from lomlab.numeric import DEFAULT_TOL, rank_of
from lomlab.ranges import INFINITY, check_isomorphism, power_family, shift_right

RNG_SEED = 20260809


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def corpus_reps(corpus):
    """The shipped representations, rebuilt from their payloads."""
    from lomlab.cli import matrix_from_json
    reps = {}
    for name, payload in corpus.items():
        if payload["kind"] != "rep":
            continue
        twists = None
        if payload.get("twists") is not None:
            twists = [matrix_from_json(t) for t in payload["twists"]]
        rep = build_quaternion_rep(int(payload["blocks"]), twists)
        if payload.get("pair") is not None:
            pair = GenericPair(matrix_from_json(payload["pair"]["m_basis"]),
                               matrix_from_json(payload["pair"]["n_basis"]))
            rep = twisted_rep(pair, rep)
        reps[name] = rep
    return reps


def corpus_pcs(corpus):
    out = {}
    for name, payload in corpus.items():
        if payload["kind"] != "pcs":
            continue
        schedule = [float(s) for s in payload["schedule"]]
        out[name] = build_pcs(len(schedule), schedule)
    return out


def test_criterion_01_type_classification():
    rng = np.random.default_rng(RNG_SEED)
    # CPU time of this process: another process sharing the cores does not count
    start = time.process_time()
    total = 0
    correct = 0
    for kind in ("Real", "Complex", "Quaternion"):
        for _ in range(50):
            gens, ambient = planted_generators(rng, kind, max_ambient=16)
            p = random_similarity(rng, ambient, float(rng.uniform(1.0, 1e3)))
            pinv = np.linalg.inv(p)
            algebra = generate_algebra([p @ g @ pinv for g in gens],
                                       include_identity=True)
            got = classify_type(algebra)
            total += 1
            if got.label == kind and got.commutant_dim in (1, 2, 4):
                correct += 1
    elapsed = time.process_time() - start
    report(1, correct == total == 150 and elapsed <= 60.0,
           f"planted type recovered {correct}/150, {elapsed:.1f}s CPU (limit 60s)")


def test_criterion_02_rank_consistency(corpus_algebras):
    ok = True
    details = []
    for name, (algebra, _) in sorted(corpus_algebras.items()):
        structure = frobenius_recognize(commutant(algebra))
        r = min_rank(algebra, structure)
        k, _ = density_degree(algebra, structure, trials=5)
        agree = structure.commutant_dim == r == k
        ok = ok and agree
        details.append(f"{name}:{structure.commutant_dim}/{r}/{k}")
    report(2, ok, "commutant_dim = min_rank = density_degree on every corpus "
                  "algebra (" + ", ".join(details) + ")")


def test_criterion_03_rank_divisibility(corpus_algebras):
    rng = np.random.default_rng(RNG_SEED + 3)
    violations = 0
    checked = 0
    for name, (algebra, expect) in sorted(corpus_algebras.items()):
        divisor = {"Complex": 2, "Quaternion": 4}.get(expect["type"])
        if divisor is None:
            continue
        for _ in range(200):
            element = algebra.element(rng.standard_normal(algebra.dim))
            if rank_of(element, DEFAULT_TOL) % divisor != 0:
                violations += 1
            checked += 1
    report(3, checked > 0 and violations == 0,
           f"{checked} random elements, {violations} divisibility violations "
           f"at tolerance 1e-9")


def test_criterion_04_density_obstruction(corpus_algebras):
    rng = np.random.default_rng(RNG_SEED + 4)
    ok = True
    margins = []
    worst_residual = 0.0
    for name, (algebra, expect) in sorted(corpus_algebras.items()):
        structure = frobenius_recognize(commutant(algebra))
        k = structure.commutant_dim
        if expect["type"] != "Real":
            _, witness = density_degree(algebra, structure, trials=1)
            margins.append(f"{name}:{witness.margin:.3f}")
            ok = ok and witness.margin >= 0.1
        # 25 solvable trials with the greedy commutant-independent subfamily
        n = algebra.ambient_dim
        units = list(structure.units)
        for _ in range(25):
            family = rng.standard_normal((k * (n // k), n))
            picked = greedy_oracle(family, units, need=n // k)
            targets = rng.standard_normal((n // k, n))
            targets /= np.linalg.norm(targets, axis=1)[:, None]
            pairs = [(family[i], y) for i, y in zip(picked, targets)]
            t = strict_interpolate(algebra, pairs)
            resid = max(np.linalg.norm(t @ x - y) for x, y in pairs)
            worst_residual = max(worst_residual, resid)
            ok = ok and resid <= 1e-9
    report(4, ok, f"margins {', '.join(margins)} (all >= 0.1); worst solvable "
                  f"residual {worst_residual:.2e} <= 1e-9")


def test_criterion_05_mean_pipeline(corpus):
    rng = np.random.default_rng(RNG_SEED + 5)
    ok = True
    worst_t = 0.0
    worst_mean = 0.0
    worst_tvf = 0.0
    for name, rep in sorted(corpus_reps(corpus).items()):
        for _ in range(50):
            x = rng.standard_normal(rep.n)
            y = rng.standard_normal(rep.n)
            f = solve_popolam(x, rep)
            t = group_mean(np.outer(y, f), rep)
            worst_t = max(worst_t, float(np.linalg.norm(t @ x - y)))
        k = rng.standard_normal((rep.n, rep.n))
        m = group_mean(k, rep)
        for g in GROUP_ELEMENTS:
            worst_mean = max(worst_mean, float(np.linalg.norm(
                rep.pi[g] @ m - m @ rep.pi[g])))
    for name, pcs in sorted(corpus_pcs(corpus).items()):
        s = pcs.matrix
        for _ in range(50):
            t = t_vf(rng.standard_normal(pcs.dim), rng.standard_normal(pcs.dim), pcs)
            ok = ok and rank_of(t) == 2
            worst_tvf = max(worst_tvf, float(np.linalg.norm(t @ s - s @ t)))
    ok = ok and worst_t <= 1e-9 and worst_mean <= 1e-10 and worst_tvf <= 1e-10
    report(5, ok, f"interpolation residual {worst_t:.2e} <= 1e-9, mean "
                  f"commutation {worst_mean:.2e} <= 1e-10, rank-2 commutation "
                  f"{worst_tvf:.2e} <= 1e-10")


def test_criterion_06_envelopes(corpus_algebras):
    ok = True
    details = []
    for name, (algebra, expect) in sorted(corpus_algebras.items()):
        if expect["type"] == "Real":
            continue
        structure = frobenius_recognize(commutant(algebra))
        env = envelope(algebra, structure)
        n = algebra.ambient_dim
        want_dim = n * n // structure.commutant_dim
        contains = all(env.contains(b)[1] <= 1e-8 for b in algebra.basis)
        same_type = classify_type(env) is structure.type
        good = env.dim == want_dim and contains and same_type
        ok = ok and good
        details.append(f"{name}:dim{env.dim}")
    report(6, ok, "envelope contains input (residual <= 1e-8), has dimension "
                  "n^2/2 resp. n^2/4, same type (" + ", ".join(details) + ")")


def test_criterion_07_riesz_projection():
    rng = np.random.default_rng(RNG_SEED + 7)
    worst_idem = worst_comm = worst_member = 0.0
    for _ in range(20):
        inside = np.array([2.0, 2.8])
        outside = np.array([-1.2, 0.6, -0.5, 1.4])
        block = np.zeros((6, 6))
        block[:2, :2] = np.diag(inside)
        block[2:, 2:] = np.diag(outside)
        block[:2, 2:] = rng.standard_normal((2, 4))
        s = random_similarity(rng, 6, float(rng.uniform(1.0, 8.0)))
        t = s @ block @ np.linalg.inv(s)
        p, resid = riesz_projection(t, list(inside))
        worst_idem = max(worst_idem, float(np.linalg.norm(p @ p - p)))
        worst_comm = max(worst_comm, float(np.linalg.norm(p @ t - t @ p)))
        worst_member = max(worst_member, resid)
    ok = worst_idem <= 1e-8 and worst_comm <= 1e-8 and worst_member <= 1e-6
    report(7, ok, f"20 planted 6x6 clusters: ||P^2-P|| {worst_idem:.2e} <= 1e-8, "
                  f"||PT-TP|| {worst_comm:.2e} <= 1e-8, membership "
                  f"{worst_member:.2e} <= 1e-6")


def test_criterion_08_operator_ranges():
    start = time.monotonic()
    squares_inf = power_family(2.0, 2040)
    cubes_inf = power_family(3.0, 2040)
    verdict = check_isomorphism(squares_inf, cubes_inf, p_max=20, horizon=2000)
    ok = verdict.verdict == "non_isomorphic"
    if ok:
        n, m, direction = verdict.witness
        big, small = (squares_inf, cubes_inf) if direction == "left_exceeds_right" \
            else (cubes_inf, squares_inf)
        for p in range(21):
            lhs = sum(big.dims[j] for j in range(max(n, 1), m + 1))
            rhs = sum(small.dims[j] for j in range(max(n - p, 1), m + p + 1))
            if small.infinite_head and n - p <= 0:
                rhs = INFINITY
            if n == 0 and big.infinite_head:
                lhs = INFINITY
            violated = (rhs != INFINITY) and (lhs == INFINITY or lhs > rhs)
            ok = ok and violated

    finite_squares = power_family(2.0, 500)
    finite_squares = type(finite_squares)((0,) + finite_squares.dims[1:])
    shifted = shift_right(type(finite_squares)(finite_squares.dims[:498]), 3)
    v_shift = check_isomorphism(finite_squares, shifted, p_max=10, horizon=500)
    ok = ok and v_shift.isomorphic and v_shift.p == 3

    v_same = check_isomorphism(squares_inf, squares_inf, p_max=20, horizon=2000)
    ok = ok and v_same.isomorphic and v_same.p == 0
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 10.0
    report(8, ok, f"squares-vs-cubes non-isomorphic with witness re-verified for "
                  f"all p <= 20; shift detected at exactly p = 3; identical at "
                  f"p = 0; {elapsed:.1f}s (limit 10s)")


def test_criterion_09_idempotent_lifting():
    rng = np.random.default_rng(RNG_SEED + 9)
    worst_idem = worst_ideal = 0.0
    for trial in range(20):
        n = int(rng.integers(3, 9))
        c1, c2 = n // 3, 2 * (n // 3) + (n % 3 > 1)
        nil = np.zeros((n, n))
        nil[:c1, c1:c2] = rng.uniform(0.5, 1.5, (c1, c2 - c1))
        nil[c1:c2, c2:] = rng.uniform(0.5, 1.5, (c2 - c1, n - c2))
        nil2 = nil @ nil
        algebra = MatrixAlgebra(n, (np.eye(n), nil, nil2), unital=True)
        eps = float(rng.integers(0, 2))
        w = eps * np.eye(n) + rng.uniform(-1, 1) * nil + rng.uniform(-1, 1) * nil2
        p = lift_idempotent(algebra, [nil, nil2], w)
        worst_idem = max(worst_idem, float(np.linalg.norm(p @ p - p)))
        ideal_vecs = np.stack([nil.reshape(-1), nil2.reshape(-1)])
        coeff, *_ = np.linalg.lstsq(ideal_vecs.T, (p - w).reshape(-1), rcond=None)
        worst_ideal = max(worst_ideal, float(np.linalg.norm(
            ideal_vecs.T @ coeff - (p - w).reshape(-1))))
    ok = worst_idem <= 1e-9 and worst_ideal <= 1e-9
    report(9, ok, f"20 commutative nilpotent algebras (n <= 8): ||P^2-P|| "
                  f"{worst_idem:.2e} <= 1e-9, ideal residual {worst_ideal:.2e} "
                  f"<= 1e-9, all within ceil(log2 n)+2 iterations")


def test_criterion_10_double_commutant_and_similarity(corpus_algebras, corpus):
    rng = np.random.default_rng(RNG_SEED + 10)
    ok = True
    for name, (algebra, _) in sorted(corpus_algebras.items()):
        comm = commutant(algebra)
        double = commutant(MatrixAlgebra(algebra.ambient_dim, tuple(comm),
                                         unital=True))
        if len(double) != algebra.dim:
            ok = False
            continue
        double_vecs = np.stack([d.reshape(-1) for d in double])
        basis_vecs = algebra.vec_basis()
        for vecs, others in ((basis_vecs, double_vecs), (double_vecs, basis_vecs)):
            for v in vecs:
                coeff, *_ = np.linalg.lstsq(others.T, v, rcond=None)
                if np.linalg.norm(others.T @ coeff - v) > 1e-8 * max(1, np.linalg.norm(v)):
                    ok = False
    invariant = True
    for name, payload in sorted(corpus.items()):
        if payload["kind"] != "algebra" or "error" in payload.get("expect", {}):
            continue
        algebra, _ = corpus_algebras[name]
        base = classify(algebra, density_trials=3)
        p = random_similarity(rng, algebra.ambient_dim, float(rng.uniform(1.0, 1e3)))
        pinv = np.linalg.inv(p)
        conj = generate_algebra([p @ b @ pinv for b in algebra.basis],
                                include_identity=algebra.unital)
        moved = classify(conj, density_trials=3)
        invariant = invariant and (
            base.type is moved.type
            and base.commutant_dim == moved.commutant_dim
            and base.min_rank == moved.min_rank
            and base.density_degree == moved.density_degree
            and base.envelope_dim == moved.envelope_dim
        )
    ok = ok and invariant
    report(10, ok, "double commutant returns the algebra span (1e-8) and all "
                   "classification integers are similarity invariants")
