"""pytest-benchmark cases for the public ``generate_algebra``, ``commutant``,
``density_degree``, ``envelope``, ``classify``, ``min_rank``, ``is_transitive`` and
``check_isomorphism``, and for the ``rep``, ``pair`` and ``ranges`` instances of the
shipped corpus through ``run_instance``.

The file name keeps these cases out of the default test run.  Run them with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q tests/bench_layers.py \
        --benchmark-json BENCH_<name>.json

Inputs are two generators of M_m(C) on R^(2m) or M_m(H) on R^(4m), or of M_8(R) or
M_16(R), on R^8, R^16 or R^32 and conjugated by a similarity of condition 100
(``default_rng(0)``).  The ``generate_algebra`` case times the closure of those two
generators and the identity; the others take the closed algebra and, where they need
it, its recognized structure.
The accept case gives ``is_transitive`` the closed algebra: for M_n(R) it times the
count alone, for M_m(C) and M_m(H) the commutant, its recognition and the count.  The
rejection case gives it the block upper-triangular algebra with diagonal blocks of
n/2, conjugated the same way, whose dimension 3 n^2 / 4 no D fits, so it times the
count and the witness.  Each of these cases times 50 rounds of 10 calls at n <= 16, so a
sub-millisecond case's median is not one call's noise, and 20 rounds of one call at
n = 32, each after one untimed warm-up round; the warm-up leaves first-call costs out
of the timings, such as a lazy ``scipy.linalg`` import on ``numeric.svd``'s retry.
The ranges case parses both sequence specs of the shipped ``ranges_power23`` instance
with ``sequence_from_json`` and checks them with ``check_isomorphism``; it takes well
under a millisecond, so it times 100 rounds of 10 calls.  Three cases run a shipped
payload through ``run_instance``, each for 100 rounds of 10 calls: ``rep_twisted``
builds a quaternion group representation with two twists, twists it on a pair and
validates it; ``pair_tilted`` builds the partial complex structure of a tilted generic
pair and validates it; ``ranges_power23`` parses and checks the two sequences and
re-verifies the witness at ``p_max``.  Every entry's ``extra_info`` records the CPU
count and the BLAS thread setting.
"""

import os

import numpy as np
import pytest

from conftest import conjugated_reducible_algebra, random_quaternion, random_similarity
from lomlab.classify import classify, density_degree, envelope
from lomlab.cli import run_instance, sequence_from_json
from lomlab.division import embed_complex, embed_quaternion
from lomlab.engine import commutant, generate_algebra, is_transitive, min_rank
from lomlab.ranges import check_isomorphism

CASES = [("Complex", 8), ("Complex", 16), ("Complex", 32), ("Quaternion", 8),
         ("Quaternion", 16), ("Quaternion", 32), ("Real", 8), ("Real", 16)]


D_DIM = {"Real": 1, "Complex": 2, "Quaternion": 4}


def conjugated_generators(kind, n):
    """Two generators of M_n(R), M_(n/2)(C) or M_(n/4)(H) on R^n, conjugated."""
    rng = np.random.default_rng(0)
    if kind == "Real":
        gens = [rng.standard_normal((n, n)) for _ in range(2)]
    elif kind == "Complex":
        m = n // 2
        gens = [embed_complex(rng.standard_normal((m, m)), rng.standard_normal((m, m)))
                for _ in range(2)]
    else:
        m = n // 4
        gens = [embed_quaternion([[random_quaternion(rng) for _ in range(m)]
                                  for _ in range(m)]) for _ in range(2)]
    p = random_similarity(rng, n, 100.0)
    pinv = np.linalg.inv(p)
    return [p @ g @ pinv for g in gens]


def planted(kind, n):
    """The algebra the conjugated generators close to, and its recognized structure."""
    alg = generate_algebra(conjugated_generators(kind, n), include_identity=True)
    return alg, is_transitive(alg).structure


def machine(benchmark):
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS",
                                                          "unset (OpenBLAS default)")


def timed(benchmark, n, fn, *args):
    """``fn(*args)`` timed in 50 rounds of 10 calls at n <= 16 and 20 rounds of one call
    at n = 32, after one untimed warm-up round."""
    machine(benchmark)
    rounds, iterations = (50, 10) if n <= 16 else (20, 1)
    return benchmark.pedantic(fn, args=args, rounds=rounds, iterations=iterations,
                              warmup_rounds=1)


@pytest.mark.parametrize("kind, n", CASES)
def test_generate_algebra(benchmark, kind, n):
    gens = conjugated_generators(kind, n)
    alg = timed(benchmark, n, generate_algebra, gens, True)
    assert alg.dim * D_DIM[kind] == n * n


@pytest.mark.parametrize("kind, n", CASES)
def test_commutant(benchmark, kind, n):
    alg, _ = planted(kind, n)
    comm = timed(benchmark, n, commutant, alg)
    assert len(comm) == D_DIM[kind]


@pytest.mark.parametrize("kind, n", CASES)
def test_density_degree(benchmark, kind, n):
    alg, structure = planted(kind, n)
    degree, _ = timed(benchmark, n, density_degree, alg, structure)
    assert degree == D_DIM[kind]


@pytest.mark.parametrize("kind, n", CASES)
def test_envelope(benchmark, kind, n):
    alg, structure = planted(kind, n)
    env = timed(benchmark, n, envelope, alg, structure)
    assert env.dim * structure.commutant_dim == n * n


@pytest.mark.parametrize("kind, n", CASES)
def test_classify(benchmark, kind, n):
    alg, structure = planted(kind, n)
    report = timed(benchmark, n, classify, alg)
    assert report.type is structure.type
    assert report.envelope_dim * structure.commutant_dim == n * n


@pytest.mark.parametrize("kind, n", CASES)
def test_min_rank(benchmark, kind, n):
    alg, structure = planted(kind, n)
    rank = timed(benchmark, n, min_rank, alg, structure)
    assert rank == structure.commutant_dim


@pytest.mark.parametrize("kind, n", CASES)
def test_is_transitive(benchmark, kind, n):
    alg, structure = planted(kind, n)
    report = timed(benchmark, n, is_transitive, alg)
    assert report.transitive and report.structure.type is structure.type


@pytest.mark.parametrize("n", [16, 32])
def test_is_transitive_rejects(benchmark, n):
    _, alg = conjugated_reducible_algebra("triangular", n, n // 2,
                                          random_similarity(np.random.default_rng(0), n, 100.0))
    report = timed(benchmark, n, is_transitive, alg)
    assert not report.transitive and report.witness[1].shape == (n, n // 2)


def test_ranges(benchmark, corpus):
    spec = corpus["ranges_power23"]

    def parse_and_check():
        left, right = sequence_from_json(spec["left"]), sequence_from_json(spec["right"])
        return check_isomorphism(left, right, spec["p_max"], spec["horizon"])

    machine(benchmark)
    verdict = benchmark.pedantic(parse_and_check, rounds=100, iterations=10, warmup_rounds=1)
    assert verdict.verdict == "non_isomorphic"


def run_payload(benchmark, payload):
    """Time ``run_instance`` on one payload and return its error-free report."""
    machine(benchmark)
    report = benchmark.pedantic(run_instance, args=(payload,), rounds=100, iterations=10,
                                warmup_rounds=1)
    assert report["error"] is None
    return report


def test_rep(benchmark, corpus):
    report = run_payload(benchmark, corpus["rep_twisted"])
    assert report["result"]["commutant_algebra_dim"] == 16


def test_pair(benchmark, corpus):
    report = run_payload(benchmark, corpus["pair_tilted"])
    assert report["result"]["commutant_algebra_dim"] == 8


def test_ranges_instance(benchmark, corpus):
    witness = run_payload(benchmark, corpus["ranges_power23"])["result"]["witness"]
    assert witness["reverified_all_p"] is True
