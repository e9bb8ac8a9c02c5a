"""pytest-benchmark cases for the public ``envelope``, ``classify``, ``min_rank``,
``is_transitive`` and ``check_isomorphism``.

The file name keeps these cases out of the default test run.  Run them with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q tests/bench_layers.py \
        --benchmark-json BENCH_<name>.json

Inputs are two generators of M_m(C) on R^(2m) or M_m(H) on R^(4m), or of M_16(R),
conjugated by a similarity of condition 100 (``default_rng(0)``).  The rejection case
gives ``is_transitive`` the block upper-triangular algebra with diagonal blocks of n/2,
conjugated the same way, so it times the commutant, the count and the witness.  Each
of these cases times three rounds of one call.  The ranges case parses both sequence
specs of the shipped ``ranges_power23`` instance with ``sequence_from_json`` and checks
them with ``check_isomorphism``; it takes well under a millisecond, so it times 100
rounds of 10 calls.  Every entry's ``extra_info`` records the CPU count and the BLAS
thread setting.
"""

import os

import numpy as np
import pytest

from conftest import conjugated_reducible_algebra, random_quaternion, random_similarity
from lomlab.classify import classify, envelope
from lomlab.cli import sequence_from_json
from lomlab.division import embed_complex, embed_quaternion
from lomlab.engine import generate_algebra, is_transitive, min_rank
from lomlab.ranges import check_isomorphism

CASES = [("Complex", 16), ("Complex", 32), ("Quaternion", 16), ("Quaternion", 32),
         ("Real", 16)]


def planted(kind, n):
    """Conjugated M_n(R), M_(n/2)(C) or M_(n/4)(H) on R^n and its recognized structure."""
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
    alg = generate_algebra([p @ g @ pinv for g in gens], include_identity=True)
    return alg, is_transitive(alg).structure


def machine(benchmark):
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS",
                                                          "unset (OpenBLAS default)")


@pytest.mark.parametrize("kind, n", CASES)
def test_envelope(benchmark, kind, n):
    alg, structure = planted(kind, n)
    machine(benchmark)
    env = benchmark.pedantic(envelope, args=(alg, structure),
                             kwargs={"allow_real": True}, rounds=3, iterations=1)
    assert env.dim * structure.commutant_dim == n * n


@pytest.mark.parametrize("kind, n", CASES)
def test_classify(benchmark, kind, n):
    alg, structure = planted(kind, n)
    machine(benchmark)
    report = benchmark.pedantic(classify, args=(alg,), rounds=3, iterations=1)
    assert report.type is structure.type
    assert report.envelope_dim * structure.commutant_dim == n * n


@pytest.mark.parametrize("kind, n", CASES)
def test_min_rank(benchmark, kind, n):
    alg, structure = planted(kind, n)
    machine(benchmark)
    rank = benchmark.pedantic(min_rank, args=(alg, structure), rounds=3, iterations=1)
    assert rank == structure.commutant_dim


@pytest.mark.parametrize("n", [16, 32])
def test_is_transitive_rejects(benchmark, n):
    _, alg = conjugated_reducible_algebra("triangular", n, n // 2,
                                          random_similarity(np.random.default_rng(0), n, 100.0))
    machine(benchmark)
    report = benchmark.pedantic(is_transitive, args=(alg,), rounds=3, iterations=1)
    assert not report.transitive and report.witness[1].shape == (n, n // 2)


def test_ranges(benchmark, corpus):
    spec = corpus["ranges_power23"]

    def parse_and_check():
        left, right = sequence_from_json(spec["left"]), sequence_from_json(spec["right"])
        return check_isomorphism(left, right, spec["p_max"], spec["horizon"])

    machine(benchmark)
    verdict = benchmark.pedantic(parse_and_check, rounds=100, iterations=10, warmup_rounds=1)
    assert verdict.verdict == "non_isomorphic"
