"""Workload inputs and correctness checks for the lomlab benchmark.

A workload is a list of cycles; a cycle is a list of ops, and every cycle
holds the same fixed mix of algebra types and ambient sizes.  The seed steers
matrix entries and similarities only, so every seed costs the same.  An op is
one call a user waits for (its verdict) plus the benchmark's own check of
that verdict, which never trusts the library's self-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from lomlab.classify import classify_type
from lomlab.cli import _check_expectation, corpus_paths, load_instance, matrix_to_json, run_instance
from lomlab.division import Quaternion, embed_complex, embed_quaternion
from lomlab.engine import generate_algebra
from lomlab.errors import NotTransitiveError

TYPES = {"Real": 1, "Complex": 2, "Quaternion": 4}

# Largest similarity condition number; the library budgets for kappa <= 1e3.
MAX_KAPPA = 1e3


@dataclass(frozen=True)
class Op:
    """One closed-loop request: ``run()`` returns the verdict, and
    ``check(verdict, expect)`` returns None when it is right, else a short
    failure label."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], Optional[str]]
    expect: Any
    reducible: bool = False


def random_similarity(rng, n, kappa):
    """Random invertible n x n matrix with condition number ``kappa``."""
    u, _, vt = np.linalg.svd(rng.standard_normal((n, n)))
    return u @ np.diag(np.geomspace(1.0, kappa, n)) @ vt


def conjugate(rng, gens):
    """Conjugate every generator by one similarity of kappa drawn from [1, 1e3]."""
    n = gens[0].shape[0]
    p = random_similarity(rng, n, float(rng.uniform(1.0, MAX_KAPPA)))
    pinv = np.linalg.inv(p)
    return [p @ g @ pinv for g in gens]


def planted_generators(rng, kind, ambient):
    """Two generic generators of the full algebra M_m(R), M_m(C) or M_m(H)
    realized on R^ambient."""
    m = ambient // TYPES[kind]
    if kind == "Real":
        return [rng.standard_normal((m, m)) for _ in range(2)]
    if kind == "Complex":
        return [embed_complex(rng.standard_normal((m, m)), rng.standard_normal((m, m)))
                for _ in range(2)]
    return [embed_quaternion([[Quaternion(*rng.standard_normal(4)) for _ in range(m)]
                              for _ in range(m)]) for _ in range(2)]


def block_triangular_generators(rng, n, k):
    """Two generators whose span(e_1..e_k) is invariant: the lower-left block is 0."""
    gens = []
    for _ in range(2):
        g = rng.standard_normal((n, n))
        g[k:, :k] = 0.0
        gens.append(g)
    return gens


# ---------------------------------------------------------------------------
# type_sweep: generate_algebra + classify_type on planted full algebras

def _same_label(label, expect):
    return None if label == expect else "WrongType"


def _type_sweep_op(rng, kind, ambient):
    gens = conjugate(rng, planted_generators(rng, kind, ambient))

    def run():
        return classify_type(generate_algebra(gens, include_identity=True)).label

    return Op(f"{kind}/{ambient}", run, _same_label, kind)


TYPE_SWEEP_SIZES = {"Real": range(2, 17), "Complex": range(2, 17, 2),
                    "Quaternion": range(4, 17, 4)}


def type_sweep_cycle(rng, sizes=TYPE_SWEEP_SIZES):
    return [_type_sweep_op(rng, kind, n) for kind, dims in sizes.items() for n in dims]


# ---------------------------------------------------------------------------
# classify_full: cli.run_instance on in-memory algebra payloads

def _check_classification(report, expect):
    kind, ambient = expect
    if report["error"] is not None:
        return report["error"]["error"]
    res = report["result"]
    d = TYPES[kind]
    if res["type"] != kind:
        return "WrongType"
    if not res["commutant_dim"] == res["min_rank"] == res["density_degree"] == d:
        return "FacesDisagree"
    if res["algebra_dim"] * d != ambient * ambient:
        return "WrongAlgebraDim"
    if not res["envelope_contains_input"]:
        return "EnvelopeMissesInput"
    if res["double_commutant_dim"] != res["algebra_dim"]:
        return "DoubleCommutantDim"
    witness = res["density_witness"]
    if d > 1 and (witness is None or not witness["margin"] >= 1.0 / math.sqrt(2.0)):
        return "WitnessMargin"
    return None


def _classify_full_op(rng, kind, ambient):
    payload = {
        "kind": "algebra",
        "name": f"{kind}-{ambient}",
        "ambient_dim": ambient,
        "generators": [matrix_to_json(g)
                       for g in conjugate(rng, planted_generators(rng, kind, ambient))],
        "include_identity": True,
        "density_trials": 25,
        "seed": 0,
        "tolerance": {"rel_eps": 1e-9, "abs_eps": 1e-12},
    }
    return Op(f"{kind}/{ambient}", lambda: run_instance(payload),
              _check_classification, (kind, ambient))


CLASSIFY_FULL_SIZES = (8, 12, 16)


def classify_full_cycle(rng, sizes=CLASSIFY_FULL_SIZES):
    return [_classify_full_op(rng, kind, n) for kind in TYPES for n in sizes]


# ---------------------------------------------------------------------------
# corpus_suite: the shipped corpus, as `lomlab suite --seed <seed>` runs it

def _check_suite_entry(report, expect):
    return "ExpectationMismatch" if _check_expectation(report, expect) else None


def corpus_suite_cycle(seed, paths=None):
    ops = []
    for path in corpus_paths() if paths is None else paths:
        expect = load_instance(path).get("expect", {})

        def run(path=path):
            return run_instance(load_instance(path), seed_override=seed)

        ops.append(Op(path.rsplit("/", 1)[-1], run, _check_suite_entry, expect))
    return ops


# The corpus split by layer: the algebra instances run the classify faces,
# the envelope and the double commutant; the pcs, rep, pair and ranges
# instances run construct and ranges instead.

def corpus_kind_paths(algebra):
    """The corpus files of ``kind: algebra`` (True) or of every other kind (False)."""
    return [p for p in corpus_paths() if (load_instance(p)["kind"] == "algebra") == algebra]


def corpus_algebra_cycle(seed, paths=None):
    return corpus_suite_cycle(seed, corpus_kind_paths(True) if paths is None else paths)


def corpus_operators_cycle(seed, paths=None):
    return corpus_suite_cycle(seed, corpus_kind_paths(False) if paths is None else paths)


# ---------------------------------------------------------------------------
# reducible: the type_sweep calls on block upper-triangular algebras

# A witness W (orthonormal columns) is accepted when every generator leaks
# out of span(W) by at most this share of its norm.
WITNESS_LEAK = 1e-6


def witness_problem(gens, witness):
    """None when ``witness = (x, W)`` spans a proper subspace invariant under
    every generator, else a short failure label."""
    if witness is None:
        return "NoWitness"
    w = np.asarray(witness[1], dtype=float)
    n = gens[0].shape[0]
    if w.ndim != 2 or w.shape[0] != n or not 0 < w.shape[1] < n:
        return "ImproperWitness"
    if np.linalg.norm(w.T @ w - np.eye(w.shape[1])) > 1e-8:
        return "ImproperWitness"
    out = np.eye(n) - w @ w.T
    leak = max(float(np.linalg.norm(out @ g @ w)) / float(np.linalg.norm(g)) for g in gens)
    return None if leak <= WITNESS_LEAK else "LeakyWitness"


def _check_reducible(verdict, gens):
    if isinstance(verdict, str):
        return "FalsePass"
    return witness_problem(gens, verdict.witness)


def _reducible_op(rng, n, k, conjugated):
    gens = block_triangular_generators(rng, n, k)
    if conjugated:
        gens = conjugate(rng, gens)

    def run():
        algebra = generate_algebra(gens, include_identity=True)
        try:
            return classify_type(algebra).label
        except NotTransitiveError as exc:
            return exc

    tag = "conj" if conjugated else "plain"
    return Op(f"{n}/{k}/{tag}", run, _check_reducible, gens, reducible=True)


REDUCIBLE_SIZES = (4, 8, 12, 16)


def reducible_cycle(rng, sizes=REDUCIBLE_SIZES):
    # Splits k = 1, n/2 and n-1 give invariant subspaces of every shape:
    # a line, half the space, and a hyperplane.
    return [_reducible_op(rng, n, k, conjugated)
            for n in sizes for k in sorted({1, n // 2, n - 1})
            for conjugated in (False, True)]


# ---------------------------------------------------------------------------

# name -> (cycle builder, cycles of distinct inputs built in set-up).  The
# pool holds over a minute of ops at the seed commit's speed; a longer run
# reuses it in order.  The reasons for each workload are in NOTES.md.
WORKLOADS = {
    "type_sweep": (type_sweep_cycle, 30),
    "classify_full": (classify_full_cycle, 8),
    "corpus_suite": (corpus_suite_cycle, 1),
    "corpus_algebra": (corpus_algebra_cycle, 1),
    "corpus_operators": (corpus_operators_cycle, 1),
    "reducible": (reducible_cycle, 24),
}


def build_pool(name, seed, cycles=None, **sizes):
    """The workload's input cycles for ``seed``; ``sizes`` shrinks a cycle."""
    make_cycle, pool_cycles = WORKLOADS[name]
    count = pool_cycles if cycles is None else cycles
    if name.startswith("corpus_"):
        # Fixed data: the seed steers the instances' randomized searches.
        return [make_cycle(seed, **sizes)] * count
    rng = np.random.default_rng(seed)
    return [make_cycle(rng, **sizes) for _ in range(count)]
