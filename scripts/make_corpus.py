"""Regenerate the shipped instance corpus (src/lomlab/corpus/*.json).

Deterministic: every instance is derived from the fixed seeds below, and the
expected classification integers are computed by the library itself at
generation time, then frozen into the files' expect blocks.
"""

import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from lomlab.cli import _check_expectation, matrix_to_json, run_instance  # noqa: E402
from lomlab.division import Quaternion, embed_complex, embed_quaternion  # noqa: E402

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "src" / "lomlab" / "corpus"

TOL = {"rel_eps": 1e-9, "abs_eps": 1e-12}


def similarity(rng, n, cond):
    a = rng.standard_normal((n, n))
    u, _, vt = np.linalg.svd(a)
    s = np.geomspace(1.0, cond, n)
    return u @ np.diag(s) @ vt


def conjugate(mats, p):
    pinv = np.linalg.inv(p)
    return [p @ m @ pinv for m in mats]


def random_quaternion(rng):
    return Quaternion(*rng.standard_normal(4))


def algebra_instance(name, ambient, generators, include_identity, seed, expect):
    return {
        "kind": "algebra",
        "name": name,
        "ambient_dim": ambient,
        "generators": [matrix_to_json(g) for g in generators],
        "include_identity": include_identity,
        "density_trials": 25,
        "seed": seed,
        "tolerance": dict(TOL),
        "expect": expect,
    }


def expect_for(kind_label, ambient, algebra_dim):
    k = {"Real": 1, "Complex": 2, "Quaternion": 4}[kind_label]
    return {
        "type": kind_label,
        "commutant_dim": k,
        "min_rank": k,
        "density_degree": k,
        "algebra_dim": algebra_dim,
        "envelope_dim": ambient * ambient // k,
        "envelope_contains_input": True,
        "double_commutant_dim": algebra_dim,
    }


def main():
    CORPUS.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(20260801)
    instances = []

    # --- real type: M_3(R) -------------------------------------------------
    real_gens = [rng.standard_normal((3, 3)) for _ in range(2)]
    instances.append(algebra_instance(
        "full_m3_plain", 3, real_gens, True, 0, expect_for("Real", 3, 9)))
    p = similarity(rng, 3, 40.0)
    instances.append(algebra_instance(
        "full_m3_conj", 3, conjugate(real_gens, p), True, 0, expect_for("Real", 3, 9)))
    instances.append(algebra_instance(
        "full_m3_nonunital", 3, real_gens, False, 0, expect_for("Real", 3, 9)))

    # --- complex type: M_2(C) in M_4(R) ------------------------------------
    cplx_gens = [embed_complex(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
                 for _ in range(2)]
    instances.append(algebra_instance(
        "complex_m2_plain", 4, cplx_gens, True, 0, expect_for("Complex", 4, 8)))
    p = similarity(rng, 4, 200.0)
    instances.append(algebra_instance(
        "complex_m2_conj", 4, conjugate(cplx_gens, p), True, 0,
        expect_for("Complex", 4, 8)))
    instances.append(algebra_instance(
        "complex_m2_nonunital", 4, cplx_gens, False, 0, expect_for("Complex", 4, 8)))

    # --- quaternion type: M_2(H) in M_8(R), M_1(H) in M_4(R) ----------------
    quat_gens = [embed_quaternion([[random_quaternion(rng) for _ in range(2)]
                                   for _ in range(2)]) for _ in range(2)]
    instances.append(algebra_instance(
        "quat_m2_plain", 8, quat_gens, True, 0, expect_for("Quaternion", 8, 16)))
    quat1_gens = [embed_quaternion(random_quaternion(rng)) for _ in range(2)]
    p = similarity(rng, 4, 100.0)
    instances.append(algebra_instance(
        "quat_m1_conj", 4, conjugate(quat1_gens, p), True, 0,
        expect_for("Quaternion", 4, 4)))
    instances.append(algebra_instance(
        "quat_m2_nonunital", 8, quat_gens, False, 0, expect_for("Quaternion", 8, 16)))

    # --- non-transitive error path ------------------------------------------
    triangular = [np.array([[1.0, 0.0], [0.0, 0.0]]),
                  np.array([[0.0, 1.0], [0.0, 0.0]]),
                  np.array([[0.0, 0.0], [0.0, 1.0]])]
    instances.append({
        "kind": "algebra",
        "name": "triangular",
        "ambient_dim": 2,
        "generators": [matrix_to_json(g) for g in triangular],
        "include_identity": True,
        "density_trials": 25,
        "seed": 0,
        "tolerance": dict(TOL),
        "expect": {"error": "NotTransitive"},
    })

    # --- partial complex structures ------------------------------------------
    instances.append({
        "kind": "pcs", "name": "pcs_unit", "schedule": [1.0, 1.0],
        "seed": 0, "tolerance": dict(TOL),
        "expect": {"ambient_dim": 4, "commutant_algebra_dim": 8,
                   "anti_involution_residual": 0.0},
    })
    instances.append({
        "kind": "pcs", "name": "pcs_growing", "schedule": [1.0, 2.0, 3.0],
        "seed": 0, "tolerance": dict(TOL),
        "expect": {"ambient_dim": 6, "commutant_algebra_dim": 18,
                   "anti_involution_residual": 0.0},
    })

    # --- a generic pair with a tilted second subspace ------------------------
    theta = 0.3
    c, s = np.cos(theta), np.sin(theta)
    unit = np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    m_basis = np.eye(4)[:, :2]
    # rotation in the (e1,e3) and (e2,e4) planes commutes with J (+) J
    rot = np.array([
        [c, 0.0, -s, 0.0],
        [0.0, c, 0.0, -s],
        [s, 0.0, c, 0.0],
        [0.0, s, 0.0, c],
    ])
    n_basis = rot @ np.eye(4)[:, 2:]
    instances.append({
        "kind": "pair", "name": "pair_tilted",
        "m_basis": matrix_to_json(m_basis),
        "n_basis": matrix_to_json(n_basis),
        "structure_unit": matrix_to_json(unit),
        "seed": 0, "tolerance": dict(TOL),
        "expect": {"ambient_dim": 4, "commutant_algebra_dim": 8},
    })

    # --- quaternion representations -------------------------------------------
    instances.append({
        "kind": "rep", "name": "rep_untwisted", "blocks": 2, "twists": None,
        "seed": 0, "tolerance": dict(TOL),
        "expect": {"ambient_dim": 8, "commutant_algebra_dim": 16,
                   "homomorphism_residual": 0.0},
    })
    twists = [np.eye(4), np.diag([1.0, 2.0, 1.0, 1.0])]
    instances.append({
        "kind": "rep", "name": "rep_twisted", "blocks": 2,
        "twists": [matrix_to_json(t) for t in twists],
        "pair": {"m_basis": matrix_to_json(np.eye(8)[:, :4]),
                 "n_basis": matrix_to_json(np.eye(8)[:, 4:])},
        "seed": 0, "tolerance": dict(TOL),
        "expect": {"ambient_dim": 8, "commutant_algebra_dim": 16},
    })

    # --- operator ranges --------------------------------------------------------
    instances.append({
        "kind": "ranges", "name": "ranges_identical",
        "left": {"floor_power": 2.0, "horizon": 400},
        "right": {"floor_power": 2.0, "horizon": 400},
        "p_max": 5, "horizon": 400,
        "seed": 0, "tolerance": dict(TOL),
        "expect": {"verdict": "isomorphic", "p": 0},
    })
    instances.append({
        "kind": "ranges", "name": "ranges_shifted",
        "left": {"floor_power": 2.0, "horizon": 500, "head": 0},
        "right": {"floor_power": 2.0, "horizon": 497, "head": 0, "shift": 3},
        "p_max": 10, "horizon": 500,
        "seed": 0, "tolerance": dict(TOL),
        "expect": {"verdict": "isomorphic", "p": 3},
    })
    instances.append({
        "kind": "ranges", "name": "ranges_power23",
        "left": {"floor_power": 2.0, "horizon": 2020},
        "right": {"floor_power": 3.0, "horizon": 2020},
        "p_max": 20, "horizon": 2000,
        "seed": 0, "tolerance": dict(TOL),
        "expect": {"verdict": "non_isomorphic"},
    })

    # sanity pass before writing: every expectation must hold
    for inst in instances:
        problems = _check_expectation(run_instance(dict(inst)), inst["expect"])
        assert not problems, (inst["name"], problems)
        print(f"verified {inst['name']}")

    for inst in instances:
        path = CORPUS / f"{inst['name']}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inst, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    print(f"{len(instances)} instances")


if __name__ == "__main__":
    main()
