"""Batch front-end: read instance files, run classification / construction /
range analyses, emit machine-readable reports.

Instance files are self-describing JSON with explicit shapes, seeds and
tolerances (defaults are written back into reports, never left implicit).
Matrices are row-major ``{"rows": r, "cols": c, "entries": [...]}``;
INFINITY in dimension sequences is spelled ``"inf"``.

Exit codes: 0 success, 2 parse/validation error, 3 mathematical precondition
failure, 4 suite failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from .classify import classify
from .construct import (
    GROUP_ELEMENTS,
    GenericPair,
    build_pcs,
    build_quaternion_rep,
    generic_pair_pcs,
    pcs_commutant_algebra,
    rep_commutant_algebra,
    twisted_rep,
)
from .engine import commutant  # noqa: F401 -- unused; perfbench/smoke.py checks the tracer patches it here
from .engine import generate_algebra
from .errors import LomlabError, NotTransitiveError, ParseError
from .numeric import DEFAULT_TOL, Tolerance
from .ranges import INFINITY, DimSequence, check_isomorphism, power_family, shift_right, witness_violates

__all__ = ["main", "load_instance", "run_instance", "corpus_paths"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SUITE = 4

KINDS = ("algebra", "pcs", "rep", "pair", "ranges")


# ---------------------------------------------------------------------------
# JSON <-> value helpers

def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=float)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "entries": [float(x) for x in a.reshape(-1)]}


def matrix_from_json(obj, what="matrix") -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = [float(x) for x in obj["entries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {what}: {exc}") from exc
    if rows < 1 or cols < 1 or len(entries) != rows * cols:
        raise ParseError(
            f"{what} declares {rows}x{cols} but carries {len(entries)} entries"
        )
    return np.array(entries).reshape(rows, cols)


def vector_to_json(v) -> list:
    return [float(x) for x in np.asarray(v).reshape(-1)]


def tolerance_from_json(obj) -> Tolerance:
    if obj is None:
        return DEFAULT_TOL
    try:
        return Tolerance(rel_eps=float(obj["rel_eps"]), abs_eps=float(obj["abs_eps"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed tolerance: {exc}") from exc


def sequence_from_json(obj) -> DimSequence:
    """Dimension sequence from either explicit dims or a floor-power recipe."""
    if not isinstance(obj, dict):
        raise ParseError("sequence spec must be an object")
    if "dims" in obj:
        dims = []
        for d in obj["dims"]:
            if d == "inf":
                dims.append(INFINITY)
            else:
                dims.append(int(d))
        seq = DimSequence(tuple(dims))
    elif "floor_power" in obj:
        try:
            t = float(obj["floor_power"])
            horizon = int(obj["horizon"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed power spec: {exc}") from exc
        seq = power_family(t, horizon)
        head = obj.get("head", "inf")
        if head != "inf":
            seq = DimSequence((int(head),) + seq.dims[1:])
    else:
        raise ParseError("sequence spec needs 'dims' or 'floor_power'")
    shift = int(obj.get("shift", 0))
    if shift:
        seq = shift_right(seq, shift)
    return seq


# ---------------------------------------------------------------------------
# Instance loading

def load_instance(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: top level must be an object")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise ParseError(f"{path}: unknown kind {kind!r}")
    if "seed" not in payload or "tolerance" not in payload:
        raise ParseError(f"{path}: seed and tolerance must be explicit")
    payload["_sha256"] = hashlib.sha256(raw).hexdigest()
    payload["_path"] = path
    return payload


# ---------------------------------------------------------------------------
# Command implementations (pure: payload -> result dict)

def _run_algebra(payload: dict, tol: Tolerance, seed: int) -> dict:
    try:
        gens = [matrix_from_json(g, "generator") for g in payload["generators"]]
        include_identity = bool(payload.get("include_identity", True))
        ambient = int(payload["ambient_dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed algebra payload: {exc}") from exc
    if any(g.shape != (ambient, ambient) for g in gens):
        raise ParseError("generator shapes disagree with ambient_dim")
    algebra = generate_algebra(gens, include_identity, tol)
    trials = int(payload.get("density_trials", 25))
    report = classify(algebra, tol, density_trials=trials, seed=seed)
    witness = None
    if report.density_witness is not None:
        witness = {
            "x": vector_to_json(report.density_witness.x),
            "unit_image": vector_to_json(report.density_witness.unit_image),
            "target": vector_to_json(report.density_witness.target),
            "margin": report.density_witness.margin,
        }
    return {
        "algebra_dim": algebra.dim,
        "unital": algebra.unital,
        "type": report.type.label,
        "commutant_dim": report.commutant_dim,
        "min_rank": report.min_rank,
        "density_degree": report.density_degree,
        "density_witness": witness,
        "envelope_dim": report.envelope_dim,
        "envelope_contains_input": report.envelope_contains_input,
        # A'' = End_D(V) is the envelope of a transitive A
        "double_commutant_dim": report.envelope_dim,
    }


def _run_pcs_like(pcs, tol: Tolerance) -> dict:
    residual = pcs.validate(tol)
    alg = pcs_commutant_algebra(pcs, tol)
    return {
        "ambient_dim": pcs.dim,
        "s": matrix_to_json(pcs.matrix),
        "anti_involution_residual": residual,
        "norm_schedule": [float(x) for x in pcs.norm_schedule],
        "decomposition_cond": pcs.cond,
        "commutant_algebra_dim": alg.dim,
    }


def _run_pcs(payload: dict, tol: Tolerance, seed: int) -> dict:
    try:
        schedule = [float(s) for s in payload["schedule"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed pcs payload: {exc}") from exc
    return _run_pcs_like(build_pcs(len(schedule), schedule), tol)


def _run_pair(payload: dict, tol: Tolerance, seed: int) -> dict:
    try:
        m_basis = matrix_from_json(payload["m_basis"], "m_basis")
        n_basis = matrix_from_json(payload["n_basis"], "n_basis")
        unit = matrix_from_json(payload["structure_unit"], "structure_unit")
    except KeyError as exc:
        raise ParseError(f"malformed pair payload: {exc}") from exc
    pair = GenericPair(m_basis, n_basis)
    return _run_pcs_like(generic_pair_pcs(pair, unit, tol), tol)


def _run_rep(payload: dict, tol: Tolerance, seed: int) -> dict:
    try:
        blocks = int(payload["blocks"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed rep payload: {exc}") from exc
    twists = None
    if payload.get("twists") is not None:
        twists = [matrix_from_json(t, "twist") for t in payload["twists"]]
    rep = build_quaternion_rep(blocks, twists)
    if payload.get("pair") is not None:
        pair = GenericPair(
            matrix_from_json(payload["pair"]["m_basis"], "pair m_basis"),
            matrix_from_json(payload["pair"]["n_basis"], "pair n_basis"),
        )
        rep = twisted_rep(pair, rep, tol=tol)
    residual = rep.validate(tol)
    alg = rep_commutant_algebra(rep, tol)
    return {
        "ambient_dim": rep.n,
        "homomorphism_residual": residual,
        "matrices": {g: matrix_to_json(rep.pi[g]) for g in GROUP_ELEMENTS},
        "commutant_algebra_dim": alg.dim,
    }


def _run_ranges(payload: dict, tol: Tolerance, seed: int) -> dict:
    try:
        left = sequence_from_json(payload["left"])
        right = sequence_from_json(payload["right"])
        p_max = int(payload["p_max"])
        horizon = int(payload["horizon"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed ranges payload: {exc}") from exc
    verdict = check_isomorphism(left, right, p_max, horizon)
    result = {
        "verdict": verdict.verdict,
        "p": verdict.p,
        "p_max": verdict.p_max,
        "horizon": verdict.horizon,
        "witness": None,
    }
    if verdict.witness is not None:
        n, m, direction = verdict.witness
        reverified = all(
            witness_violates(left, right, n, m, p, direction)
            for p in range(p_max + 1)
        )
        result["witness"] = {
            "n": n, "m": m, "direction": direction,
            "reverified_all_p": bool(reverified),
        }
    return result


# kind -> (operation named in the report, runner)
_RUNNERS = {
    "algebra": ("classify", _run_algebra),
    "pcs": ("construct", _run_pcs),
    "pair": ("construct", _run_pair),
    "rep": ("construct", _run_rep),
    "ranges": ("ranges", _run_ranges),
}


def run_instance(payload: dict, seed_override=None, tol_override=None) -> dict:
    """Execute one instance payload, returning the full report dict."""
    tol = tolerance_from_json(payload.get("tolerance")) if tol_override is None \
        else tol_override
    seed = int(payload["seed"]) if seed_override is None else int(seed_override)
    operation, runner = _RUNNERS[payload["kind"]]
    start = time.perf_counter()
    report = {
        "instance": {
            "path": payload.get("_path"),
            "sha256": payload.get("_sha256"),
            "kind": payload["kind"],
            "name": payload.get("name"),
        },
        "operation": operation,
        "inputs": {k: v for k, v in payload.items() if not k.startswith("_")},
        "seed": seed,
        "tolerance": {"rel_eps": tol.rel_eps, "abs_eps": tol.abs_eps},
    }
    try:
        report["result"] = runner(payload, tol, seed)
        report["error"] = None
    except NotTransitiveError as exc:
        entry = {"error": "NotTransitive", "message": str(exc)}
        if exc.witness is not None:
            x, w = exc.witness
            entry["witness"] = {"vector": vector_to_json(x),
                                "subspace": matrix_to_json(w)}
        report["result"] = None
        report["error"] = entry
    report["wall_time_s"] = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Expectations (used by the suite)

def _check_expectation(report: dict, expect: dict):
    """Compare a report against the instance's expect block; returns problems."""
    problems = []
    if "error" in expect:
        got = (report.get("error") or {}).get("error")
        if got != expect["error"]:
            problems.append(f"expected error {expect['error']}, got {got!r}")
        return problems
    if report.get("error") is not None:
        problems.append(f"unexpected error: {report['error']['error']}")
        return problems
    result = report["result"]
    for key, want in expect.items():
        got = result.get(key)
        if isinstance(want, float):
            ok = got is not None and abs(got - want) <= 1e-6 * max(1.0, abs(want))
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    return problems


def corpus_paths():
    """Paths of the shipped corpus instances, sorted by name."""
    root = resources.files("lomlab").joinpath("corpus")
    return sorted(str(p) for p in root.iterdir() if p.name.endswith(".json"))


def _cmd_suite(args) -> int:
    tol_override = Tolerance(rel_eps=args.tol, abs_eps=DEFAULT_TOL.abs_eps) \
        if args.tol is not None else None
    entries = []
    failures = 0
    for path in corpus_paths():
        try:
            payload = load_instance(path)
        except ParseError as exc:
            entries.append({"path": path, "status": "parse-error", "detail": str(exc)})
            failures += 1
            continue
        report = run_instance(payload, seed_override=args.seed, tol_override=tol_override)
        problems = _check_expectation(report, payload.get("expect", {}))
        status = "pass" if not problems else "fail"
        if problems:
            failures += 1
        entries.append({
            "path": path,
            "name": payload.get("name"),
            "kind": payload["kind"],
            "status": status,
            "detail": "; ".join(problems),
            "report": report,
        })
    summary = {
        "version": __version__,
        "total": len(entries),
        "failures": failures,
        "entries": entries,
    }
    for e in entries:
        name = e.get("name") or e["path"]
        print(f"[{e['status']:>11}] {name:<24} {e.get('kind', '?'):<8} {e['detail']}")
    print(f"suite: {len(entries) - failures}/{len(entries)} passed")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
    return EXIT_OK if failures == 0 else EXIT_SUITE


def _emit(report: dict, out) -> None:
    text = json.dumps(report, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_single(args, expected_kinds) -> int:
    try:
        payload = load_instance(args.file)
        if payload["kind"] not in expected_kinds:
            raise ParseError(
                f"{args.file}: kind {payload['kind']!r} not valid here "
                f"(expected one of {expected_kinds})"
            )
        report = run_instance(payload)
    except ParseError as exc:
        print(json.dumps({"error": "ParseError", "message": str(exc)}), file=sys.stderr)
        return EXIT_PARSE
    except LomlabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(report, args.out)
    if report.get("error") is not None:
        return EXIT_PRECONDITION
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lomlab",
        description="Classify transitive real matrix algebras, build their "
                    "model objects, and compare operator-range dimension sequences.",
    )
    parser.add_argument("--version", action="version", version=f"lomlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify an algebra instance file")
    p_classify.add_argument("file")
    p_classify.add_argument("--out", default=None)

    p_construct = sub.add_parser("construct", help="build a pcs / rep / pair instance")
    p_construct.add_argument("file")
    p_construct.add_argument("--out", default=None)

    p_ranges = sub.add_parser("ranges", help="compare two dimension sequences")
    p_ranges.add_argument("file")
    p_ranges.add_argument("--out", default=None)

    p_suite = sub.add_parser("suite", help="run the shipped instance corpus")
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.add_argument("--tol", type=float, default=None)
    p_suite.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command == "classify":
        return _cmd_single(args, ("algebra",))
    if args.command == "construct":
        return _cmd_single(args, ("pcs", "rep", "pair"))
    if args.command == "ranges":
        return _cmd_single(args, ("ranges",))
    if args.command == "suite":
        return _cmd_suite(args)
    parser.error(f"unknown command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
