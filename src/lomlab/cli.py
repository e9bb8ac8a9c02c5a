"""Batch front-end: read instance files, run classification / construction /
range analyses, emit machine-readable reports.

Instance files are self-describing JSON with explicit shapes, seeds and
tolerances (defaults are written back into reports, never left implicit).
Matrices are row-major ``{"rows": r, "cols": c, "entries": [...]}``;
INFINITY in dimension sequences is spelled ``"inf"``.  An integer field takes
an integral number (``2`` or ``2.0``, never ``2.5`` or ``true``).

Exit codes: 0 success, 2 parse/validation error (any missing, mistyped or
out-of-range field, ``suite --tol`` included), 3 mathematical precondition
failure, 4 suite failure.  ``suite`` marks an instance that fails to load or
run and goes on to the next.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import sys
import time
from contextlib import contextmanager
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


# ---------------------------------------------------------------------------
# JSON <-> value helpers

@contextmanager
def _malformed(what):
    """Turn a missing, mistyped or out-of-range field of ``what`` into ``ParseError``.

    Wrap only the reading and range checks of fields, never ``generate_algebra``,
    ``classify`` or a ``construct`` builder, so an error from the mathematics
    can never pass for a parse error.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {what}: {exc}") from exc


def _integer(value) -> int:
    """An integral JSON number (``2``, or ``2.0``) as an int: ValueError for any other
    float (``2.5``, NaN, Infinity), TypeError for what is not a number, ``true`` and
    ``false`` included.  Read inside ``_malformed``, both are a parse error."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a boolean, not an integer")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"{value!r} is not an integer")
        return int(value)
    return operator.index(value)


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=float)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": a.reshape(-1).tolist()}


def matrix_from_json(obj, what="matrix") -> np.ndarray:
    with _malformed(what):
        rows, cols = _integer(obj["rows"]), _integer(obj["cols"])
        entries = [float(x) for x in obj["entries"]]
    if rows < 1 or cols < 1:
        raise ParseError(f"{what} must have at least one row and one column, got {rows}x{cols}")
    if len(entries) != rows * cols:
        raise ParseError(f"{what} declares {rows}x{cols} but carries {len(entries)} entries")
    return np.array(entries).reshape(rows, cols)


def vector_to_json(v) -> list:
    return np.asarray(v, dtype=float).reshape(-1).tolist()


def tolerance_from_json(obj) -> Tolerance:
    if obj is None:
        return DEFAULT_TOL
    with _malformed("tolerance"):
        return Tolerance(rel_eps=float(obj["rel_eps"]), abs_eps=float(obj["abs_eps"]))


def sequence_from_json(obj) -> DimSequence:
    """Dimension sequence from either explicit dims or a floor-power recipe."""
    if not isinstance(obj, dict):
        raise ParseError("sequence spec must be an object")
    with _malformed("sequence spec"):
        if "dims" in obj:
            seq = DimSequence(tuple(INFINITY if d == "inf" else _integer(d) for d in obj["dims"]))
        elif "floor_power" in obj:
            seq = power_family(float(obj["floor_power"]), _integer(obj["horizon"]))
            head = obj.get("head", "inf")
            if head != "inf":
                head = _integer(head)
                values = seq.values.astype(seq.values.dtype if 0 <= head < 2 ** 62 else object)
                values[0] = head
                seq = DimSequence._from_array(values)
        else:
            raise ParseError("sequence spec needs 'dims' or 'floor_power'")
        shift = _integer(obj.get("shift", 0))
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
    with _malformed(f"JSON in {path}"):
        payload = json.loads(raw.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: top level must be an object")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _RUNNERS:
        raise ParseError(f"{path}: unknown kind {kind!r}")
    if "seed" not in payload or "tolerance" not in payload:
        raise ParseError(f"{path}: seed and tolerance must be explicit")
    payload["_sha256"] = hashlib.sha256(raw).hexdigest()
    payload["_path"] = path
    return payload


# ---------------------------------------------------------------------------
# Command implementations (pure: payload -> result dict)

def _run_algebra(payload: dict, tol: Tolerance, seed: int) -> dict:
    with _malformed("algebra payload"):
        gens = [matrix_from_json(g, "generator") for g in payload["generators"]]
        include_identity = bool(payload.get("include_identity", True))
        ambient = _integer(payload["ambient_dim"])
        trials = _integer(payload.get("density_trials", 25))
        if trials < 0:
            raise ValueError(f"density_trials must be nonnegative, got {trials}")
    if any(g.shape != (ambient, ambient) for g in gens):
        raise ParseError("generator shapes disagree with ambient_dim")
    algebra = generate_algebra(gens, include_identity, tol)
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
        # always true, as min_rank raised otherwise; perfbench and 9 corpus files still read it
        "envelope_contains_input": True,
        # A'' = End_D(V) is the envelope of a transitive A
        "double_commutant_dim": report.envelope_dim,
    }


# S^2 = -I makes V a C-vector space, and the group relations make it an H-module, so
# once validate passes the commutant End_D(V) is counted as n^2/2 or n^2/4, not built
def _run_pcs_like(pcs, tol: Tolerance) -> dict:
    residual = pcs.validate(tol)
    return {
        "ambient_dim": pcs.dim,
        "s": matrix_to_json(pcs.matrix),
        "anti_involution_residual": residual,
        "norm_schedule": [float(x) for x in pcs.norm_schedule],
        "decomposition_cond": pcs.cond,
        "commutant_algebra_dim": pcs.dim * pcs.dim // 2,
    }


def _run_pcs(payload: dict, tol: Tolerance, seed: int) -> dict:
    with _malformed("pcs payload"):
        schedule = [float(s) for s in payload["schedule"]]
    return _run_pcs_like(build_pcs(schedule), tol)


def _run_pair(payload: dict, tol: Tolerance, seed: int) -> dict:
    with _malformed("pair payload"):
        m_basis = matrix_from_json(payload["m_basis"], "m_basis")
        n_basis = matrix_from_json(payload["n_basis"], "n_basis")
        unit = matrix_from_json(payload["structure_unit"], "structure_unit")
    pair = GenericPair(m_basis, n_basis)
    return _run_pcs_like(generic_pair_pcs(pair, unit, tol), tol)


def _run_rep(payload: dict, tol: Tolerance, seed: int) -> dict:
    with _malformed("rep payload"):
        blocks = _integer(payload["blocks"])
        twists = payload.get("twists")
        if twists is not None:
            twists = [matrix_from_json(t, "twist") for t in twists]
        bases = payload.get("pair")
        if bases is not None:
            bases = (matrix_from_json(bases["m_basis"], "pair m_basis"),
                     matrix_from_json(bases["n_basis"], "pair n_basis"))
    rep = build_quaternion_rep(blocks, twists)
    if bases is not None:
        rep = twisted_rep(GenericPair(*bases), rep, tol=tol)
    residual = rep.validate(tol)
    return {
        "ambient_dim": rep.n,
        "homomorphism_residual": residual,
        # one (8, n * n) list, each row as matrix_to_json writes it
        "matrices": {g: {"rows": rep.n, "cols": rep.n, "entries": entries}
                     for g, entries in zip(GROUP_ELEMENTS, rep.ops.reshape(8, -1).tolist())},
        "commutant_algebra_dim": rep.n * rep.n // 4,
    }


def _run_ranges(payload: dict, tol: Tolerance, seed: int) -> dict:
    with _malformed("ranges payload"):
        left = sequence_from_json(payload["left"])
        right = sequence_from_json(payload["right"])
        p_max = _integer(payload["p_max"])
        horizon = _integer(payload["horizon"])
        # check_isomorphism raises ValueError only on an out-of-range p_max or horizon
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
        # the right window n-p..m+p only grows with p and every dim is nonnegative,
        # so a witness that violates at p_max violates at every shift 0..p_max
        result["witness"] = {
            "n": n, "m": m, "direction": direction,
            "reverified_all_p": bool(witness_violates(left, right, n, m, p_max, direction)),
        }
    return result


# command -> (help, {kind: runner}): the one place that says which kinds a
# command runs; the command is the operation named in the report
_COMMANDS = {
    "classify": ("classify an algebra instance file", {"algebra": _run_algebra}),
    "construct": ("build a pcs / rep / pair instance",
                  {"pcs": _run_pcs, "rep": _run_rep, "pair": _run_pair}),
    "ranges": ("compare two dimension sequences", {"ranges": _run_ranges}),
}

# kind -> (operation, runner)
_RUNNERS = {kind: (command, runner)
            for command, (_, runners) in _COMMANDS.items()
            for kind, runner in runners.items()}


def run_instance(payload: dict, seed_override=None, tol_override=None) -> dict:
    """Execute one instance payload, returning the full report dict."""
    tol = tolerance_from_json(payload.get("tolerance")) if tol_override is None \
        else tol_override
    with _malformed("seed"):
        seed = _integer(payload["seed"] if seed_override is None else seed_override)
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
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


def _positive_float(text: str) -> float:
    """argparse type for ``--tol``: a finite number above zero."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def _cmd_suite(args) -> int:
    tol_override = Tolerance(rel_eps=args.tol, abs_eps=DEFAULT_TOL.abs_eps) \
        if args.tol is not None else None
    entries = []
    for path in corpus_paths():
        entry = {"path": path}
        try:
            payload = load_instance(path)
            entry.update(name=payload.get("name"), kind=payload["kind"])
            report = run_instance(payload, seed_override=args.seed, tol_override=tol_override)
        except LomlabError as exc:
            entry.update(status="parse-error" if isinstance(exc, ParseError) else "error",
                         detail=f"{type(exc).__name__}: {exc}")
        else:
            problems = _check_expectation(report, payload.get("expect", {}))
            entry.update(status="fail" if problems else "pass", detail="; ".join(problems),
                         report=report)
        entries.append(entry)
    failures = sum(e["status"] != "pass" for e in entries)
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


def _cmd_single(args) -> int:
    expected_kinds = tuple(_COMMANDS[args.command][1])
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

    for command, (help_text, _) in _COMMANDS.items():
        p_file = sub.add_parser(command, help=help_text)
        p_file.add_argument("file")
        p_file.add_argument("--out", default=None)

    p_suite = sub.add_parser("suite", help="run the shipped instance corpus")
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.add_argument("--tol", type=_positive_float, default=None)
    p_suite.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    return _cmd_suite(args) if args.command == "suite" else _cmd_single(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
