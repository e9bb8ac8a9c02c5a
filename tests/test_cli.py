import importlib
import json

import numpy as np
import pytest

from lomlab.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_SUITE,
    corpus_paths,
    load_instance,
    main,
    matrix_from_json,
    matrix_to_json,
    run_instance,
    sequence_from_json,
    vector_to_json,
)
from lomlab import construct
from lomlab.construct import GroupRep, PCSOperator
from lomlab.errors import ParseError
from lomlab.ranges import INFINITY


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def corpus_payload(corpus, instance, **extra):
    """A copy of a shipped instance with some fields replaced, ready to write."""
    payload = {k: v for k, v in corpus[instance].items() if not k.startswith("_")}
    payload.update(extra)
    return payload


def minimal_pcs(tmp_path, **extra):
    payload = {"kind": "pcs", "name": "t", "schedule": [1.0, 2.0],
               "seed": 0, "tolerance": {"rel_eps": 1e-9, "abs_eps": 1e-12}}
    payload.update(extra)
    return write_json(tmp_path, "pcs.json", payload)


def test_run_instance_computes_each_fact_once(corpus, monkeypatch):
    calls = {"is_transitive": 0, "commutant": 0}
    modules = [importlib.import_module(name)
               for name in ("lomlab.engine", "lomlab.classify", "lomlab.cli")]
    for module in modules:
        for name in calls:
            if hasattr(module, name):
                def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    report = run_instance(corpus["quat_m2_plain"])
    assert report["error"] is None
    # one certificate, which computes the algebra's commutant; the double commutant
    # is the envelope classify already built
    assert calls == {"is_transitive": 1, "commutant": 1}


def test_run_instance_computes_each_residual_once(corpus, monkeypatch):
    calls = []
    for cls, name in ((GroupRep, "homomorphism_residual"),
                      (PCSOperator, "anti_involution_residual")):
        def counted(self, _fn=getattr(cls, name), _name=name):
            calls.append(_name)
            return _fn(self)
        monkeypatch.setattr(cls, name, counted)
    for name in ("rep_twisted", "pair_tilted"):
        assert run_instance(corpus[name])["error"] is None
    # validate checks the residual and returns it for the report
    assert calls == ["homomorphism_residual", "anti_involution_residual"]


def test_rep_run_copies_and_inverts_once(corpus, monkeypatch):
    calls = {"as_matrix": 0, "inv": 0}
    for module, name in ((construct, "as_matrix"), (np.linalg, "inv")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert run_instance(corpus["rep_twisted"])["error"] is None
    # two twists and the pair's two bases; the rep is one checked stack, and every
    # twist is inverted by one batched call
    assert calls["as_matrix"] <= 4 and calls["inv"] <= 1


@pytest.mark.parametrize("name, svds", [("pair_tilted", 2), ("rep_twisted", 3)])
def test_pair_run_factors_the_pair_once(corpus, monkeypatch, name, svds):
    calls = []

    def counted(*args, _fn=np.linalg.svd, **kwargs):
        calls.append(args[0].shape)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert run_instance(corpus[name])["error"] is None
    # decomposition factors [M | N] once and the invariance check takes QR factors
    # of the bases; the rest is the schedule of S (pair) or the two twists (rep)
    assert len(calls) == svds


# --- parsing -----------------------------------------------------------------

def test_matrix_roundtrip():
    m = np.arange(6, dtype=float).reshape(2, 3)
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)


@pytest.mark.parametrize("m", [
    np.random.default_rng(0).standard_normal((4, 3)),
    np.array([[0.0, -0.0], [-0.0, 1.0]]),
    np.array([[5e-324, -5e-324, 2.2e-308 / 3]]),  # subnormals
    np.arange(6).reshape(2, 3),  # integer dtype
    np.array([[np.nan, np.inf, -np.inf]]),
])
def test_json_lists_match_the_per_element_floats(m):
    # the reference: one float() per element, as the conversion used to be written
    def bits(xs):
        assert all(type(x) is float for x in xs)
        return [x.hex() for x in xs]
    assert bits(matrix_to_json(m)["entries"]) == \
        bits([float(x) for x in np.asarray(m, dtype=float).reshape(-1)])
    assert bits(vector_to_json(m)) == bits([float(x) for x in np.asarray(m).reshape(-1)])


def test_matrix_shape_validation():
    with pytest.raises(ParseError, match="declares 2x2 but carries 3 entries"):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [1, 2, 3]})
    for rows, cols in ((0, 0), (0, 2), (2, 0)):
        with pytest.raises(ParseError, match="at least one row and one column"):
            matrix_from_json({"rows": rows, "cols": cols, "entries": []})


def test_sequence_specs():
    seq = sequence_from_json({"dims": ["inf", 1, 4]})
    assert seq.dims == (INFINITY, 1, 4)
    fam = sequence_from_json({"floor_power": 2.0, "horizon": 5})
    assert fam.dims == (INFINITY, 1, 4, 9, 16, 25)
    fin = sequence_from_json({"floor_power": 2.0, "horizon": 4, "head": 0, "shift": 2})
    assert fin.dims == (0, 0, 0, 1, 4, 9, 16)
    with pytest.raises(ParseError):
        sequence_from_json({"nope": 1})
    # an integral field is an integral number, never truncated as int() would
    assert sequence_from_json({"dims": [0.0, 2.0, 3]}).dims == (0, 2, 3)
    fin = sequence_from_json({"floor_power": 2.0, "horizon": 4.0, "head": 0.0, "shift": 2.0})
    assert fin.dims == (0, 0, 0, 1, 4, 9, 16)
    for bad in ({"dims": [0, 2.5, 3.9]}, {"dims": [0, 1, float("inf")]}, {"dims": [0, "1"]},
                {"floor_power": 2.0, "horizon": 4.9},
                {"floor_power": 2.0, "horizon": 4, "head": 2.5},
                {"floor_power": 2.0, "horizon": 4, "head": 0, "shift": 1.5}):
        with pytest.raises(ParseError, match="sequence spec"):
            sequence_from_json(bad)


def test_load_rejects_implicit_defaults(tmp_path):
    path = write_json(tmp_path, "bad.json", {"kind": "pcs", "schedule": [1.0]})
    with pytest.raises(ParseError):
        load_instance(path)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_instance(str(path))


def test_load_rejects_unknown_kind(tmp_path):
    path = write_json(tmp_path, "odd.json",
                      {"kind": "nonsense", "seed": 0, "tolerance": {}})
    with pytest.raises(ParseError):
        load_instance(path)


# --- single-shot commands -----------------------------------------------------

def test_classify_corpus_file(capsys):
    path = next(p for p in corpus_paths() if p.endswith("complex_m2_plain.json"))
    assert main(["classify", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["type"] == "Complex"
    assert report["result"]["density_degree"] == 2
    assert report["result"]["min_rank"] == 2
    assert report["seed"] == 0
    assert report["tolerance"] == {"rel_eps": 1e-9, "abs_eps": 1e-12}


def test_classify_triangular_exit_code(capsys):
    path = next(p for p in corpus_paths() if p.endswith("triangular.json"))
    assert main(["classify", path]) == EXIT_PRECONDITION
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["error"] == "NotTransitive"
    # invariant line through e1
    vec = np.array(report["error"]["witness"]["subspace"]["entries"])
    assert abs(abs(vec[0]) - 1) < 1e-9


def test_classify_rejects_wrong_kind(tmp_path, capsys):
    path = minimal_pcs(tmp_path)
    assert main(["classify", path]) == EXIT_PARSE


def test_construct_pcs(tmp_path, capsys):
    # a norm schedule that grows without bound is the paper's continuum, so a
    # large norm is counted like a small one
    for schedule in ([1.0, 2.0], [1.0, 1e8]):
        assert main(["construct", minimal_pcs(tmp_path, schedule=schedule)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["anti_involution_residual"] == 0.0
        assert report["result"]["commutant_algebra_dim"] == 8
    assert main(["construct", minimal_pcs(tmp_path, schedule=["nan"])]) == EXIT_PRECONDITION
    assert json.loads(capsys.readouterr().err)["error"] == "BadScheduleError"


def test_construct_rep_with_an_ill_conditioned_twist(tmp_path, capsys):
    payload = {"kind": "rep", "name": "t", "blocks": 1,
               "twists": [matrix_to_json(np.diag([1.0, 1e6, 1.0, 1.0]))],
               "seed": 0, "tolerance": {"rel_eps": 1e-9, "abs_eps": 1e-12}}
    assert main(["construct", write_json(tmp_path, "rep.json", payload)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["commutant_algebra_dim"] == 4


def test_construct_counts_the_commutant_without_building_it(corpus, monkeypatch):
    construct = importlib.import_module("lomlab.construct")
    calls = []

    def counted(*args, _fn=construct.d_linear_maps, **kwargs):
        calls.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(construct, "d_linear_maps", counted)
    runs = [run_instance(payload) for payload in corpus.values()
            if payload["kind"] in ("pcs", "pair", "rep")]
    assert len(runs) == 5 and all(run["error"] is None for run in runs)
    # validate certifies S^2 = -I or the group relations; n^2/2 or n^2/4 follows
    assert calls == []


def test_construct_degenerate_pair(tmp_path, capsys):
    eye = np.eye(4)
    payload = {
        "kind": "pair", "name": "degenerate",
        "m_basis": matrix_to_json(eye[:, :2]),
        "n_basis": matrix_to_json(eye[:, :2]),
        "structure_unit": matrix_to_json(np.kron(np.eye(2), [[0, -1], [1, 0]])),
        "seed": 0, "tolerance": {"rel_eps": 1e-9, "abs_eps": 1e-12},
    }
    path = write_json(tmp_path, "pair.json", payload)
    assert main(["construct", path]) == EXIT_PRECONDITION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotComplementaryError"


def test_ranges_undecided_on_tiny_horizon(tmp_path, capsys):
    payload = {
        "kind": "ranges", "name": "tiny",
        "left": {"dims": [0, 5, 0, 0]},
        "right": {"dims": [0, 0, 0, 0]},
        "p_max": 3, "horizon": 3,
        "seed": 0, "tolerance": {"rel_eps": 1e-9, "abs_eps": 1e-12},
    }
    path = write_json(tmp_path, "ranges.json", payload)
    assert main(["ranges", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["verdict"] == "undecided"
    assert report["result"]["p_max"] == 3
    assert report["result"]["horizon"] == 3


def test_ranges_witness_is_reverified(capsys):
    path = next(p for p in corpus_paths() if p.endswith("ranges_power23.json"))
    assert main(["ranges", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["verdict"] == "non_isomorphic"
    witness = report["result"]["witness"]
    assert witness["reverified_all_p"] is True
    assert (witness["n"], witness["m"], witness["direction"]) == (21, 23, "right_exceeds_left")


def test_missing_file_is_parse_error(capsys):
    assert main(["classify", "/nonexistent/file.json"]) == EXIT_PARSE


def rep_pair_without_n_basis(corpus):
    return corpus_payload(corpus, "rep_twisted",
                          pair={"m_basis": corpus["rep_twisted"]["pair"]["m_basis"]})


@pytest.mark.parametrize("command, build", [
    ("ranges", lambda c: corpus_payload(c, "ranges_shifted", horizon=1)),
    ("ranges", lambda c: corpus_payload(c, "ranges_shifted", p_max=-1)),
    ("classify", lambda c: corpus_payload(c, "complex_m2_plain", density_trials="many")),
    ("classify", lambda c: corpus_payload(c, "complex_m2_plain", density_trials=-2)),
    ("construct", lambda c: corpus_payload(c, "pcs_unit", seed="x")),
    ("construct", rep_pair_without_n_basis),
    ("classify", lambda c: corpus_payload(c, "complex_m2_plain", seed=-1)),
    ("construct", lambda c: corpus_payload(c, "rep_twisted", twists=5)),
    ("classify", lambda c: corpus_payload(c, "complex_m2_plain", kind=["algebra"])),
    ("ranges", lambda c: corpus_payload(c, "ranges_shifted", horizon=400.5)),
    ("ranges", lambda c: corpus_payload(c, "ranges_shifted", p_max=2.5)),
    ("ranges", lambda c: corpus_payload(c, "ranges_shifted",
                                        right=dict(c["ranges_shifted"]["right"], shift=3.5))),
    ("ranges", lambda c: corpus_payload(c, "ranges_shifted",
                                        left={"dims": [0, 2.5, 3.9]})),
    ("classify", lambda c: corpus_payload(c, "complex_m2_plain", ambient_dim=4.5)),
    ("classify", lambda c: corpus_payload(c, "complex_m2_plain", density_trials=2.5)),
    ("classify", lambda c: corpus_payload(c, "complex_m2_plain", seed=0.5)),
    ("classify", lambda c: corpus_payload(
        c, "complex_m2_plain",
        generators=[dict(g, rows=4.5) for g in c["complex_m2_plain"]["generators"]])),
    ("construct", lambda c: corpus_payload(c, "rep_untwisted", blocks=2.5)),
    # JSON booleans are not integers, though bool subclasses int in Python
    ("construct", lambda c: corpus_payload(c, "rep_untwisted", blocks=True)),
    ("construct", lambda c: corpus_payload(c, "pcs_unit", seed=False)),
    ("classify", lambda c: corpus_payload(c, "complex_m2_plain", density_trials=True)),
    ("ranges", lambda c: corpus_payload(c, "ranges_shifted", p_max=True)),
    ("ranges", lambda c: corpus_payload(c, "ranges_shifted", left={"dims": [0, True, 3]})),
    ("ranges", lambda c: corpus_payload(c, "ranges_shifted",
                                        left=dict(c["ranges_shifted"]["left"], head=True))),
    ("classify", lambda c: corpus_payload(
        c, "complex_m2_plain", ambient_dim=1,
        generators=[{"rows": True, "cols": 1, "entries": [2.0]}])),
], ids=["horizon-1", "p_max-negative", "trials-not-a-number", "trials-negative",
        "seed-not-a-number", "pair-without-n_basis", "seed-negative", "twists-not-a-list",
        "kind-not-a-string", "horizon-fraction", "p_max-fraction", "shift-fraction",
        "dims-fraction", "ambient_dim-fraction", "trials-fraction", "seed-fraction",
        "rows-fraction", "blocks-fraction", "blocks-true", "seed-false", "trials-true",
        "p_max-true", "dims-true", "head-true", "rows-true"])
def test_malformed_field_is_parse_error(corpus, tmp_path, capsys, command, build):
    path = write_json(tmp_path, "bad.json", build(corpus))
    assert main([command, path]) == EXIT_PARSE
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize("tolerance", [
    {"rel_eps": 1e-9, "abs_eps": float("nan")},
    {"rel_eps": 1e-9, "abs_eps": float("inf")},
    {"rel_eps": float("inf"), "abs_eps": 1e-12},
], ids=["abs_eps-NaN", "abs_eps-Infinity", "rel_eps-Infinity"])
def test_nonfinite_tolerance_is_parse_error(corpus, tmp_path, capsys, tolerance):
    # json writes and reads NaN and Infinity; a NaN cutoff made every rank 0
    path = write_json(tmp_path, "bad.json",
                      corpus_payload(corpus, "complex_m2_plain", tolerance=tolerance))
    assert main(["classify", path]) == EXIT_PARSE
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ParseError" and "tolerance" in error["message"]


# --- determinism ----------------------------------------------------------------

def test_reports_bitwise_deterministic():
    for name in ("complex_m2_conj.json", "quat_m2_plain.json", "ranges_shifted.json"):
        path = next(p for p in corpus_paths() if p.endswith(name))
        payload = load_instance(path)
        r1 = run_instance(payload)
        r2 = run_instance(payload)
        assert json.dumps(r1["result"], sort_keys=True) == \
            json.dumps(r2["result"], sort_keys=True)
        assert json.dumps(r1.get("error"), sort_keys=True) == \
            json.dumps(r2.get("error"), sort_keys=True)


def test_seed_override_keeps_verdicts():
    path = next(p for p in corpus_paths() if p.endswith("quat_m2_plain.json"))
    payload = load_instance(path)
    base = run_instance(payload)
    other = run_instance(payload, seed_override=12345)
    for key in ("type", "commutant_dim", "min_rank", "density_degree",
                "envelope_dim", "double_commutant_dim"):
        assert base["result"][key] == other["result"][key]


# --- suite -----------------------------------------------------------------------

def test_suite_all_pass(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["suite", "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "suite:" in text
    summary = json.loads(out.read_text())
    assert summary["failures"] == 0
    assert summary["total"] >= 12
    kinds = {e["kind"] for e in summary["entries"]}
    assert kinds == {"algebra", "pcs", "pair", "rep", "ranges"}


def test_suite_seed_override_same_pattern():
    assert main(["suite", "--seed", "777"]) == EXIT_OK


def test_suite_flags_corrupted_corpus(monkeypatch, tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{definitely not json")
    paths = corpus_paths() + [str(bad)]
    monkeypatch.setattr("lomlab.cli.corpus_paths", lambda: paths)
    assert main(["suite"]) == EXIT_SUITE
    assert "parse-error" in capsys.readouterr().out


def test_suite_goes_on_past_a_failing_instance(corpus, monkeypatch, tmp_path, capsys):
    algebra = corpus_payload(corpus, "complex_m2_plain", name="no_cols")
    algebra["generators"] = [dict(algebra["generators"][0])] + algebra["generators"][1:]
    del algebra["generators"][0]["cols"]
    bad = [write_json(tmp_path, "bad_schedule.json",
                      corpus_payload(corpus, "pcs_unit", name="bad_schedule", schedule=[0.5])),
           write_json(tmp_path, "empty_schedule.json",
                      corpus_payload(corpus, "pcs_unit", name="empty_schedule", schedule=[])),
           write_json(tmp_path, "no_cols.json", algebra)]
    paths = bad + corpus_paths()
    monkeypatch.setattr("lomlab.cli.corpus_paths", lambda: paths)
    out = tmp_path / "report.json"
    assert main(["suite", "--out", str(out)]) == EXIT_SUITE
    assert f"suite: {len(paths) - 3}/{len(paths)} passed" in capsys.readouterr().out
    entries = {e["name"]: e for e in json.loads(out.read_text())["entries"]}
    assert entries["bad_schedule"]["status"] == "error"
    assert entries["bad_schedule"]["detail"].startswith("BadScheduleError")
    assert entries["empty_schedule"]["status"] == "error"
    assert entries["empty_schedule"]["detail"].startswith("BadScheduleError")
    assert entries["no_cols"]["status"] == "parse-error"
    assert entries["no_cols"]["detail"].startswith("ParseError")
    assert sum(e["status"] == "pass" for e in entries.values()) == len(paths) - 3


@pytest.mark.parametrize("tol", ["0", "-1", "abc"])
def test_suite_tolerance_must_be_positive(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--tol", tol])
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--tol" in err
