import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_diff.py"


def entry(name, witness_entries):
    path = f"/corpus/{name}.json"
    return {
        "path": path,
        "name": name,
        "kind": "algebra",
        "status": "pass",
        "detail": "",
        "report": {
            "instance": {"path": path, "sha256": "0" * 64, "kind": "algebra", "name": name},
            "result": None,
            "error": {"witness": {"subspace": {"rows": 2, "cols": 1,
                                               "entries": witness_entries}}},
            "wall_time_s": 0.25,
        },
    }


SUMMARY = {
    "version": "0.1.0",
    "total": 2,
    "failures": 0,
    "entries": [entry("triangular", [1.0, 0.0]), entry("reducible", [0.6, 0.8])],
}


def run(tmp_path, base, new):
    files = []
    for side, summary in (("base", base), ("new", new)):
        target = tmp_path / f"{side}.json"
        target.write_text(json.dumps(summary), encoding="utf-8")
        files.append(str(target))
    return subprocess.run([sys.executable, str(SCRIPT), *files],
                          capture_output=True, text=True, check=False)


def test_identical_files_agree(tmp_path):
    done = run(tmp_path, SUMMARY, copy.deepcopy(SUMMARY))
    assert done.returncode == 0
    assert "0 difference(s)" in done.stdout


def test_changed_witness_float_is_reported(tmp_path):
    new = copy.deepcopy(SUMMARY)
    entries = new["entries"][0]["report"]["error"]["witness"]["subspace"]["entries"]
    entries[0] = -1.0
    done = run(tmp_path, SUMMARY, new)
    assert done.returncode == 1
    assert "triangular: report.error.witness.subspace.entries.0: 1.0 != -1.0" in done.stdout
    assert "reducible" not in done.stdout


@pytest.mark.parametrize("field", [("path",), ("report", "instance", "path"),
                                   ("report", "wall_time_s")])
def test_run_location_and_time_are_ignored(tmp_path, field):
    new = copy.deepcopy(SUMMARY)
    for item in new["entries"]:
        target = item
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = "/elsewhere.json" if field[-1] == "path" else 9.5
    done = run(tmp_path, SUMMARY, new)
    assert done.returncode == 0, done.stdout


def test_entry_on_one_side_is_reported(tmp_path):
    new = copy.deepcopy(SUMMARY)
    del new["entries"][1]
    done = run(tmp_path, SUMMARY, new)
    assert done.returncode == 1
    assert "reducible: missing from NEW" in done.stdout
    done = run(tmp_path, new, SUMMARY)
    assert done.returncode == 1
    assert "reducible: missing from BASE" in done.stdout


def test_unreadable_file_exits_2(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(SUMMARY), encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    for args in ([str(good), str(tmp_path / "absent.json")], [str(bad), str(good)]):
        done = subprocess.run([sys.executable, str(SCRIPT), *args],
                              capture_output=True, text=True, check=False)
        assert done.returncode == 2
        assert done.stderr.startswith("report_diff: ")


def test_differing_fields_are_counted_without_their_list_indices(tmp_path):
    new = copy.deepcopy(SUMMARY)
    for item in new["entries"]:
        item["report"]["error"]["witness"]["subspace"]["entries"] = [0.0, -1.0]
    new["total"] = 3
    done = run(tmp_path, SUMMARY, new)
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert lines[-3:] == ["<summary>.total: 1", "report.error.witness.subspace.entries: 4",
                          "report_diff: 5 difference(s) over 2 / 2 entries"]
