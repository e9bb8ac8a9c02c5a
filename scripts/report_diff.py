"""Compare two ``lomlab suite --out`` files field by field.

    python3 scripts/report_diff.py BASE NEW

Entries are matched by instance name.  Every value must be equal, floats bit
for bit, except the wall time and the instance file paths, which say where
and how fast the suite ran, not what it found.  Each difference is printed as
``<entry>: <field>: <base> != <new>``.  The exit status is 0 when the files
agree, 1 when they differ and 2 when a file cannot be read.
"""

from __future__ import annotations

import json
import sys

# Field paths within one suite entry that are not compared.
IGNORED = {("path",), ("report", "instance", "path"), ("report", "wall_time_s")}


def _differences(base, new, where=()):
    """Yield ``(field path, base value, new value)`` for every unequal leaf."""
    if isinstance(base, dict) and isinstance(new, dict):
        for key in sorted(set(base) | set(new)):
            sub = where + (key,)
            if sub in IGNORED:
                continue
            yield from _differences(base.get(key, "<missing>"), new.get(key, "<missing>"), sub)
    elif isinstance(base, list) and isinstance(new, list) and len(base) == len(new):
        for idx, (b, n) in enumerate(zip(base, new)):
            yield from _differences(b, n, where + (str(idx),))
    elif type(base) is not type(new) or base != new:
        yield where, base, new


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _entries(summary):
    return {entry.get("name") or entry["path"]: entry for entry in summary["entries"]}


def diff(base: dict, new: dict) -> list:
    """Lines naming each differing entry and field of two suite summaries."""
    lines = []
    for field, b, n in _differences({k: v for k, v in base.items() if k != "entries"},
                                    {k: v for k, v in new.items() if k != "entries"}):
        lines.append(f"<summary>: {'.'.join(field)}: {b!r} != {n!r}")
    base_entries, new_entries = _entries(base), _entries(new)
    for name in sorted(set(base_entries) | set(new_entries)):
        if name not in new_entries or name not in base_entries:
            side = "NEW" if name not in new_entries else "BASE"
            lines.append(f"{name}: missing from {side}")
            continue
        for field, b, n in _differences(base_entries[name], new_entries[name]):
            lines.append(f"{name}: {'.'.join(field)}: {b!r} != {n!r}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        base, new = (_load(path) for path in args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"report_diff: {exc}", file=sys.stderr)
        return 2
    lines = diff(base, new)
    for line in lines:
        print(line)
    print(f"report_diff: {len(lines)} difference(s) over "
          f"{len(base['entries'])} / {len(new['entries'])} entries")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
