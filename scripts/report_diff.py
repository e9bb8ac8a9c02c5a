"""Compare two ``lomlab suite --out`` files field by field.

    python3 scripts/report_diff.py BASE NEW

Entries are matched by instance name.  Every value must be equal, floats bit
for bit, except the wall time and the instance file paths, which say where
and how fast the suite ran, not what it found.  Each difference is printed as
``<entry>: <field>: <base> != <new>``; then each differing field, its list
indices stripped, as ``<field>: <count>`` (summary fields as ``<summary>.<field>``).
The exit status is 0 when the files agree, 1 when they differ and 2 when a file
cannot be read.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

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
            yield from _differences(b, n, where + (idx,))
    elif type(base) is not type(new) or base != new:
        yield where, base, new


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _entries(summary):
    return {entry.get("name") or entry["path"]: entry for entry in summary["entries"]}


def diff(base: dict, new: dict) -> tuple[list, Counter]:
    """Lines naming each differing entry and field of two suite summaries, and the
    count of differences per field path with its list indices stripped."""
    lines, fields = [], Counter()

    def note(name, field, b, n):
        lines.append(f"{name}: {'.'.join(map(str, field))}: {b!r} != {n!r}")
        path = ".".join(part for part in field if isinstance(part, str))
        fields[f"<summary>.{path}" if name == "<summary>" else path] += 1

    for field, b, n in _differences({k: v for k, v in base.items() if k != "entries"},
                                    {k: v for k, v in new.items() if k != "entries"}):
        note("<summary>", field, b, n)
    base_entries, new_entries = _entries(base), _entries(new)
    for name in sorted(set(base_entries) | set(new_entries)):
        if name not in new_entries or name not in base_entries:
            side = "NEW" if name not in new_entries else "BASE"
            lines.append(f"{name}: missing from {side}")
            continue
        for field, b, n in _differences(base_entries[name], new_entries[name]):
            note(name, field, b, n)
    return lines, fields


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
    lines, fields = diff(base, new)
    for line in lines:
        print(line)
    for field, count in sorted(fields.items()):
        print(f"{field}: {count}")
    print(f"report_diff: {len(lines)} difference(s) over "
          f"{len(base['entries'])} / {len(new['entries'])} entries")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
