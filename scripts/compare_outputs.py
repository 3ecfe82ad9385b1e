#!/usr/bin/env python3
"""Compare the outputs of two experiment runs, or two JSON or CSV files,
field by field.

For every numeric field of result.json (lists element by element) and every
column of every risk_*.csv, prints the largest absolute move and the
largest relative move |new - old| / max(|old|, |new|) from OLD_DIR to
NEW_DIR. Given two JSON files instead, such as two ``check-conditions
--out`` payloads, it compares their fields the same way; given two CSV
files, such as two ``simulate --out`` paths, their columns, as for a
risk_*.csv (an empty cell, like a path's last dW, reads as NaN and
matches an empty cell). ``config.output_dir``
is skipped: outputs written before result.json stopped echoing it name
their directory there, which differs between two otherwise identical runs.
A non-numeric field is listed only when it differs. Each file's line of
sha256 digests says whether its two sides are byte-identical, and a last
line counts the identical files, so a change meant to move no byte is
shown by one command.

Usage:
    python scripts/compare_outputs.py OLD_DIR NEW_DIR
    python scripts/compare_outputs.py OLD.json NEW.json
    python scripts/compare_outputs.py OLD.csv NEW.csv

Exits 1 when a field or file is present on one side only or a list changed
length, 2 on bad arguments (a CSV file against a JSON one among them), else 0.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import os
import sys

_SKIP = {"config.output_dir"}


def _flatten(obj, prefix: str = ""):
    """(dotted path, leaf) pairs; a list of numbers is one leaf."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _flatten(val, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(obj, list) and not all(_is_number(v) for v in obj):
        for i, val in enumerate(obj):
            yield from _flatten(val, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _moves(old: list[float], new: list[float]) -> tuple[float, float]:
    """Largest absolute and relative move over paired values; a pair that
    is not finite on either side counts as infinite unless both are equal."""
    max_abs = max_rel = 0.0
    for a, b in zip(old, new):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        d = abs(b - a)
        if not math.isfinite(d):
            return math.inf, math.inf
        max_abs = max(max_abs, d)
        max_rel = max(max_rel, d / max(abs(a), abs(b)))
    return max_abs, max_rel


def _report(where: str, name: str, old, new, problems: list[str]) -> None:
    if _is_number(old) and _is_number(new):
        old, new = [old], [new]
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            problems.append(f"{where} {name}: length {len(old)} -> {len(new)}")
            return
        a, r = _moves([float(v) for v in old], [float(v) for v in new])
        print(f"{where:26s} {name:40s} n={len(old):<6d} max_abs={a:.3e}  max_rel={r:.3e}")
    elif old != new:
        print(f"{where:26s} {name:40s} {old!r} -> {new!r}")


def _compare(where: str, old: dict, new: dict, problems: list[str]) -> None:
    for name in [k for k in old if k in new]:
        _report(where, name, old[name], new[name], problems)
    for name in [k for k in old if k not in new] + [k for k in new if k not in old]:
        problems.append(f"{where} {name}: present in one run only")


def _result_fields(path: str) -> dict:
    with open(path) as fh:
        return {k: v for k, v in _flatten(json.load(fh)) if k not in _SKIP}


def _csv_columns(path: str) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {col: [float(r[col] or "nan") for r in rows] for col in (rows[0] if rows else {})}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv: list[str]) -> int:
    csvs = [p.endswith(".csv") for p in argv]
    if len(argv) == 2 and all(os.path.isfile(p) for p in argv) and csvs[0] == csvs[1]:
        pairs = [(os.path.basename(argv[1]), argv, _csv_columns if csvs[0] else _result_fields)]
    elif len(argv) == 2 and all(os.path.isdir(d) for d in argv):
        names = sorted({os.path.basename(p) for d in argv
                        for p in glob.glob(os.path.join(d, "risk_*.csv"))})
        pairs = [(n, [os.path.join(d, n) for d in argv], read)
                 for n, read in [("result.json", _result_fields)]
                 + [(n, _csv_columns) for n in names]]
    else:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    problems: list[str] = []
    identical = 0
    for fname, paths, read in pairs:
        if not all(os.path.isfile(p) for p in paths):
            problems.append(f"{fname}: present in one run only")
            continue
        _compare(fname, read(paths[0]), read(paths[1]), problems)
        old_sha, new_sha = (_sha256(p) for p in paths)
        identical += old_sha == new_sha
        print(f"{fname:26s} sha256 {old_sha[:16]} {new_sha[:16]} "
              f"{'byte-identical' if old_sha == new_sha else 'BYTES DIFFER'}")
    for line in problems:
        print(f"MISMATCH {line}")
    print(f"{identical} of {len(pairs)} files byte-identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
