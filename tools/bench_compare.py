#!/usr/bin/env python3
"""bench-compare: diff two BENCH_*.json records cell by cell.

A BENCH_*.json record is a JSON array of flat objects, one per bench cell.
Cells are matched by the values of the --key fields; each --metric is then
compared between the base record and the new one:

  --metric NAME:TOL

Smaller is better: a cell regresses when new > base * TOL (TOL >= 1; 1 means
any increase counts). A base cell with no match in the new record is a failure too: a
dropped cell would otherwise hide its regression. Cells only in the new
record are listed and pass.

Usage:
  python3 tools/bench_compare.py BASE.json NEW.json \\
      --key kind --key severity --key strategy --metric rmse:1.02

Exit status: 0 no regression, 1 regression or missing cell, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

Key = Tuple[str, ...]


class InputError(Exception):
    """A record or a metric spec that cannot be compared."""


@dataclass(frozen=True)
class Metric:
    name: str
    tolerance: float

    def regressed(self, base: float, new: float) -> bool:
        return new > base * self.tolerance


@dataclass(frozen=True)
class Finding:
    key: Key
    metric: str  # "" for a missing cell
    base: float = 0.0
    new: float = 0.0

    def __str__(self) -> str:
        where = ", ".join(self.key)
        if not self.metric:
            return f"[{where}] missing from the new record"
        ratio = self.new / self.base if self.base else float("inf")
        return (f"[{where}] {self.metric}: {self.base:g} -> {self.new:g} "
                f"({ratio:.3f}x)")


def parse_metric(spec: str) -> Metric:
    name, sep, tol_text = spec.partition(":")
    if not name or not sep:
        raise InputError(f"bad metric spec '{spec}' (expected NAME:TOL)")
    try:
        tol = float(tol_text)
    except ValueError:
        raise InputError(f"metric '{name}': bad tolerance '{tol_text}'")
    if not tol >= 1.0:
        raise InputError(f"metric '{name}': tolerance must be >= 1")
    return Metric(name, tol)


def index_cells(cells: object, keys: Sequence[str], label: str) -> Dict[Key, dict]:
    """Maps each cell's key tuple to the cell; rejects duplicates."""
    if not isinstance(cells, list):
        raise InputError(f"{label}: expected a JSON array of cells")
    out: Dict[Key, dict] = {}
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict):
            raise InputError(f"{label}: cell {i} is not an object")
        try:
            key = tuple(str(cell[k]) for k in keys)
        except KeyError as e:
            raise InputError(f"{label}: cell {i} has no key field {e}")
        if key in out:
            raise InputError(f"{label}: duplicate cell {key}")
        out[key] = cell
    return out


def metric_value(cell: dict, name: str, key: Key, label: str) -> float:
    value = cell.get(name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{label}: cell {key} has no numeric '{name}'")
    return float(value)


def compare(base_cells: object, new_cells: object, keys: Sequence[str],
            metrics: Sequence[Metric]) -> Tuple[List[Finding], List[Key]]:
    """Returns (regressions and missing cells, keys only in the new record)."""
    if not keys:
        raise InputError("at least one --key is required")
    if not metrics:
        raise InputError("at least one --metric is required")
    base = index_cells(base_cells, keys, "base")
    new = index_cells(new_cells, keys, "new")
    findings: List[Finding] = []
    for key, bcell in base.items():
        ncell = new.get(key)
        if ncell is None:
            findings.append(Finding(key, ""))
            continue
        for m in metrics:
            b = metric_value(bcell, m.name, key, "base")
            n = metric_value(ncell, m.name, key, "new")
            if m.regressed(b, n):
                findings.append(Finding(key, m.name, b, n))
    added = [k for k in new if k not in base]
    return findings, added


def load(path: Path) -> object:
    try:
        return json.loads(path.read_text())
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: not JSON ({e.msg}, line {e.lineno})")


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="reference BENCH_*.json")
    ap.add_argument("new", type=Path, help="BENCH_*.json to check")
    ap.add_argument("--key", action="append", default=[],
                    help="field that identifies a cell (repeatable)")
    ap.add_argument("--metric", action="append", default=[],
                    help="NAME:TOL, smaller is better (repeatable)")
    args = ap.parse_args(argv)
    try:
        metrics = [parse_metric(s) for s in args.metric]
        findings, added = compare(load(args.base), load(args.new), args.key,
                                  metrics)
    except InputError as e:
        print(f"bench-compare: {e}", file=sys.stderr)
        return 2
    for key in added:
        print(f"[{', '.join(key)}] only in the new record")
    for f in findings:
        print(f)
    if findings:
        print(f"bench-compare: {len(findings)} regression(s)", file=sys.stderr)
        return 1
    print("bench-compare: no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
