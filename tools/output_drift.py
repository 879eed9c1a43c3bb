#!/usr/bin/env python3
"""Say by how much two output trees of ``tools/golden_outputs.py`` differ.

    python3 tools/output_drift.py BEFORE AFTER

For every workload and output column, prints the largest absolute and
relative change of that column between the two trees, how many of its
values changed at all, and the query and values of the largest relative
change (relative to the value in BEFORE; infinite where that was 0).  A
demo's output is text; its numbers are compared one by one in reading
order as one column.

Exits 1 when the trees differ in kind rather than in value: a file
present in one tree only, a changed exit code, a changed number of rows,
changed column names, a change outside the rows of a document, or a demo
whose text differs in more than its numbers.  Exits 0 otherwise, also
when values moved.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import sys

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class Column:
    """Running maxima of the changes of one column, and where the relative one is."""

    def __init__(self):
        self.abs = self.rel = 0.0
        self.changed = self.total = 0
        self.where = ""

    def add(self, a: float, b: float, where: str) -> None:
        self.total += 1
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        self.changed += 1
        diff = abs(b - a)
        self.abs = max(self.abs, diff)
        rel = diff / abs(a) if a != 0.0 else math.inf
        if rel > self.rel or not self.where:
            self.rel, self.where = rel, f"{where}: {a!r} -> {b!r}"


def read(path: pathlib.Path):
    """(exit line, rest of the file) of one recorded query or demo."""
    head, _, body = path.read_text(encoding="utf-8").partition("\n")
    return head, body


def compare_document(name, before, after, columns, faults) -> None:
    try:
        doc_a, doc_b = json.loads(before), json.loads(after)
    except ValueError:
        if before != after:
            faults.append(f"{name}: output is not a document and differs")
        return
    rows_a, rows_b = doc_a.pop("rows", []), doc_b.pop("rows", [])
    if doc_a != doc_b:
        faults.append(f"{name}: document differs outside its rows")
    if len(rows_a) != len(rows_b):
        faults.append(f"{name}: {len(rows_a)} rows -> {len(rows_b)}")
        return
    workload = name.rsplit("-", 1)[0]
    for row_a, row_b in zip(rows_a, rows_b):
        if sorted(row_a) != sorted(row_b):
            faults.append(f"{name}: columns {sorted(row_a)} -> {sorted(row_b)}")
            return
        for key, a in row_a.items():
            b = row_b[key]
            if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                columns.setdefault((workload, key), Column()).add(float(a), float(b), name)
            elif a != b:
                faults.append(f"{name}: column {key} {a!r} -> {b!r}")


def compare_text(name, before, after, columns, faults) -> None:
    if NUMBER.sub("#", before) != NUMBER.sub("#", after):
        faults.append(f"{name}: text differs in more than its numbers")
        return
    column = columns.setdefault((name, "numbers"), Column())
    for a, b in zip(NUMBER.findall(before), NUMBER.findall(after)):
        column.add(float(a), float(b), name)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    before, after = (pathlib.Path(p) for p in argv)
    names_a = {p.name for p in before.glob("*.txt")}
    names_b = {p.name for p in after.glob("*.txt")}
    faults = [f"{n}: only in {before}" for n in sorted(names_a - names_b)]
    faults += [f"{n}: only in {after}" for n in sorted(names_b - names_a)]
    columns: dict = {}
    for name in sorted(names_a & names_b):
        exit_a, body_a = read(before / name)
        exit_b, body_b = read(after / name)
        stem = name[:-len(".txt")]
        if exit_a != exit_b:
            faults.append(f"{stem}: {exit_a} -> {exit_b}")
        elif stem.startswith("demo-"):
            compare_text(stem, body_a, body_b, columns, faults)
        else:
            compare_document(stem, body_a, body_b, columns, faults)

    print(f"{'workload':32s} {'column':22s} {'max abs':>8s} {'max rel':>8s} {'changed':>7s}"
          "  largest relative change")
    for (workload, key), col in sorted(columns.items()):
        print(f"{workload:32s} {key:22s} {col.abs:8.2g} {col.rel:8.2g} "
              f"{f'{col.changed}/{col.total}':>7s}  {col.where}")
    for fault in faults:
        print(f"CHANGED IN KIND: {fault}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
