"""Bitwise end-to-end oracle: a fresh Figure 5 run against the committed one.

Usage::

    PYTHONPATH=src python -m repro.experiments.cli figure5 --methods fedavg fedkemf --out OUT
    python benchmarks/check_figure5.py OUT/figure5.txt

Every method accuracy the fresh run printed must equal the one in
``benchmarks/results/figure5.txt`` for the same panel. A last-ulp numeric
drift anywhere in training, fusion or evaluation moves at least one of
these numbers (clearest on the vgg-11 panel). Only the numbers are
compared: bar length is scaled to each panel's best method, so it changes
whenever the set of methods run does. Exits non-zero on any mismatch.
"""

from __future__ import annotations

import pathlib
import sys

REFERENCE = pathlib.Path(__file__).parent / "results" / "figure5.txt"


def parse_panels(text: str) -> "dict[str, dict[str, str]]":
    """``{panel title: {method: printed accuracy}}`` from a figure5 render."""
    panels: "dict[str, dict[str, str]]" = {}
    current: "dict[str, str] | None" = None
    for line in text.splitlines():
        if not line.strip() or line.startswith("Figure 5"):
            continue
        if not line.startswith(" "):
            current = panels.setdefault(line.strip(), {})
            continue
        if current is None:
            raise ValueError(f"method row before any panel title: {line!r}")
        fields = line.split()
        current[fields[0]] = fields[-1]
    return panels


def compare(fresh: str, reference: str) -> "list[str]":
    """Mismatch descriptions; empty when every fresh number matches."""
    want = parse_panels(reference)
    got = parse_panels(fresh)
    if not got:
        return ["fresh run printed no panels"]
    problems = []
    for panel, methods in got.items():
        if panel not in want:
            problems.append(f"{panel}: panel missing from the reference")
            continue
        for method, value in methods.items():
            expected = want[panel].get(method)
            if value != expected:
                problems.append(f"{panel} {method}: got {value}, committed {expected}")
    return problems


def main(argv: "list[str]") -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    fresh = pathlib.Path(argv[0]).read_text()
    problems = compare(fresh, REFERENCE.read_text())
    for p in problems:
        print(f"MISMATCH {p}")
    if problems:
        return 1
    n = sum(len(m) for m in parse_panels(fresh).values())
    print(f"figure5 oracle: {n} accuracies equal the committed artifact")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
