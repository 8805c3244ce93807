"""Steadiness check: run the benchmark once per seed on every workload and
report each end-to-end metric's spread against its bound.

    python3 perfbench/spread.py [--seeds 10]

Run from the repository root. Invocations are interleaved across workloads
(seed 0 on every workload, then seed 1, ...), so a slow stretch of the host
hits every workload rather than all repeats of one. The spread of a metric
is the distance between the first and third quartile of its per-seed values
(``statistics.quantiles(values, n=4)``) as a share of their median; the
benchmark is steady when each spread is below a third of the metric's bound
in ``BENCHMARK.json`` (``setup_s`` is judged by its median alone).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)
    values: "dict[str, dict[str, list[float]]]" = {w: {} for w in names}
    wall: "dict[str, list[float]]" = {w: [] for w in names}
    ok = True
    for seed in range(args.seeds):
        for w in names:
            t0 = time.perf_counter()
            proc = subprocess.run([*spec["command"], "--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                                  capture_output=True, text=True, timeout=600)
            wall[w].append(time.perf_counter() - t0)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            reps = next(json.loads(ln[2:])["repetitions"]["run"] for ln in proc.stdout.splitlines()
                        if ln.startswith('# {"repetitions"'))
            print(f"seed {seed} {w}: {wall[w][-1]:.1f}s reps={reps} correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                  flush=True)
    print(f"\n{'workload':18} {'metric':14} {'median':>10} {'spread':>7} {'bound':>6}  verdict")
    for w in names:
        for metric in spec["end_to_end"]:
            vals = values[w].get(metric["name"], [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            bound = metric["bound"]
            verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            print(f"{w:18} {metric['name']:14} {statistics.median(vals):10.4g} "
                  f"{spread:7.3f} {bound:6.2f}  {verdict}")
        print(f"{w:18} {'invocation':14} {statistics.median(wall[w]):9.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
