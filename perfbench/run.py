"""The repository benchmark: paper-shaped federated runs, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Workloads are defined in
``perfbench/workloads.py``. Each repetition runs in a fresh interpreter
(``perfbench/rep.py``) with BLAS/OpenMP threads pinned to 1, ``REPRO_*``
settings removed from its environment and ``PYTHONHASHSEED`` fixed.
Every invocation runs at least two repetitions, and more while another fits
in ``--seconds``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it are ``#``-prefixed JSON
records: the host facts and, per repetition, the raw measurements.

``--trace 0`` prints the end-to-end metrics, medians over repetitions (the
``#`` samples line gives each timing's sample count and quartiles, the
``#`` repetitions line how many ran). Times are scaled to a reference host
speed by the calibration kernel of ``perfbench/calibrate.py``, timed
between set-ups and between rounds and not counted in the run; the raw
times are in the per-repetition lines.

- ``setup_s`` (s): set-up after imports: world, federation, model builders,
  algorithm and executor, each built from a fresh ``ExperimentRunner``;
  median over every set-up of every repetition.
- ``run_s`` (s): wall time of all rounds, round 1 (lazy model build, pool
  start, cold im2col cache) and the per-round evaluation included.
- ``round_s.p50`` (s): median ``RoundRecord.wall_time`` over all rounds.
- ``run_cpu_s`` (s): CPU seconds over the rounds, pool workers included.
- ``peak_rss_mb`` (MB): peak resident memory of the workload process plus
  its pool workers; each worker counts as the largest memory a worker added
  beyond the pages it shares with the parent (``rep.WorkerMemory``).
- ``round_mb`` (MB): the paper's Table 2 per-client round cost,
  ``RunHistory.round_cost_per_client_mb()``; exact.
- ``success_ratio`` (ratio): client updates aggregated over client updates
  attempted, from the ``RunHistory`` failure ledger (``attempted`` and
  ``failed`` in the result line are the ledger's counts).

``--trace 1`` alternates untraced and traced repetitions (at least one
pair) and prints the per-layer metrics of ``perfbench/spans.py`` (medians
over the traced repetitions), the tracing overhead and ``fl.final_acc``,
the server test accuracy after the last round. Accuracy is not an
end-to-end metric: at the smoke scale it differs between workload seeds by
15-37% (quartile distance over median, ten seeds), more than any bound a
regression gate could use.

The correctness check: at least two repetitions complete, each in a
process of its own, and all have the same ``RunHistory.fingerprint()``
(determinism over the whole run; a traced repetition's equals the untraced
one's); for the process-pool workload, once per invocation, its first
rounds rerun on the serial executor in a fresh process equal the measured
runs' first rounds (executor parity); the mean server accuracy over the
second half of the rounds beats chance. A repetition that raises or
mismatches counts as failed and makes ``correct`` false; it is never
dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUPS_PER_REP = 10
HARD_LIMIT_S = 170  # every invocation ends within 180 s
CHANCE = 0.1  # ten balanced classes
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("round_s.p50", "s"),
    ("run_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_mb", "MB"),
    ("success_ratio", "ratio"),
)


def rep_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def host_facts(root: Path, env: dict, workload: str, seed: int) -> dict:
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts');"
             "b = c['Build Dependencies']['blas'];"
             "print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60)
    numpy_version, blas, blas_version = (json.loads(out.stdout) if out.returncode == 0
                                         else (None, None, None))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {"host": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                     "python": platform.python_version(), "numpy": numpy_version,
                     "blas": blas, "blas_version": blas_version, "git_sha": sha,
                     "threads": {v: env[v] for v in THREAD_VARS},
                     "workload": workload, "seed": seed}}


def run_rep(root: Path, env: dict, args: "list[str]", hard_end: float) -> dict:
    """One repetition in a fresh interpreter and session; a crash or an
    overrun of ``hard_end`` becomes an error record, and an overrun kills
    the repetition's whole process group (its pool workers included)."""
    cmd = [sys.executable, str(HERE / "rep.py"), *args]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(hard_end - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err = "timed out\n" + err
    lines = out.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        rec = {"error": f"exit {proc.returncode}: {err.strip()[-2000:]}"}
    print("# " + json.dumps({"rep": {k: v for k, v in rec.items() if k != "round_s"}}),
          flush=True)
    return rec


def repeat(deadline: float, one, at_least: int) -> "list[dict]":
    """Call ``one()`` ``at_least`` times, then again while another call fits
    before ``deadline``; stop once a call fails."""
    reps: "list[dict]" = []
    start = time.perf_counter()
    while True:
        reps.append(one())
        now = time.perf_counter()
        if "error" in reps[-1] or (len(reps) >= at_least
                                   and now + (now - start) / len(reps) > deadline):
            return reps


def _quartiles(values: "list[float]") -> "list[float]":
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def end_to_end(reps: "list[dict]") -> dict:
    """Medians over the repetitions that completed; the success ratio
    counts the ones that raised as well."""
    attempted, failed = ledger(reps)
    reps = [r for r in reps if "error" not in r]
    if not reps:
        return {}
    setups = [s for r in reps for s in r["setup_s"]]
    rounds = [s for r in reps for s in r["round_s"]]

    def med(key):
        return statistics.median(r[key] for r in reps)

    values = {
        "setup_s": statistics.median(setups),
        "run_s": med("run_s"),
        "round_s.p50": statistics.median(rounds),
        "run_cpu_s": med("run_cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "round_mb": med("round_mb"),
        "success_ratio": (attempted - failed) / attempted,
    }
    samples = {"setup_s": setups, "round_s.p50": rounds,
               **{k: [r[k] for r in reps] for k in ("run_s", "run_raw_s", "run_cpu_s",
                                                    "peak_rss_mb", "kernel_s")}}
    print("# " + json.dumps({"samples": {k: {"n": len(v), "quartiles": _quartiles(v)}
                                         for k, v in samples.items()}}), flush=True)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def check(reps: "list[dict]", twin: "dict | None") -> "list[str]":
    """Correctness problems across the repetitions of one invocation and,
    for a process-parallel workload, its serial twin."""
    problems = [f"repetition failed: {r['error']}" for r in reps if "error" in r]
    good = [r for r in reps if "error" not in r]
    prints = {r["fingerprint"] for r in good}
    if len(good) < 2:
        problems.append(f"fingerprint agreement not checked: {len(good)} repetition(s) "
                        "completed, two are needed")
    elif len(prints) > 1:
        problems.append(f"repetitions disagree on the fingerprint: {sorted(prints)}")
    for r in good:
        if not r["second_half_acc"] > CHANCE:
            problems.append(f"accuracy {r['second_half_acc']} does not beat chance ({CHANCE})")
        problems.extend(f"span tree: {p}" for p in r.get("span_problems", []))
    if twin is not None and "error" in twin:
        problems.append(f"serial twin failed: {twin['error']}")
    elif twin is not None:
        prefixes = {r["prefix_fingerprint"] for r in good}
        if {twin["fingerprint"]} != prefixes:
            problems.append(f"serial twin fingerprint {twin['fingerprint']} != first "
                            f"{twin['rounds']} rounds of the runs {sorted(prefixes)}")
    return problems


def ledger(reps: "list[dict]") -> "tuple[int, int]":
    """Client updates attempted and failed; a repetition that raised counts
    every update it would have attempted as failed."""
    good = [r for r in reps if "error" not in r]
    planned = good[0]["attempted"] if good else 1
    lost = planned * (len(reps) - len(good))
    return sum(r["attempted"] for r in good) + lost, sum(r["failed"] for r in good) + lost


def per_layer(untraced: "list[dict]", traced: "list[dict]") -> dict:
    """Median per-layer metrics over the traced repetitions, plus the
    tracing overhead against the untraced ones."""
    from spans import METRICS, runs_in_workers

    traced = [r for r in traced if "error" not in r]
    untraced = [r for r in untraced if "error" not in r]
    if not traced:
        return {}
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name, _unit in METRICS if name in traced[0]["layers"]}
    if any(r["workers"] > 1 and not r["worker_pids"] for r in traced):
        # A pool that reported no worker spans: its worker-side layers were
        # not observed, which is not the same as zero.
        for name in values:
            if runs_in_workers(name):
                values[name] = None
    run_traced = statistics.median(r["run_s"] for r in traced)
    values["trace.run_s"] = run_traced
    values["trace.overhead_ratio"] = (
        run_traced / statistics.median(r["run_s"] for r in untraced) - 1.0 if untraced else None)
    values["trace.spans"] = statistics.median(r["span_count"] for r in traced)
    values["fl.final_acc"] = statistics.median(r["final_acc"] for r in traced)
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {root / 'src' / 'repro'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    env = rep_env(root)
    w = WORKLOADS[args.workload]
    print("# " + json.dumps(host_facts(root, env, w.name, args.seed)), flush=True)
    base = ["--workload", w.name, "--seed", str(args.seed)]
    now = time.perf_counter()
    deadline, hard_end = now + args.seconds, now + HARD_LIMIT_S

    def rep(*extra: str) -> dict:
        return run_rep(root, env, base + list(extra), hard_end)

    if args.trace:
        tmp = root / ".perfbench" / f"{w.name}-{args.seed}-{os.getpid()}"
        untraced: "list[dict]" = []
        traced: "list[dict]" = []

        def pair() -> dict:
            untraced.append(rep("--setups", "1"))
            trace_dir = tmp / str(len(traced))
            trace_dir.mkdir(parents=True)
            traced.append(rep("--setups", "1", "--trace-dir", str(trace_dir)))
            return traced[-1]

        try:
            repeat(deadline, pair, at_least=1)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        reps = untraced + traced
        metrics = per_layer(untraced, traced)
    else:
        reps = repeat(deadline, lambda: rep("--setups", str(SETUPS_PER_REP)), at_least=2)
        metrics = end_to_end(reps)
    twin = rep("--setups", "1", "--serial") if w.workers > 1 else None
    print("# " + json.dumps({"repetitions": {
        "run": len(reps), "completed": sum("error" not in r for r in reps)}}), flush=True)
    problems = check(reps, twin)
    for problem in problems:
        print("# " + json.dumps({"problem": problem}), flush=True)
    attempted, failed = ledger(reps)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
