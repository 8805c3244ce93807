"""One repetition of one workload, in a process of its own.

    python3 perfbench/rep.py --workload NAME --seed N --setups K
                             [--serial] [--trace-dir DIR]

Prints one JSON object as its last stdout line. ``perfbench/run.py`` starts
this script in a fresh interpreter for every repetition, so repetitions
share no process-global state (the ``im2col_indices`` LRU, the runner's
world and federation memo, allocator state). The clock for ``setup_s``
starts after the program is imported; each of the ``K`` set-ups builds from
a fresh ``ExperimentRunner``, and the last one is run. Set-ups and rounds
are timed raw and scaled to the reference host speed (``calibrate.py``);
the calibration kernels timed between rounds are taken out of the run's
wall and CPU time. ``--serial`` runs the first ``PARITY_ROUNDS`` rounds of
the workload's serial-executor twin; ``--trace-dir`` makes it a traced
repetition, which also reports the per-layer metrics of its spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing.util
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()

import repro.fl.compression  # noqa: E402,F401  (imported lazily by the first FLAlgorithm)
from repro.fl.history import RunHistory  # noqa: E402
from repro.nn.functional import im2col_indices  # noqa: E402

import spans  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from workloads import PARITY_ROUNDS, WORKLOADS, build  # noqa: E402

IMPORT_S = time.perf_counter() - T_START


def _cpu_s() -> "tuple[float, float]":
    t = os.times()
    return t.user + t.system, t.children_user + t.children_system


def _status_kb(field: str) -> int:
    """A ``kB`` field of this process's ``/proc/self/status``."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


class WorkerMemory:
    """The peak resident memory each forked pool worker adds to its parent.

    A forked worker's peak (``VmHWM``) includes the pages it still shares
    with the parent, which the parent's own peak already counts. Each
    worker therefore reports its peak less the resident set it inherited
    (``VmRSS`` right after the fork), through a pipe, from a
    multiprocessing finalizer that runs as the worker exits.
    """

    def __init__(self) -> None:
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        multiprocessing.util.register_after_fork(self, WorkerMemory._in_worker)

    def _in_worker(self) -> None:
        inherited = _status_kb("VmRSS")

        def report() -> None:
            os.write(self._write, f"{_status_kb('VmHWM') - inherited}\n".encode())

        multiprocessing.util.Finalize(None, report, exitpriority=0)

    def largest_kb(self) -> int:
        """The largest report of the workers that have exited (0 if none)."""
        data = b""
        try:
            while chunk := os.read(self._read, 65536):
                data += chunk
        except BlockingIOError:
            pass
        os.close(self._read)
        os.close(self._write)
        return max((int(x) for x in data.split()), default=0)


def repetition(workload: str, seed: int, setups: int, serial: bool,
               trace_dir: "Path | None") -> dict:
    w = WORKLOADS[workload].serial() if serial else WORKLOADS[workload]
    tracer, traced_build = None, {}
    if trace_dir is not None:
        tracer = spans.Tracer(trace_dir)
        tracer.install()
        traced_build = {"span": tracer.span}
    cal = Calibrator()
    setup_raw, setup_s = [], []
    algo = None
    before = cal.sample()
    for _ in range(setups):
        algo = None
        im2col_indices.cache_clear()
        gc.collect()
        t0 = time.perf_counter()
        algo = build(w, seed, **traced_build)
        setup_raw.append(time.perf_counter() - t0)
        after = cal.sample()
        setup_s.append(setup_raw[-1] * Calibrator.factor(before, after))
        before = after
    im2col_indices.cache_clear()
    gc.collect()

    # One kernel timing after every round record (outside
    # RoundRecord.wall_time); its wall and CPU time are taken out of the run's.
    round_cal = [cal.sample()]
    cal_wall = cal_cpu = 0.0
    history_append = RunHistory.append

    def append(history, record):
        nonlocal cal_wall, cal_cpu
        history_append(history, record)
        w0, c0 = time.perf_counter(), time.process_time()
        round_cal.append(cal.sample())
        cal_wall += time.perf_counter() - w0
        cal_cpu += time.process_time() - c0

    worker_memory = WorkerMemory()
    RunHistory.append = append
    try:
        self0, kids0 = _cpu_s()
        t0 = time.perf_counter()
        history = algo.run(PARITY_ROUNDS if serial else None)
        run_raw = time.perf_counter() - t0 - cal_wall
        self1, kids1 = _cpu_s()
    finally:
        RunHistory.append = history_append

    workers = algo.runtime.executor.workers
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = worker_memory.largest_kb()
    records = list(history.iter_records())
    walls = [r.wall_time for r in records]
    round_s = [t * Calibrator.factor(a, b)
               for t, a, b in zip(walls, round_cal[:-1], round_cal[1:])]
    scale = sum(round_s) / sum(walls)  # the rounds' mean speed factor
    cpu_raw = (self1 - self0) + (kids1 - kids0) - cal_cpu
    accs = [r.accuracy for r in records]
    out = {
        "workload": workload,
        "seed": seed,
        "traced": tracer is not None,
        "import_s": IMPORT_S,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "run_s": run_raw * scale,
        "run_raw_s": run_raw,
        "round_s": round_s,
        "run_cpu_s": cpu_raw * scale,
        "run_cpu_raw_s": cpu_raw,
        "kernel_s": statistics.median(cal.samples),
        # Parent peak plus, for each pool worker, the largest peak a worker
        # added beyond the pages it shares with the parent: an upper bound,
        # as the workers need not peak at the same moment.
        "peak_rss_mb": (self_kb + workers * worker_kb) / 1024.0,
        "worker_added_mb": worker_kb / 1024.0,
        "round_mb": history.round_cost_per_client_mb(),
        "final_acc": accs[-1],
        "second_half_acc": sum(accs[len(accs) // 2:]) / len(accs[len(accs) // 2:]),
        "attempted": sum(r.num_sampled for r in records),
        "failed": sum(r.num_failed for r in records),
        "rounds": len(records),
        "fingerprint": history.fingerprint(),
        # The history of the first PARITY_ROUNDS rounds, as the serial twin has it.
        "prefix_fingerprint": RunHistory(
            history.algorithm, history.model, history.num_clients, history.sample_ratio,
            records=records[:PARITY_ROUNDS]).fingerprint(),
        "executor": type(algo.runtime.executor).__name__,
        "executor_mode": getattr(algo.runtime.executor, "last_round_mode", None),
        "workers": workers,
    }
    if tracer is not None:
        tracer.write_parent()
        merged, cache = spans.load(trace_dir)
        parent_pid = os.getpid()
        spans.link_workers(merged, parent_pid)
        stats = spans.analyse(merged, parent_pid, workers)
        out["layers"] = spans.layer_metrics(stats, cache, algo.meter.total)
        out["span_count"] = len(merged)
        out["span_problems"] = spans.check_nesting(merged)[:20]
        out["worker_pids"] = cache["worker_pids"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setups", type=int, default=1)
    ap.add_argument("--serial", action="store_true")
    ap.add_argument("--trace-dir", type=Path, default=None)
    args = ap.parse_args(argv)
    try:
        out = repetition(args.workload, args.seed, args.setups, args.serial, args.trace_dir)
    except Exception:  # reported to the orchestrator as a failed repetition
        out = {"workload": args.workload, "seed": args.seed, "error": traceback.format_exc()}
    print(json.dumps(out))
    return 0 if "error" not in out else 1


if __name__ == "__main__":
    sys.exit(main())
