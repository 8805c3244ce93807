"""The benchmark's own smoke test: one short pass over every workload.

    python3 perfbench/smoke.py

Run from the repository root (about five minutes on two cores). It checks
that:

- every end-to-end and per-layer metric named in ``BENCHMARK.json`` prints
  with its unit, and the result line has exactly the keys correct,
  attempted, failed and metrics;
- every run is correct, and every end-to-end value is a positive number;
- traced spans nest (each child inside its parent, self time >= 0);
- layers a workload does not run read zero there, and the ones it does run
  read non-zero (worker-side layers included on the process pool);
- the benchmark's set-up builds the same run as ``ExperimentRunner`` (equal
  fingerprints over the first rounds at seed 0);
- without the program's source the command fails without a result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from workloads import PARITY_ROUNDS, WORKLOADS  # noqa: E402

# The reference check runs in this process: give it the measured runs'
# thread budget and no REPRO_* settings, before NumPy is first imported.
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers each workload never runs (must read zero) and ones it must run.
ABSENT = {
    "fedavg-r20": ("core.dml_s", "core.dml.calls", "core.teacher_s", "core.teacher.calls",
                   "core.distill_s", "fl.eval_local_s", "fl.bank_get_s", "fl.bank_get.calls",
                   "fl.bank_load_s"),
    "kemf-multi-pool2": ("fl.local_train_s",),
}
PRESENT = {
    "fedavg-r20": ("fl.local_train_s", "fl.aggregate_s"),
    "kemf-multi-pool2": ("core.dml_s", "core.dml.calls", "core.teacher.calls", "core.distill_s",
                         "fl.eval_local_s", "fl.bank_get.calls", "fl.bank_load_s",
                         "runtime.client_work_s"),
}
COMMON = ("data.build_s", "fl.init_s", "runtime.run_round_s", "fl.eval_s", "fl.comm_bytes",
          "nn.conv_fwd.calls", "nn.bn_fwd_s", "nn.backward.calls", "nn.optim_s")


def bench(*args: str, cwd: Path = ROOT) -> "tuple[int, list[str]]":
    proc = subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines: "list[str]") -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True, [ln for ln in lines if '"problem"' in ln]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_units(metrics: dict, declared: "list[dict]") -> None:
    assert list(metrics) == [m["name"] for m in declared], sorted(
        set(metrics) ^ {m["name"] for m in declared})
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m


def check_spans_analysis() -> None:
    """Outermost-call accounting and self time on a hand-made tree."""
    raw = [  # (pid, id, parent, name, start, end)
        (1, 0, None, "runtime.run_round", 0.0, 10.0),
        (2, 0, None, "runtime.client_work", 1.0, 9.0),  # a worker root
        (2, 1, 0, "nn.backward", 2.0, 5.0),
        (2, 2, 1, "nn.backward", 3.0, 4.0),  # nested in itself: not counted again
        (3, 0, None, "runtime.client_work", 1.0, 6.0),
    ]
    merged = [{"pid": p, "id": i, "parent": None if q is None else (p, q), "name": n,
               "start": s, "end": e} for p, i, q, n, s, e in raw]
    spans.link_workers(merged, parent_pid=1)
    assert not spans.check_nesting(merged)
    stats = spans.analyse(merged, parent_pid=1, workers=2)
    assert stats["busy"]["nn.backward"] == 3.0 and stats["calls"]["nn.backward"] == 1
    assert stats["busy"]["runtime.client_work"] == 13.0
    assert stats["self"]["runtime.run_round"] == 10.0 - 8.0  # children cover [1, 9]
    assert abs(stats["pool_idle_share"] - (1 - 13.0 / 20.0)) < 1e-12
    merged[3]["end"] = 6.0  # child now ends after its parent
    assert spans.check_nesting(merged)


def check_reference_build() -> None:
    from workloads import build, reference_history

    for w in WORKLOADS.values():
        short = replace(w, rounds=PARITY_ROUNDS)
        ours = build(short, 0).run().fingerprint()
        theirs = reference_history(short, 0).fingerprint()
        assert ours == theirs, (w.name, ours, theirs)
        print(f"ok  {w.name}: set-up matches ExperimentRunner ({ours})", flush=True)


def check_missing_program() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", next(iter(WORKLOADS)), "--seed", "0",
                            "--seconds", "1", "--trace", "0", cwd=bare)
        assert code != 0, code
        assert not (lines and lines[-1].startswith("{")), lines[-1:]
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  no program source: non-zero exit, no result", flush=True)


def main() -> int:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    check_spans_analysis()
    print("ok  span accounting", flush=True)
    check_missing_program()
    for name in WORKLOADS:
        code, lines = bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0")
        assert code == 0, lines[-5:]
        metrics = result_of(lines)["metrics"]
        check_units(metrics, SPEC["end_to_end"])
        for metric, m in metrics.items():
            assert isinstance(m["value"], (int, float)) and m["value"] > 0, (name, metric, m)
        print(f"ok  {name}: end-to-end " + ", ".join(
            f"{k}={m['value']:.4g}{m['unit']}" for k, m in metrics.items()), flush=True)

        code, lines = bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", "1")
        assert code == 0, lines[-5:]
        layers = result_of(lines)["metrics"]
        check_units(layers, SPEC["per_layer"])
        traced = [json.loads(ln[2:])["rep"] for ln in lines[:-1] if ln.startswith('# {"rep"')]
        traced = [r for r in traced if r.get("traced")]
        assert traced and all(not r["span_problems"] for r in traced), traced
        for metric, m in layers.items():
            assert m["value"] is not None, (name, metric, "not observed")
            if metric.endswith("self_s"):
                assert m["value"] >= 0, (name, metric, m)
        for metric in ABSENT[name]:
            assert layers[metric]["value"] == 0, (name, metric, layers[metric])
        for metric in PRESENT[name] + COMMON:
            assert layers[metric]["value"] > 0, (name, metric, layers[metric])
        print(f"ok  {name}: {len(layers)} per-layer metrics, spans nest, overhead "
              f"{layers['trace.overhead_ratio']['value']:+.3f}", flush=True)
    check_reference_build()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
