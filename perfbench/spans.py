"""Span tracing for the benchmark's traced run, from outside the program.

:class:`Tracer` replaces the public functions named in :data:`LAYERS` with
wrappers that record one span per call: ``(id, parent, name, start, end)``
on ``time.perf_counter``. Spans stay in memory and are written when the run
ends. Pool workers inherit the wrappers through fork; a fork hook gives each
worker a fresh span list, and the worker appends its spans to its own file
whenever its outermost span closes. :func:`analyse` merges the parent's and
the workers' spans and reduces them to per-layer metrics.

Busy time of a layer is summed over its outermost spans (a span with no
ancestor of the same name), so a layer that calls itself is not counted
twice. Self time is a span's duration minus the part of it that its child
spans cover. Worker spans have no parent in their own process; they are
attached to the parent-process ``runtime.run_round`` span whose interval
contains them (``perf_counter`` is the system-wide monotonic clock, so the
intervals are comparable across processes).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import time
from pathlib import Path

# (span name, module path, owner attribute or None for a module function, attribute)
LAYERS = (
    ("runtime.run_round", "repro.runtime.executors", "SerialExecutor", "run_round"),
    ("runtime.run_round", "repro.runtime.executors", "ParallelExecutor", "run_round"),
    ("runtime.run_round", "repro.runtime.executors", "PersistentParallelExecutor", "run_round"),
    ("runtime.client_work", "repro.fl.algorithms.base", "FLAlgorithm", "client_work"),
    ("runtime.client_work", "repro.core.fedkemf", "FedKEMF", "client_work"),
    ("core.dml", "repro.core.mutual", "DeepMutualTrainer", "train"),
    ("fl.local_train", "repro.fl.trainer", "LocalTrainer", "train"),
    ("core.teacher", "repro.core.fusion", None, "member_logits"),
    ("core.distill", "repro.core.fusion", None, "distill_to_student"),
    ("fl.aggregate", "repro.fl.algorithms.fedavg", "FedAvg", "aggregate"),
    ("fl.aggregate", "repro.core.fedkemf", "FedKEMF", "aggregate"),
    ("fl.eval", "repro.fl.algorithms.base", None, "evaluate_model"),
    ("fl.eval_local", "repro.fl.algorithms.base", None, "average_local_accuracy"),
    ("fl.bank_get", "repro.fl.state_store", "ClientModelBank", "__getitem__"),
    ("fl.bank_load", "repro.fl.state_store", "ClientModelBank", "load_state"),
    ("fl.comm", "repro.fl.comm", "Channel", "upload"),
    ("fl.comm", "repro.fl.comm", "Channel", "download"),
    ("fl.round", "repro.fl.algorithms.base", "FLAlgorithm", "round"),
    ("nn.conv_fwd", "repro.nn.functional", None, "conv2d"),
    ("nn.bn_fwd", "repro.nn.functional", None, "batch_norm2d"),
    ("nn.backward", "repro.nn.tensor", "Tensor", "backward"),
    ("nn.loss", "repro.nn.functional", None, "cross_entropy"),
    ("nn.loss", "repro.nn.functional", None, "kl_div_with_logits"),
    ("nn.optim", "repro.nn.optim.sgd", "SGD", "step"),
    ("nn.optim", "repro.nn.optim.adam", "Adam", "step"),
)

# Layers whose work runs, wholly or partly, inside pool workers on a
# process-parallel executor (every ``nn.*`` layer does too).
WORKER_LAYERS = ("runtime.client_work", "runtime.pool_idle_share", "core.dml",
                 "fl.local_train", "fl.bank_get")

# Per-layer metrics: (metric name, unit). Busy time ``<layer>_s`` and call
# count ``<layer>.calls`` come from the spans of that layer.
METRICS = (
    ("data.build_s", "s"),
    ("fl.init_s", "s"),
    ("runtime.run_round_s", "s"),
    ("runtime.run_round.calls", "count"),
    ("runtime.client_work_s", "s"),
    ("runtime.pool_idle_share", "ratio"),
    ("core.dml_s", "s"),
    ("core.dml.calls", "count"),
    ("fl.local_train_s", "s"),
    ("core.teacher_s", "s"),
    ("core.teacher.calls", "count"),
    ("core.distill_s", "s"),
    ("fl.aggregate_s", "s"),
    ("fl.aggregate.self_s", "s"),
    ("fl.eval_s", "s"),
    ("fl.eval_local_s", "s"),
    ("fl.bank_get_s", "s"),
    ("fl.bank_get.calls", "count"),
    ("fl.bank_load_s", "s"),
    ("fl.comm_s", "s"),
    ("fl.comm_bytes", "bytes"),
    ("fl.round.self_s", "s"),
    ("nn.conv_fwd_s", "s"),
    ("nn.conv_fwd.calls", "count"),
    ("nn.bn_fwd_s", "s"),
    ("nn.backward_s", "s"),
    ("nn.backward.calls", "count"),
    ("nn.loss_s", "s"),
    ("nn.optim_s", "s"),
    ("nn.im2col_cache.hit_ratio", "ratio"),
    ("nn.im2col_cache.lookups", "count"),
    ("trace.run_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("fl.final_acc", "fraction"),
)


def layer_of(metric: str) -> str:
    """The span name a per-layer metric is computed from."""
    for suffix in (".calls", ".self_s", "_s"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)]
    return metric


def runs_in_workers(metric: str) -> bool:
    layer = layer_of(metric)
    return layer.startswith("nn.") or layer in WORKER_LAYERS


def _im2col_info() -> "tuple[int, int]":
    from repro.nn.functional import im2col_indices

    info = im2col_indices.cache_info()
    return info.hits, info.misses


class Tracer:
    """In-memory span recorder; :meth:`install` wraps every :data:`LAYERS`
    target. One tracer per process: it registers a fork hook that cannot be
    removed."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: "list[tuple]" = []
        self._stack: "list[int]" = []
        self._ids = itertools.count()
        self._worker = False
        self._im2col_at_fork = (0, 0)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The parent's open spans do not continue in the child.
        self._worker = True
        self.spans = []
        self._stack = []
        self._im2col_at_fork = _im2col_info()

    def _open(self) -> "tuple[int, int | None]":
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: "int | None", name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))
        if self._worker and not self._stack:
            self._flush_worker()

    @contextlib.contextmanager
    def span(self, name: str):
        """Bracket a block of the benchmark's own code as one span."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def _wrap(self, name: str, fn):
        open_, close, clock = self._open, self._close, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = open_()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid, parent, name, start)

        return traced

    def install(self) -> None:
        """Wrap every target for the rest of this process's life."""
        import importlib

        for name, module, owner, attr in LAYERS:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            original = vars(target)[attr]  # the definition itself, not an inherited one
            setattr(target, attr, self._wrap(name, original))

    def _flush_worker(self) -> None:
        line = {"pid": os.getpid(), "spans": self.spans,
                "im2col_at_fork": self._im2col_at_fork, "im2col": _im2col_info()}
        with open(self.out_dir / f"worker-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(line) + "\n")
        self.spans = []

    def write_parent(self) -> Path:
        path = self.out_dir / "parent.json"
        path.write_text(json.dumps({"pid": os.getpid(), "spans": self.spans,
                                    "im2col": _im2col_info()}))
        return path


def load(out_dir: Path) -> "tuple[list[dict], dict]":
    """Merged spans of one traced run, plus im2col cache counts summed over
    the parent and every worker's lookups since it was forked."""
    out_dir = Path(out_dir)
    parent = json.loads((out_dir / "parent.json").read_text())
    spans = [_span(parent["pid"], s) for s in parent["spans"]]
    hits, misses = parent["im2col"]
    workers = set()
    for path in sorted(out_dir.glob("worker-*.jsonl")):
        last = None
        for raw in path.read_text().splitlines():
            last = json.loads(raw)
            spans.extend(_span(last["pid"], s) for s in last["spans"])
        if last is not None:
            workers.add(last["pid"])
            hits += last["im2col"][0] - last["im2col_at_fork"][0]
            misses += last["im2col"][1] - last["im2col_at_fork"][1]
    return spans, {"hits": hits, "misses": misses, "worker_pids": sorted(workers)}


def _span(pid: int, raw) -> dict:
    sid, parent, name, start, end = raw
    return {"pid": pid, "id": sid, "parent": None if parent is None else (pid, parent),
            "name": name, "start": start, "end": end}


def link_workers(spans: "list[dict]", parent_pid: int) -> None:
    """Give each worker root span the parent-process ``runtime.run_round``
    span that contains it."""
    rounds = sorted((s for s in spans if s["pid"] == parent_pid
                     and s["name"] == "runtime.run_round"), key=lambda s: s["start"])
    for s in spans:
        if s["pid"] != parent_pid and s["parent"] is None:
            for r in rounds:
                if r["start"] <= s["start"] and s["end"] <= r["end"]:
                    s["parent"] = (r["pid"], r["id"])
                    break


def _covered(intervals: "list[tuple[float, float]]") -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def check_nesting(spans: "list[dict]", tol: float = 1e-6) -> "list[str]":
    """Problems with the span tree: a child outside its parent's interval,
    a dangling parent, or a worker span attached to no round."""
    by_key = {(s["pid"], s["id"]): s for s in spans}
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"{s['name']} ends before it starts")
        if s["parent"] is None:
            continue
        p = by_key.get(s["parent"])
        if p is None:
            problems.append(f"{s['name']} has a dangling parent {s['parent']}")
        elif s["start"] < p["start"] - tol or s["end"] > p["end"] + tol:
            problems.append(f"{s['name']} lies outside its parent {p['name']}")
    return problems


def analyse(spans: "list[dict]", parent_pid: int, workers: int) -> dict:
    """Reduce merged spans to busy seconds, outermost call counts and self
    seconds per span name, plus the pool idle share."""
    by_key = {(s["pid"], s["id"]): s for s in spans}
    children: "dict[tuple, list[dict]]" = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    busy: "dict[str, float]" = {}
    calls: "dict[str, int]" = {}
    self_s: "dict[str, float]" = {}
    for s in spans:
        ancestor, outermost = s["parent"], True
        while ancestor is not None:
            a = by_key[ancestor]
            if a["name"] == s["name"]:
                outermost = False
                break
            ancestor = a["parent"]
        if not outermost:
            continue
        dur = s["end"] - s["start"]
        kids = children.get((s["pid"], s["id"]), [])
        own = dur - _covered([(k["start"], k["end"]) for k in kids])
        busy[s["name"]] = busy.get(s["name"], 0.0) + dur
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + own
    rounds = busy.get("runtime.run_round", 0.0)
    idle = 1.0 - busy.get("runtime.client_work", 0.0) / (workers * rounds) if rounds else 0.0
    return {"busy": busy, "calls": calls, "self": self_s, "pool_idle_share": idle}


def layer_metrics(stats: dict, cache: dict, comm_bytes: int) -> dict:
    """The :data:`METRICS` of one traced run, except the ``trace.*`` ones."""
    busy, calls, own = stats["busy"], stats["calls"], stats["self"]
    out = {}
    for metric, _unit in METRICS:
        if metric.startswith("trace.") or metric == "fl.final_acc":
            continue
        if metric == "runtime.pool_idle_share":
            out[metric] = stats["pool_idle_share"]
        elif metric == "fl.comm_bytes":
            out[metric] = comm_bytes
        elif metric == "nn.im2col_cache.lookups":
            out[metric] = cache["hits"] + cache["misses"]
        elif metric == "nn.im2col_cache.hit_ratio":
            # Only the reference conv kernels look indices up; with none, 0.
            lookups = cache["hits"] + cache["misses"]
            out[metric] = cache["hits"] / lookups if lookups else 0.0
        elif metric.endswith(".calls"):
            out[metric] = calls.get(layer_of(metric), 0)
        elif metric.endswith(".self_s"):
            out[metric] = own.get(layer_of(metric), 0.0)
        else:
            out[metric] = busy.get(layer_of(metric), 0.0)
    return out
