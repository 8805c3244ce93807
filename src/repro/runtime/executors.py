"""Client executors: how one round's per-client work actually runs.

Algorithms hand the runtime a *work function* ``work(client_id, payload) ->
ClientUpdate`` plus one ``(client_id, payload)`` task per participating
client. The executor decides the mechanics:

- :class:`SerialExecutor` runs tasks in-process, in order — the
  deterministic reference implementation;
- :class:`ParallelExecutor` fans tasks out over a fork-based
  ``ProcessPoolExecutor``. Workers are forked *per round*, so every child
  sees an exact snapshot of the algorithm's round-start state; the work
  closure itself never crosses a pipe (children inherit it through the
  fork), and only picklable payloads/updates do.
- :class:`PersistentParallelExecutor` keeps one long-lived fork pool for
  the whole run and ships the round-start state explicitly: the work
  closure is pickled **once per round** in the parent and each worker
  unpickles it at most once per round. Eliminates the per-round pool
  spin-up of :class:`ParallelExecutor` on many-round runs while keeping
  the same snapshot semantics (a pickle round-trip reproduces numpy state
  bit-exactly, like a fork does).

The contract that makes all backends bit-identical: ``work`` may *read*
algorithm state (the round-start snapshot) but must not rely on *writes* to
it — anything a client changes must come back inside the returned
:class:`ClientUpdate`, which the parent process applies.

**Crash tolerance.** A worker process dying mid-round (OOM kill, segfault,
``os._exit`` in client code) used to abort the whole run: the pool raises
``BrokenProcessPool`` for every in-flight future. The parallel backends now
drive each round through a recovery ladder (:func:`resilient_round`):

1. retry unfinished tasks on a fresh pool, with bounded exponential
   backoff (:class:`RetryPolicy`);
2. after repeated pool breaks, *isolate*: submit one task at a time so the
   poison task is attributed precisely instead of taking neighbours down;
3. a task that exhausts its attempt budget is dropped from the results and
   reported in :attr:`ClientExecutor.last_round_failures` as
   ``"worker-crash"`` — the round loop folds it into
   :class:`~repro.runtime.runtime.RoundOutcome.failures`;
4. if no pool can be created at all (fork failing with ``OSError``), the
   remaining tasks run serially in-process — the last resort that keeps
   the run alive when parallel execution is impossible.

Only *infrastructure* failures enter the ladder (a broken pool, an
unpicklable result, a per-task timeout). Ordinary exceptions raised by the
work function itself still propagate — those are programming errors, and
masking them as client failures would hide real bugs.

**Population-scale snapshots.** What the fork/pickle boundary actually
ships is bounded by the federation flavor. An eager
:class:`~repro.data.federated.FederatedDataset` carries every client's
sample arrays into the snapshot. A lazy federation
(:class:`~repro.data.lazy.LazyFederatedDataset`) pickles as its *recipe*
(world spec + partition assignment, no shard arrays, no trainer caches) —
each worker rematerializes the shards it is asked to train, bit-identically
to the parent's, because materialization is pure in ``(seed, client)``.
Workers therefore never receive pickled client data at scale, and the
snapshot stays O(model + assignment) no matter the population.

Like :mod:`repro.runtime.faults`, this module must not import
:mod:`repro.fl` (the algorithm layer imports us).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import ProcessPoolExecutor as _PoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

__all__ = [
    "ClientUpdate",
    "ClientExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "PersistentParallelExecutor",
    "RetryPolicy",
    "WORKER_CRASH",
    "resilient_round",
    "EXECUTOR_KINDS",
    "make_executor",
]

# work(client_id, payload) -> ClientUpdate
WorkFn = Callable[[int, Mapping[str, Any]], "ClientUpdate"]
Task = "tuple[int, Mapping[str, Any]]"


@dataclass
class ClientUpdate:
    """Everything one client sends back (or changes) in a round.

    The update is the *only* channel from client work to the server: in
    parallel mode it is pickled across a process boundary, so every field
    must be plain data (numpy arrays, dataclasses of scalars).

    Attributes
    ----------
    client_id:
        The reporting client.
    states:
        Named uplink payloads in wire order (e.g. ``{"state": ...}`` for
        FedAvg, ``{"state": ..., "delta_control": ...}`` for SCAFFOLD).
        The server charges each through the channel before aggregating.
    weight:
        Aggregation weight (conventionally the client's shard size).
    steps:
        Local optimizer steps taken — drives the virtual-clock compute time.
    stats:
        The trainer's stats object (``TrainStats``/``MutualTrainStats``).
    extra:
        Algorithm-specific picklable server-side values (τ, new control
        variates, public-set logits, ...).
    local_state:
        Updated state of the client's *persistent on-device* model, for
        algorithms (FedKEMF, FedMD) whose clients keep models between
        rounds. The parent writes it back via
        ``FLAlgorithm.apply_client_update`` so parallel workers stay
        stateless.
    received:
        Parent-side only: the channel-decoded copies of ``states`` (what
        the server actually sees after the wire codec). Never set by client
        work.
    """

    client_id: int
    states: "dict[str, Mapping[str, Any]]" = field(default_factory=dict)
    weight: float = 1.0
    steps: int = 0
    stats: Any = None
    extra: "dict[str, Any]" = field(default_factory=dict)
    local_state: "Mapping[str, Any] | None" = None
    received: "dict[str, Mapping[str, Any]] | None" = None


# Failure reason recorded for clients whose task died with the worker and
# exhausted its retry budget. Flows through RoundOutcome.failures/RunHistory
# alongside the fault-injected reasons (dropout / uplink-lost / deadline).
WORKER_CRASH = "worker-crash"


@dataclass(frozen=True)
class RetryPolicy:
    """How a parallel executor recovers from infrastructure failures.

    Attributes
    ----------
    max_attempts:
        Total tries per task (first run + retries) before the client is
        reported as a ``"worker-crash"`` failure.
    backoff_s:
        Real-seconds sleep before re-arming a pool after a break; doubles
        on consecutive breaks (``backoff_s · 2^(breaks-1)``).
    isolate_after:
        Consecutive pool breaks before switching to isolation mode (one
        task per fresh pool) so the poison task is attributed precisely.
    task_timeout_s:
        Per-task result deadline in real seconds; a worker that exceeds it
        is treated as crashed and its pool is recycled. ``None`` disables
        timeouts (the default — virtual-clock stragglers are modelled by
        :mod:`repro.runtime.faults`, not wall time).
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    isolate_after: int = 2
    task_timeout_s: "float | None" = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1; got {self.max_attempts}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0; got {self.backoff_s}")
        if self.isolate_after < 1:
            raise ValueError(f"isolate_after must be >= 1; got {self.isolate_after}")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError(f"task_timeout_s must be positive; got {self.task_timeout_s}")


# Exceptions that mean "the execution substrate failed", not "the work
# function raised": a dead pool, a result that could not cross the pipe, a
# hung worker. Everything else propagates to the caller unchanged.
_INFRA_FAILURES = (BrokenExecutor, pickle.PicklingError, _FuturesTimeout)


def resilient_round(
    tasks: "Sequence[Task]",
    submit: "Callable[[Any, int, Mapping[str, Any]], Any]",
    acquire_pool: "Callable[[int], Any]",
    release_pool: "Callable[[Any, bool], None]",
    serial_work: WorkFn,
    policy: RetryPolicy,
) -> "tuple[list[ClientUpdate], dict[int, str]]":
    """Run one round of tasks with crash recovery (the ladder in the module
    docstring). Returns ``(updates_in_task_order, failures)`` where
    ``failures`` maps client id → ``"worker-crash"`` for tasks whose every
    attempt died with its worker.

    Parameters
    ----------
    submit:
        ``submit(pool, cid, payload) -> Future`` for one task.
    acquire_pool:
        ``acquire_pool(batch_size) -> pool``; may raise ``OSError`` when no
        pool can be created (triggers the serial last resort).
    release_pool:
        ``release_pool(pool, broken)``; called after every wave, with
        ``broken=True`` when the wave hit an infrastructure failure and the
        pool must not be reused.
    serial_work:
        In-process fallback used only when pools cannot be created at all.
    """
    order = [cid for cid, _ in tasks]
    pending: "dict[int, Mapping[str, Any]]" = dict(tasks)
    attempts: "dict[int, int]" = {cid: 0 for cid in order}
    results: "dict[int, ClientUpdate]" = {}
    failures: "dict[int, str]" = {}
    consecutive_breaks = 0

    while pending:
        isolate = consecutive_breaks >= policy.isolate_after
        batch = (
            [next(iter(pending))] if isolate else list(pending)
        )  # isolation: one suspect at a time
        try:
            pool = acquire_pool(len(batch))
        except OSError:
            # Forking is impossible (fd/memory exhaustion, platform loss):
            # run what's left in-process rather than killing the run.
            for cid in list(pending):
                results[cid] = serial_work(cid, pending.pop(cid))
            break
        broken = False
        futures = {cid: submit(pool, cid, pending[cid]) for cid in batch}
        try:
            for cid, fut in futures.items():
                try:
                    results[cid] = fut.result(timeout=policy.task_timeout_s)
                    pending.pop(cid)
                except _INFRA_FAILURES:
                    broken = True
                    attempts[cid] += 1
                    if attempts[cid] >= policy.max_attempts:
                        failures[cid] = WORKER_CRASH
                        pending.pop(cid)
        except BaseException:
            # A work-raised exception propagates (programming error); the
            # pool is abandoned without waiting on its stragglers.
            release_pool(pool, True)
            raise
        release_pool(pool, broken)
        if broken:
            consecutive_breaks += 1
            if policy.backoff_s > 0:
                time.sleep(policy.backoff_s * 2 ** (consecutive_breaks - 1))
        else:
            consecutive_breaks = 0

    return [results[cid] for cid in order if cid in results], failures


class ClientExecutor:
    """Interface: run one round of per-client work.

    Executors are context managers — ``with make_executor(...) as ex:``
    guarantees :meth:`close` runs even when the round loop raises; the
    algorithm driver relies on this instead of best-effort finalizers.
    """

    workers: int = 1

    #: client id → failure reason for the most recent round; parallel
    #: backends record ``"worker-crash"`` here for tasks whose worker died
    #: beyond recovery. Reassigned (never mutated) each round.
    last_round_failures: "dict[int, str]" = {}

    def run_round(self, work: WorkFn, tasks: "Sequence[Task]") -> "list[ClientUpdate]":
        """Execute ``work`` for every task; results in task order.

        Clients missing from the result list (crashed beyond recovery) are
        reported in :attr:`last_round_failures`.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (no-op for per-round pools)."""

    def __enter__(self) -> "ClientExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class SerialExecutor(ClientExecutor):
    """In-process, in-order execution — the reference backend."""

    workers = 1

    def run_round(self, work: WorkFn, tasks: "Sequence[Task]") -> "list[ClientUpdate]":
        self.last_round_failures = {}
        return [work(cid, payload) for cid, payload in tasks]


# Work closures for rounds in flight, as a stack so nested executor use is
# reentrant: each run_round pushes its closure, forks (children inherit the
# whole stack), and pops exactly its own frame on the way out. Closures
# never cross a pipe — workers address them by stack index.
_FORK_WORK: "list[WorkFn]" = []


def _invoke(index: int, cid: int, payload: Mapping[str, Any]) -> "ClientUpdate":
    assert index < len(_FORK_WORK), "worker forked without a registered work fn"
    return _FORK_WORK[index](cid, payload)


def fork_available() -> bool:
    """Whether fork-based process pools exist on this platform."""
    return hasattr(os, "fork") and "fork" in multiprocessing.get_all_start_methods()


class ParallelExecutor(ClientExecutor):
    """Process-parallel execution over a per-round fork pool.

    A fresh pool per round costs one fork per worker (~ms) and buys the key
    correctness property for free: children snapshot the algorithm exactly
    at round start, so no stale per-client state can leak across rounds and
    no explicit context shipping is needed. Falls back to serial execution
    where fork is unavailable (non-POSIX) or for degenerate rounds.

    Worker death mid-round is survived via :func:`resilient_round`: the
    unfinished tasks are retried on fresh pools, the unrecoverable ones are
    reported in :attr:`last_round_failures` as ``"worker-crash"``.
    """

    def __init__(
        self, workers: "int | None" = None, retry: "RetryPolicy | None" = None
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1; got {workers}")
        self.workers = int(workers)
        self.retry = retry if retry is not None else RetryPolicy()

    def run_round(self, work: WorkFn, tasks: "Sequence[Task]") -> "list[ClientUpdate]":
        self.last_round_failures = {}
        if self.workers < 2 or len(tasks) < 2 or not fork_available():
            return [work(cid, payload) for cid, payload in tasks]
        index = len(_FORK_WORK)
        _FORK_WORK.append(work)
        try:
            ctx = multiprocessing.get_context("fork")
            updates, failures = resilient_round(
                tasks,
                submit=lambda pool, cid, payload: pool.submit(
                    _invoke, index, cid, payload
                ),
                acquire_pool=lambda n: _PoolExecutor(
                    max_workers=min(self.workers, n), mp_context=ctx
                ),
                release_pool=lambda pool, broken: pool.shutdown(wait=not broken),
                serial_work=work,
                policy=self.retry,
            )
            self.last_round_failures = failures
            return updates
        finally:
            # Pop our frame (and anything a misbehaving nested call leaked
            # above it) even if pool shutdown itself raised.
            del _FORK_WORK[index:]


# ------------------------------------------------------------------ #
# persistent pool with explicit per-round state shipping
# ------------------------------------------------------------------ #

# Per-worker cache of the last unpickled round snapshot. Tokens are unique
# per (executor instance, round), so a worker unpickles each round's work
# closure at most once and reuses it for every task it runs that round.
_SHIPPED: "dict[str, Any]" = {}

_EXECUTOR_IDS = itertools.count(1)


def _invoke_shipped(
    token: "tuple[int, int]", blob: bytes, cid: int, payload: Mapping[str, Any]
) -> "ClientUpdate":
    if _SHIPPED.get("token") != token:
        _SHIPPED["work"] = pickle.loads(blob)
        _SHIPPED["token"] = token
    return _SHIPPED["work"](cid, payload)


class PersistentParallelExecutor(ClientExecutor):
    """Process-parallel execution over one long-lived fork pool.

    Where :class:`ParallelExecutor` re-forks its workers every round to get
    a fresh state snapshot, this executor forks once (lazily, on the first
    parallel round) and ships the round-start state explicitly: the work
    closure — a bound method whose ``self`` is the algorithm — is pickled
    once per round, sent along with each task as an opaque byte blob, and
    unpickled at most once per round in each worker. The pickle round-trip
    reproduces numpy arrays and RNG state bit-exactly, so results stay
    bit-identical to the serial and per-round-fork backends.

    If the work closure is not picklable (e.g. the model factory is a local
    closure), the round transparently degrades to the per-round fork
    strategy — correctness never depends on picklability, only the
    spin-up saving does. ``last_round_mode`` records which strategy the
    most recent round actually used (``"serial"``, ``"shipped"`` or
    ``"forked"``).

    A worker death breaks the long-lived pool; recovery
    (:func:`resilient_round`) discards it and lazily re-arms a fresh one,
    so later rounds keep their pooled fast path. Unrecoverable tasks are
    reported in :attr:`last_round_failures` as ``"worker-crash"``.

    Use as a context manager (or call :meth:`close`, or let
    :class:`~repro.runtime.runtime.FLRuntime` do it) to shut the pool
    down; the executor re-arms itself after ``close`` so a later round
    simply forks a fresh pool.
    """

    def __init__(
        self, workers: "int | None" = None, retry: "RetryPolicy | None" = None
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1; got {workers}")
        self.workers = int(workers)
        self.retry = retry if retry is not None else RetryPolicy()
        self._id = next(_EXECUTOR_IDS)
        self._pool: "_PoolExecutor | None" = None
        self._round_seq = 0
        self._fallback = ParallelExecutor(self.workers, retry=self.retry)
        self.last_round_mode: "str | None" = None

    # The live pool (threads, pipes, locks) must never ride along when the
    # algorithm snapshot itself is pickled for shipping — workers only need
    # the executor's configuration.
    def __getstate__(self) -> dict:
        return {"workers": self.workers, "retry": self.retry}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["workers"], retry=state.get("retry"))

    def _ensure_pool(self) -> _PoolExecutor:
        if self._pool is None:
            ctx = multiprocessing.get_context("fork")
            self._pool = _PoolExecutor(max_workers=self.workers, mp_context=ctx)
        return self._pool

    def _acquire(self, _batch_size: int) -> _PoolExecutor:
        return self._ensure_pool()

    def _release(self, pool: _PoolExecutor, broken: bool) -> None:
        if broken and pool is self._pool:
            # The long-lived pool died with its worker; drop it so the next
            # wave (and the next round) lazily fork a fresh one.
            pool.shutdown(wait=False)
            self._pool = None

    def run_round(self, work: WorkFn, tasks: "Sequence[Task]") -> "list[ClientUpdate]":
        self.last_round_failures = {}
        if self.workers < 2 or len(tasks) < 2 or not fork_available():
            self.last_round_mode = "serial"
            return [work(cid, payload) for cid, payload in tasks]
        try:
            blob = pickle.dumps(work, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.last_round_mode = "forked"
            updates = self._fallback.run_round(work, tasks)
            self.last_round_failures = self._fallback.last_round_failures
            return updates
        self._round_seq += 1
        token = (self._id, self._round_seq)
        self.last_round_mode = "shipped"
        updates, failures = resilient_round(
            tasks,
            submit=lambda pool, cid, payload: pool.submit(
                _invoke_shipped, token, blob, cid, payload
            ),
            acquire_pool=self._acquire,
            release_pool=self._release,
            serial_work=work,
            policy=self.retry,
        )
        self.last_round_failures = failures
        return updates

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


EXECUTOR_KINDS = ("serial", "parallel", "persistent")


def make_executor(workers: int = 0, kind: "str | None" = None) -> ClientExecutor:
    """Build the executor for a worker count and optional explicit kind.

    With ``kind=None`` (the default) the historical mapping applies:
    0/1 workers → serial, ≥2 → per-round :class:`ParallelExecutor`. An
    explicit ``kind`` — ``"serial"``, ``"parallel"`` or ``"persistent"``,
    e.g. from ``--executor`` / ``$REPRO_EXECUTOR`` — picks the backend
    directly; the parallel kinds then treat ``workers < 2`` as
    "use all cores".
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0; got {workers}")
    if kind is not None:
        kind = kind.strip().lower()
        if kind not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor kind {kind!r}; options: {EXECUTOR_KINDS}"
            )
        if kind == "serial":
            return SerialExecutor()
        cls = ParallelExecutor if kind == "parallel" else PersistentParallelExecutor
        return cls(workers if workers >= 2 else None)
    if workers >= 2:
        return ParallelExecutor(workers)
    return SerialExecutor()
