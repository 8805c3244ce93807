"""Executor contract: serial, parallel and persistent backends return
identical updates, in task order, for pure work functions."""

from __future__ import annotations

import functools
import pickle

import numpy as np
import pytest

from repro.runtime import executors as ex_mod
from repro.fl.algorithms import FLConfig
from repro.runtime.executors import (
    EXECUTOR_KINDS,
    ClientUpdate,
    ParallelExecutor,
    PersistentParallelExecutor,
    SerialExecutor,
    fork_available,
    make_executor,
)

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork start method")


def _square_work(cid, payload):
    return ClientUpdate(
        client_id=cid,
        states={"state": {"x": payload["x"] ** 2}},
        weight=float(cid),
        steps=int(payload["x"].size),
    )


def _tasks(n=6):
    rng = np.random.default_rng(0)
    return [(cid, {"x": rng.normal(size=(3, 3))}) for cid in range(n)]


class TestMakeExecutor:
    def test_mapping(self):
        assert isinstance(make_executor(0), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        ex = make_executor(4)
        assert isinstance(ex, ParallelExecutor)
        assert ex.workers == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_executor(-1)
        with pytest.raises(ValueError):
            ParallelExecutor(0)
        with pytest.raises(ValueError):
            PersistentParallelExecutor(0)

    def test_explicit_kind(self):
        assert isinstance(make_executor(4, "serial"), SerialExecutor)
        assert isinstance(make_executor(4, "parallel"), ParallelExecutor)
        ex = make_executor(4, "persistent")
        assert isinstance(ex, PersistentParallelExecutor)
        assert ex.workers == 4
        # workers < 2 with an explicit parallel kind means "use all cores"
        assert make_executor(0, "persistent").workers >= 1
        for unknown in ("threads", "batched"):
            with pytest.raises(ValueError, match="options"):
                make_executor(2, unknown)

    def test_retired_batched_kind_rejected_by_config(self):
        assert EXECUTOR_KINDS == ("serial", "parallel", "persistent")
        with pytest.raises(ValueError) as err:
            FLConfig(executor="batched")
        assert str(EXECUTOR_KINDS) in str(err.value)


class TestRunRound:
    def test_serial_order(self):
        tasks = _tasks()
        updates = SerialExecutor().run_round(_square_work, tasks)
        assert [u.client_id for u in updates] == [cid for cid, _ in tasks]

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_parallel_matches_serial(self):
        tasks = _tasks()
        serial = SerialExecutor().run_round(_square_work, tasks)
        parallel = ParallelExecutor(4).run_round(_square_work, tasks)
        assert [u.client_id for u in parallel] == [u.client_id for u in serial]
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(s.states["state"]["x"], p.states["state"]["x"])
            assert s.weight == p.weight and s.steps == p.steps

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_parallel_supports_closures(self):
        """The work fn crosses into workers via fork inheritance, so an
        unpicklable closure (the common case: a bound method over a model)
        must work."""
        scale = np.float64(3.0)

        def work(cid, payload):
            return ClientUpdate(client_id=cid, states={"s": {"x": payload["x"] * scale}})

        tasks = _tasks(4)
        updates = ParallelExecutor(2).run_round(work, tasks)
        for (cid, payload), u in zip(tasks, updates):
            np.testing.assert_array_equal(u.states["s"]["x"], payload["x"] * 3.0)

    def test_parallel_degenerate_rounds_run_serial(self):
        # single task: not worth forking; must still produce the result
        updates = ParallelExecutor(4).run_round(_square_work, _tasks(1))
        assert len(updates) == 1 and updates[0].client_id == 0

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_worker_exception_propagates(self):
        def boom(cid, payload):
            raise RuntimeError(f"client {cid} exploded")

        with pytest.raises(RuntimeError, match="exploded"):
            ParallelExecutor(2).run_round(boom, _tasks(4))


def _scaled_work(scale, cid, payload):
    return ClientUpdate(client_id=cid, states={"s": {"x": payload["x"] * scale}})


@needs_fork
class TestNestedExecutors:
    def test_fork_work_stack_is_reentrant(self):
        """Regression: the module-level work registry used to be a single
        slot, so an executor used *inside* another round's work saw (and
        then clobbered) the outer closure. The stack makes it reentrant."""
        inner_tasks = _tasks(3)

        def outer(cid, payload):
            inner = ParallelExecutor(2).run_round(
                functools.partial(_scaled_work, float(cid + 1)), inner_tasks
            )
            total = sum(u.states["s"]["x"].sum() for u in inner)
            return ClientUpdate(client_id=cid, weight=float(total))

        tasks = _tasks(2)
        got = ParallelExecutor(2).run_round(outer, tasks)
        want = SerialExecutor().run_round(outer, tasks)
        assert [u.weight for u in got] == [u.weight for u in want]
        assert ex_mod._FORK_WORK == []  # every frame popped on the way out

    def test_stack_clean_after_worker_exception(self):
        def boom(cid, payload):
            raise RuntimeError("kaboom")

        with pytest.raises(RuntimeError):
            ParallelExecutor(2).run_round(boom, _tasks(4))
        assert ex_mod._FORK_WORK == []


@needs_fork
class TestPersistentExecutor:
    def test_matches_serial_and_ships(self):
        tasks = _tasks()
        serial = SerialExecutor().run_round(_square_work, tasks)
        ex = PersistentParallelExecutor(4)
        try:
            for _round in range(3):  # pool reused across rounds
                got = ex.run_round(_square_work, tasks)
                assert ex.last_round_mode == "shipped"
                for s, p in zip(serial, got):
                    np.testing.assert_array_equal(
                        s.states["state"]["x"], p.states["state"]["x"]
                    )
                    assert s.weight == p.weight and s.steps == p.steps
        finally:
            ex.close()

    def test_unpicklable_work_falls_back_to_fork(self):
        # a partial over a lambda defeats pickle-by-reference
        work = functools.partial(_scaled_work, np.float64(2.0))
        unpicklable = functools.partial(
            lambda inner, cid, payload: inner(cid, payload), work
        )
        with pytest.raises(Exception):
            pickle.dumps(unpicklable)  # the premise of this test
        ex = PersistentParallelExecutor(2)
        try:
            tasks = _tasks(4)
            got = ex.run_round(unpicklable, tasks)
            assert ex.last_round_mode == "forked"
            for (cid, payload), u in zip(tasks, got):
                np.testing.assert_array_equal(u.states["s"]["x"], payload["x"] * 2.0)
        finally:
            ex.close()

    def test_degenerate_round_runs_serial(self):
        ex = PersistentParallelExecutor(4)
        try:
            updates = ex.run_round(_square_work, _tasks(1))
            assert ex.last_round_mode == "serial"
            assert len(updates) == 1 and updates[0].client_id == 0
            assert ex._pool is None  # never forked a pool for it
        finally:
            ex.close()

    def test_pickles_without_live_pool(self):
        """The executor rides along inside the shipped algorithm snapshot
        (reachable via algorithm.runtime.executor), so pickling it must
        drop the pool rather than explode on its locks/pipes."""
        ex = PersistentParallelExecutor(3)
        try:
            ex.run_round(_square_work, _tasks(4))  # pool is live now
            clone = pickle.loads(pickle.dumps(ex))
            assert clone.workers == 3
            assert clone._pool is None
            clone.close()
        finally:
            ex.close()

    def test_close_rearms(self):
        ex = PersistentParallelExecutor(2)
        tasks = _tasks(4)
        ex.run_round(_square_work, tasks)
        ex.close()
        assert ex._pool is None
        got = ex.run_round(_square_work, tasks)  # forks a fresh pool
        assert ex.last_round_mode == "shipped" and len(got) == len(tasks)
        ex.close()


@needs_fork
class TestPersistentBufferedFallback:
    """An unpicklable algorithm snapshot (local-closure model factory) on
    the persistent executor must degrade to the per-round fork path — and
    the buffered-aggregation server state riding on top of the run (the
    update buffer, staleness bookkeeping) must come through untouched."""

    def _run(self, fed, model_fn, executor):
        from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig

        cfg = FLConfig(
            rounds=3,
            sample_ratio=0.5,
            local_epochs=1,
            batch_size=16,
            seed=1,
            faults="slowdown=10,straggler=0.4",
            aggregation="buffered",
            buffer_size=2,
            staleness_alpha=0.5,
            max_staleness=6,
            executor=executor,
            workers=2,
        )
        algo = ALGORITHM_REGISTRY.get("fedavg")(model_fn, fed, cfg)
        try:
            history = algo.run()
        finally:
            algo.runtime.executor.close()
        return algo, history

    def test_unpicklable_algo_keeps_buffer_semantics(self, micro_fed):
        from repro.nn.models import build_model

        def model_fn():  # local closure: defeats pickle-by-reference
            return build_model(
                "mlp", num_classes=4, in_channels=1, image_size=8,
                width_mult=0.25, seed=1,
            )

        with pytest.raises(Exception):
            pickle.dumps(model_fn)  # the premise: the snapshot cannot ship

        ref_algo, ref = self._run(micro_fed, model_fn, "serial")
        algo, got = self._run(micro_fed, model_fn, "persistent")
        # Shipping failed silently-gracefully: the round ran via fork.
        assert algo.runtime.executor.last_round_mode == "forked"
        # The buffered server regime is intact: identical history (the
        # fingerprint covers per-round merges), identical staleness mix,
        # and the straggler plan really did produce stale merges to keep.
        assert got.fingerprint() == ref.fingerprint()
        assert got.staleness_histogram() == ref.staleness_histogram()
        assert any(s > 0 for s in got.staleness_histogram())
        ref_state = ref_algo.global_model.state_dict()
        state = algo.global_model.state_dict()
        for k in ref_state:
            np.testing.assert_array_equal(ref_state[k], state[k], err_msg=k)
