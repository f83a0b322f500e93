"""Tests for the unified simulator protocol (repro.routing.api)."""

import pytest

from repro.hypercube.graph import Hypercube
from repro.obs import LinkRecorder
from repro.routing.api import SimRequest, SimResult, Simulator, normalize_schedule
from repro.routing.batched import BatchedStoreForward
from repro.routing.simulator import StoreForwardSimulator

ENGINES = [StoreForwardSimulator, BatchedStoreForward]


class TestNormalizeSchedule:
    def test_all_item_shapes(self):
        reqs = normalize_schedule(
            [
                [0, 1, 3],
                ([0, 1], 5),
                ((0, 4), 2, 3),
                SimRequest((7, 6), release_step=9),
            ]
        )
        assert reqs == [
            SimRequest((0, 1, 3)),
            SimRequest((0, 1), 5),
            SimRequest((0, 4), 2, 3),
            SimRequest((7, 6), 9),
        ]

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            normalize_schedule([42])
        with pytest.raises(TypeError):
            normalize_schedule([([0, 1], 1, 1, 1)])
        with pytest.raises(ValueError):
            normalize_schedule([[]])

    def test_request_validation(self):
        with pytest.raises(ValueError):
            SimRequest(())
        with pytest.raises(ValueError):
            SimRequest((0, 1), release_step=0)
        with pytest.raises(ValueError):
            SimRequest((0, 1), service_time=0)


class TestProtocolConformance:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_isinstance_simulator(self, engine):
        assert isinstance(engine(Hypercube(3)), Simulator)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_schedule_run_returns_simresult(self, engine):
        res = engine(Hypercube(3)).run([[0, 1, 3]])
        assert isinstance(res, SimResult)
        assert res.makespan == 2
        assert res.delivered == res.injected == 1
        assert res.done_steps == (2,)
        assert res.engine == engine.engine

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_requires_a_schedule(self, engine):
        with pytest.raises(TypeError):
            engine(Hypercube(3)).run()

    def test_engines_agree_on_contention_free_load(self):
        host = Hypercube(4)
        sched = [[u, u ^ 1, u ^ 3] for u in range(0, 16, 4)]
        results = [engine(host).run(sched) for engine in ENGINES]
        # identical fields except the engine tag (and recorder, not compared)
        a, b = results
        assert (a.makespan, a.done_steps) == (b.makespan, b.done_steps)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_result_echoes_recorder(self, engine):
        rec = LinkRecorder()
        res = engine(Hypercube(3)).run([[0, 1]], recorder=rec)
        assert res.recorder is rec


class TestRecording:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_measured_congestion_matches_structural(self, engine):
        from repro.core import embed_cycle_load1

        emb = embed_cycle_load1(6)
        sched = [p for paths in emb.edge_paths.values() for p in paths]
        rec = LinkRecorder(host=emb.host)
        res = engine(emb.host).run(sched, recorder=rec)
        # one packet per path: per-link transmission counts ARE the
        # embedding's structural congestion counts
        assert rec.link_congestion_counts() == dict(emb.edge_congestion_counts())
        assert rec.congestion == emb.congestion
        assert rec.delivered == res.delivered == len(sched)
        assert rec.makespan == res.makespan

    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_hop_packets_counted_as_deliveries(self, engine):
        rec = LinkRecorder()
        res = engine(Hypercube(3)).run([[5], [2]], recorder=rec)
        assert res.makespan == 0
        assert rec.delivered == 2
        assert rec.link_congestion_counts() == {}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_disabled_recorder_calls_no_hooks(self, engine):
        calls = []

        class Tripwire:
            enabled = False

            def __bool__(self):
                return False

            def __getattr__(self, name):
                calls.append(name)
                raise AssertionError(f"hook {name} called while disabled")

        res = engine(Hypercube(3)).run([[0, 1, 3]] * 4, recorder=Tripwire())
        assert res.makespan >= 2
        assert calls == []

    def test_queue_depth_peak(self):
        rec = LinkRecorder()
        StoreForwardSimulator(Hypercube(3)).run([[0, 1]] * 3, recorder=rec)
        eid = Hypercube(3).edge_id(0, 1)
        assert rec.queue_peak[eid] == 3


class TestEngineLimits:
    def test_fast_engine_rejects_service_time(self):
        with pytest.raises(ValueError):
            BatchedStoreForward(Hypercube(3)).run([([0, 1], 1, 2)])

    def test_reference_engine_supports_service_time(self):
        res = StoreForwardSimulator(Hypercube(3)).run([([0, 1, 3], 1, 4)])
        assert res.makespan == 8

    @pytest.mark.parametrize("engine", ENGINES)
    def test_max_steps_guard(self, engine):
        with pytest.raises(RuntimeError):
            engine(Hypercube(3)).run([[0, 1]], max_steps=0)
