"""Tests for the unified simulator protocol (repro.routing.api)."""

import json

import numpy as np
import pytest

from repro.hypercube.graph import Hypercube
from repro.obs import LinkRecorder
from repro.routing.api import (
    ScheduleColumns,
    SimRequest,
    SimResult,
    Simulator,
    normalize_schedule,
)
from repro.routing.batched import BatchedStoreForward, BatchedWormhole
from repro.routing.bounded_buffers import BoundedBufferSimulator
from repro.routing.simulator import StoreForwardSimulator
from repro.routing.wormhole import WormholeSimulator

ENGINES = [StoreForwardSimulator, BatchedStoreForward]


def _bounded(host):
    """The bounded-buffer engine with buffers no test schedule fills."""
    return BoundedBufferSimulator(host, 64)


def _worms(paths):
    """One-flit worms along ``paths``: worm engines take triples."""
    return [(path, 1, 1) for path in paths]


# every engine in repro.routing: a constructor taking the host, and how a
# list of paths becomes a schedule of the shape that engine reads
ALL_ENGINES = [
    pytest.param(StoreForwardSimulator, list, id="StoreForwardSimulator"),
    pytest.param(BatchedStoreForward, list, id="BatchedStoreForward"),
    pytest.param(WormholeSimulator, _worms, id="WormholeSimulator"),
    pytest.param(BatchedWormhole, _worms, id="BatchedWormhole"),
    pytest.param(_bounded, list, id="BoundedBufferSimulator"),
]
# the packet engines that take a recorder's per-link events
RECORDING_ENGINES = ENGINES + [
    pytest.param(_bounded, id="BoundedBufferSimulator"),
]


def _columns(cols):
    """A ScheduleColumns as plain lists, with each column's dtype."""
    return (
        cols.paths,
        cols.release.tolist(),
        cols.service.tolist(),
        cols.release.dtype,
        cols.service.dtype,
    )


# malformed schedules, each with the exact exception type and message
GARBAGE = [
    ([42], TypeError, "schedule item 42 is not a path or tuple"),
    ([[True, 1]], TypeError, "schedule item [True, 1] is not a path or tuple"),
    ([([0, 1], 1, 1, 1)], TypeError,
     "tuple schedule items must be (path, release[, service])"),
    ([[]], ValueError, "packet path must contain at least one node"),
    ([((), 1)], ValueError, "packet path must contain at least one node"),
    ([([0, 1], 0)], ValueError, "release step must be >= 1"),
    ([([0, 1], 1, 0)], ValueError, "service time must be >= 1"),
    ([np.array([0, 1])], TypeError,
     "schedule item array([0, 1]) is not a path or tuple"),
    # items are validated as they are read: the first bad one raises
    ([[0, 1], ([0, 1], 0), ([0, 1], 1, 0)], ValueError,
     "release step must be >= 1"),
]


class TestNormalizeSchedule:
    def test_all_item_shapes(self):
        cols = normalize_schedule(
            [
                [0, 1, 3],
                ([0, 1], 5),
                ((0, 4), 2, 3),
                SimRequest((7, 6), release_step=9),
            ]
        )
        assert isinstance(cols, ScheduleColumns)
        assert len(cols) == 4
        assert _columns(cols) == (
            [(0, 1, 3), (0, 1), (0, 4), (7, 6)],
            [1, 5, 2, 9],
            [1, 1, 3, 1],
            np.int64,
            np.int64,
        )
        assert all(type(p) is tuple for p in cols.paths)
        empty = normalize_schedule([])
        assert len(empty) == 0
        assert _columns(empty) == ([], [], [], np.int64, np.int64)

    def test_rejects_garbage(self):
        for schedule, error, message in GARBAGE:
            with pytest.raises(error) as info:
                normalize_schedule(schedule)
            assert type(info.value) is error, schedule
            assert str(info.value) == message

    def test_columns_pass_through(self):
        cols = normalize_schedule([([0, 1, 3], 2), [5], ((4, 6), 1, 3)])
        assert normalize_schedule(cols) is cols
        assert cols.nodes.tolist() == [0, 1, 3, 5, 4, 6]
        assert cols.offsets.tolist() == [0, 3, 4, 6]
        assert cols.paths == [(0, 1, 3), (5,), (4, 6)]
        assert len(cols) == 3

    def test_rejects_garbage_columns(self):
        # each malformed tuple schedule whose error is a ValueError,
        # rebuilt as columns, raises the same message
        for schedule, error, message in GARBAGE:
            if error is not ValueError:
                continue
            packets = []
            for item in schedule:
                if type(item) is list:  # a bare path
                    item = (item,)
                packets.append((*item, 1, 1)[:3])
            lengths = [len(path) for path, _, _ in packets]
            cols = ScheduleColumns(
                np.array([v for path, _, _ in packets for v in path], dtype=np.int64),
                np.cumsum([0] + lengths, dtype=np.int64),
                np.array([r for _, r, _ in packets], dtype=np.int64),
                np.array([s for _, _, s in packets], dtype=np.int64),
            )
            with pytest.raises(ValueError) as info:
                normalize_schedule(cols)
            assert str(info.value) == message, schedule

    def test_columns_must_agree_on_the_packet_count(self):
        good = normalize_schedule([[0, 1], [1, 3]])
        for bad in (
            ScheduleColumns(good.nodes, good.offsets, good.release[:1], good.service),
            ScheduleColumns(good.nodes[:3], good.offsets, good.release, good.service),
            ScheduleColumns(good.nodes, good.offsets + 1, good.release, good.service),
        ):
            with pytest.raises(ValueError, match="disagree on the packet count"):
                normalize_schedule(bad)

    def test_range_path_normalizes_like_a_tuple(self):
        for item, equal in [
            (range(0, 3), (0, 1, 2)),
            ((range(4, 6), 2), ((4, 5), 2)),
            ((range(4, 6), 2, 3), ((4, 5), 2, 3)),
        ]:
            assert _columns(normalize_schedule([item])) == _columns(
                normalize_schedule([equal])
            )

    def test_request_with_a_list_path_yields_a_tuple(self):
        cols = normalize_schedule([SimRequest([0, 1, 3], 2)])
        assert cols.paths == [(0, 1, 3)]
        assert type(cols.paths[0]) is tuple
        assert cols.release.tolist() == [2]

    def test_request_validation(self):
        with pytest.raises(ValueError):
            SimRequest(())
        with pytest.raises(ValueError):
            SimRequest((0, 1), release_step=0)
        with pytest.raises(ValueError):
            SimRequest((0, 1), service_time=0)


class TestPerCallDesign:
    """The packet engines read columns; their outputs are plain ints."""

    @staticmethod
    def _schedule():
        # 512 (path, release) packets on Q_8: two per node
        return [
            item
            for u in range(256)
            for item in (((u, u ^ 1, u ^ 3), 1 + u % 3), ((u, u ^ 4), 1))
        ]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_request_objects_per_packet(self, engine, monkeypatch):
        built = []
        check = SimRequest.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(SimRequest, "__post_init__", counting)
        schedule = self._schedule()
        assert len(schedule) == 512
        res = engine(Hypercube(8)).run(schedule)
        assert res.delivered == 512
        assert built == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_packet_results_are_plain_ints(self, engine):
        res = engine(Hypercube(8)).run(self._schedule())
        assert all(type(d) is int for d in res.done_steps)
        json.dumps(res.measured())

    def test_worm_results_are_plain_ints(self):
        host = Hypercube(4)
        schedule = [((0, 1, 3, 7), 4, 1), ((1, 3, 7), 3, 2), ((8, 9), 2, 1)]
        res = BatchedWormhole(host).run(schedule)
        assert all(type(d) is int for d in res.done_steps)
        json.dumps(res.measured())
        [outcome] = BatchedWormhole(host).run_many([schedule])
        for worm in outcome.worms:
            assert all(type(c) is int for c in worm.flits_crossed)
            assert type(worm.head_link) is int
            assert type(worm.done_step) is int


class TestProtocolConformance:
    @pytest.mark.parametrize("engine, schedule_of", ALL_ENGINES)
    def test_isinstance_simulator(self, engine, schedule_of):
        assert isinstance(engine(Hypercube(3)), Simulator)

    @pytest.mark.parametrize("engine, schedule_of", ALL_ENGINES)
    def test_schedule_run_returns_simresult(self, engine, schedule_of):
        sim = engine(Hypercube(3))
        res = sim.run(schedule_of([[0, 1, 3]]))
        assert isinstance(res, SimResult)
        assert res.makespan == 2
        assert res.delivered == res.injected == 1
        assert res.done_steps == (2,)
        assert isinstance(sim.engine, str)
        assert res.engine == sim.engine == type(sim).engine

    @pytest.mark.parametrize("engine, schedule_of", ALL_ENGINES)
    def test_run_requires_a_schedule(self, engine, schedule_of):
        with pytest.raises(TypeError):
            engine(Hypercube(3)).run()

    @pytest.mark.parametrize("engine, schedule_of", ALL_ENGINES)
    def test_second_run_equals_a_fresh_run(self, engine, schedule_of):
        # no state survives a run: contended traffic, then a second
        # schedule, on one instance and on fresh ones
        host = Hypercube(3)
        first = schedule_of([[0, 1, 3], [5, 1, 3], [4, 5, 1, 3], [2, 3]])
        second = schedule_of([[4, 5, 1], [5, 1, 3]])
        sim = engine(host)
        runs = [sim.run(first), sim.run(second), sim.run(first)]
        fresh = [engine(host).run(first), engine(host).run(second)]
        assert runs == fresh + fresh[:1]
        assert runs[0] != runs[1]

    def test_engines_agree_on_contention_free_load(self):
        host = Hypercube(4)
        sched = [[u, u ^ 1, u ^ 3] for u in range(0, 16, 4)]
        results = [engine(host).run(sched) for engine in ENGINES]
        # identical fields except the engine tag (and recorder, not compared)
        a, b = results
        assert (a.makespan, a.done_steps) == (b.makespan, b.done_steps)

    @pytest.mark.parametrize("engine, schedule_of", ALL_ENGINES)
    def test_result_echoes_recorder(self, engine, schedule_of):
        rec = LinkRecorder()
        res = engine(Hypercube(3)).run(schedule_of([[0, 1]]), recorder=rec)
        assert res.recorder is rec


class TestRecording:
    @pytest.mark.parametrize("engine", RECORDING_ENGINES)
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

    @pytest.mark.parametrize("engine", RECORDING_ENGINES)
    def test_zero_hop_packets_counted_as_deliveries(self, engine):
        rec = LinkRecorder()
        res = engine(Hypercube(3)).run([[5], [2]], recorder=rec)
        assert res.makespan == 0
        assert rec.delivered == 2
        assert rec.link_congestion_counts() == {}

    @pytest.mark.parametrize("engine", RECORDING_ENGINES)
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

    @pytest.mark.parametrize(
        "worm, message",
        [
            (((0,), 2, 1), "worm path needs at least one link"),
            (((0, 1), 0, 1), "worm needs at least one flit"),
        ],
        ids=["one-node-path", "zero-flits"],
    )
    def test_wormhole_engines_reject_the_same_worms(self, worm, message):
        for engine in (WormholeSimulator, BatchedWormhole):
            with pytest.raises(ValueError) as info:
                engine(Hypercube(3)).run([((0, 1, 3), 2, 1), worm])
            assert str(info.value) == message, engine

    def test_reference_engine_supports_service_time(self):
        res = StoreForwardSimulator(Hypercube(3)).run([([0, 1, 3], 1, 4)])
        assert res.makespan == 8

    @pytest.mark.parametrize("engine", ENGINES)
    def test_max_steps_guard(self, engine):
        with pytest.raises(RuntimeError):
            engine(Hypercube(3)).run([[0, 1]], max_steps=0)
