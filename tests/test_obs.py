"""Tests for the repro.obs instrumentation subsystem."""

import json

import numpy as np
import pytest

from repro.hypercube.graph import Hypercube
from repro.obs import (
    NULL_RECORDER,
    LinkRecorder,
    MetricsRegistry,
    NullRecorder,
    Tracer,
    collect_snapshot,
    disable_profiling,
    enable_profiling,
    profile_span,
    profiling_enabled,
    snapshot_to_csv,
    snapshot_to_json,
)
from repro.obs.metrics import Histogram


class TestMetricsRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        reg.counter("builds").inc()
        reg.counter("builds").inc(2)
        assert reg.counter("builds").value == 3

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x").inc(-1)

    def test_labeled_series_are_independent(self):
        reg = MetricsRegistry()
        reg.counter("builds", kind="cycle").inc()
        reg.counter("builds", kind="tree").inc(5)
        snap = reg.snapshot()
        assert snap["counters"]["builds{kind=cycle}"] == 1
        assert snap["counters"]["builds{kind=tree}"] == 5

    def test_gauges(self):
        reg = MetricsRegistry()
        reg.gauge("width").set(4)
        reg.gauge("width").add(1)
        assert reg.snapshot()["gauges"]["width"] == 5

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("hops")
        for v in (1, 2, 3, 5):
            h.observe(v)
        s = reg.snapshot()["histograms"]["hops"]
        assert s["count"] == 4
        assert s["total"] == 11
        assert s["min"] == 1 and s["max"] == 5
        # power-of-two buckets: 1 -> 1.0, 2 -> 2.0, 3 -> 4.0, 5 -> 8.0
        assert s["buckets"] == {"1.0": 1, "2.0": 1, "4.0": 1, "8.0": 1}

    def test_bucket_of(self):
        assert Histogram.bucket_of(0) == 0.0
        assert Histogram.bucket_of(0.3) == 0.5
        assert Histogram.bucket_of(1) == 1.0
        assert Histogram.bucket_of(1024) == 1024.0
        assert Histogram.bucket_of(1025) == 2048.0

    def test_legacy_sugar_and_timers_view(self):
        reg = MetricsRegistry()
        reg.incr("hits")
        assert reg.count("hits") == 1
        assert reg.count("absent") == 0
        with reg.time("build"):
            pass
        reg.histogram("hops").observe(3)  # unitless: not a timer
        snap = reg.snapshot()
        assert snap["timers"]["build"]["count"] == 1
        assert "hops" not in snap["timers"]
        assert "hops" in snap["histograms"]

    def test_reset(self):
        reg = MetricsRegistry()
        reg.incr("x")
        reg.reset()
        assert reg.snapshot()["counters"] == {}


class TestLinkRecorder:
    def test_scalar_hooks(self):
        rec = LinkRecorder()
        rec.on_transmit(7, 1)
        rec.on_transmit(7, 2)
        rec.on_transmit(9, 1, service_time=4)
        rec.on_deliver(2)
        rec.on_deliver(5, count=2)
        rec.on_queue_depth(7, 3)
        rec.on_queue_depth(7, 1)  # lower: peak unchanged
        assert rec.link_congestion_counts() == {7: 2, 9: 1}
        assert rec.link_busy_steps[9] == 4
        assert rec.congestion == 2
        assert rec.delivered == 3
        assert rec.makespan == 5
        assert rec.queue_peak[7] == 3
        assert rec.step_histogram() == {2: 1, 5: 2}
        assert rec.busiest_links(1) == [(7, 2)]

    def test_bulk_hooks_match_scalar(self):
        bulk, scalar = LinkRecorder(), LinkRecorder()
        bulk.add_link_counts([3, 8], [2, 1])
        bulk.add_deliveries([1, 1, 4])
        for _ in range(2):
            scalar.on_transmit(3, 1)
        scalar.on_transmit(8, 1)
        scalar.on_deliver(1, 2)
        scalar.on_deliver(4)
        assert bulk.link_congestion_counts() == scalar.link_congestion_counts()
        assert bulk.step_histogram() == scalar.step_histogram()

    def test_deliveries_from_int_array_match_list(self):
        steps = [4, 1, 1, 7, 4, 4, 0]
        listed, arrayed = LinkRecorder(), LinkRecorder()
        for rec, first, second in (
            (listed, steps[:3], steps[3:]),
            (arrayed, np.array(steps[:3], dtype=np.int64), np.array(steps[3:], dtype=np.int64)),
        ):
            rec.add_deliveries(first)  # into an empty counter, then merged
            rec.add_deliveries(second)
        assert arrayed.deliveries == listed.deliveries == {0: 1, 1: 2, 4: 3, 7: 1}
        assert all(type(k) is int and type(c) is int for k, c in arrayed.deliveries.items())
        assert arrayed.snapshot() == listed.snapshot()

    @pytest.mark.parametrize(
        "eids, counts",
        [
            ([3, 8, 5], [2, 1, 4]),  # distinct links
            ([3, 8, 3, 3], [2, 1, 4, 1]),  # a repeated link adds up
            ([3, 9], [0, 2]),  # a zero count still creates its key
            (np.array([3, 8, 5]), np.array([2, 1, 4])),
            (np.array([3, 8, 3], dtype=np.int32), np.array([0, 1, 4])),
        ],
    )
    @pytest.mark.parametrize("fresh", [True, False])
    def test_add_link_counts_is_the_per_pair_merge(self, eids, counts, fresh):
        bulk, loop = LinkRecorder(), LinkRecorder()
        if not fresh:
            for rec in (bulk, loop):
                rec.on_transmit(3, 1)
                rec.on_transmit(7, 1, service_time=2)
        bulk.add_link_counts(eids, counts)
        for eid, c in zip(eids, counts):
            loop.link_transmissions[int(eid)] += int(c)
            loop.link_busy_steps[int(eid)] += int(c)
        for got, want in (
            (bulk.link_transmissions, loop.link_transmissions),
            (bulk.link_busy_steps, loop.link_busy_steps),
        ):
            assert dict(got) == dict(want)
            assert all(type(k) is int and type(v) is int for k, v in got.items())

    def test_snapshot_decodes_edges_with_host(self):
        host = Hypercube(3)
        rec = LinkRecorder(host=host)
        eid = host.edge_id(0, 1)
        rec.on_transmit(eid, 1)
        rec.on_deliver(1)
        snap = rec.snapshot()
        assert snap["links"][str(eid)]["edge"] == [0, 1]
        assert snap["congestion"] == 1

    def test_reset(self):
        rec = LinkRecorder()
        rec.on_transmit(1, 1)
        rec.reset()
        assert rec.congestion == 0 and rec.delivered == 0

    def test_null_recorder_is_falsy(self):
        assert not NULL_RECORDER
        assert not NullRecorder()
        assert NULL_RECORDER.enabled is False
        # all hooks exist and do nothing
        NULL_RECORDER.on_transmit(1, 1)
        NULL_RECORDER.on_deliver(1)
        NULL_RECORDER.on_queue_depth(1, 1)
        NULL_RECORDER.add_link_counts([1], [1])
        NULL_RECORDER.add_deliveries([1])


class TestTracer:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("outer", kind="x"):
            with tracer.span("inner"):
                pass
        tree = tracer.to_dict()["spans"]
        assert len(tree) == 1
        assert tree[0]["name"] == "outer"
        assert tree[0]["attrs"] == {"kind": "x"}
        assert tree[0]["children"][0]["name"] == "inner"
        text = tracer.format_tree()
        assert "outer kind=x" in text
        assert "\n  inner" in text

    def test_siblings_become_two_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s["name"] for s in tracer.to_dict()["spans"]] == ["a", "b"]

    def test_reset(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.to_dict()["spans"] == []


class TestProfiling:
    def teardown_method(self):
        disable_profiling()

    def test_disabled_is_shared_noop(self):
        disable_profiling()
        assert not profiling_enabled()
        c1 = profile_span("anything")
        c2 = profile_span("else")
        assert c1 is c2  # one shared null context, no allocation
        with c1:
            pass

    def test_enabled_records_span_and_timer(self):
        reg = MetricsRegistry()
        tracer = Tracer()
        enable_profiling(reg, tracer)
        with profile_span("hot", kind="t"):
            pass
        assert reg.snapshot()["timers"]["hot"]["count"] == 1
        spans = tracer.to_dict()["spans"]
        assert spans and spans[-1]["name"] == "hot"


class TestExport:
    def _sample(self):
        host = Hypercube(3)
        reg = MetricsRegistry()
        reg.incr("builds")
        rec = LinkRecorder(host=host)
        rec.on_transmit(host.edge_id(0, 1), 1)
        rec.on_deliver(1)
        return reg, rec

    def test_collect_and_json_roundtrip(self):
        reg, rec = self._sample()
        snap = collect_snapshot(registry=reg, recorder=rec, meta={"n": 3})
        doc = json.loads(snapshot_to_json(snap))
        assert doc["meta"]["n"] == 3
        assert doc["metrics"]["counters"]["builds"] == 1
        assert doc["links"]["congestion"] == 1
        assert doc["links"]["step_histogram"] == {"1": 1}

    def test_disabled_recorder_is_omitted(self):
        snap = collect_snapshot(recorder=NULL_RECORDER, meta={"n": 1})
        assert "links" not in snap

    def test_csv_rows(self):
        reg, rec = self._sample()
        snap = collect_snapshot(registry=reg, recorder=rec, meta={"n": 3})
        lines = snapshot_to_csv(snap).splitlines()
        assert lines[0] == "section,series,field,value"
        assert "meta,n,,3" in lines
        assert "counters,builds,,1" in lines
        assert "links,congestion,,1" in lines
        assert any(line.startswith("step_histogram,1,arrivals,") for line in lines)
        # per-link rows decode the edge endpoints
        assert any(",edge,0->1" in line for line in lines)
