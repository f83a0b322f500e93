"""Golden outputs of the traffic generators, sweeps and campaigns.

These values pin the generators' random draws and the schedules, sweep
rows and campaign reports that follow from them, down to each value's
Python type: however traffic is drawn, routed or stored, the same seed
must give these outputs.
"""

import hashlib

import pytest

from repro.hypercube.graph import Hypercube
from repro.scenarios import (
    CampaignConfig,
    build_schedule,
    run_campaign,
    saturation_sweep,
    scenario_names,
    schedule_digest,
)

NS = (1, 4, 7)  # Q_1 has empty transpose and shuffle, all-self tornado
LOADS = (0, 0.35, 1.0, 2.6)
HORIZONS = (1, 5)

# (scenario, n) -> hash of the schedule digest and packet count at every
# (load, horizon) point, seeded "golden:<scenario>"
GOLDEN_DIGESTS = {
    ("bit-reversal", 1): "4d5ac78d45e7e6ad",
    ("bit-reversal", 4): "faa8b99bf4162f9c",
    ("bit-reversal", 7): "f74dbc29595bccfe",
    ("hot-spot", 1): "9e8aed1bfa6b0d50",
    ("hot-spot", 4): "ab185ccac18c09d6",
    ("hot-spot", 7): "d4836357f209ed3e",
    ("many-to-one", 1): "f4ac1c9ca18502b5",
    ("many-to-one", 4): "3fc7b9b57392366f",
    ("many-to-one", 7): "da47e2f4327503e2",
    ("permutation", 1): "77c3ec4758d854c3",
    ("permutation", 4): "0c08dcadddddecbe",
    ("permutation", 7): "db51d099b9c0a473",
    ("poisson", 1): "3dc891603863ce79",
    ("poisson", 4): "004e4e4c6985584c",
    ("poisson", 7): "daf12da1cfe903f6",
    ("shuffle", 1): "4d5ac78d45e7e6ad",
    ("shuffle", 4): "db8159c3f39d06bb",
    ("shuffle", 7): "aa6613e7940677ef",
    ("tornado", 1): "4d5ac78d45e7e6ad",
    ("tornado", 4): "0d90c454dce5e2b6",
    ("tornado", 7): "cc21ec0c3ab30e66",
    ("transpose", 1): "4d5ac78d45e7e6ad",
    ("transpose", 4): "5242ec1eaf934488",
    ("transpose", 7): "111fc5b9f7a6b91b",
}

# one non-default pattern parameter each, on Q_4 at load 1.0, horizon 5:
# (scenario, overrides, schedule digest, packets)
GOLDEN_OVERRIDES = [
    ("hot-spot", {"hot": 5, "hot_fraction": 0.6}, "6a564dc03b33185d", 74),
    ("many-to-one", {"sink": 3}, "297986676460944f", 75),
]


def _row(scenario, load, offered, accepted, packets, makespan, p50, p99,
         congestion):
    return {
        "scenario": scenario, "load": load, "offered": offered,
        "accepted": accepted, "packets": packets, "delivered": packets,
        "makespan": makespan, "latency_p50": p50, "latency_p99": p99,
        "congestion": congestion,
    }


# the sim-lanes benchmark's four sweeps at Q_6, loads (0.3, 1.1), horizon
# 8, seed 3: identical on both engines
GOLDEN_SWEEP_ROWS = [
    _row("transpose", 0.3, 0.2578, 0.1146, 132, 18, 4.0, 10.0, 15),
    _row("transpose", 1.1, 0.9707, 0.1941, 497, 40, 13.0, 31.0, 39),
    _row("hot-spot", 0.3, 0.334, 0.1028, 171, 26, 2.0, 16.0, 24),
    _row("hot-spot", 1.1, 1.0977, 0.1187, 562, 74, 3.0, 60.0, 73),
    _row("bit-reversal", 0.3, 0.2734, 0.1094, 140, 20, 3.0, 11.0, 17),
    _row("bit-reversal", 1.1, 0.9629, 0.1879, 493, 41, 9.0, 30.0, 38),
    _row("tornado", 0.3, 0.2773, 0.1707, 142, 13, 1.0, 5.0, 5),
    _row("tornado", 1.1, 1.1074, 0.6328, 567, 14, 2.0, 6.0, 11),
]


def _arm(label, messages, delivered_messages, fraction, packets,
         delivered_packets, clean, faulty, degradation):
    return {
        "label": label, "messages": messages,
        "delivered_messages": delivered_messages,
        "delivered_fraction": fraction, "packets": packets,
        "delivered_packets": delivered_packets, "clean_makespan": clean,
        "faulty_makespan": faulty, "makespan_degradation": degradation,
    }


def _golden_campaign(engine):
    return {
        "scenario": "hot-spot", "n": 5, "messages": 323, "killed_links": 3,
        "killed_nodes": 1, "kill_step": 4, "width": 5, "pieces_needed": 3,
        "seed": 11, "engine": engine,
        "single": _arm("single-path", 323, 285, 0.8824, 323, 285, 50, 50, 1.0),
        "ida": _arm("ida-failover", 323, 299, 0.9257, 1615, 1314, 114, 110,
                    0.965),
        "failover_gain": 0.0433, "reconstructions": 299,
        "reconstruction_checks": 299, "degraded_endpoints": 23,
    }


class TestGoldenSchedules:
    @pytest.mark.parametrize("name", scenario_names())
    def test_generator_digests(self, name):
        for n in NS:
            h = hashlib.sha256()
            for load in LOADS:
                for horizon in HORIZONS:
                    sched = build_schedule(
                        name, Hypercube(n), load=load, horizon=horizon,
                        seed=f"golden:{name}",
                    )
                    h.update(
                        f"{load}/{horizon}={schedule_digest(sched)}/"
                        f"{len(sched)};".encode()
                    )
            assert h.hexdigest()[:16] == GOLDEN_DIGESTS[(name, n)], (name, n)

    @pytest.mark.parametrize(
        "name, overrides, digest, packets", GOLDEN_OVERRIDES
    )
    def test_parameter_overrides(self, name, overrides, digest, packets):
        sched = build_schedule(
            name, Hypercube(4), load=1.0, horizon=5, seed=f"golden:{name}",
            **overrides,
        )
        assert (schedule_digest(sched), len(sched)) == (digest, packets)

    def test_schedule_shape(self):
        # the benchmark's oracles and per-call set-up iterate these pairs
        sched = build_schedule("tornado", Hypercube(4), load=1.0, horizon=2)
        assert type(sched) is list and sched
        for path, release in sched:
            assert type(path) is tuple and type(release) is int
            assert all(type(v) is int for v in path)


class TestGoldenSweeps:
    @pytest.mark.parametrize("engine", ["batched", "reference"])
    def test_sim_lanes_rows(self, engine):
        rows = []
        for scenario in ("transpose", "hot-spot", "bit-reversal", "tornado"):
            rows += saturation_sweep(
                scenario, 6, (0.3, 1.1), horizon=8, seed=3, engine=engine
            )
        # repr, not ==: a numpy scalar equals its int but changes the
        # digest the benchmark takes of repr(rows)
        assert repr(rows) == repr(GOLDEN_SWEEP_ROWS)


class TestGoldenCampaign:
    @pytest.mark.parametrize("engine", ["batched", "reference"])
    def test_report(self, engine):
        rep = run_campaign(
            CampaignConfig(
                n=5, scenario="hot-spot", load=1.3, kill_links=3,
                kill_nodes=1, kill_step=4, seed=11, engine=engine,
            )
        )
        assert repr(rep.to_dict()) == repr(_golden_campaign(engine))
