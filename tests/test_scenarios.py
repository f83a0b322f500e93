"""Tests for repro.scenarios: generators, campaigns, sweeps, QA wiring."""

import pytest

from repro.fault.faults import FaultModel
from repro.hypercube.graph import Hypercube
from repro.routing.batched import BatchedStoreForward
from repro.routing.simulator import StoreForwardSimulator
from repro.scenarios import (
    CampaignConfig,
    build_schedule,
    get_scenario,
    run_campaign,
    saturation_sweep,
    scenario_names,
    scenario_subject,
    schedule_digest,
)

HOST = Hypercube(6)


class TestRegistry:
    def test_builtin_generators_registered(self):
        names = scenario_names()
        assert len(names) >= 7
        for expected in (
            "bit-reversal", "transpose", "shuffle", "tornado",
            "hot-spot", "many-to-one", "poisson",
        ):
            assert expected in names

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")
        with pytest.raises(KeyError):
            build_schedule("nope", HOST)

    def test_invalid_knobs(self):
        with pytest.raises(ValueError):
            build_schedule("poisson", HOST, load=-1)
        with pytest.raises(ValueError):
            build_schedule("poisson", HOST, horizon=0)

    def test_defaults_overridable(self):
        sched = build_schedule(
            "many-to-one", HOST, load=1.0, horizon=2, seed=1, sink=5
        )
        assert sched and all(path[-1] == 5 for path, _ in sched)


class TestDeterminism:
    @pytest.mark.parametrize("name", scenario_names())
    def test_same_seed_same_schedule(self, name):
        a = build_schedule(name, HOST, load=0.7, horizon=4, seed="d1")
        b = build_schedule(name, HOST, load=0.7, horizon=4, seed="d1")
        assert schedule_digest(a) == schedule_digest(b)
        assert a == b

    def test_different_seeds_differ(self):
        a = build_schedule("poisson", HOST, load=1.0, horizon=4, seed="a")
        b = build_schedule("poisson", HOST, load=1.0, horizon=4, seed="b")
        assert schedule_digest(a) != schedule_digest(b)


class TestSubject:
    @pytest.mark.parametrize("name", scenario_names())
    def test_verifies(self, name):
        subject = scenario_subject(name, 6, load=0.5, horizon=3, seed=2)
        report = subject.verify(strict=False)
        assert report.ok
        assert report.metrics["packets"] == len(subject.schedule)

    def test_relabel_dispatch(self):
        from repro._compat import resolve_rng
        from repro.hypercube.automorphisms import (
            HypercubeAutomorphism,
            relabel_embedding,
        )

        subject = scenario_subject("bit-reversal", 5, horizon=2, seed=3)
        auto = HypercubeAutomorphism.random(5, resolve_rng(9))
        image = relabel_embedding(subject, auto)
        assert image.verify(strict=False).ok
        base, img = subject.verify(strict=False), image.verify(strict=False)
        assert base.metrics == img.metrics


class TestEngineDifferential:
    @pytest.mark.parametrize("name", scenario_names())
    def test_engines_agree_clean(self, name):
        sched = build_schedule(name, HOST, load=0.5, horizon=4, seed=5)
        ref = StoreForwardSimulator(HOST, tie_break="priority").run(sched)
        fast = BatchedStoreForward(HOST).run(sched)
        assert ref.measured() == fast.measured()
        assert ref.done_steps == fast.done_steps

    @pytest.mark.parametrize("name", scenario_names())
    def test_engines_agree_under_faults(self, name):
        sched = build_schedule(name, HOST, load=0.5, horizon=4, seed=5)
        faults = FaultModel.random_links(HOST, 5, seed=f"f:{name}")
        faults = faults.merged(
            FaultModel.random_nodes(HOST, 2, seed=f"g:{name}")
        )
        faults.active_from = 3
        ref = StoreForwardSimulator(HOST, tie_break="priority").run(
            sched, faults=faults
        )
        fast = BatchedStoreForward(HOST).run(sched, faults=faults)
        assert ref.measured() == fast.measured()
        assert ref.done_steps == fast.done_steps


class TestCampaign:
    def test_no_kills_delivers_everything(self):
        rep = run_campaign(
            CampaignConfig(n=5, kill_links=0, fault_prob=0.0, seed=1)
        )
        assert rep.single.delivered_fraction == 1.0
        assert rep.ida.delivered_fraction == 1.0
        assert rep.reconstructions == rep.reconstruction_checks > 0

    def test_every_delivered_payload_is_reconstructed(self):
        rep = run_campaign(
            CampaignConfig(n=6, load=2.0, kill_links=6, seed=2)
        )
        assert rep.ida.delivered_messages > 64
        assert rep.reconstruction_checks == rep.ida.delivered_messages
        assert rep.reconstructions == rep.reconstruction_checks

    def test_ida_failover_beats_single(self):
        rep = run_campaign(
            CampaignConfig(n=8, kill_links=4, kill_step=0, seed=0)
        )
        assert rep.ida.delivered_fraction >= 0.99
        assert rep.single.delivered_fraction < rep.ida.delivered_fraction
        assert rep.failover_gain > 0
        assert rep.killed_links == 4

    def test_deterministic(self):
        a = run_campaign(CampaignConfig(n=5, kill_links=2, seed=3))
        b = run_campaign(CampaignConfig(n=5, kill_links=2, seed=3))
        assert a.to_dict() == b.to_dict()

    def test_engines_agree(self):
        fast = run_campaign(
            CampaignConfig(n=5, kill_links=3, kill_step=2, seed=4)
        )
        ref = run_campaign(
            CampaignConfig(
                n=5, kill_links=3, kill_step=2, seed=4, engine="reference"
            )
        )
        assert fast.single.to_dict() == ref.single.to_dict()
        assert fast.ida.delivered_messages == ref.ida.delivered_messages

    def test_node_kills(self):
        rep = run_campaign(
            CampaignConfig(n=5, kill_nodes=2, kill_step=0, seed=6)
        )
        assert rep.killed_nodes == 2
        # messages whose endpoint died can never deliver, in either arm
        assert rep.single.delivered_fraction < 1.0

    def test_report_shapes(self):
        rep = run_campaign(CampaignConfig(n=4, kill_links=1, seed=0))
        d = rep.to_dict()
        assert d["single"]["label"] == "single-path"
        assert d["ida"]["label"] == "ida-failover"
        text = rep.format()
        assert "delivered" in text and "campaign:" in text

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            CampaignConfig(n=4, engine="warp")
        with pytest.raises(ValueError):
            CampaignConfig(n=4, kill_links=-1)


class TestSaturationSweep:
    def test_rows_and_metrics(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        rows = saturation_sweep(
            "poisson", 5, [0.25, 1.0], horizon=8, seed=1, metrics=metrics
        )
        assert [r["load"] for r in rows] == [0.25, 1.0]
        for row in rows:
            assert row["scenario"] == "poisson"
            assert 0 <= row["accepted"] <= row["offered"] + 1e-9
            assert row["latency_p99"] >= row["latency_p50"] >= 0
        # congestion grows with offered load
        assert rows[1]["congestion"] >= rows[0]["congestion"]
        snap = metrics.snapshot()
        assert any("scenarios.packets" in k for k in snap["counters"])

    def test_engine_choice_validated(self):
        with pytest.raises(ValueError):
            saturation_sweep("poisson", 4, [0.5], engine="warp")

    @pytest.mark.parametrize("name", scenario_names())
    def test_engines_give_identical_rows(self, name):
        # the batched sweep runs the generator's columns; the reference
        # sweep runs their path tuples one load at a time
        kwargs = dict(horizon=6, seed=2)
        fast = saturation_sweep(name, 5, [0.2, 0.9, 1.7], **kwargs)
        ref = saturation_sweep(
            name, 5, [0.2, 0.9, 1.7], engine="reference", **kwargs
        )
        assert repr(fast) == repr(ref)


class TestQAWiring:
    def test_scenario_kinds_in_fuzz_space(self):
        from repro.qa.constructions import default_space

        kinds = default_space().kinds()
        for name in scenario_names():
            assert f"scenario:{name}" in kinds

    @pytest.mark.parametrize("name", scenario_names())
    def test_fuzz_point_passes_all_stages(self, name):
        import repro.qa.oracles  # noqa: F401  (arms the oracles)
        from repro.qa.fuzzer import Fuzzer

        fz = Fuzzer(seed=7, images=2, max_packets=40)
        params = {"n": 4, "load": 0.5, "horizon": 3, "scenario_seed": 99}
        failure = fz.check_point(f"scenario:{name}", params, f"pt:{name}")
        assert failure is None, failure

    def test_oracle_catches_pattern_break(self):
        import repro.qa.oracles  # noqa: F401
        from repro.core.verification import run_oracles

        subject = scenario_subject("many-to-one", 4, horizon=2, seed=1)
        params = dict(subject.params, scenario_seed=1)
        # corrupt one destination: the incast oracle must notice
        path, release = subject.schedule[0]
        broken = (path[:-1] + (path[-1] ^ 1,), release)
        subject.schedule[0] = broken
        subject.edge_paths[0] = broken[0]
        checks = run_oracles("scenario:many-to-one", subject, params)
        assert any(not c.passed for c in checks)


class TestScenarioCLI:
    @pytest.mark.parametrize(
        "argv",
        [
            ["scenarios", "ls"],
            ["scenarios", "run", "tornado", "--n", "5", "--load", "0.5"],
            ["scenarios", "campaign", "--n", "5", "--kill-links", "2"],
            ["scenarios", "campaign", "--n", "5", "--kill-links", "2",
             "--kill-step", "auto", "--json"],
            ["scenarios", "sweep", "poisson", "--n", "4",
             "--loads", "0.25,0.5", "--horizon", "4"],
            ["scenarios", "smoke", "--n", "4"],
        ],
    )
    def test_exits_zero(self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 0
        assert capsys.readouterr().out

    def test_faults_new_flags(self, capsys):
        from repro.cli import main

        assert main(
            ["faults", "--n", "5", "--kill-links", "3", "--seed", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "ida-failover" in out and "single-path" in out
