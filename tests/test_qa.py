"""Tests for the repro.qa fuzzing/metamorphic/differential harness."""

import json
import random
import re

import pytest

from repro._compat import resolve_rng
from repro.cli import main
from repro.core import embed_cycle_load1
from repro.core.verification import oracles_for, register_oracle, run_oracles
from repro.hypercube.graph import Hypercube
from repro.qa import (
    ConstructionSpace,
    Corpus,
    CorpusEntry,
    FuzzConstruction,
    Fuzzer,
    default_space,
    map_schedule,
    metamorphic_check,
    random_schedule,
    schedule_from_jsonable,
    schedule_to_jsonable,
    shrink_schedule,
)
from repro.qa.differential import (
    batched_differential_check,
    batched_wormhole_differential_check,
)

# one representative small parameter point per construction kind
SMALL_POINTS = [
    ("cycle", {"n": 4}),
    ("cycle2", {"n": 4, "wide": True}),
    ("grid", {"dims": [4, 4], "torus": True}),
    ("ccc", {"n": 2}),
    ("tree", {"m": 2}),
    ("large-cycle", {"n": 2}),
    ("graycode", {"n": 3}),
    ("cycle-multicopy", {"n": 3}),
    ("butterfly-multicopy", {"m": 2, "undirected": True}),
    ("butterfly-multipath", {"m": 2}),
    ("grid-multicopy", {"dims": [4]}),
    ("cbt-multicopy", {"m": 2}),
    ("arbitrary-tree", {"vertices": 9, "tree_seed": 5, "m": 2}),
    ("cross-product", {"m": 2}),
]


class TestConstructionSpace:
    def test_default_space_covers_every_builder(self):
        kinds = default_space().kinds()
        assert len(kinds) >= 14
        assert set(k for k, _ in SMALL_POINTS) <= set(kinds)

    def test_samples_build_and_verify(self):
        space = default_space()
        rng = random.Random(11)
        for construction in space:
            params = construction.sample(rng)
            emb = construction.build(params)
            assert emb.verify(strict=False).ok, (construction.kind, params)

    def test_params_json_round_trip(self):
        space = default_space()
        rng = random.Random(3)
        for construction in space:
            params = construction.sample(rng)
            assert json.loads(json.dumps(params)) == params

    def test_shrink_proposes_valid_points(self):
        space = default_space()
        rng = random.Random(7)
        for construction in space:
            params = construction.sample(rng)
            for candidate in construction.shrink(params):
                construction.build(candidate).verify(strict=True)

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            default_space().get("no-such-kind")

    def test_duplicate_kind_rejected(self):
        c = default_space().get("cycle")
        with pytest.raises(ValueError):
            ConstructionSpace([c, c])


class TestOracleRegistry:
    def test_every_kind_with_claims_has_oracles(self):
        import repro.qa.oracles  # noqa: F401 - registration side effect

        for kind in ("cycle", "cycle2", "grid", "ccc", "graycode",
                     "cycle-multicopy", "large-cycle"):
            assert oracles_for(kind), kind

    def test_registration_is_idempotent(self):
        from repro.qa.oracles import theorem1_oracle

        before = len(oracles_for("cycle"))
        register_oracle("cycle")(theorem1_oracle)
        assert len(oracles_for("cycle")) == before

    def test_oracle_exception_becomes_failed_check(self):
        @register_oracle("qa-test-crashing")
        def crashing(subject, params):
            raise RuntimeError("boom")

        checks = run_oracles("qa-test-crashing", object(), {})
        assert len(checks) == 1 and not checks[0].passed
        assert "boom" in checks[0].detail

    def test_small_points_pass_their_oracles(self):
        space = default_space()
        for kind, params in SMALL_POINTS:
            emb = space.get(kind).build(dict(params))
            for check in run_oracles(kind, emb, dict(params)):
                assert check.passed, (kind, check.name, check.detail)


class TestMetamorphic:
    @pytest.mark.parametrize("kind,params", SMALL_POINTS)
    def test_eight_images_per_kind(self, kind, params):
        emb = default_space().get(kind).build(dict(params))
        checks = metamorphic_check(emb, random.Random(f"meta:{kind}"), images=8)
        assert len(checks) >= 8
        for check in checks:
            assert check.passed, (kind, check.name, check.detail)

    def test_map_schedule_preserves_structure(self):
        from repro.hypercube.automorphisms import HypercubeAutomorphism

        host = Hypercube(4)
        rng = random.Random(5)
        schedule = random_schedule(host, rng, max_packets=10)
        auto = HypercubeAutomorphism.random(4, rng)
        mapped = map_schedule(schedule, auto)
        assert len(mapped) == len(schedule)
        for (path, rel), (mpath, mrel) in zip(schedule, mapped):
            assert mrel == rel and len(mpath) == len(path)
            for a, b in zip(mpath, mpath[1:]):
                assert host.is_edge(a, b)


class TestDifferential:
    def test_fifty_random_schedules_agree(self):
        # tier-1 differential smoke: the reference engine (priority
        # tie-break) and the vectorized engine must agree field-for-field,
        # recorder snapshot included, on each schedule as a one-lane batch
        host = Hypercube(6)
        for i in range(50):
            rng = random.Random(f"diff-smoke:{i}")
            schedule = random_schedule(host, rng, max_packets=40)
            assert batched_differential_check(host, [schedule]) is None, (
                i, schedule,
            )

    def test_differential_check_passes_clean(self):
        host = Hypercube(5)
        schedule = random_schedule(host, random.Random(1), max_packets=30)
        assert batched_differential_check(host, [schedule]) is None

    def test_shrink_schedule_proposals(self):
        schedule = [((0, 1), 2), ((0, 2), 1), ((1, 3), 3), ((2, 3), 1)]
        candidates = list(shrink_schedule(schedule))
        assert [len(c) for c in candidates[:2]] == [2, 2]  # halves first
        assert sum(1 for c in candidates if len(c) == 3) == 4
        assert candidates[-1] == [(p, 1) for p, _ in schedule]

    def test_schedule_json_round_trip(self):
        schedule = [((0, 1, 3), 2), ((4,), 1)]
        data = schedule_to_jsonable(schedule)
        assert json.loads(json.dumps(data)) == data
        assert schedule_from_jsonable(data) == schedule


class TestColdStartDifferential:
    def test_clean_embedding_passes(self):
        from repro.qa import cold_start_differential

        checks = cold_start_differential(embed_cycle_load1(6), random.Random(0))
        names = [c.name for c in checks]
        assert "diff:coldstart:fields" in names
        assert "diff:coldstart:edges" in names
        assert "diff:coldstart:routing" in names
        assert all(c.passed for c in checks), [
            (c.name, c.detail) for c in checks
        ]

    def test_non_embedding_contributes_nothing(self):
        from repro.qa import cold_start_differential

        assert cold_start_differential(object(), random.Random(0)) == []

    def test_stage_is_wired_into_fuzzer(self, tmp_path):
        report = Fuzzer(
            corpus=Corpus(str(tmp_path)), seed=5,
            checks=("build", "cold_start_differential"),
        ).run(seeds=4)
        assert report.ok, report.failures
        assert report.points == 4


def _flip_last_piece_byte(message, w, m):
    """A broken dispersal: the last piece's last byte is off by one bit."""
    from repro.fault.ida import disperse

    pieces = disperse(message, w, m)
    idx, data = pieces[-1]
    pieces[-1] = (idx, data[:-1] + bytes([data[-1] ^ 1]))
    return pieces


class TestIdaDifferential:
    def test_clean_kernels_pass(self):
        from repro.qa import ida_differential

        checks = ida_differential(embed_cycle_load1(4), random.Random(0))
        assert [c.name for c in checks] == ["diff:ida"]
        assert checks[0].passed, checks[0].detail

    def test_corrupted_piece_is_caught(self, monkeypatch):
        import repro.qa.differential as differential

        monkeypatch.setattr(differential, "disperse", _flip_last_piece_byte)
        checks = differential.ida_differential(None, random.Random(0))
        failed = [c.name for c in checks if not c.passed]
        assert "diff:ida" in failed
        assert any(name.startswith("diff:ida:disperse:") for name in failed)

    def test_stage_is_wired_into_fuzzer_and_replay(self, tmp_path, monkeypatch):
        import repro.qa.differential as differential

        corpus = Corpus(str(tmp_path))
        report = Fuzzer(
            corpus=corpus, seed=5, checks=("build", "ida_differential"),
        ).run(seeds=4)
        assert report.ok, report.failures
        assert report.points == 4

        monkeypatch.setattr(differential, "disperse", _flip_last_piece_byte)
        entry = CorpusEntry(
            kind="cycle", params={"n": 4}, stage="ida_differential",
            detail="broken dispersal", point_seed="5:point:0",
        )
        replayed = Fuzzer(corpus=corpus).replay(entry)
        assert replayed is not None and replayed.stage == "ida_differential"


def _drop_one_release(schedule):
    """A broken normalizer: the first packet released after step 1 is not."""
    from dataclasses import replace

    from repro.routing.api import normalize_schedule

    cols = normalize_schedule(schedule)
    release = cols.release.copy()
    late = (release != 1).nonzero()[0]
    if late.size:
        release[late[0]] = 1
    return replace(cols, release=release)


class TestScheduleDifferential:
    def test_clean_normalizer_passes(self):
        from repro.qa import schedule_differential

        for seed in range(5):
            checks = schedule_differential(
                embed_cycle_load1(4), random.Random(seed)
            )
            assert [c.name for c in checks] == ["diff:schedule"]
            assert checks[0].passed, checks[0].detail

    def test_broken_normalizer_is_caught(self, monkeypatch):
        import repro.qa.differential as differential
        from repro.routing.api import normalize_schedule

        monkeypatch.setattr(differential, "normalize_schedule", _drop_one_release)
        checks = differential.schedule_differential(
            embed_cycle_load1(4), random.Random(0)
        )
        failed = [c.name for c in checks if not c.passed]
        assert failed == [
            "diff:schedule:release", "diff:schedule:columns:release",
            "diff:schedule",
        ]

        # the malformed table referees errors too: a normalizer that words
        # its TypeErrors differently fails on exactly those items
        def reworded(schedule):
            try:
                return normalize_schedule(schedule)
            except TypeError as err:
                raise TypeError(f"bad item: {err}") from None

        monkeypatch.setattr(differential, "normalize_schedule", reworded)
        checks = differential.schedule_differential(
            embed_cycle_load1(4), random.Random(0)
        )
        failed = [c.name for c in checks if not c.passed]
        assert "diff:schedule:reject:42" in failed
        assert "diff:schedule:reject:((), 1)" not in failed
        assert failed[-1] == "diff:schedule"

    def test_stage_is_wired_into_fuzzer_and_replay(self, tmp_path, monkeypatch):
        import repro.qa.differential as differential
        from repro.qa.fuzzer import STAGES

        assert STAGES[-2:] == ("schedule_differential", "builder_differential")
        corpus = Corpus(str(tmp_path))
        report = Fuzzer(
            corpus=corpus, seed=5, checks=("build", "schedule_differential"),
        ).run(seeds=4)
        assert report.ok, report.failures
        assert report.points == 4

        monkeypatch.setattr(differential, "normalize_schedule", _drop_one_release)
        entry = CorpusEntry(
            kind="cycle", params={"n": 4}, stage="schedule_differential",
            detail="dropped release", point_seed="5:point:0",
        )
        replayed = Fuzzer(corpus=corpus).replay(entry)
        assert replayed is not None
        assert replayed.stage == "schedule_differential"


BUILDER_CHECKS = [
    "diff:builder:csr", "diff:builder:unread", "diff:builder:verify",
    "diff:builder:vertex_map", "diff:builder:edge_paths",
    "diff:builder:step_of", "diff:builder:attributes",
]


def _rebuilt(emb, **changes):
    """``emb``'s array build with some carried fields replaced."""
    from dataclasses import replace

    from repro.core.embedding import MultiPathEmbedding

    out = MultiPathEmbedding.from_arrays(
        emb.host, emb.guest, replace(emb.carried, **changes),
        name=emb.name, load_allowed=emb.load_allowed,
    )
    out.info = emb.info
    return out


class TestBuilderDifferential:
    @pytest.mark.parametrize("kind,params", [
        ("cycle", {"n": 5}),
        ("cycle2", {"n": 6, "wide": True}),
        ("grid", {"dims": [2, 8], "torus": False}),
        ("grid", {"dims": [4, 4], "torus": True}),
    ])
    def test_array_builders_agree(self, kind, params):
        from repro.qa.differential import builder_differential

        checks = builder_differential(kind, params)
        assert [c.name for c in checks] == BUILDER_CHECKS
        assert all(c.passed for c in checks), [c.detail for c in checks]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_large_cycle_agrees(self, n):
        from repro.qa.differential import builder_differential

        checks = builder_differential("large-cycle", {"n": n})
        assert [c.name for c in checks] == [
            name for name in BUILDER_CHECKS if name != "diff:builder:step_of"
        ]
        assert all(c.passed for c in checks), [c.detail for c in checks]

    def test_large_cycle_wrong_images_and_early_read_are_caught(self, monkeypatch):
        from dataclasses import replace

        import numpy as np

        import repro.core.large_copy as large_copy
        from repro.core.embedding import Embedding
        from repro.qa.differential import builder_differential

        real = large_copy.large_cycle_embedding

        def rolled(n):
            emb = real(n)
            images = np.roll(emb.carried.images, 1)
            return Embedding.from_arrays(
                emb.host, emb.guest, replace(emb.carried, images=images), name=emb.name
            )

        monkeypatch.setattr(large_copy, "large_cycle_embedding", rolled)
        failed = [c.name for c in builder_differential("large-cycle", {"n": 4}) if not c.passed]
        assert failed == ["diff:builder:verify", "diff:builder:vertex_map"]

        def eager(n):
            emb = real(n)
            assert emb.edge_paths  # builds the dicts before the export
            return emb

        monkeypatch.setattr(large_copy, "large_cycle_embedding", eager)
        failed = [c.name for c in builder_differential("large-cycle", {"n": 4}) if not c.passed]
        assert failed == ["diff:builder:unread"]

    def test_other_kinds_contribute_nothing(self):
        from repro.qa.differential import builder_differential

        assert builder_differential("ccc", {"n": 4}) == []

    def test_wrong_steps_are_caught(self, monkeypatch):
        import repro.core.cycle_multipath as cycle_multipath
        from repro.qa.differential import builder_differential

        real = cycle_multipath.embed_cycle_load1

        def late_detours(n, labeling="moment"):
            return _rebuilt(real(n, labeling), step_patterns=((1, 2, 4), (1,)))

        monkeypatch.setattr(cycle_multipath, "embed_cycle_load1", late_detours)
        failed = [c.name for c in builder_differential("cycle", {"n": 4}) if not c.passed]
        assert failed == ["diff:builder:step_of"]

    def test_early_dict_read_and_bad_layout_are_caught(self, monkeypatch):
        import repro.core.cycle_multipath as cycle_multipath
        from repro.qa.differential import builder_differential

        real = cycle_multipath.embed_cycle_load2

        def eager(n, prefer_width=False, cycle_shift=0):
            emb = real(n, prefer_width, cycle_shift)
            assert emb.step_of  # builds the dicts before the export
            return emb

        monkeypatch.setattr(cycle_multipath, "embed_cycle_load2", eager)
        failed = [c.name for c in builder_differential("cycle2", {"n": 4}) if not c.passed]
        assert failed == ["diff:builder:unread"]

        def reversed_images(n, prefer_width=False, cycle_shift=0):
            emb = real(n, prefer_width, cycle_shift)
            return _rebuilt(emb, images=emb.carried.images[::-1].copy())

        monkeypatch.setattr(cycle_multipath, "embed_cycle_load2", reversed_images)
        failed = [c.name for c in builder_differential("cycle2", {"n": 4}) if not c.passed]
        assert failed == ["diff:builder:verify", "diff:builder:vertex_map"]

    def test_stage_runs_last_and_replays(self, tmp_path, monkeypatch):
        import repro.core.cycle_multipath as cycle_multipath
        from repro.qa.fuzzer import STAGES

        assert STAGES[-1] == "builder_differential"
        corpus = Corpus(str(tmp_path))
        report = Fuzzer(
            corpus=corpus, seed=5, checks=("build", "builder_differential"),
        ).run(seeds=6, kinds=["cycle", "cycle2", "grid"])
        assert report.ok, report.failures
        assert report.points == 6

        real = cycle_multipath.embed_cycle_load1
        monkeypatch.setattr(
            cycle_multipath, "embed_cycle_load1",
            lambda n, labeling="moment": _rebuilt(
                real(n, labeling), step_patterns=((1, 2, 4), (1,))),
        )
        entry = CorpusEntry(
            kind="cycle", params={"n": 4}, stage="builder_differential",
            detail="late detour step", point_seed="5:point:0",
        )
        replayed = Fuzzer(corpus=corpus).replay(entry)
        assert replayed is not None
        assert replayed.stage == "builder_differential"


class TestWormholeDifferential:
    def test_twenty_five_schedules_agree(self):
        # tier-1 smoke: the flit-loop reference and the vectorized frontier
        # engine must agree on makespan, per-worm state, link ownership and
        # recorder totals — deadlocks included (rotated dimension orders
        # can produce cyclic waits)
        from repro.qa import random_worm_schedule

        host = Hypercube(4)
        for i in range(25):
            rng = random.Random(f"worm-smoke:{i}")
            schedule = random_worm_schedule(host, rng, rotate=i % 2 == 1)
            cap = rng.choice([1, 1, 2, 4])
            assert batched_wormhole_differential_check(
                host, [schedule], cap
            ) is None, (i, cap, schedule)

    def test_check_passes_clean(self):
        from repro.qa import random_worm_schedule

        host = Hypercube(3)
        schedule = random_worm_schedule(host, random.Random(2))
        assert batched_wormhole_differential_check(host, [schedule]) is None

    def test_deadlock_parity(self):
        from repro.qa.differential import _worm_outcomes
        from repro.qa.schedules import DEADLOCK_CYCLE as schedule
        from repro.routing import BatchedWormhole, WormholeSimulator

        host = Hypercube(2)
        # four worms chasing each other around the 4-cycle 0-1-3-2-0
        [reference] = _worm_outcomes(WormholeSimulator(host), [schedule])
        [fast] = _worm_outcomes(BatchedWormhole(host), [schedule])
        assert reference["deadlock"] and reference == fast
        assert batched_wormhole_differential_check(host, [schedule]) is None

    def test_worm_schedules_are_valid_and_jsonable(self):
        from repro.qa import random_worm_schedule

        host = Hypercube(4)
        schedule = random_worm_schedule(host, random.Random(9), rotate=True)
        assert schedule
        for path, flits, release in schedule:
            assert len(path) >= 2 and flits >= 1 and release >= 1
            for a, b in zip(path, path[1:]):
                assert host.is_edge(a, b)
        data = [[list(p), m, r] for p, m, r in schedule]
        assert json.loads(json.dumps(data)) == data

    def test_shrink_worm_schedule_proposals(self):
        from repro.qa import shrink_worm_schedule

        schedule = [((0, 1), 4, 2), ((0, 2), 1, 1), ((1, 3), 2, 3), ((2, 3), 8, 1)]
        candidates = list(shrink_worm_schedule(schedule))
        assert [len(c) for c in candidates[:2]] == [2, 2]  # halves first
        assert sum(1 for c in candidates if len(c) == 3) == 4
        assert [(p, m, 1) for p, m, _ in schedule] in candidates  # flat releases
        assert [(p, max(1, m // 2), r) for p, m, r in schedule] in candidates


class TestVerificationReferee:
    @pytest.mark.parametrize("kind,params", SMALL_POINTS)
    def test_fast_verify_agrees_with_reference(self, kind, params):
        from repro.qa import verification_differential

        emb = default_space().get(kind).build(dict(params))
        checks = verification_differential(emb)
        assert checks
        for check in checks:
            assert check.passed, (kind, check.name, check.detail)

    def test_fuzzer_verify_stage_catches_kernel_divergence(self):
        # an embedding whose fast verify disagrees with the reference must
        # surface as a "verify" finding, not slip through as ok
        from repro.qa import verification_differential

        emb = embed_cycle_load1(4)

        class Lying:
            """Proxy whose vectorized verify() hides a broken bundle."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def verify(self, strict=True):
                return self._inner.verify(strict=False)

            def verify_reference(self, strict=True):
                edge = next(iter(self._inner.edge_paths))
                paths = self._inner.edge_paths[edge]
                try:
                    self._inner.edge_paths[edge] = (paths[0],) * len(paths)
                    return self._inner.verify_reference(strict=False)
                finally:
                    self._inner.edge_paths[edge] = paths

        checks = verification_differential(Lying(emb))
        assert any(not c.passed for c in checks)


class TestCorpus:
    def _entry(self, **overrides):
        kwargs = dict(
            kind="cycle", params={"n": 4}, stage="verify",
            detail="example", point_seed="0:point:0",
        )
        kwargs.update(overrides)
        return CorpusEntry(**kwargs)

    def test_save_is_idempotent(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        corpus.save(self._entry())
        corpus.save(self._entry(detail="same content hash fields"))
        assert len(corpus) == 1

    def test_load_by_id_and_path(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        path = corpus.save(self._entry())
        entry = corpus.entries()[0]
        assert corpus.load(entry.entry_id).params == {"n": 4}
        assert corpus.load(path).entry_id == entry.entry_id

    def test_load_missing_entry(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Corpus(str(tmp_path)).load("verify-cycle-000000000000")

    def test_clear(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        corpus.save(self._entry())
        corpus.save(self._entry(stage="oracle"))
        assert corpus.clear() == 2 and len(corpus) == 0

    def test_newer_format_rejected(self):
        data = json.loads(self._entry().to_json())
        data["version"] = 99
        with pytest.raises(ValueError):
            CorpusEntry.from_json(json.dumps(data))


def _sabotaged_space():
    """A construction space whose only member is a deliberately broken
    cycle builder: one bundle's paths are all replaced with path 0,
    destroying edge-disjointness at every n."""

    def build(params):
        emb = embed_cycle_load1(params["n"])
        edge = next(iter(emb.edge_paths))
        paths = emb.edge_paths[edge]
        emb.edge_paths[edge] = (paths[0],) * len(paths)
        return emb

    def shrink(params):
        if params["n"] > 4:
            yield {"n": 4}
            yield {"n": params["n"] - 1}

    return ConstructionSpace(
        [
            FuzzConstruction(
                "cycle",
                lambda rng: {"n": rng.randint(5, 8)},
                build,
                shrink,
            )
        ]
    )


class TestFuzzer:
    def test_smoke_run_is_clean(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        report = Fuzzer(corpus=corpus, seed=0, images=2).run(seeds=20)
        assert report.ok, report.failures
        assert report.points == 20 and len(corpus) == 0
        assert "OK" in report.summary()

    def test_budget_exhaustion_stops_early(self):
        report = Fuzzer(seed=0, images=1).run(seeds=10_000, budget_s=0.5)
        assert report.budget_exhausted and report.points < 10_000
        assert "budget exhausted" in report.summary()

    def test_kind_restriction(self):
        report = Fuzzer(seed=0, images=1).run(seeds=5, kinds=["graycode"])
        assert set(report.per_kind) == {"graycode"}
        with pytest.raises(KeyError):
            Fuzzer(seed=0).run(seeds=1, kinds=["bogus"])

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            Fuzzer(checks=("build", "bogus"))

    def test_mutation_is_caught_shrunk_and_replayable(self, tmp_path):
        # the acceptance mutation test: an injected edge-disjointness bug
        # must be caught, shrunk to the minimal n, persisted, and
        # reproduced from the corpus alone
        corpus = Corpus(str(tmp_path))
        fuzzer = Fuzzer(space=_sabotaged_space(), corpus=corpus, seed=1)
        report = fuzzer.run(seeds=4)
        assert not report.ok
        assert all(e.stage == "verify" for e in report.failures)
        assert all(e.params == {"n": 4} for e in report.failures)  # shrunk
        assert len(corpus) == 1  # idempotent: one minimal reproducer

        entry = corpus.entries()[0]
        assert "edge-disjoint" in entry.detail
        replayed = fuzzer.replay(entry)
        assert replayed is not None and replayed.stage == "verify"

    def test_replay_of_fixed_bug_returns_none(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        entry = CorpusEntry(
            kind="cycle", params={"n": 4}, stage="verify",
            detail="was broken once", point_seed="1:point:0",
        )
        corpus.save(entry)
        # the real (unsabotaged) space passes: the finding is gone
        assert Fuzzer(corpus=corpus, seed=1).replay(entry) is None


class TestResolveRng:
    def test_seed_and_rng_are_exclusive(self):
        with pytest.raises(ValueError):
            resolve_rng(seed=1, rng=random.Random(2))

    def test_default_seed(self):
        assert (
            resolve_rng().random()
            == random.Random(0).random()
            == resolve_rng(default_seed=0).random()
        )

    def test_shared_stream_passes_through(self):
        rng = random.Random(5)
        assert resolve_rng(rng=rng) is rng


class TestSeededDeterminism:
    """Satellite: fixed seeds give byte-identical results everywhere."""

    def test_random_permutation(self):
        from repro.routing.permutation import random_permutation

        assert random_permutation(64, seed=9) == random_permutation(64, seed=9)
        shared = random.Random(9)
        assert random_permutation(64, seed=9) == random_permutation(64, rng=shared)
        with pytest.raises(ValueError):
            random_permutation(8, seed=1, rng=random.Random(1))

    def test_faulty_link_model(self):
        from repro.fault.faults import FaultModel

        host = Hypercube(5)
        a = FaultModel.random(host, 0.3, seed=4)
        b = FaultModel.random(host, 0.3, seed=4)
        c = FaultModel.random(host, 0.3, rng=random.Random(4))
        assert a.failed == b.failed == c.failed
        with pytest.raises(ValueError):
            FaultModel.random(host, 0.3, seed=1, rng=random.Random(1))

    def test_random_binary_tree(self):
        from repro.networks.tree import random_binary_tree

        a = random_binary_tree(40, seed=6)
        b = random_binary_tree(40, rng=random.Random(6))
        assert a.parent == b.parent

    def test_adaptive_wormhole_experiment(self):
        from repro.core import embed_cycle_load1
        from repro.routing.adaptive import adaptive_wormhole_experiment

        emb = embed_cycle_load1(4)
        a = adaptive_wormhole_experiment(emb, 16, flits=4, seed=2)
        b = adaptive_wormhole_experiment(emb, 16, flits=4, rng=random.Random(2))
        assert a == b

    def test_permutation_multicopy_time(self):
        from repro.routing.permutation import (
            permutation_multicopy_time,
            random_permutation,
        )

        perm = random_permutation(64, seed=2)
        a = permutation_multicopy_time(4, perm, 16, randomized=True, seed=3)
        b = permutation_multicopy_time(
            4, perm, 16, randomized=True, rng=random.Random(3)
        )
        assert a == b

    def test_random_x_permutation(self):
        from repro.routing.x_routing import XRouter, random_x_permutation

        router = XRouter(2)
        a = random_x_permutation(2, seed=8, router=router)
        b = random_x_permutation(2, rng=random.Random(8), router=router)
        assert a == b and sorted(a) == list(range(router.host.num_nodes))


class TestQaCli:
    def test_fuzz_smoke(self, capsys, tmp_path):
        assert main(
            ["qa", "fuzz", "--seeds", "6", "--budget", "60s",
             "--corpus", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "fuzzed 6 point(s)" in out and "OK" in out

    def test_fuzz_kind_filter(self, capsys, tmp_path):
        assert main(
            ["qa", "fuzz", "--seeds", "3", "--kinds", "graycode,cycle",
             "--corpus", str(tmp_path)]
        ) == 0

    def test_diff_smoke(self, capsys):
        # a single schedule is a one-lane batch, so one-schedule checks
        # run as `qa batched --lanes 1` and there is no `qa diff`
        assert main(
            ["qa", "batched", "--seeds", "5", "--n", "5", "--lanes", "1"]
        ) == 0
        assert "lane-for-lane" in capsys.readouterr().out
        with pytest.raises(SystemExit) as err:
            main(["qa", "diff"])
        assert err.value.code == 2

    def test_batched_referees_deadlocked_lanes_at_every_capacity(self, capsys):
        # the worm buffer capacity cycles 1-3 by seed and every other seed
        # leads a lane with a deadlocking cycle, so six seeds see a
        # deadlocked lane at each capacity
        assert main(["qa", "batched", "--seeds", "6", "--n", "4"]) == 0
        out = capsys.readouterr().out
        found = re.search(
            r"deadlocked lanes c=1: (\d+), c=2: (\d+), c=3: (\d+)", out
        )
        assert found, out
        assert all(int(k) > 0 for k in found.groups()), out

    def test_corpus_empty_then_listed(self, capsys, tmp_path):
        assert main(["qa", "corpus", "--corpus", str(tmp_path)]) == 0
        assert "corpus empty" in capsys.readouterr().out
        Corpus(str(tmp_path)).save(
            CorpusEntry(
                kind="cycle", params={"n": 4}, stage="verify",
                detail="demo", point_seed="0:point:0",
            )
        )
        assert main(["qa", "corpus", "--corpus", str(tmp_path)]) == 0
        assert "1 reproducer(s)" in capsys.readouterr().out

    def test_corpus_clear(self, capsys, tmp_path):
        Corpus(str(tmp_path)).save(
            CorpusEntry(
                kind="cycle", params={"n": 4}, stage="verify",
                detail="demo", point_seed="0:point:0",
            )
        )
        assert main(["qa", "corpus", "--corpus", str(tmp_path), "--clear"]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_replay_fixed_entry(self, capsys, tmp_path):
        corpus = Corpus(str(tmp_path))
        entry = CorpusEntry(
            kind="cycle", params={"n": 4}, stage="verify",
            detail="was broken once", point_seed="0:point:0",
        )
        corpus.save(entry)
        assert main(
            ["qa", "replay", entry.entry_id, "--corpus", str(tmp_path)]
        ) == 0
        assert "no longer reproduces" in capsys.readouterr().out
