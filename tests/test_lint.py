"""Tests for repro.lint: each rule against its fixtures, the engine
machinery (pragmas, JSON schema), and the clean-repo gate."""

import json
import shutil
from pathlib import Path

from repro.cli import main as cli_main
from repro.lint import (
    KNOWN_PRAGMAS,
    LintConfig,
    all_rules,
    run_lint,
)
from repro.lint.engine import _parse_pragmas, parse_module

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_SRC = Path(__file__).parents[1] / "src" / "repro"


def lint(path, *rules, **config):
    select = tuple(rules) if rules else None
    report = run_lint([FIXTURES / path], LintConfig(select=select, **config))
    return report


def rule_findings(report, rule):
    return [f for f in report.findings if f.rule == rule]


class TestRuleRegistry:
    def test_all_eight_rules_register(self):
        # R2 is retired and its id is not reused
        ids = [r.id for r in all_rules()]
        assert ids == ["R1", "R3", "R4", "R5", "R6", "R7", "R8", "R9"]

    def test_every_rule_documents_a_waiver(self):
        # one pragma token per rule, all known to the engine
        assert len(KNOWN_PRAGMAS) == 8

    def test_select_restricts_rules_run(self):
        report = lint("rng_bad.py", "R4")
        assert report.rules_run == ("R4",)
        assert report.findings == []  # R1 violations invisible to R4


class TestRngDiscipline:
    def test_flags_direct_module_calls(self):
        report = lint("rng_bad.py", "R1")
        messages = [f.message for f in rule_findings(report, "R1")]
        assert any("random.random()" in m for m in messages)
        assert any("random.Random()" in m for m in messages)
        assert any("numpy.random.default_rng()" in m for m in messages)

    def test_flags_unarbitrated_seed_rng_pair(self):
        report = lint("rng_bad.py", "R1")
        assert any(
            "sample_things" in f.message and "resolve_rng" in f.message
            for f in rule_findings(report, "R1")
        )

    def test_clean_fixture_passes(self):
        report = lint("rng_good.py", "R1")
        assert rule_findings(report, "R1") == []

    def test_compat_module_is_exempt(self):
        report = run_lint([REPO_SRC / "_compat.py"], LintConfig(select=("R1",)))
        assert report.findings == []


class TestConstructionContract:
    def test_orphan_builder_and_unoracled_kind_flagged(self):
        report = lint("contract_bad", "R3")
        findings = rule_findings(report, "R3")
        assert any("orphan_embedding" in f.message for f in findings)
        assert any("'ring'" in f.message for f in findings)
        # the two pragma-waived entries stay quiet
        assert not any("rewrap_embedding" in f.message for f in findings)
        assert not any("'probe'" in f.message for f in findings)

    def test_covered_contract_passes(self):
        report = lint("contract_good", "R3")
        assert rule_findings(report, "R3") == []

    def test_partial_scan_stays_silent(self):
        # without the table and oracle files the contract can't be judged
        report = run_lint(
            [FIXTURES / "contract_bad" / "core" / "__init__.py"],
            LintConfig(select=("R3",)),
        )
        assert report.findings == []


class TestSimulatorProtocol:
    def test_flags_every_protocol_break(self):
        report = lint("protocol_bad.py", "R4")
        messages = [f.message for f in rule_findings(report, "R4")]
        assert any("no run() method" in m for m in messages)
        assert any("'schedule'" in m for m in messages)
        assert any("max_steps" in m for m in messages)
        assert any("never constructs a SimResult" in m for m in messages)
        assert any(
            "misannotated" in m and "other than SimResult" in m
            for m in messages
        )

    def test_conforming_and_waived_engines_pass(self):
        report = lint("protocol_good.py", "R4")
        assert rule_findings(report, "R4") == []

    def test_batched_engine_without_scalar_run_is_flagged(self):
        # a batch-only surface (run_many, no run) is still an engine:
        # the protocol requires the scalar run() entry point
        report = lint("kernels/routing/batched_bad.py", "R4")
        messages = [f.message for f in rule_findings(report, "R4")]
        assert any(
            "batched-drifting" in m and "no run() method" in m
            for m in messages
        )

    def test_real_batched_engines_conform(self):
        # every shipping engine — both batched ones, the two reference
        # engines and the bounded-buffer one — is in R4 scope (five engine
        # tags) and clean; a protocol drift there fails here before CI lint
        engines = {
            "batched.py": ["batched-store-forward", "batched-wormhole"],
            "simulator.py": ["store-forward"],
            "wormhole.py": ["wormhole"],
            "bounded_buffers.py": ["bounded-buffer"],
        }
        paths = [REPO_SRC / "routing" / name for name in engines]
        for path, tags in zip(paths, engines.values()):
            source = path.read_text()
            assert source.count("\n    engine = ") == len(tags), path
            for tag in tags:
                assert f'engine = "{tag}"' in source, (path, tag)
        report = run_lint(paths, LintConfig(select=("R4",)))
        assert report.findings == [] and report.files_scanned == 4


class TestDeterminism:
    def test_flags_clock_and_entropy_in_kernel_dirs(self):
        report = lint("kernels/core/kernel_bad.py", "R5")
        messages = [f.message for f in rule_findings(report, "R5")]
        assert any("time.time()" in m for m in messages)
        assert any("os.urandom()" in m for m in messages)
        assert any("datetime.datetime.now()" in m for m in messages)

    def test_pure_kernel_and_waiver_pass(self):
        report = lint("kernels/core/kernel_good.py", "R5")
        assert rule_findings(report, "R5") == []

    def test_rule_is_scoped_to_kernel_dirs(self, tmp_path):
        # the same nondeterministic calls are fine outside the kernel dirs
        source = FIXTURES / "kernels" / "core" / "kernel_bad.py"
        for subdir in ("core", "tools"):
            (tmp_path / subdir).mkdir()
            shutil.copy(source, tmp_path / subdir / "kernel_bad.py")
        inside = run_lint([tmp_path / "core"], LintConfig(select=("R5",)))
        assert len(rule_findings(inside, "R5")) == 3
        outside = run_lint([tmp_path / "tools"], LintConfig(select=("R5",)))
        assert rule_findings(outside, "R5") == []

    def test_routing_batched_modules_are_kernel_scope(self):
        # routing/ is a kernel dir, so batched engines inherit the
        # determinism discipline: clock-derived seeds are flagged
        report = lint("kernels/routing/batched_bad.py", "R5")
        messages = [f.message for f in rule_findings(report, "R5")]
        assert any("time.time()" in m for m in messages)
        clean = run_lint(
            [REPO_SRC / "routing" / "batched.py"],
            LintConfig(select=("R5",)),
        )
        assert clean.findings == []


class TestServiceRaces:
    def test_unlocked_accesses_of_guarded_state_flagged(self):
        report = lint("races/service/registry.py", "R6")
        findings = rule_findings(report, "R6")
        assert any(
            "read" in f.message and "get()" in f.message for f in findings
        )
        assert any(
            "write" in f.message and "evict()" in f.message for f in findings
        )
        # the waived read and the disciplined class stay quiet
        assert not any("peek_hits" in f.message for f in findings)
        assert not any("DisciplinedCache" in f.message for f in findings)

    def test_lock_handoff_call_is_synchronized(self):
        report = lint("races/service/registry.py", "R6")
        findings = rule_findings(report, "R6")
        # passing self._lock alongside the guarded map delegates the
        # synchronization to the callee — the shard-teardown idiom
        assert not any("close()" in f.message for f in findings)
        # the same call without the lock stays a violation
        assert any(
            "read" in f.message and "leak()" in f.message for f in findings
        )

    def test_shard_modules_are_covered_by_default(self):
        assert "service/shards.py" in LintConfig().race_modules
        assert "service/frontend.py" in LintConfig().race_modules

    def test_detector_only_runs_on_configured_modules(self):
        report = run_lint(
            [FIXTURES / "races" / "service" / "registry.py"],
            LintConfig(select=("R6",), race_modules=("elsewhere.py",)),
        )
        assert report.findings == []


class TestEngine:
    def test_unknown_pragma_is_a_finding(self, tmp_path):
        target = tmp_path / "odd.py"
        target.write_text("x = 1  # lint: bogus-token(who knows)\n")
        report = run_lint([target])
        assert any(
            f.rule == "pragma" and "bogus-token" in f.message
            for f in report.findings
        )

    def test_reasonless_pragma_is_a_finding(self, tmp_path):
        target = tmp_path / "odd.py"
        target.write_text("x = 1  # lint: rng-ok()\n")
        report = run_lint([target])
        assert any(
            f.rule == "pragma" and "needs a reason" in f.message
            for f in report.findings
        )

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n")
        (tmp_path / "fine.py").write_text("x = 1\n")
        report = run_lint([tmp_path])
        assert report.files_scanned == 2
        assert any(f.rule == "parse" for f in report.findings)

    def test_json_shape_is_stable(self):
        report = lint("rng_bad.py", "R1")
        data = report.to_dict()
        assert data["version"] == 2
        assert data["tool"] == "repro-lint"
        assert set(data) == {
            "version", "tool", "files_scanned", "errors", "warnings",
            "counts", "findings",
        }
        assert data["counts"]["R1"] == data["errors"] == len(data["findings"])
        for f in data["findings"]:
            assert set(f) == {
                "rule", "severity", "path", "line", "col", "message",
                "suggestion",
            }
        json.dumps(data)  # round-trippable


class TestCli:
    def test_lint_bad_fixture_exits_nonzero(self, capsys):
        code = cli_main(
            ["lint", "--select", "R1", str(FIXTURES / "rng_bad.py")]
        )
        assert code == 1
        assert "R1 error" in capsys.readouterr().out

    def test_lint_json_output_parses(self, capsys):
        code = cli_main(
            [
                "lint", "--format", "json", "--select", "R1",
                str(FIXTURES / "rng_good.py"),
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["errors"] == 0

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R1", "R3", "R4", "R5", "R6", "R7", "R8", "R9"):
            assert rule_id in out
        assert "R2" not in out


class TestPragmaParser:
    def test_reason_may_contain_balanced_parens(self):
        out = _parse_pragmas("x = 1  # lint: race-ok(drain() owns it (fully))")
        assert len(out) == 1
        _, token, reason, problem = out[0]
        assert token == "race-ok"
        assert reason == "drain() owns it (fully)"
        assert problem == ""

    def test_two_pragmas_one_line(self):
        out = _parse_pragmas(
            "y = p(x)  # lint: domain-ok(key reuse) dtype-ok(capped at 4)"
        )
        assert [(t, r) for _, t, r, _ in out] == [
            ("domain-ok", "key reuse"),
            ("dtype-ok", "capped at 4"),
        ]

    def test_stacked_pragmas_both_waive(self, tmp_path):
        target = tmp_path / "stacked.py"
        target.write_text(
            "flat = 1  # lint: domain-ok(key reuse) dtype-ok(capped)\n"
        )
        module = parse_module(target)
        assert module.waived("domain-ok", 1)
        assert module.waived("dtype-ok", 1)
        assert not module.waived("rng-ok", 1)

    def test_lint_marker_inside_a_reason_is_inert(self):
        out = _parse_pragmas(
            "x = 1  # lint: rng-ok(the lint: prefix here is prose)"
        )
        assert len(out) == 1
        assert out[0][1] == "rng-ok"
        assert out[0][2] == "the lint: prefix here is prose"

    def test_unterminated_reason_is_a_finding(self, tmp_path):
        target = tmp_path / "odd.py"
        target.write_text("x = 1  # lint: rng-ok(never closed\n")
        report = run_lint([target])
        assert any(
            f.rule == "pragma" and "unterminated" in f.message
            for f in report.findings
        )

    def test_unknown_token_in_a_stack_is_still_caught(self, tmp_path):
        target = tmp_path / "odd.py"
        target.write_text("x = 1  # lint: rng-ok(fine) bogus-tok(huh)\n")
        report = run_lint([target])
        assert any(
            f.rule == "pragma" and "bogus-tok" in f.message
            for f in report.findings
        )
        # the well-formed pragma before it still waives
        assert parse_module(target).waived("rng-ok", 1)

    def test_prose_after_a_pragma_is_not_a_token(self):
        # trailing words without parens are comment prose, not pragmas
        out = _parse_pragmas("x = 1  # lint: rng-ok(fine) see the docs")
        assert [(t, p) for _, t, _, p in out] == [("rng-ok", "")]

    def test_unknown_pragma_in_nested_scope_is_a_finding(self, tmp_path):
        target = tmp_path / "odd.py"
        target.write_text(
            "class Outer:\n"
            "    def inner(self):\n"
            "        x = 1  # lint: not-a-token(deep down)\n"
            "        return x\n"
        )
        report = run_lint([target])
        assert any(
            f.rule == "pragma"
            and "not-a-token" in f.message
            and f.line == 3
            for f in report.findings
        )


class TestDomainConfusion:
    BAD = "domain/kernels/core/domain_bad.py"
    GOOD = "domain/kernels/core/domain_good.py"

    def test_flags_every_confusion_kind(self):
        report = lint(self.BAD, "R7")
        messages = [f.message for f in rule_findings(report, "R7")]
        assert len(messages) == 5
        # seeded consumer API
        assert any(
            "LaneLinkId passed to add_link_counts()" in m for m in messages
        )
        # subscript into a per-link array
        assert any(
            "LaneLinkId used to index a LinkId-indexed array" in m
            for m in messages
        )
        # cross-domain comparison and searchsorted needles
        assert any(
            "comparing a PackedEdgeKey to a NodeId" in m for m in messages
        )
        assert any(
            "searchsorted over NodeId keys with PackedEdgeKey needles" in m
            for m in messages
        )

    def test_one_level_call_summary_propagates(self):
        # _forward() has no seed entry: its requirement that eids is a
        # LinkId comes from summarizing its own body (one level deep)
        report = lint(self.BAD, "R7")
        assert any(
            "LaneLinkId passed to _forward() where LinkId is consumed "
            "(argument 2)" in f.message
            for f in rule_findings(report, "R7")
        )

    def test_waiver_is_honored(self):
        report = lint(self.BAD, "R7")
        lines = [f.line for f in rule_findings(report, "R7")]
        assert 47 not in lines  # waived_reinterpretation's consumer call

    def test_clean_fixture_passes(self):
        report = lint(self.GOOD, "R7")
        assert rule_findings(report, "R7") == []


class TestDtypeOverflow:
    BAD = "domain/kernels/core/dtype_bad.py"
    GOOD = "domain/kernels/core/dtype_good.py"

    def test_flags_cast_arithmetic_and_store_sites(self):
        report = lint(self.BAD, "R8")
        messages = [f.message for f in rule_findings(report, "R8")]
        assert len(messages) == 4
        assert any(
            "PackedEdgeKey values narrowed to int32" in m for m in messages
        )
        assert any(
            "LaneLinkId arithmetic in int32" in m for m in messages
        )
        assert any(
            "CsrOffset values narrowed to int32" in m for m in messages
        )
        assert any(
            "storing a LaneLinkId into a int32 array" in m for m in messages
        )

    def test_extents_are_quoted_for_triage(self):
        report = lint(self.BAD, "R8")
        assert all(
            "overflows" in f.message or "max extent" in f.message
            for f in rule_findings(report, "R8")
        )

    def test_waiver_is_honored(self):
        report = lint(self.BAD, "R8")
        assert not any(
            f.line == 34 for f in rule_findings(report, "R8")
        )  # waived_tight_bound's astype

    def test_clean_fixture_passes(self):
        # int64 packs, int32-safe LinkId/FlitPos tensors
        report = lint(self.GOOD, "R8")
        assert rule_findings(report, "R8") == []


class TestKernelParity:
    def test_flags_all_three_coverage_legs(self):
        report = lint("parity_bad", "R9")
        messages = [f.message for f in rule_findings(report, "R9")]
        assert len(messages) == 3
        assert any(
            "BatchedThing" in m and "has no QA differential" in m
            for m in messages
        )
        assert any(
            "embedding_csr() is never referenced" in m for m in messages
        )
        assert any(
            "orphan_differential_check() is not registered as a fuzzer "
            "stage" in m
            for m in messages
        )

    def test_reference_engines_are_exempt(self):
        report = lint("parity_bad", "R9")
        assert not any(
            "ReferenceThing" in f.message for f in rule_findings(report, "R9")
        )

    def test_covered_and_waived_engines_pass(self):
        report = lint("parity_good", "R9")
        assert rule_findings(report, "R9") == []

    def test_partial_scan_stays_silent(self):
        # without qa/differential.py in the scan, coverage is unjudgeable
        report = run_lint(
            [FIXTURES / "parity_bad" / "kernels" / "routing" / "engines.py"],
            LintConfig(select=("R9",)),
        )
        assert report.findings == []

    def test_deleting_a_real_registration_fails_r9(self, tmp_path):
        # mutation check against the shipping sources: copy the batched
        # engines + QA pair, drop one stage registration from the fuzzer,
        # and the parity rule must notice
        for rel in (
            "routing/batched.py", "qa/differential.py", "qa/fuzzer.py"
        ):
            dest = tmp_path / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(REPO_SRC / rel, dest)
        baseline = run_lint([tmp_path], LintConfig(select=("R9",)))
        assert baseline.findings == []

        fuzzer = tmp_path / "qa" / "fuzzer.py"
        mutated = fuzzer.read_text().replace(
            "batched_wormhole_differential_check", "wormhole_parity_probe"
        )
        assert mutated != fuzzer.read_text()
        fuzzer.write_text(mutated)
        report = run_lint([tmp_path], LintConfig(select=("R9",)))
        assert any(
            "batched_wormhole_differential_check() is not registered"
            in f.message
            for f in rule_findings(report, "R9")
        )

    def test_ida_kernels_need_their_differential(self, tmp_path):
        # the IDA kernels are in parity_kernels: a differential module
        # that stops calling disperse() leaves it unrefereed
        for rel in ("fault/ida.py", "qa/differential.py", "qa/fuzzer.py"):
            dest = tmp_path / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(REPO_SRC / rel, dest)
        baseline = run_lint([tmp_path], LintConfig(select=("R9",)))
        assert baseline.findings == []

        differential = tmp_path / "qa" / "differential.py"
        mutated = differential.read_text().replace("disperse", "scatter")
        differential.write_text(mutated)
        report = run_lint([tmp_path], LintConfig(select=("R9",)))
        messages = [f.message for f in rule_findings(report, "R9")]
        assert messages == [
            "serving kernel disperse() is never referenced by qa/differential.py"
        ]

    def test_schedule_normalizer_needs_its_differential(self, tmp_path):
        # both packet engines share normalize_schedule, so no engine pair
        # can referee it: a differential module that stops calling it
        # leaves it unrefereed
        for rel in ("routing/api.py", "qa/differential.py", "qa/fuzzer.py"):
            dest = tmp_path / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(REPO_SRC / rel, dest)
        baseline = run_lint([tmp_path], LintConfig(select=("R9",)))
        assert baseline.findings == []

        differential = tmp_path / "qa" / "differential.py"
        mutated = differential.read_text().replace(
            "normalize_schedule", "columns_of"
        )
        differential.write_text(mutated)
        report = run_lint([tmp_path], LintConfig(select=("R9",)))
        messages = [f.message for f in rule_findings(report, "R9")]
        assert messages == [
            "serving kernel normalize_schedule() is never referenced by "
            "qa/differential.py"
        ]


class TestAsyncRaces:
    FIXTURE = "races/service/frontend.py"

    def test_async_method_reads_are_analyzed(self):
        report = lint(self.FIXTURE, "R6")
        findings = rule_findings(report, "R6")
        assert any(
            "serve()" in f.message and "read" in f.message for f in findings
        )
        # the locked async read is disciplined
        assert not any("serve_locked" in f.message for f in findings)

    def test_keyword_lock_handoff_is_synchronized(self):
        report = lint(self.FIXTURE, "R6")
        assert not any(
            "close()" in f.message for f in rule_findings(report, "R6")
        )

    def test_finalize_handoff_is_synchronized(self):
        report = lint(self.FIXTURE, "R6")
        findings = rule_findings(report, "R6")
        assert not any("register()" in f.message for f in findings)
        assert not any("FinalizeHandoff" in f.message for f in findings)


class TestChangedScope:
    def test_focus_filters_findings_not_analysis(self):
        engines = (
            FIXTURES / "parity_bad" / "kernels" / "routing" / "engines.py"
        )
        report = run_lint(
            [FIXTURES / "parity_bad"],
            LintConfig(select=("R9",)),
            focus=[engines],
        )
        # the uncovered engine lives in the focused file and survives...
        assert any(
            "BatchedThing" in f.message for f in rule_findings(report, "R9")
        )
        # ...while the qa-module findings are filtered, not un-found
        assert all(f.path.endswith("engines.py") for f in report.findings)
        full = run_lint([FIXTURES / "parity_bad"], LintConfig(select=("R9",)))
        assert len(full.findings) > len(report.findings)

    def test_empty_focus_reports_nothing_but_scans(self):
        report = run_lint(
            [FIXTURES / "rng_bad.py"],
            LintConfig(select=("R1",)),
            focus=[],
        )
        assert report.findings == []
        assert report.files_scanned == 1


class TestSarif:
    def test_sarif_shape(self):
        report = lint("rng_bad.py", "R1")
        sarif = report.to_sarif()
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert {r["id"] for r in run["tool"]["driver"]["rules"]} >= {"R1"}
        assert len(run["results"]) == len(report.findings) > 0
        for result in run["results"]:
            loc = result["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"]
            assert loc["region"]["startLine"] >= 1
        json.dumps(sarif)  # round-trippable

    def test_cli_sarif_to_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "lint.sarif"
        code = cli_main(
            [
                "lint", "--format", "sarif", "--select", "R1",
                "--output", str(out_file),
                str(FIXTURES / "rng_bad.py"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().out == ""
        sarif = json.loads(out_file.read_text())
        assert sarif["runs"][0]["results"]


class TestRepositoryIsClean:
    def test_repro_package_lints_clean(self):
        report = run_lint([REPO_SRC])
        assert report.ok, "\n".join(
            f.format() for f in report.findings
        )
        # all eight rules actually ran over a substantial file set
        assert report.rules_run == (
            "R1", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
        )
        assert report.files_scanned > 50
