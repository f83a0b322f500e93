"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_embed_defaults(self):
        args = build_parser().parse_args(["embed", "cycle"])
        assert args.n == 8 and args.kind == "cycle"


class TestCommands:
    def test_embed_cycle(self, capsys):
        assert main(["embed", "cycle", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "verified OK" in out and "width" in out

    def test_embed_cycle2_wide(self, capsys):
        assert main(["embed", "cycle2", "--n", "6", "--wide"]) == 0
        assert "multiple-path" in capsys.readouterr().out

    def test_embed_grid(self, capsys):
        assert main(["embed", "grid", "--dims", "16x16", "--torus"]) == 0
        assert "Q_8" in capsys.readouterr().out

    def test_embed_ccc(self, capsys):
        assert main(["embed", "ccc", "--n", "4"]) == 0
        assert "multiple-copy" in capsys.readouterr().out

    def test_embed_large_cycle(self, capsys):
        assert main(["embed", "large-cycle", "--n", "6"]) == 0
        assert "single-path" in capsys.readouterr().out

    def test_embed_tree(self, capsys):
        assert main(["embed", "tree", "--m", "2"]) == 0
        assert "Q_6" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "multipath" in out and "large-copy" in out

    def test_compare_odd_n_rejected(self, capsys):
        assert main(["compare", "--n", "5"]) == 2

    def test_figures(self, capsys):
        assert main(["figures", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 4" in out

    def test_broadcast(self, capsys):
        assert main(["broadcast", "--n", "4", "--packets", "32"]) == 0
        assert "binomial" in capsys.readouterr().out

    def test_faults(self, capsys):
        assert main(["faults", "--n", "6", "--prob", "0.02"]) == 0
        assert "delivered" in capsys.readouterr().out


class TestNewCommands:
    def test_sweep_speedup(self, capsys):
        assert main(["sweep", "speedup", "--n", "8"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_sweep_utilization(self, capsys):
        assert main(["sweep", "utilization", "--n", "6"]) == 0
        assert "busy_fraction" in capsys.readouterr().out

    def test_sweep_broadcast(self, capsys):
        assert main(["sweep", "broadcast", "--n", "4"]) == 0
        assert "winner" in capsys.readouterr().out

    def test_save_and_load_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "emb.json")
        assert main(["save", "cycle", path, "--n", "6"]) == 0
        assert main(["load", path]) == 0
        assert "verified OK" in capsys.readouterr().out

    def test_save_grid(self, tmp_path, capsys):
        path = str(tmp_path / "grid.json")
        assert main(["save", "grid", path, "--dims", "16x16", "--torus"]) == 0
        assert main(["load", path]) == 0


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestCacheCommands:
    def test_build_ls_stats_clear(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path)]
        assert main(["cache", "build", "cycle", "--n", "6"] + cache) == 0
        assert "artifact(s) ready" in capsys.readouterr().out
        assert main(["cache", "ls"] + cache) == 0
        out = capsys.readouterr().out
        assert "cycle(n=6)" in out and "1 artifact(s)" in out
        assert main(["cache", "stats"] + cache) == 0
        assert '"disk_entries": 1' in capsys.readouterr().out
        assert main(["cache", "clear"] + cache) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_build_sweep_batch(self, tmp_path, capsys):
        rc = main(
            ["cache", "build", "cycle", "--ns", "4,6", "--workers", "0",
             "--cache-dir", str(tmp_path)]
        )
        assert rc == 0
        assert "2 artifact(s)" in capsys.readouterr().out

    def test_cache_build_counts_its_builds(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path), "--workers", "0"]
        assert main(["cache", "build", "cycle", "--ns", "4,6"] + cache) == 0
        out = capsys.readouterr().out
        assert "2 build(s)" in out and ".rpstore (" in out
        assert main(["cache", "build", "cycle", "--ns", "4,6"] + cache) == 0
        assert "0 build(s)" in capsys.readouterr().out

    def test_ls_empty(self, tmp_path, capsys):
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert "cache empty" in capsys.readouterr().out


class TestRouteCommand:
    def test_route_explicit_edge(self, tmp_path, capsys):
        rc = main(
            ["route", "cycle", "--n", "6", "--edge", "0", "1",
             "--cache-dir", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "host path(s)" in out and "[0]" in out

    def test_route_default_edge_with_faults(self, tmp_path, capsys):
        rc = main(
            ["route", "cycle", "--n", "6", "--faults", "0.0",
             "--cache-dir", str(tmp_path)]
        )
        assert rc == 0
        assert "delivered" in capsys.readouterr().out

    def test_route_grid_tuple_edge(self, tmp_path, capsys):
        rc = main(
            ["route", "grid", "--dims", "4x4", "--torus",
             "--edge", "(0, 0)", "(0, 1)", "--cache-dir", str(tmp_path)]
        )
        assert rc == 0
        assert "host path(s)" in capsys.readouterr().out

    def test_route_uses_warm_cache(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path)]
        assert main(["cache", "build", "cycle", "--n", "6"] + cache) == 0
        capsys.readouterr()
        assert main(["route", "cycle", "--n", "6", "--edge", "0", "1"]
                    + cache) == 0
        assert "host path(s)" in capsys.readouterr().out

    def test_warm_route_never_materializes_the_embedding(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.service import EmbeddingRegistry

        cache = ["--cache-dir", str(tmp_path)]
        assert main(["cache", "build", "cycle", "--n", "6"] + cache) == 0
        capsys.readouterr()

        def refuse(self, spec):
            raise AssertionError("route materialized the embedding")

        monkeypatch.setattr(EmbeddingRegistry, "get", refuse)
        assert main(["route", "cycle", "--n", "6", "--batch", "64"] + cache) == 0
        assert main(["route", "cycle", "--n", "6", "--faults", "0.0"] + cache) == 0
        out = capsys.readouterr().out
        assert "guest edge (0, 1)" in out and "delivered" in out


class TestValidate:
    def test_validate_all_pass(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "11/11 claims verified" in out

    def test_programmatic(self):
        from repro.analysis import validate_claims

        results = validate_claims()
        assert len(results) == 11
        assert all(r.ok for r in results)


class TestObsCommands:
    def test_report(self, capsys):
        assert main(["obs", "report", "cycle", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "link congestion" in out
        assert "busiest links" in out
        assert "arrivals by step" in out

    def test_report_measured_equals_structural(self, capsys):
        from repro.core import embed_cycle_load1

        assert main(["obs", "report", "cycle", "--n", "6"]) == 0
        out = capsys.readouterr().out
        c = embed_cycle_load1(6).congestion
        assert f"measured {c}  structural {c}" in out

    def test_export_json_matches_delivery(self, capsys):
        import json

        from repro.core import embed_cycle_load1

        assert main(["obs", "export", "cycle", "--n", "6",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        emb = embed_cycle_load1(6)
        links = doc["links"]
        assert links["congestion"] == emb.congestion
        # per-link counts are exactly the structural congestion counts
        per_link = {
            int(eid): entry["transmissions"]
            for eid, entry in links["links"].items()
        }
        assert per_link == dict(emb.edge_congestion_counts())
        # every scheduled packet arrives; the histogram accounts for all
        total_paths = sum(len(ps) for ps in emb.edge_paths.values())
        assert links["delivered"] == total_paths
        assert sum(links["step_histogram"].values()) == total_paths
        assert doc["meta"]["engine"] == "store-forward"

    def test_export_csv_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "obs.csv"
        assert main(["obs", "export", "cycle", "--n", "6",
                     "--format", "csv", "--output", str(out_file)]) == 0
        assert "wrote" in capsys.readouterr().out
        lines = out_file.read_text().splitlines()
        assert lines[0] == "section,series,field,value"
        assert any(line.startswith("links,congestion,") for line in lines)

    def test_trace(self, capsys):
        from repro.obs import disable_profiling

        try:
            assert main(["obs", "trace", "cycle", "--n", "6"]) == 0
            out = capsys.readouterr().out
            assert "build.cycle" in out
            assert "verify" in out
        finally:
            disable_profiling()

    def test_multiple_packets_per_path(self, capsys):
        assert main(["obs", "report", "cycle", "--n", "6",
                     "--packets", "2"]) == 0
        assert "delivered" in capsys.readouterr().out
