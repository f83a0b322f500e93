"""Tests for the top-level public API surface."""

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_flow(self):
        emb = repro.embed_cycle_load1(6)
        emb.verify()
        assert isinstance(emb, repro.MultiPathEmbedding)
        assert isinstance(emb.host, repro.Hypercube)

    def test_subpackage_alls_resolve(self):
        # every repro.* module with an __all__, each name fetched with
        # warnings as errors, so a name served by a warning shim fails too
        import importlib
        import pkgutil
        import warnings

        checked = 0
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            mod = importlib.import_module(info.name)
            for name in getattr(mod, "__all__", ()):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    getattr(mod, name)
                checked += 1
        assert checked > 100

    def test_py_typed_marker_present(self):
        from pathlib import Path

        assert (Path(repro.__file__).parent / "py.typed").exists()
