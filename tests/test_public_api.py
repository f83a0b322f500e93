"""Tests for the top-level public API surface."""

import ast
import builtins
from pathlib import Path

import repro


def _annotation_names(node):
    """Every name an annotation reads, string forward references included."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield from _annotation_names(ast.parse(node.value, mode="eval").body)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Subscript) and "Literal" in (
        getattr(node.value, "id", None), getattr(node.value, "attr", None)
    ):
        yield from _annotation_names(node.value)  # its strings are values
    elif node is not None:
        for child in ast.iter_child_nodes(node):
            yield from _annotation_names(child)


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
        assert (Path(repro.__file__).parent / "py.typed").exists()

    def test_annotation_names_resolve(self):
        # postponed evaluation means no annotation runs, so a name dropped
        # from an import breaks only the type checkers: every name an
        # annotation reads must be bound somewhere in its module
        root = Path(repro.__file__).parent
        unbound = []
        for path in sorted(root.rglob("*.py")):
            bound = set(dir(builtins))
            annotated = []
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    bound.update(
                        (a.asname or a.name).split(".")[0] for a in node.names
                    )
                elif isinstance(
                    node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    bound.add(node.name)
                    annotated.append(getattr(node, "returns", None))
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    bound.add(node.id)
                elif isinstance(node, (ast.arg, ast.AnnAssign)):
                    annotated.append(node.annotation)
            unbound += [
                f"{path.relative_to(root)}:{ann.lineno}: {name}"
                for ann in annotated
                if ann is not None
                for name in _annotation_names(ann)
                if name not in bound
            ]
        assert unbound == []
