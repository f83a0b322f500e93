"""R9: kernel-parity coverage — every fast kernel owes QA a differential.

The repo's performance story rests on optimized kernels (``fast-*`` and
``batched-*`` engines, the CSR/serving kernels) being *proven* equal to
their reference implementations by the QA differential stages.  PR 4/8/9
each shipped that pairing by hand; this rule makes it structural, the
same cross-file way R3 ties builders to oracles:

* every class in a kernel directory advertising ``engine = "fast-…"`` or
  ``engine = "batched-…"`` must be referenced by the QA differential
  module (``qa/differential.py``) — an unreferenced engine has no parity
  harness at all;
* every kernel function named in ``parity_kernels`` (the CSR resolver
  ``embedding_csr`` and the path flatten ``flatten_embedding`` it shares
  with verification, the mapped-store opener ``open_store``, the IDA
  kernels ``disperse``/``reconstruct``, the schedule normalizer
  ``normalize_schedule`` both packet engines share, and the array
  builders ``embed_cycle_load1``/``embed_cycle_load2``/
  ``embed_grid_multipath``/``large_cycle_embedding``) must be referenced
  there too;
* every public differential check *defined* in the differential module
  must be referenced by the fuzzer (``qa/fuzzer.py``) — a check that is
  never registered as a stage runs only when a human remembers to.

Like R3, the rule is silent when the QA modules are outside the scanned
set (partial scans must not fabricate findings).  Waive with
``# lint: no-parity(reason)`` on the class or def header — legitimate
for engines whose parity is proven indirectly (e.g. via a wrapper the
differential module does reference).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Tuple

from repro.lint.engine import LintConfig, LintModule, register_rule
from repro.lint.findings import Finding
from repro.lint.rules_contract import _find, _referenced_names
from repro.lint.rules_protocol import _engine_attr

__all__ = ["kernel_parity"]

_COVERED_PREFIXES = ("fast-", "batched-")


def _kernel_engines(
    modules: Sequence[LintModule], config: LintConfig
) -> List[Tuple[LintModule, ast.ClassDef, str]]:
    out = []
    for module in modules:
        if not module.in_dirs(config.kernel_dirs):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            engine = _engine_attr(node)
            if engine and engine.startswith(_COVERED_PREFIXES):
                out.append((module, node, engine))
    return out


def _serving_kernels(
    modules: Sequence[LintModule], config: LintConfig
) -> List[Tuple[LintModule, ast.AST, str]]:
    wanted = set(config.parity_kernels)
    out = []
    for module in modules:
        for node in module.tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in wanted
            ):
                out.append((module, node, node.name))
    return out


def _differential_defs(differential: LintModule) -> List[ast.AST]:
    return [
        node
        for node in differential.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "differential" in node.name
        and not node.name.startswith("_")
    ]


@register_rule("R9", "kernel-parity", scope="project")
def kernel_parity(
    modules: Sequence[LintModule], config: LintConfig
) -> Iterator[Finding]:
    """Every fast/batched kernel entry point needs a registered differential."""
    differential = _find(modules, config.parity_differential)
    if differential is None:
        return  # partial scan — cannot reason about coverage
    referenced = _referenced_names(differential)

    for module, cls, engine in _kernel_engines(modules, config):
        if cls.name in referenced:
            continue
        if module.waived("no-parity", cls.lineno):
            continue
        yield Finding(
            "R9", "error", module.rel, cls.lineno, cls.col_offset + 1,
            f"engine {cls.name} ({engine!r}) has no QA differential: "
            f"it is never referenced by {config.parity_differential}",
            suggestion="add a differential check pairing it against its "
            "reference engine (see qa/differential.py), or waive with "
            "# lint: no-parity(reason)",
        )

    for module, node, name in _serving_kernels(modules, config):
        if name in referenced:
            continue
        if module.waived("no-parity", node.lineno):
            continue
        yield Finding(
            "R9", "error", module.rel, node.lineno, node.col_offset + 1,
            f"serving kernel {name}() is never referenced by "
            f"{config.parity_differential}",
            suggestion="cover it in a differential stage or waive with "
            "# lint: no-parity(reason)",
        )

    fuzzer = _find(modules, config.parity_fuzzer)
    if fuzzer is None:
        return
    staged = _referenced_names(fuzzer)
    for node in _differential_defs(differential):
        if node.name in staged:
            continue
        if differential.waived("no-parity", node.lineno):
            continue
        yield Finding(
            "R9", "error", differential.rel, node.lineno,
            node.col_offset + 1,
            f"differential check {node.name}() is not registered as a "
            f"fuzzer stage: {config.parity_fuzzer} never references it",
            suggestion="wire it into Fuzzer's stage table so the nightly "
            "quota runs it, or waive with # lint: no-parity(reason)",
        )
