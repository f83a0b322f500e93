"""R2: no new call sites of ``ReproDeprecationWarning``-shimmed APIs.

The migration shims (PR 2) keep old code importable while warning at
runtime; this rule stops *new* code from adopting them, at review time:

* imports of :mod:`repro.service.metrics` / ``ServiceMetrics`` — the
  metrics layer moved to :class:`repro.obs.metrics.MetricsRegistry`.
  These findings carry an autofix (``repro lint --fix`` rewrites the
  import); renaming the uses is left to the author.
* the pre-obs ``sim.inject(...); sim.run() -> int`` style on the
  reference store-and-forward engine — pass a schedule to ``run()``
  instead.  (The reference wormhole engine's ``inject`` is its current
  flit API, not a shim, and is not flagged.)
* imports of the retired ``FaultSet`` alias from the service layer — the
  fault model's one true home is :class:`repro.fault.faults.FaultModel`.
  The plain single-name import form carries an autofix.

Waive with ``# lint: deprecated-ok(reason)`` — the shim's own re-export
surface and its dedicated tests are the legitimate users.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from repro.lint.engine import LintConfig, LintModule, register_rule
from repro.lint.findings import Finding

__all__ = ["deprecation"]

_SHIM_MODULE = "repro.service.metrics"
_SHIM_NAME = "ServiceMetrics"
_FAULTSET_NAME = "FaultSet"
# modules whose FaultSet attribute is the deprecated alias
_FAULTSET_MODULES = frozenset({"repro", "repro.service", "repro.service.api"})
# constructors whose inject() is the deprecated pre-obs surface
_SHIMMED_SIMULATORS = frozenset({"StoreForwardSimulator"})


@register_rule("R2", "deprecation")
def deprecation(module: LintModule, config: LintConfig) -> Iterator[Finding]:
    """Flag shimmed-API call sites, with autofix suggestions."""
    if module.matches(config.deprecation_exempt):
        return
    yield from _check_imports(module)
    yield from _check_inject_style(module)


def _check_imports(module: LintModule) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module == _SHIM_MODULE:
            if module.waived("deprecated-ok", node.lineno):
                continue
            fix = None
            old_line = module.lines[node.lineno - 1]
            if (
                old_line.strip()
                == f"from {_SHIM_MODULE} import {_SHIM_NAME}"
            ):
                indent = old_line[: len(old_line) - len(old_line.lstrip())]
                fix = (
                    old_line,
                    f"{indent}from repro.obs.metrics import MetricsRegistry",
                )
            yield Finding(
                "R2", "error", module.rel, node.lineno, node.col_offset + 1,
                f"import from deprecated shim {_SHIM_MODULE}",
                suggestion="use repro.obs.metrics.MetricsRegistry "
                "(same incr/count/observe/time API, richer snapshot)",
                fix=fix,
            )
        elif isinstance(node, ast.ImportFrom) and node.module in (
            "repro.service",
            "repro",
        ):
            for alias in node.names:
                if alias.name == _SHIM_NAME and not module.waived(
                    "deprecated-ok", node.lineno
                ):
                    yield Finding(
                        "R2", "error", module.rel, node.lineno,
                        node.col_offset + 1,
                        f"import of deprecated {_SHIM_NAME} "
                        f"(shim over MetricsRegistry)",
                        suggestion="instantiate repro.obs.metrics."
                        "MetricsRegistry directly",
                    )
        if isinstance(node, ast.ImportFrom) and node.module in _FAULTSET_MODULES:
            for alias in node.names:
                if alias.name != _FAULTSET_NAME or module.waived(
                    "deprecated-ok", node.lineno
                ):
                    continue
                fix = None
                old_line = module.lines[node.lineno - 1]
                if (
                    old_line.strip()
                    == f"from {node.module} import {_FAULTSET_NAME}"
                ):
                    indent = old_line[: len(old_line) - len(old_line.lstrip())]
                    fix = (
                        old_line,
                        f"{indent}from repro.fault.faults import FaultModel",
                    )
                yield Finding(
                    "R2", "error", module.rel, node.lineno,
                    node.col_offset + 1,
                    f"import of retired {_FAULTSET_NAME} alias from "
                    f"{node.module}",
                    suggestion="use repro.fault.faults.FaultModel "
                    "(same class; the alias only warns and forwards)",
                    fix=fix,
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == _SHIM_MODULE and not module.waived(
                    "deprecated-ok", node.lineno
                ):
                    yield Finding(
                        "R2", "error", module.rel, node.lineno,
                        node.col_offset + 1,
                        f"import of deprecated shim module {_SHIM_MODULE}",
                        suggestion="use repro.obs.metrics.MetricsRegistry",
                    )


def _check_inject_style(module: LintModule) -> Iterator[Finding]:
    """Trace names bound to shimmed simulator constructors; flag .inject()."""
    # scope-by-scope: module body and each function body independently, so
    # a binding in one function never taints a same-named variable elsewhere
    scopes = [module.tree] + [
        n
        for n in ast.walk(module.tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        sim_names = _simulator_bindings(scope)
        if not sim_names:
            continue
        for node in _scope_local(scope):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "inject"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in sim_names
            ):
                if module.waived("deprecated-ok", node.lineno):
                    continue
                cls = sim_names[node.func.value.id]
                yield Finding(
                    "R2", "error", module.rel, node.lineno,
                    node.col_offset + 1,
                    f"pre-obs {cls}.inject() call (deprecated shim; "
                    f"run() -> int follows)",
                    suggestion="pass a schedule to run() and read "
                    "SimResult.makespan",
                )


def _scope_local(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function bodies."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield child
        yield from _scope_local(child)


def _simulator_bindings(scope: ast.AST) -> Dict[str, str]:
    """Names assigned from shimmed simulator constructors in this scope."""
    out: Dict[str, str] = {}
    for node in _scope_local(scope):
        if not isinstance(node, ast.Assign) or not isinstance(
            node.value, ast.Call
        ):
            continue
        func = node.value.func
        cls = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if cls not in _SHIMMED_SIMULATORS:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                out[target.id] = cls
    return out
