"""R4: structural check of the Simulator protocol, without importing.

The unified simulator API fixed the engine surface: any class
advertising itself as an engine (an ``engine = "<name>"`` class attribute
plus a ``run`` method) must satisfy::

    run(self, schedule, *, max_steps=..., recorder=None) -> SimResult

This rule checks that shape purely from the AST — no import, so a broken
or heavy module still gets checked, and fixture trees never execute.  An
annotated ``run`` must say ``-> SimResult``; an unannotated one's class
must construct one.  No engine is exempt; a class whose ``engine`` is a
config field carries ``# lint: protocol-exempt(reason)`` on its header.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import LintConfig, LintModule, register_rule
from repro.lint.findings import Finding

__all__ = ["simulator_protocol"]


def _engine_attr(cls: ast.ClassDef) -> Optional[str]:
    """The value of a string-valued ``engine = ...`` class attribute."""
    for node in cls.body:
        targets = (
            node.targets
            if isinstance(node, ast.Assign)
            else [node.target]
            if isinstance(node, ast.AnnAssign) and node.value is not None
            else []
        )
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "engine":
                value = node.value
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, str
                ):
                    return value.value
    return None


def _find_method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _builds_sim_result(cls: ast.ClassDef) -> bool:
    for node in ast.walk(cls):
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else ""
            )
            if name == "SimResult":
                return True
    return False


@register_rule("R4", "simulator-protocol")
def simulator_protocol(
    module: LintModule, config: LintConfig
) -> Iterator[Finding]:
    """Engine classes must expose the unified ``run`` surface."""
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        engine = _engine_attr(cls)
        if engine is None:
            continue
        if module.waived("protocol-exempt", cls.lineno):
            continue

        run = _find_method(cls, "run")
        if run is None:
            yield Finding(
                "R4", "error", module.rel, cls.lineno, cls.col_offset + 1,
                f"class {cls.name} declares engine={engine!r} but has no "
                f"run() method",
                suggestion="implement run(schedule, *, max_steps=..., "
                "recorder=None) -> SimResult",
            )
            continue

        problems = []
        positional = [a.arg for a in run.args.args[1:]]  # drop self
        if positional[:1] != ["schedule"]:
            problems.append("first parameter after self must be 'schedule'")
        kwonly = {a.arg for a in run.args.kwonlyargs}
        for required in ("max_steps", "recorder"):
            if required not in kwonly:
                problems.append(f"missing keyword-only parameter '{required}'")
        missing_kw_defaults = {
            a.arg
            for a, d in zip(run.args.kwonlyargs, run.args.kw_defaults)
            if d is None and a.arg in ("max_steps", "recorder")
        }
        for name in sorted(missing_kw_defaults):
            problems.append(f"keyword-only parameter '{name}' needs a default")
        if run.returns is not None:
            # the last dotted name of the annotation, quoted or not
            returns = ast.unparse(run.returns).strip("'\"").split(".")[-1]
            if returns != "SimResult":
                problems.append("run() is annotated to return something "
                                "other than SimResult")
        elif not _builds_sim_result(cls):
            problems.append("class never constructs a SimResult")

        for problem in problems:
            yield Finding(
                "R4", "error", module.rel, run.lineno, run.col_offset + 1,
                f"engine {engine!r} ({cls.name}.run) breaks the simulator "
                f"protocol: {problem}",
                suggestion="conform to run(schedule, *, max_steps=..., "
                "recorder=None) -> SimResult, or waive with "
                "# lint: protocol-exempt(reason) on the class line",
            )
