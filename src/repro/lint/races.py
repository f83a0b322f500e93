"""R6: lockset-style race detection for the service layer.

The concurrent modules (``service/registry.py``, ``service/engine.py``)
follow one discipline: shared mutable state is touched only under the
instance lock.  This pass infers that discipline per class and reports
the holes, statically:

* **locks** — attributes assigned a ``Lock``/``RLock``/``Condition``/
  ``Semaphore`` constructor in ``__init__``;
* **guarded attributes** — instance attributes written at least once
  inside ``with self.<lock>:`` in any non-``__init__`` method (a write
  the author bothered to lock is a declaration that the attribute is
  shared);
* **violations** — any read or write of a guarded attribute outside the
  lock in a non-``__init__`` method (``__init__`` runs before the object
  escapes, so unlocked writes there are fine).

One delegation idiom is recognized as synchronized: a call that receives
*both* the lock and the guarded attribute (``teardown(self._lock,
self._shards)``, positionally or by keyword) hands synchronization to
the callee — a ``weakref.finalize`` teardown helper is the motivating
case, since a finalizer must own the map without keeping its owner
alive.

``async def`` methods are analyzed exactly like threads: the batching
frontend's asyncio paths (``serve()`` handing work to the drain loop
through the queue) share instance state with the drain thread, so an
await point between a guarded read and write is the same hazard as a
thread switch.

This is deliberately intraprocedural: a private helper that relies on
*its caller* holding the lock is flagged, because nothing stops a future
caller from skipping the lock.  Such helpers either take the lock
(RLock makes that cheap) or carry ``# lint: race-ok(reason)``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.engine import LintConfig, LintModule, register_rule
from repro.lint.findings import Finding

__all__ = ["service_races"]

_LOCK_CONSTRUCTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)
# method calls that mutate their receiver: self.x.append(...) is a write
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "update", "setdefault", "add", "discard", "move_to_end",
        "appendleft", "popleft", "sort", "reverse",
    }
)


def _call_name(func: ast.AST) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _lock_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attributes bound to lock constructors in ``__init__``."""
    out: Set[str] = set()
    for node in cls.body:
        if not (
            isinstance(node, ast.FunctionDef) and node.name == "__init__"
        ):
            continue
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.Assign):
                continue
            if not (
                isinstance(stmt.value, ast.Call)
                and _call_name(stmt.value.func) in _LOCK_CONSTRUCTORS
            ):
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    out.add(target.attr)
    return out


def _self_attr(node: ast.AST) -> str:
    """``x`` when ``node`` is exactly ``self.x``, else ``""``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


_MethodDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def _write_targets(method: ast.AST) -> Set[int]:
    """ids of ``self.x`` Attribute nodes that are writes in this method."""
    writes: Set[int] = set()

    def mark(target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                mark(elt)
        elif isinstance(target, ast.Starred):
            mark(target.value)
        elif isinstance(target, ast.Subscript):
            if _self_attr(target.value):  # self.x[k] = v mutates self.x
                writes.add(id(target.value))
        elif _self_attr(target):
            writes.add(id(target))

    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                mark(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            mark(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                mark(target)
        elif isinstance(node, ast.Call):
            if _call_name(node.func) in _MUTATORS and isinstance(
                node.func, ast.Attribute
            ):
                if _self_attr(node.func.value):
                    writes.add(id(node.func.value))
    return writes


# (attr, kind, lineno, col, method name, under lock?)
_Access = Tuple[str, str, int, int, str, bool]


def _accesses(
    method: ast.AST, locks: Set[str]
) -> List[_Access]:
    writes = _write_targets(method)
    out: List[_Access] = []

    def scan(node: ast.AST, locked: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            takes_lock = any(
                _self_attr(item.context_expr) in locks
                for item in node.items
            )
            for item in node.items:
                scan(item.context_expr, locked)
            for stmt in node.body:
                scan(stmt, locked or takes_lock)
            return
        if isinstance(node, ast.Call):
            # lock handoff: a callee given the lock itself is trusted to
            # synchronize the guarded arguments it receives alongside it
            # (whether the lock travels positionally or as a keyword)
            hands_lock = any(
                _self_attr(arg) in locks for arg in node.args
            ) or any(
                _self_attr(kw.value) in locks for kw in node.keywords
            )
            scan(node.func, locked)
            for arg in node.args:
                scan(arg, locked or hands_lock)
            for kw in node.keywords:
                scan(kw.value, locked or hands_lock)
            return
        attr = _self_attr(node)
        if attr and attr not in locks:
            kind = "write" if id(node) in writes else "read"
            out.append(
                (attr, kind, node.lineno, node.col_offset, method.name, locked)
            )
        for child in ast.iter_child_nodes(node):
            scan(child, locked)

    for stmt in method.body:
        scan(stmt, False)
    return out


@register_rule("R6", "service-races")
def service_races(module: LintModule, config: LintConfig) -> Iterator[Finding]:
    """Guarded shared state must only be touched under the instance lock."""
    if not module.matches(config.race_modules):
        return
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        locks = _lock_attrs(cls)
        if not locks:
            continue
        methods = [
            n
            for n in cls.body
            if isinstance(n, _MethodDef) and n.name != "__init__"
        ]
        per_method: Dict[str, List[_Access]] = {
            m.name: _accesses(m, locks) for m in methods
        }
        guarded: Set[str] = {
            attr
            for accesses in per_method.values()
            for (attr, kind, _, _, _, locked) in accesses
            if kind == "write" and locked
        }
        if not guarded:
            continue
        lock_name = sorted(locks)[0]
        for accesses in per_method.values():
            for attr, kind, lineno, col, name, locked in accesses:
                if attr not in guarded or locked:
                    continue
                if module.waived("race-ok", lineno):
                    continue
                yield Finding(
                    "R6", "error", module.rel, lineno, col + 1,
                    f"unsynchronized {kind} of self.{attr} in "
                    f"{cls.name}.{name}() — written under self.{lock_name} "
                    f"elsewhere",
                    suggestion=f"wrap the access in 'with self.{lock_name}:' "
                    f"(or waive with # lint: race-ok(reason) if the access "
                    f"is provably single-threaded)",
                )
