"""The lint engine: file discovery, pragmas, rule registry, running.

Rules are AST passes registered with :func:`register_rule`; the engine
parses each target file once into a :class:`LintModule` (source + tree +
pragma index + scope map) and hands it to every selected module-scoped
rule, then hands the whole module set to the project-scoped rules (the
construction contract and the race detector reason across files).

Pragmas waive one rule at one site::

    # lint: rng-ok(fuzz sampler shares the harness stream)

The token names the rule's waiver (each rule documents its own); the
parenthesized reason is mandatory — an unexplained waiver is itself a
finding.  A pragma on a ``def``/``class`` line (or the line above it)
waives the rule for that whole scope.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.lint.findings import Finding, LintReport

__all__ = [
    "LintConfig",
    "LintModule",
    "Rule",
    "register_rule",
    "all_rules",
    "run_lint",
]

# the "lint:" marker inside a comment; tokens and reasons are parsed by
# hand after it so reasons may contain balanced parentheses and one line
# may carry several pragmas (see _parse_pragmas)
_PRAGMA_HEAD_RE = re.compile(r"lint:\s*")
_PRAGMA_TOKEN_RE = re.compile(r"[a-z][a-z0-9-]*")

# every waiver token a rule may consult; unknown tokens are findings
KNOWN_PRAGMAS = frozenset(
    {
        "rng-ok",  # R1
        "no-oracle",  # R3
        "protocol-exempt",  # R4
        "nondet-ok",  # R5
        "race-ok",  # R6
        "domain-ok",  # R7
        "dtype-ok",  # R8
        "no-parity",  # R9
    }
)


@dataclass(frozen=True)
class LintConfig:
    """What to lint and which repo contracts to enforce where.

    Paths in the tuples are suffix-matched against posix relative paths,
    so the defaults work both on the real tree (``src/repro/...``) and on
    fixture trees that mirror the layout under another root.
    """

    select: Optional[Tuple[str, ...]] = None  # rule ids; None = all
    # R1: modules allowed to use the random modules directly
    rng_exempt: Tuple[str, ...] = ("_compat.py",)
    # R5: directory names whose modules are deterministic kernels
    kernel_dirs: Tuple[str, ...] = ("core", "routing", "scenarios")
    # R6: modules whose lock discipline is checked
    race_modules: Tuple[str, ...] = (
        "service/registry.py",
        "service/engine.py",
        "service/shards.py",
        "service/frontend.py",
        "service/store.py",
    )
    # R3: the files defining the construction contract
    contract_api: str = "core/__init__.py"
    contract_table: str = "qa/constructions.py"
    contract_oracles: str = "qa/oracles.py"
    # R3: the scenario registry; every @register_scenario kind needs an oracle
    contract_scenarios: str = "scenarios/generators.py"
    # R9: the QA modules that prove kernel parity, and the serving, IDA,
    # schedule-normalization and array-builder kernels (beyond engine
    # classes) that must appear in the differential module
    parity_differential: str = "qa/differential.py"
    parity_fuzzer: str = "qa/fuzzer.py"
    parity_kernels: Tuple[str, ...] = (
        "embedding_csr", "flatten_embedding", "open_store", "disperse",
        "reconstruct", "normalize_schedule", "embed_cycle_load1",
        "embed_cycle_load2", "embed_grid_multipath", "large_cycle_embedding",
    )


@dataclass
class LintModule:
    """One parsed source file plus the derived indices rules consult."""

    path: Path
    rel: str  # posix-style path as reported in findings
    source: str
    lines: List[str]
    tree: ast.Module
    pragmas: Dict[int, Dict[str, str]]  # line -> {token: reason}
    scope_lines: Dict[int, Tuple[int, ...]]  # line -> enclosing def/class lines

    def waived(self, token: str, lineno: int) -> bool:
        """True when ``token`` is waived at ``lineno`` or an enclosing scope.

        A pragma waives the line it sits on, the line below it (comment-
        above-the-statement style), and — when it sits on a ``def`` or
        ``class`` header — everything inside that scope.
        """
        for line in (lineno,) + self.scope_lines.get(lineno, ()):
            if token in self.pragmas.get(line, {}):
                return True
            if token in self.pragmas.get(line - 1, {}):
                return True
        return False

    def matches(self, suffixes: Sequence[str]) -> bool:
        return any(self.rel.endswith(s) for s in suffixes)

    def in_dirs(self, dirs: Sequence[str]) -> bool:
        return any(part in dirs for part in Path(self.rel).parts[:-1])


RuleFn = Callable[..., Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered rule: id, human name, scope, and its pass."""

    id: str
    name: str
    scope: str  # "module" | "project"
    severity: str
    doc: str
    fn: RuleFn


_RULES: Dict[str, Rule] = {}


def register_rule(
    rule_id: str,
    name: str,
    *,
    scope: str = "module",
    severity: str = "error",
) -> Callable[[RuleFn], RuleFn]:
    """Register a rule pass under ``rule_id`` (e.g. ``"R1"``).

    Module-scoped passes are called ``fn(module, config)`` once per file;
    project-scoped passes are called ``fn(modules, config)`` once per run.
    """
    if scope not in ("module", "project"):
        raise ValueError(f"scope must be module or project, got {scope!r}")

    def decorate(fn: RuleFn) -> RuleFn:
        if rule_id in _RULES and _RULES[rule_id].fn is not fn:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _RULES[rule_id] = Rule(
            rule_id, name, scope, severity, (fn.__doc__ or "").strip(), fn
        )
        return fn

    return decorate


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, in id order (importing the rule modules)."""
    _load_builtin_rules()
    return tuple(_RULES[k] for k in sorted(_RULES))


def _load_builtin_rules() -> None:
    # registration happens at import; keep in one place so run_lint and
    # the CLI agree on the rule set
    from repro.lint import races  # noqa: F401
    from repro.lint import rules_contract  # noqa: F401
    from repro.lint import rules_domain  # noqa: F401
    from repro.lint import rules_dtype  # noqa: F401
    from repro.lint import rules_parity  # noqa: F401
    from repro.lint import rules_protocol  # noqa: F401
    from repro.lint import rules_rng  # noqa: F401


# -- parsing -------------------------------------------------------------------


def _parse_pragmas(text: str) -> List[Tuple[int, str, Optional[str], str]]:
    """Parse every pragma on one line: ``(col, token, reason, problem)``.

    ``reason`` is ``None`` when missing/empty, and ``problem`` names what
    went wrong (``""`` when well-formed).  The parser is a single cursor
    walk so that reasons containing balanced parentheses — or the text
    ``lint:`` itself — never confuse later pragmas, and one comment may
    stack several pragmas: ``# lint: race-ok(drain() owns it) dtype-ok(…)``.
    """
    hash_pos = text.find("#")
    if hash_pos < 0:
        return []
    out: List[Tuple[int, str, Optional[str], str]] = []
    pos = hash_pos
    while True:
        head = _PRAGMA_HEAD_RE.search(text, pos)
        if head is None:
            return out
        pos = head.end()
        first = True
        while True:
            while pos < len(text) and text[pos] in " \t,":
                pos += 1
            token_match = _PRAGMA_TOKEN_RE.match(text, pos)
            if token_match is None:
                break
            token = token_match.group(0)
            after = token_match.end()
            if after >= len(text) or text[after] != "(":
                # a bare token right after "lint:" is a malformed pragma;
                # later bare words are just prose trailing a pragma
                if first:
                    out.append((token_match.start(), token, None, "no-reason"))
                    pos = after
                break
            depth, cursor = 1, after + 1
            while cursor < len(text) and depth:
                if text[cursor] == "(":
                    depth += 1
                elif text[cursor] == ")":
                    depth -= 1
                cursor += 1
            if depth:
                out.append(
                    (token_match.start(), token, None, "unterminated")
                )
                return out
            reason = text[after + 1:cursor - 1].strip()
            out.append(
                (token_match.start(), token, reason or None,
                 "" if reason else "no-reason")
            )
            pos = cursor
            first = False


def _collect_pragmas(
    lines: List[str], rel: str
) -> Tuple[Dict[int, Dict[str, str]], List[Finding]]:
    pragmas: Dict[int, Dict[str, str]] = {}
    problems: List[Finding] = []
    for i, text in enumerate(lines, start=1):
        if "lint:" not in text:
            continue
        for col, token, reason, problem in _parse_pragmas(text):
            if token not in KNOWN_PRAGMAS:
                problems.append(
                    Finding(
                        "pragma", "error", rel, i, col + 1,
                        f"unknown lint pragma {token!r}",
                        suggestion=f"known: {', '.join(sorted(KNOWN_PRAGMAS))}",
                    )
                )
                continue
            if problem == "unterminated":
                problems.append(
                    Finding(
                        "pragma", "error", rel, i, col + 1,
                        f"pragma {token!r} has an unterminated reason: "
                        f"missing ')'",
                    )
                )
                continue
            if reason is None:
                problems.append(
                    Finding(
                        "pragma", "error", rel, i, col + 1,
                        f"pragma {token!r} needs a reason: # lint: {token}(why)",
                    )
                )
                continue
            pragmas.setdefault(i, {})[token] = reason
    return pragmas, problems


def _scope_map(tree: ast.Module) -> Dict[int, Tuple[int, ...]]:
    """Map every line to the header lines of its enclosing defs/classes."""
    out: Dict[int, Tuple[int, ...]] = {}

    def visit(node: ast.AST, stack: Tuple[int, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                header = child.lineno
                end = getattr(child, "end_lineno", header) or header
                for line in range(header, end + 1):
                    out[line] = (header,) + stack
                visit(child, (header,) + stack)
            else:
                visit(child, stack)

    visit(tree, ())
    return out


def parse_module(path: Union[str, Path], rel: Optional[str] = None) -> LintModule:
    """Parse one file into a :class:`LintModule` (raises ``SyntaxError``)."""
    path = Path(path)
    rel_str = rel if rel is not None else path.as_posix()
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    pragmas, _ = _collect_pragmas(lines, rel_str)
    return LintModule(
        path, rel_str, source, lines, tree, pragmas, _scope_map(tree)
    )


def discover_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: Set[Path] = set()
    out: List[Path] = []
    for p in paths:
        p = Path(p)
        candidates = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for c in candidates:
            if "__pycache__" in c.parts or c.suffix != ".py":
                continue
            key = c.resolve()
            if key not in seen:
                seen.add(key)
                out.append(c)
    return out


# -- running -------------------------------------------------------------------


def run_lint(
    paths: Sequence[Union[str, Path]],
    config: Optional[LintConfig] = None,
    *,
    focus: Optional[Iterable[Union[str, Path]]] = None,
) -> LintReport:
    """Run every selected rule over ``paths``; returns a :class:`LintReport`.

    Unparseable files surface as ``parse`` errors rather than crashing the
    run — a syntax error in one module must not hide findings in others.

    ``focus`` (``repro lint --changed``) restricts the *reported* findings
    to the given files while every rule still reasons over the full module
    set — project-scoped rules like the construction contract and kernel
    parity are only sound with the whole picture in front of them.
    """
    config = config or LintConfig()
    focus_set: Optional[Set[Path]] = None
    if focus is not None:
        focus_set = {Path(p).resolve() for p in focus}
    rules = [
        r
        for r in all_rules()
        if config.select is None or r.id in config.select
    ]
    findings: List[Finding] = []
    modules: List[LintModule] = []
    files = discover_files(paths)
    for path in files:
        rel = path.as_posix()
        try:
            module = parse_module(path, rel)
        except SyntaxError as err:
            findings.append(
                Finding(
                    "parse", "error", rel, err.lineno or 1, err.offset or 1,
                    f"syntax error: {err.msg}",
                )
            )
            continue
        _, pragma_problems = _collect_pragmas(module.lines, rel)
        findings.extend(pragma_problems)
        modules.append(module)

    for rule in rules:
        if rule.scope == "module":
            for module in modules:
                findings.extend(rule.fn(module, config))
        else:
            findings.extend(rule.fn(modules, config))

    if focus_set is not None:
        findings = [
            f for f in findings if Path(f.path).resolve() in focus_set
        ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintReport(
        findings=findings,
        files_scanned=len(files),
        rules_run=tuple(r.id for r in rules),
    )


# -- shared AST helpers used by several rules ---------------------------------


def import_tables(tree: ast.Module) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Resolve local names to dotted origins.

    Returns ``(module_aliases, member_aliases)``: ``import numpy as np``
    binds ``np -> numpy``; ``from numpy import random as nr`` binds
    ``nr -> numpy.random`` (members land in the second table whether they
    are modules, classes or functions — resolution treats both alike).
    """
    mod_aliases: Dict[str, str] = {}
    member_aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                mod_aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                member_aliases[local] = f"{node.module}.{alias.name}"
    return mod_aliases, member_aliases


def resolve_call(
    func: ast.AST,
    mod_aliases: Dict[str, str],
    member_aliases: Dict[str, str],
) -> Optional[str]:
    """Dotted origin of a call target, or None when it isn't import-rooted."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.reverse()
    if node.id in member_aliases:
        return ".".join([member_aliases[node.id]] + parts)
    if node.id in mod_aliases:
        return ".".join([mod_aliases[node.id]] + parts)
    return None
