"""repro.lint — domain-aware static analysis for this repository.

Generic linters don't know that randomness must flow through
:func:`repro._compat.resolve_rng`, that every public builder owes the QA
fuzzer a construction entry and a paper oracle, or that the service
layer's shared state is lock-guarded.  This package encodes those
repo-specific invariants as AST passes over a pluggable rule registry:

========  =====================  ==========================================
rule      name                   waiver pragma
========  =====================  ==========================================
R1        rng-discipline         ``# lint: rng-ok(reason)``
R3        construction-contract  ``# lint: no-oracle(reason)``
R4        simulator-protocol     ``# lint: protocol-exempt(reason)``
R5        determinism            ``# lint: nondet-ok(reason)``
R6        service-races          ``# lint: race-ok(reason)``
R7        domain-confusion       ``# lint: domain-ok(reason)``
R8        dtype-overflow         ``# lint: dtype-ok(reason)``
R9        kernel-parity          ``# lint: no-parity(reason)``
========  =====================  ==========================================

R7 and R8 run a shared abstract interpretation over the index-domain
lattice in :mod:`repro.lint.domains` (NodeId, LinkId, LaneLinkId,
PackedEdgeKey, CsrOffset, ByteOffset, FlitPos) — see
``docs/architecture.md`` for the lattice and its pack/unpack algebra.
R9 makes the fast-kernel/QA-differential pairing structural the same way
R3 ties builders to oracles.

Rule ids are stable: R2 (the retired deprecation-shim rule) is not
reused, because pragmas, SARIF logs and the lint summary key on the ids.

Run via ``repro lint [--format json|text|sarif] [--changed [BASE]]
[--output FILE] [paths]``, or programmatically::

    from repro.lint import run_lint
    report = run_lint(["src/repro"])
    assert report.ok, report.summary()
"""

from repro.lint.engine import (
    KNOWN_PRAGMAS,
    LintConfig,
    LintModule,
    Rule,
    all_rules,
    discover_files,
    parse_module,
    register_rule,
    run_lint,
)
from repro.lint.findings import LINT_OUTPUT_VERSION, Finding, LintReport

__all__ = [
    "Finding",
    "LintReport",
    "LintConfig",
    "LintModule",
    "Rule",
    "KNOWN_PRAGMAS",
    "LINT_OUTPUT_VERSION",
    "all_rules",
    "discover_files",
    "parse_module",
    "register_rule",
    "run_lint",
]
