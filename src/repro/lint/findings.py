"""Finding and report data model for the domain-aware linter.

A :class:`Finding` is one rule violation at one source location; a
:class:`LintReport` is the outcome of one run over a file set.  Both
serialize to the stable JSON shape documented in EXPERIMENTS.md (appendix
"repro lint JSON output") and consumed by ``benchmarks/lint_summary.py``
— bump :data:`LINT_OUTPUT_VERSION` when the shape changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

__all__ = ["Finding", "LintReport", "LINT_OUTPUT_VERSION"]

LINT_OUTPUT_VERSION = 2


@dataclass(frozen=True)
class Finding:
    """One rule violation: where, what, and a hint at the fix."""

    rule: str
    severity: str  # "error" | "warning"
    path: str  # posix-style path as scanned
    line: int
    col: int
    message: str
    suggestion: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suggestion": self.suggestion,
        }

    def format(self) -> str:
        tail = f"  [{self.suggestion}]" if self.suggestion else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity}: {self.message}{tail}"
        )


@dataclass
class LintReport:
    """Everything one lint run found, plus scan bookkeeping."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: Tuple[str, ...] = ()

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity == "warning")

    @property
    def ok(self) -> bool:
        """True when no error-severity finding survived."""
        return self.errors == 0

    def counts(self) -> Dict[str, int]:
        """Finding count per rule id, including zero for every rule run."""
        out: Dict[str, int] = {rule: 0 for rule in self.rules_run}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": LINT_OUTPUT_VERSION,
            "tool": "repro-lint",
            "files_scanned": self.files_scanned,
            "errors": self.errors,
            "warnings": self.warnings,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def summary(self) -> str:
        return (
            f"{self.files_scanned} file(s) scanned, "
            f"{self.errors} error(s), {self.warnings} warning(s)"
        )

    def to_sarif(self) -> Dict[str, Any]:
        """SARIF 2.1.0 log for CI annotation / code-scanning upload.

        Rule ids come from the run (so a ``--select`` run advertises only
        what it checked, plus any ad-hoc ids like ``pragma``/``parse``
        that produced findings).
        """
        rule_ids = sorted(set(self.rules_run) | {f.rule for f in self.findings})
        results = [
            {
                "ruleId": f.rule,
                "level": "error" if f.severity == "error" else "warning",
                "message": {
                    "text": f.message + (f"\n{f.suggestion}" if f.suggestion else "")
                },
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": f.path},
                            "region": {
                                "startLine": f.line,
                                "startColumn": f.col,
                            },
                        }
                    }
                ],
            }
            for f in self.findings
        ]
        return {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-lint",
                            "version": str(LINT_OUTPUT_VERSION),
                            "rules": [{"id": rid} for rid in rule_ids],
                        }
                    },
                    "results": results,
                }
            ],
        }
