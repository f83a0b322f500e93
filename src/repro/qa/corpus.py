"""The replayable failure corpus: every finding becomes a JSON reproducer.

A corpus is a directory of small JSON files, one per (shrunken) fuzzing
failure.  Each entry carries everything :func:`repro.qa.fuzzer.replay`
needs to reproduce the finding bit-for-bit: the construction kind, the
minimized parameter point, the derived RNG seed the checks ran under, the
failing stage, and (for differential findings) the minimized schedule.

Entry ids are content hashes, so re-finding the same minimal reproducer
is idempotent — a fuzz job that trips over a known bug a hundred times
writes one file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["CorpusEntry", "Corpus", "default_corpus_dir"]

_FORMAT_VERSION = 1


def default_corpus_dir() -> str:
    """``$REPRO_QA_CORPUS`` or ``~/.cache/repro/qa-corpus``."""
    return os.environ.get(
        "REPRO_QA_CORPUS",
        os.path.join(
            os.environ.get(
                "XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache")
            ),
            "repro",
            "qa-corpus",
        ),
    )


@dataclass
class CorpusEntry:
    """One minimized reproducer.

    ``stage`` names the failing check layer (``build``, ``verify``,
    ``oracle``, ``metamorphic``, ``differential``, ``flow``); ``point_seed``
    is the exact RNG seed the per-point checks ran under, so a replay
    draws the same automorphisms and schedules the original run did.
    ``faults`` is the saved lane's fault model, when the shrunk
    divergence kept one: ``{"failed": [...], "failed_nodes": [...],
    "active_from": step}``, lists sorted.
    """

    kind: str
    params: Dict[str, Any]
    stage: str
    detail: str
    point_seed: str
    schedule: Optional[List] = None
    faults: Optional[Dict[str, Any]] = None
    version: int = _FORMAT_VERSION
    entry_id: str = field(default="")

    def __post_init__(self):
        if not self.entry_id:
            hashed = [self.kind, self.params, self.stage, self.schedule]
            if self.faults is not None:
                # fault-free entries keep the ids they always had
                hashed.append(self.faults)
            digest = hashlib.sha256(
                json.dumps(hashed, sort_keys=True).encode()
            ).hexdigest()
            self.entry_id = f"{self.stage}-{self.kind}-{digest[:12]}"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CorpusEntry":
        data = json.loads(text)
        if data.get("version", 0) > _FORMAT_VERSION:
            raise ValueError(
                f"corpus entry format v{data['version']} is newer than "
                f"this package understands (v{_FORMAT_VERSION})"
            )
        data.pop("version", None)
        return cls(**data)


class Corpus:
    """A directory of :class:`CorpusEntry` JSON files."""

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory or default_corpus_dir()

    def _path(self, entry_id: str) -> str:
        return os.path.join(self.directory, f"{entry_id}.json")

    def save(self, entry: CorpusEntry) -> str:
        """Write ``entry`` (idempotent by content hash); returns its path."""
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(entry.entry_id)
        with open(path, "w") as fp:
            fp.write(entry.to_json())
        return path

    def entries(self) -> List[CorpusEntry]:
        """All saved reproducers, sorted by entry id."""
        if not os.path.isdir(self.directory):
            return []
        out = []
        for name in sorted(os.listdir(self.directory)):
            if name.endswith(".json"):
                with open(os.path.join(self.directory, name)) as fp:
                    out.append(CorpusEntry.from_json(fp.read()))
        return out

    def load(self, ref: str) -> CorpusEntry:
        """Load by entry id or by file path."""
        path = ref if os.path.sep in ref or ref.endswith(".json") else self._path(ref)
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"no corpus entry {ref!r} under {self.directory}"
            )
        with open(path) as fp:
            return CorpusEntry.from_json(fp.read())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in self.entries():
            os.remove(self._path(entry.entry_id))
            removed += 1
        return removed

    def __len__(self) -> int:
        return len(self.entries())
