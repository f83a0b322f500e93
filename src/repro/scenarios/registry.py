"""The seeded scenario-generator registry.

A *scenario* is a named, seeded traffic generator: given a host hypercube,
a shared RNG stream and a load knob λ (expected packets per node per step
over a ``horizon`` of injection steps), it produces
:class:`~repro.routing.api.ScheduleColumns` — CSR paths plus release and
service columns, which :func:`repro.routing.api.normalize_schedule` checks
column by column and every packet engine runs as they are.

Generators register themselves with :func:`register_scenario` (the
generator-registry style noted in ROADMAP.md); callers go through
:func:`build_columns`, which arbitrates ``(seed, rng)`` via
:func:`repro._compat.resolve_rng` so every scenario replays byte-identical
from a seed, or through :func:`build_schedule`, the same schedule as plain
``(path, release_step)`` pairs for callers that read path tuples.
:func:`schedule_digest` is the canonical content hash the determinism
tests and the fuzz oracles compare.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro._compat import resolve_rng
from repro.hypercube.graph import Hypercube
from repro.routing.api import ScheduleColumns

__all__ = [
    "Schedule",
    "ScenarioGenerator",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "build_columns",
    "build_schedule",
    "schedule_digest",
]

# one packet: (host path, release step) — identical to repro.qa.schedules
Schedule = List[Tuple[Tuple[int, ...], int]]

GeneratorFn = Callable[..., ScheduleColumns]


@dataclass(frozen=True)
class ScenarioGenerator:
    """One registered scenario: name, description, generator, defaults."""

    name: str
    description: str
    generate: GeneratorFn
    defaults: Dict[str, Any] = field(default_factory=dict)


_REGISTRY: Dict[str, ScenarioGenerator] = {}


def register_scenario(
    name: str, description: str = "", **defaults: Any
) -> Callable[[GeneratorFn], GeneratorFn]:
    """Register ``fn(host, rng, *, load, horizon, **params) -> ScheduleColumns``.

    ``defaults`` become the scenario's default pattern parameters (callers
    may override them per build).  Re-registering a name with a different
    function raises; re-importing the defining module is idempotent.
    """

    def decorate(fn: GeneratorFn) -> GeneratorFn:
        existing = _REGISTRY.get(name)
        if existing is not None and existing.generate is not fn:
            raise ValueError(f"scenario {name!r} is already registered")
        doc = description or (fn.__doc__ or "").strip().splitlines()[0]
        _REGISTRY[name] = ScenarioGenerator(name, doc, fn, dict(defaults))
        return fn

    return decorate


def _load_builtin_scenarios() -> None:
    # registration happens at import; lazy to avoid a registry<->generators
    # import cycle
    from repro.scenarios import generators  # noqa: F401


def scenario_names() -> Tuple[str, ...]:
    """Every registered scenario name, sorted."""
    _load_builtin_scenarios()
    return tuple(sorted(_REGISTRY))


def get_scenario(name: str) -> ScenarioGenerator:
    """The registered generator for ``name`` (KeyError lists known names)."""
    _load_builtin_scenarios()
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[name]


def build_columns(
    name: str,
    host: Hypercube,
    *,
    load: float = 1.0,
    horizon: int = 8,
    seed: Optional[Any] = None,
    rng: Optional[random.Random] = None,
    **params: Any,
) -> ScheduleColumns:
    """Build ``name``'s schedule on ``host`` at offered load ``load``.

    ``load`` is the expected number of packets injected per node per step
    across ``horizon`` injection steps (λ of the open-loop model);
    deterministic given ``seed`` (default 0), or pass ``rng`` to draw from
    a shared stream.  Extra keyword arguments override the scenario's
    default pattern parameters.
    """
    if load < 0:
        raise ValueError(f"load must be >= 0, got {load}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    gen = get_scenario(name)
    rng = resolve_rng(seed, rng)
    kwargs = dict(gen.defaults)
    kwargs.update(params)
    return gen.generate(host, rng, load=load, horizon=horizon, **kwargs)


def build_schedule(name: str, host: Hypercube, **kwargs: Any) -> Schedule:
    """:func:`build_columns`' schedule as ``(path tuple, release)`` pairs."""
    cols = build_columns(name, host, **kwargs)
    return list(zip(cols.paths, cols.release.tolist()))


def schedule_digest(schedule: Schedule) -> str:
    """A short stable content hash of a schedule (order-sensitive)."""
    h = hashlib.sha256()
    for path, release in schedule:
        h.update(",".join(map(str, path)).encode())
        h.update(f"@{release};".encode())
    return h.hexdigest()[:16]
