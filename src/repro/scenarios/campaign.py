"""The fault-campaign engine: kill k components mid-run, with/without IDA.

One campaign replays a scenario's traffic twice under the same fault set:

* **single-path arm** — every message ships one packet down its
  deterministic dimension-order path (the oblivious baseline);
* **IDA arm** — every message is dispersed with Rabin's IDA into ``w``
  pieces, one per edge-disjoint path
  (:func:`repro.routing.pathutils.edge_disjoint_paths` — the paper's
  Section 1 fault-tolerance application), needing any ``m`` pieces to
  reconstruct.

Faults activate at a configurable mid-run step (default: half the
fault-free single-path makespan), so packets that cleared the killed
region deliver and the rest are dropped by the store-and-forward engines'
fail-stop semantics.  The report compares delivered fraction and makespan
degradation between the two arms — the paper's reliability claim as a
measured quantity — and re-runs a real GF(256) reconstruction for every
delivered message as an end-to-end checksum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.fault.faults import FaultModel
from repro.fault.ida import disperse, reconstruct
from repro.hypercube.graph import Hypercube
from repro.routing.batched import BatchedStoreForward
from repro.routing.pathutils import edge_disjoint_paths
from repro.routing.simulator import StoreForwardSimulator
from repro.scenarios.registry import Schedule, build_columns

__all__ = ["CampaignConfig", "ArmReport", "CampaignReport", "run_campaign"]


@dataclass(frozen=True)
# lint: protocol-exempt(engine here is a config field naming which simulator to use)
class CampaignConfig:
    """Everything one campaign run depends on (all of it seeded)."""

    n: int
    scenario: str = "permutation"
    load: float = 1.0
    horizon: int = 8
    kill_links: int = 0
    kill_nodes: int = 0
    # None = activate at half the fault-free makespan; 0 = static faults
    kill_step: Optional[int] = None
    # alternative to kill counts: per-link failure probability (legacy CLI)
    fault_prob: Optional[float] = None
    width: Optional[int] = None  # disjoint paths per message (default n)
    pieces: Optional[int] = None  # IDA threshold m (default ceil(w/2))
    seed: Any = 0
    engine: str = "batched"  # "batched" | "reference"
    payload: bytes = b"routing multiple paths in hypercubes"
    scenario_params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.engine not in ("batched", "reference"):
            raise ValueError(
                f"engine must be 'batched' or 'reference', got {self.engine!r}"
            )
        if self.kill_links < 0 or self.kill_nodes < 0:
            raise ValueError("kill counts must be >= 0")


@dataclass(frozen=True)
class ArmReport:
    """One arm (single-path or IDA) of a campaign."""

    label: str
    messages: int
    delivered_messages: int
    packets: int
    delivered_packets: int
    clean_makespan: int
    faulty_makespan: int

    @property
    def delivered_fraction(self) -> float:
        return (
            self.delivered_messages / self.messages if self.messages else 1.0
        )

    @property
    def makespan_degradation(self) -> float:
        """Faulty / clean makespan (drops can push this below 1.0)."""
        return (
            self.faulty_makespan / self.clean_makespan
            if self.clean_makespan
            else 1.0
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "messages": self.messages,
            "delivered_messages": self.delivered_messages,
            "delivered_fraction": round(self.delivered_fraction, 4),
            "packets": self.packets,
            "delivered_packets": self.delivered_packets,
            "clean_makespan": self.clean_makespan,
            "faulty_makespan": self.faulty_makespan,
            "makespan_degradation": round(self.makespan_degradation, 3),
        }


@dataclass(frozen=True)
class CampaignReport:
    """Structured outcome of one fault campaign."""

    scenario: str
    n: int
    messages: int
    killed_links: int  # undirected links actually killed
    killed_nodes: int
    kill_step: int
    width: int
    pieces_needed: int
    seed: Any
    engine: str
    single: ArmReport
    ida: ArmReport
    reconstructions: int  # delivered messages whose payload round-tripped
    reconstruction_checks: int
    degraded_endpoints: int = 0  # messages whose endpoint node was killed
    config: CampaignConfig = field(  # type: ignore[assignment]
        repr=False, compare=False, default=None
    )

    @property
    def failover_gain(self) -> float:
        """IDA delivered fraction minus single-path delivered fraction."""
        return self.ida.delivered_fraction - self.single.delivered_fraction

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "n": self.n,
            "messages": self.messages,
            "killed_links": self.killed_links,
            "killed_nodes": self.killed_nodes,
            "kill_step": self.kill_step,
            "width": self.width,
            "pieces_needed": self.pieces_needed,
            "seed": self.seed,
            "engine": self.engine,
            "single": self.single.to_dict(),
            "ida": self.ida.to_dict(),
            "failover_gain": round(self.failover_gain, 4),
            "reconstructions": self.reconstructions,
            "reconstruction_checks": self.reconstruction_checks,
            "degraded_endpoints": self.degraded_endpoints,
        }

    def format(self) -> str:
        lines = [
            f"campaign: {self.scenario} on Q_{self.n}, "
            f"{self.messages} message(s), kill {self.killed_links} link(s) "
            f"+ {self.killed_nodes} node(s) at step {self.kill_step} "
            f"[{self.engine}]",
            f"  IDA failover: width {self.width}, need "
            f"{self.pieces_needed} piece(s) "
            f"(overhead {self.width / max(1, self.pieces_needed):.1f}x), "
            f"{self.reconstructions}/{self.reconstruction_checks} payload "
            f"reconstruction(s) verified",
        ]
        for arm in (self.single, self.ida):
            lines.append(
                f"  {arm.label:<12} delivered {arm.delivered_messages}/"
                f"{arm.messages} ({arm.delivered_fraction:.2%})  makespan "
                f"{arm.clean_makespan} -> {arm.faulty_makespan} "
                f"({arm.makespan_degradation:.2f}x)"
            )
        return "\n".join(lines)


def _run_arms(config: CampaignConfig, host: Hypercube, schedules, faults=None):
    """Run both arms' schedules — one batched call, or a per-arm loop.

    With ``engine="batched"`` the single-path and IDA arms advance as two
    lanes of one :class:`~repro.routing.batched.BatchedStoreForward` step
    loop (a shared fault model broadcasts to both lanes); results are
    field-identical to the per-arm reference loop.
    """
    if config.engine == "batched":
        return BatchedStoreForward(host).run_many(schedules, faults=faults)
    return [
        StoreForwardSimulator(host, tie_break="priority").run(
            schedule, faults=faults
        )
        for schedule in schedules
    ]


def _build_faults(config: CampaignConfig, host: Hypercube) -> FaultModel:
    if config.fault_prob is not None:
        return FaultModel.random(
            host, config.fault_prob, seed=f"{config.seed}:faults:prob"
        )
    faults = FaultModel.random_links(
        host, config.kill_links, seed=f"{config.seed}:faults:links"
    )
    if config.kill_nodes:
        faults = faults.merged(
            FaultModel.random_nodes(
                host, config.kill_nodes, seed=f"{config.seed}:faults:nodes"
            )
        )
    return faults


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run one fault campaign and report both arms."""
    host = Hypercube(config.n)
    # the single-path arm is the generated e-cube traffic itself, one
    # message per packet (generators skip self-addressed arrivals)
    single_schedule = build_columns(
        config.scenario,
        host,
        load=config.load,
        horizon=config.horizon,
        seed=f"{config.seed}:{config.scenario}:traffic",
        **dict(config.scenario_params),
    )
    nodes, ends = single_schedule.nodes, single_schedule.offsets
    messages = list(
        zip(
            nodes[ends[:-1]].tolist(),
            nodes[ends[1:] - 1].tolist(),
            single_schedule.release.tolist(),
        )
    )
    width = min(config.width or config.n, config.n)
    pieces_needed = config.pieces or -(-width // 2)
    pieces_needed = max(1, min(pieces_needed, width))
    ida_schedule: Schedule = []
    ida_owner: List[Tuple[int, int]] = []  # packet -> (message, piece index)
    for mi, (src, dst, release) in enumerate(messages):
        for piece, path in enumerate(edge_disjoint_paths(config.n, src, dst, width)):
            ida_schedule.append((path, release))
            ida_owner.append((mi, piece))

    single_clean, ida_clean = _run_arms(
        config, host, [single_schedule, ida_schedule]
    )
    kill_step = (
        config.kill_step
        if config.kill_step is not None
        else max(1, single_clean.makespan // 2)
    )

    faults = _build_faults(config, host)
    faults.active_from = kill_step
    single_faulty, ida_faulty = _run_arms(
        config, host, [single_schedule, ida_schedule], faults=faults
    )

    # per-message surviving piece indices in the IDA arm
    alive_pieces: Dict[int, List[int]] = {mi: [] for mi in range(len(messages))}
    for (mi, piece), done in zip(ida_owner, ida_faulty.done_steps):
        if done >= 0:
            alive_pieces[mi].append(piece)

    ida_delivered = sum(
        1 for mi in alive_pieces if len(alive_pieces[mi]) >= pieces_needed
    )
    degraded_endpoints = sum(
        1
        for src, dst, _ in messages
        if src in faults.failed_nodes or dst in faults.failed_nodes
    )

    # end-to-end checksum: real GF(256) dispersal + reconstruction from
    # the surviving pieces of every delivered message
    pieces = disperse(config.payload, width, pieces_needed)
    checks = reconstructions = 0
    for mi in sorted(alive_pieces):
        survivors = alive_pieces[mi]
        if len(survivors) < pieces_needed:
            continue
        checks += 1
        got = reconstruct(
            [pieces[i] for i in survivors[:pieces_needed]],
            width,
            pieces_needed,
        )
        if got == config.payload:
            reconstructions += 1

    single = ArmReport(
        label="single-path",
        messages=len(messages),
        delivered_messages=single_faulty.delivered,
        packets=len(single_schedule),
        delivered_packets=single_faulty.delivered,
        clean_makespan=single_clean.makespan,
        faulty_makespan=single_faulty.makespan,
    )
    ida = ArmReport(
        label="ida-failover",
        messages=len(messages),
        delivered_messages=ida_delivered,
        packets=len(ida_schedule),
        delivered_packets=ida_faulty.delivered,
        clean_makespan=ida_clean.makespan,
        faulty_makespan=ida_faulty.makespan,
    )
    return CampaignReport(
        scenario=config.scenario,
        n=config.n,
        messages=len(messages),
        killed_links=len(faults.failed) // 2,
        killed_nodes=len(faults.failed_nodes),
        kill_step=kill_step,
        width=width,
        pieces_needed=pieces_needed,
        seed=config.seed,
        engine=config.engine,
        single=single,
        ida=ida,
        reconstructions=reconstructions,
        reconstruction_checks=checks,
        degraded_endpoints=degraded_endpoints,
        config=config,
    )
