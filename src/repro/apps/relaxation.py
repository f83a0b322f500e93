"""Grid relaxation on a hypercube (paper Sections 2 and 8.3).

A Jacobi relaxation on an ``M x M`` grid runs on a hypercube with ``N**2``
processors.  Section 8.3 compares three process-to-processor mappings:

1. **large-copy, point per process** — every grid point is a process; the
   large-copy grid embedding gives each processor ``M**2 / N**2`` points and
   ships ``O(M**2)`` boundary values per phase;
2. **blocked + multiple-path** — ``M/N x M/N`` blocks, one per processor;
   the multiple-path torus embedding ships the ``O(M/N)``-value block
   boundaries over ``floor(log N)``-wide path bundles: per-phase time
   ``Theta(M / (N log N))`` instead of the gray code's ``Theta(M/N)``;
3. **blocked large-copy** — ``N log N x N log N`` blocks with the
   large-copy embedding: ``log^2 N`` processes per processor, boundary
   ``M/(N log N)`` values each.

``GridRelaxation`` also runs the actual numerical Jacobi iteration (numpy)
so the communication schedule corresponds to a real computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.grid_multipath import embed_grid_multipath
from repro.routing.schedule import (
    PacketSchedule,
    ScheduledPacket,
)

__all__ = ["GridRelaxation", "relaxation_strategy_comparison"]


@dataclass
class GridRelaxation:
    """A Jacobi relaxation on an ``M x M`` grid with Dirichlet boundary."""

    M: int

    def __post_init__(self):
        if self.M < 3:
            raise ValueError("grid too small")
        self.values = np.zeros((self.M, self.M))
        # boundary condition: hot top edge
        self.values[0, :] = 1.0

    def step(self) -> float:
        """One Jacobi sweep; returns the max update delta."""
        v = self.values
        new = v.copy()
        new[1:-1, 1:-1] = 0.25 * (
            v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:]
        )
        delta = float(np.max(np.abs(new - v)))
        self.values = new
        return delta

    def run(self, iterations: int) -> float:
        delta = math.inf
        for _ in range(iterations):
            delta = self.step()
        return delta


def _blocked_multipath_phase_cost(N: int, boundary_packets: int) -> int:
    """Measured steps for one boundary-exchange phase on the N x N process
    torus embedded with multiple paths (strategy 2)."""
    emb = embed_grid_multipath((N, N), torus=True)
    width = max(1, emb.width)
    rounds = -(-boundary_packets // width)
    packets = []
    period = 6  # bidirectional two-phase schedule
    for edge, paths in emb.edge_paths.items():
        steps_per_path = emb.step_of[edge]
        sent = 0
        for r in range(rounds):
            base = period * r
            for path, st in zip(paths, steps_per_path):
                if sent >= boundary_packets:
                    break
                packets.append(
                    ScheduledPacket(tuple(path), tuple(s + base for s in st))
                )
                sent += 1
    sched = PacketSchedule(emb.host, packets)
    sched.verify()
    return sched.makespan


def _graycode_blocked_phase_cost(N: int, boundary_packets: int) -> int:
    """Strategy 2 with the classical embedding: each torus edge is one link,
    so the boundary serializes: ``boundary_packets`` steps per direction."""
    # per-axis gray code: each directed guest edge owns one link; all guest
    # edges ship concurrently, so the phase costs exactly boundary_packets
    return boundary_packets


def _measured_interleaved_block_steps(
    N: int, S: int, boundary_packets: int
) -> int:
    """Measured phase cost for an ``S x S`` block grid, interleaved onto the
    ``N x N`` processor torus (block ``(bx, by)`` on processor
    ``(bx mod N, by mod N)``, gray-coded per axis — the large-copy style
    placement where grid neighbors are processor neighbors but never
    co-located).  Every block edge ships ``boundary_packets`` packets; one
    phase is simulated on the vectorized link-bound engine.

    ``S = M`` with one packet per edge is Section 8.3's strategy 1
    (point per process); ``S = N log N`` with ``M/S`` packets is strategy 3.
    """
    from repro.hypercube.graph import Hypercube
    from repro.hypercube.graycode import gray_node_sequence
    from repro.routing.batched import BatchedStoreForward

    a = N.bit_length() - 1
    host = Hypercube(2 * a)
    seq = gray_node_sequence(a)

    def proc(x: int, y: int) -> int:
        return (seq[x % N] << a) | seq[y % N]

    schedule = []
    for x in range(S):
        for y in range(S):
            here = proc(x, y)
            for nx, ny in ((x + 1, y), (x, y + 1)):
                if nx >= S or ny >= S:
                    continue
                there = proc(nx, ny)
                for t in range(boundary_packets):
                    schedule.append(([here, there], t + 1))
                    schedule.append(([there, here], t + 1))
    return BatchedStoreForward(host).run(schedule).makespan


def relaxation_strategy_comparison(M: int, N: int) -> Dict[str, Dict[str, float]]:
    """Reproduce Section 8.3's three-way comparison for an M x M grid on
    ``N**2`` processors (``N`` a power of two).

    Returns, per strategy: total values communicated per phase, values per
    processor per phase, and the measured (or closed-form) per-phase steps.
    """
    if N & (N - 1) or N < 2:
        raise ValueError("N must be a power of two >= 2")
    if M % N:
        raise ValueError("M must be divisible by N")
    log_n = max(1, int(math.log2(N)))

    # 1. point per process with interleaved placement: every grid edge
    # crosses processors.  Measured by simulation up to moderate sizes,
    # closed-form beyond.
    total_1 = 4 * M * M
    per_proc_1 = total_1 / (N * N)
    if M <= 256:
        steps_1 = _measured_interleaved_block_steps(N, M, 1)
    else:
        steps_1 = math.ceil(per_proc_1 / (2 * 2 * log_n))

    # 2. blocked + multiple path: boundary of M/N values per side
    boundary = M // N
    total_2 = 4 * boundary * N * N
    steps_2 = _blocked_multipath_phase_cost(N, boundary)
    steps_2_gray = _graycode_blocked_phase_cost(N, boundary)

    # 3. blocked large-copy: (N log N)^2 blocks of side M/(N log N)
    side3 = N * log_n
    boundary3 = max(1, M // side3)
    total_3 = 4 * boundary3 * side3 * side3
    if side3 <= 256:
        steps_3 = _measured_interleaved_block_steps(N, side3, boundary3)
    else:
        # log^2 N processes per processor, log N paths per link
        steps_3 = math.ceil(4 * boundary3 * log_n)

    return {
        "large_copy_points": {
            "total_values": total_1,
            "per_processor": per_proc_1,
            "steps": steps_1,
        },
        "blocked_multipath": {
            "total_values": total_2,
            "per_processor": total_2 / (N * N),
            "steps": steps_2,
            "steps_graycode": steps_2_gray,
        },
        "blocked_large_copy": {
            "total_values": total_3,
            "per_processor": total_3 / (N * N),
            "steps": steps_3,
        },
    }
