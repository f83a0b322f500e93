"""Fault tolerance over edge-disjoint paths (paper Section 1 + Rabin's IDA).

Theorem 1 gives every cycle edge ``w`` edge-disjoint hypercube paths.  This
example disperses a message into one IDA piece per path (any half of them
reconstruct), fails random links, and measures end-to-end delivery — then
sweeps the failure probability to show the multi-path advantage over a
single-path embedding.

Run:  python examples/fault_tolerant_routing.py [n]
"""

import sys

from repro.core import embed_cycle_load1, graycode_cycle_embedding
from repro.fault import FaultModel, multipath_delivery_experiment
from repro.fault.ida import disperse, reconstruct


def main(n: int = 8) -> None:
    message = b"routing multiple paths in hypercubes"
    print("== IDA on its own ==")
    pieces = disperse(message, w=5, m=3)
    recovered = reconstruct(pieces[:2] + pieces[3:4], 5, 3)
    print(f"5 pieces, any 3 reconstruct: {recovered == message}")
    overhead = 5 * len(pieces[0][1]) / len(message)
    print(f"bandwidth overhead w/m: {overhead:.2f}x\n")

    emb = embed_cycle_load1(n)
    gray = graycode_cycle_embedding(n)
    print(f"== delivery rate under link faults (Q_{n}) ==")
    print(f"{'fault prob':>10} {'multipath+IDA':>14} {'single path':>12}")
    for prob in (0.01, 0.02, 0.05, 0.10, 0.20):
        faults = FaultModel.random(emb.host, prob, seed=42)
        report = multipath_delivery_experiment(emb, faults, message)
        single_ok = sum(
            faults.path_alive(path) for path in gray.edge_paths.values()
        )
        single_rate = single_ok / gray.guest.num_edges
        print(f"{prob:>10.2f} {report.delivery_rate:>14.3f} {single_rate:>12.3f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
