"""E13 (Section 1): fault tolerance via IDA over the edge-disjoint paths.

Claim: the width-w paths of a multiple-path embedding carry Rabin's IDA
pieces, so message delivery survives link faults that break any single-path
embedding; at moderate fault rates the multipath+IDA delivery rate dominates
the single-path rate.
"""

from conftest import print_table

from repro.core import embed_cycle_load1, graycode_cycle_embedding
from repro.fault import FaultModel, multipath_delivery_experiment
from repro.fault.ida import disperse, reconstruct


def test_e13_ida_roundtrip(benchmark):
    message = b"x" * 1000
    pieces = disperse(message, w=6, m=3)
    for keep in ((0, 1, 2), (3, 4, 5), (0, 2, 4)):
        subset = [pieces[i] for i in keep]
        assert reconstruct(subset, 6, 3) == message

    benchmark(lambda: disperse(message, 6, 3))


def test_e13_delivery_under_faults(benchmark):
    emb = embed_cycle_load1(8)
    gray = graycode_cycle_embedding(8)
    message = b"routing multiple paths"
    rows = []
    for prob in (0.01, 0.05, 0.10):
        total_multi = total_single = 0.0
        trials = 5
        for seed in range(trials):
            faults = FaultModel.random(emb.host, prob, seed=seed)
            rep = multipath_delivery_experiment(emb, faults, message)
            total_multi += rep.delivery_rate
            ok = sum(
                faults.path_alive(p) for p in gray.edge_paths.values()
            )
            total_single += ok / gray.guest.num_edges
        multi, single = total_multi / trials, total_single / trials
        rows.append((prob, f"{multi:.3f}", f"{single:.3f}"))
        if prob <= 0.05:
            assert multi >= single
    print_table(
        "E13: delivery rate under random link faults (Q_8, 5 trials)",
        rows,
        ["fault prob", "multipath + IDA", "single path"],
    )

    faults = FaultModel.random(emb.host, 0.05, seed=0)
    benchmark(lambda: multipath_delivery_experiment(emb, faults, message))


def test_e13_redundancy_tradeoff(benchmark):
    """The IDA knob: bandwidth overhead w/m vs delivery reliability."""
    from repro.fault import redundancy_tradeoff_sweep

    emb = embed_cycle_load1(8)
    rows = redundancy_tradeoff_sweep(emb, 0.05, trials=3)
    table = [
        (r["pieces_needed"], r["overhead"], r["delivery_rate"]) for r in rows
    ]
    print_table(
        "E13: IDA redundancy trade-off (Q_8, 5% link faults, width 5)",
        table,
        ["pieces needed m", "overhead w/m", "delivery rate"],
    )
    rates = [r["delivery_rate"] for r in rows]
    assert rates == sorted(rates, reverse=True)  # more redundancy, safer
    assert rows[0]["delivery_rate"] >= 0.99      # 5x redundancy ~ certain
    assert rows[-1]["overhead"] == 1.0           # m = w: no overhead

    benchmark(lambda: redundancy_tradeoff_sweep(emb, 0.05, trials=1))
