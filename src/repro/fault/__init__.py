"""Fault tolerance along edge-disjoint paths (paper Section 1).

"if communication links are unreliable multiple paths can be used to
increase fault-tolerance.  For example, Rabin's IDA scheme [22] can be
implemented along the independent paths."

* :mod:`repro.fault.gf256` — GF(2^8) field arithmetic (from scratch);
* :mod:`repro.fault.ida` — Rabin's Information Dispersal Algorithm: split a
  message into ``w`` pieces such that any ``m`` reconstruct it;
* :mod:`repro.fault.faults` — link/node fault injection (static or
  activated at a mid-run step) over a multipath embedding and end-to-end
  delivery experiments.
"""

from repro.fault.gf256 import GF256
from repro.fault.ida import disperse, reconstruct
from repro.fault.faults import (
    FaultModel,
    multipath_delivery_experiment,
    redundancy_tradeoff_sweep,
)

__all__ = [
    "GF256",
    "disperse",
    "reconstruct",
    "FaultModel",
    "multipath_delivery_experiment",
    "redundancy_tradeoff_sweep",
]
