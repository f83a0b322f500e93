"""The closed form behind the event-driven wormhole engine, checked on the
reference :class:`~repro.routing.wormhole.WormholeSimulator`.

With a_j the step a worm's head acquires link j of its L links, M its flit
count and c the node buffer capacity, flit k crosses link i at

    t(k, i) = k + max(a_i, max over i < j <= min(L - 1, i + k // c)
                            of a_j - (j - i) * c).

:class:`~repro.routing.batched.BatchedWormhole` simulates only the head
acquisitions and derives every other observable from these identities, so
they are pinned here on the reference engine alone.  Its step loop
(``_run_lane``) updates the worms and the link owner map it is handed, so
two observations need no change to it: a recorder's ``on_transmit`` reads
which worm owns the link from that map (the reference gives up ownership
only after the hook runs), which logs every (worm, link, step) crossing;
and a run cut off by ``max_steps`` leaves the worms as they stood after
that step, which gives each step's head positions.
"""

from collections import defaultdict

import pytest

from repro._compat import resolve_rng
from repro.hypercube.graph import Hypercube
from repro.qa.schedules import DEADLOCK_CYCLE, random_worm_schedule
from repro.routing import WormholeDeadlock, WormholeSimulator
from repro.routing.wormhole import make_worms

LANES = 150


class _CrossingLog:
    """Recorder sink: the steps each (worm ident, link id) was crossed at."""

    def __init__(self, owner):
        self.owner = owner  # the live link -> worm ident map of the run
        self.steps = defaultdict(list)

    def __bool__(self):
        return True

    def on_transmit(self, eid, step, service_time=1):
        self.steps[self.owner[eid], eid].append(step)

    def on_deliver(self, step, count=1):
        pass


def _reference(host, lane, cap, max_steps=10_000_000):
    sim = WormholeSimulator(host, buffer_capacity=cap)
    worms, owner = make_worms(lane), {}
    log = _CrossingLog(owner)
    deadlock = None
    try:
        sim._run_lane(worms, owner, max_steps, log)
    except WormholeDeadlock as err:
        deadlock = str(err)
    except RuntimeError:  # cut off by max_steps
        pass
    return worms, log, deadlock


def _acquisitions(host, lane, cap, last_step):
    """a_j for every worm: the first step after which its head held link j."""
    acq = [[None] * (len(path) - 1) for path, _, _ in lane]
    for step in range(1, last_step + 1):
        worms, _, _ = _reference(host, lane, cap, max_steps=step)
        for a, worm in zip(acq, worms):
            for j in range(worm.head_link + 1):
                if a[j] is None:
                    a[j] = step
    return acq


def _closed_form(acq, cap, k, i):
    window = range(i, min(len(acq) - 1, i + k // cap) + 1)
    return k + max(acq[j] - (j - i) * cap for j in window)


def _lane(seed):
    rng = resolve_rng(f"wormhole-closed-form:{seed}")
    host = Hypercube(2 + seed % 4)
    lane = random_worm_schedule(host, rng, max_worms=8, rotate=bool(seed % 2))
    if seed % 6 == 1:
        # random lanes seldom deadlock, this one always does
        lane = DEADLOCK_CYCLE + lane
    return host, lane, 1 + seed % 3


@pytest.fixture(scope="module")
def observed():
    """Per lane: the reference's final worms, acquisition steps, crossings
    by worm and link position, deadlock message and buffer capacity."""
    out = []
    for seed in range(LANES):
        host, lane, cap = _lane(seed)
        worms, log, deadlock = _reference(host, lane, cap)
        last_step = max(s for steps in log.steps.values() for s in steps)
        crossings = []
        for worm in worms:
            eids = [
                host.edge_id(u, v) for u, v in zip(worm.path, worm.path[1:])
            ]
            assert len(set(eids)) == len(eids)  # minimal routes
            crossings.append([log.steps.get((worm.ident, e), []) for e in eids])
        acq = _acquisitions(host, lane, cap, last_step)
        out.append((lane, worms, acq, crossings, deadlock, cap))
    assert any(deadlock for *_, deadlock, _ in out)
    assert any(deadlock is None for *_, deadlock, _ in out)
    return out


def test_head_flit_crosses_in_the_acquisition_step(observed):
    for _, worms, acq, crossings, _, _ in observed:
        for worm, a, links in zip(worms, acq, crossings):
            for i, steps in enumerate(links):
                if i <= worm.head_link:
                    assert steps and steps[0] == a[i]
                else:
                    assert a[i] is None and not steps


def test_every_crossing_follows_the_closed_form(observed):
    for _, worms, acq, crossings, _, cap in observed:
        for worm, a, links in zip(worms, acq, crossings):
            for i, steps in enumerate(links):
                assert steps == sorted(steps)
                assert len(steps) == worm.flits_crossed[i]
                for k, step in enumerate(steps):
                    assert step == _closed_form(a, cap, k, i)


def test_worm_arrives_m_minus_one_steps_after_its_last_acquisition(observed):
    for _, worms, acq, _, _, _ in observed:
        for worm, a in zip(worms, acq):
            if worm.done_step is not None:
                assert worm.done_step == a[-1] + worm.num_flits - 1
            else:
                assert a[-1] is None


def test_stuck_worms_fill_the_buffers_behind_their_heads(observed):
    for _, worms, _, _, deadlock, cap in observed:
        for worm in worms:
            if worm.done_step is not None:
                continue
            assert deadlock is not None
            h, m = worm.head_link, worm.num_flits
            assert worm.flits_crossed == [
                min(m, (h - i + 1) * cap) if i <= h else 0
                for i in range(worm.num_links)
            ]


def test_deadlock_step_follows_the_last_crossing(observed):
    for lane, worms, _, crossings, deadlock, _ in observed:
        if deadlock is None:
            continue
        last_release = max(release for _, _, release in lane)
        last_crossing = max(
            s for links in crossings for steps in links for s in steps
        )
        stuck = sum(1 for w in worms if w.done_step is None)
        assert deadlock == (
            f"{stuck} worms deadlocked at step "
            f"{max(last_release, last_crossing + 1)}"
        )
