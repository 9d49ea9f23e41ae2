"""Fragment-aware GPU L1 TLB simulation and TRIAD miss counting.

One TLB entry covers a whole fragment run, so reach grows with placement
contiguity. The model is a fully associative LRU over fragment runs, keyed
by run base (one table read tiles its pages with runs, so no two share a
base); capacity comes from the machine profile. Counter name used in
reports: TCP_UTCL1_TRANSLATION_MISS.

``triad_misses`` reads each operand's fragment runs, not its pages: an
operand changes run only at a run start, so the TRIAD's events are the
sorted union of the operands' run starts inside the range, and each
operand's run at an event is found by binary search. It counts without
replaying every run when the capacity holds at least one entry per
operand and the operands' run bases rise within separate ranges, as
they do for separate reservations: then every run misses exactly once
per pass except those still resident from the pass before, and only the
steps around the pass boundary go through the LRU. Other inputs, such
as one array passed as several operands or a capacity below the operand
count, replay the event steps, each weighted by its page count.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .pagetable import GPU, DualTable, Unmapped

COUNTER_NAME = "TCP_UTCL1_TRANSLATION_MISS"


class FragmentTlb:
    """Fully associative LRU TLB over fragment-granular entries."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[int, None] = OrderedDict()
        self.misses = 0

    def access_run(self, run_base: int) -> bool:
        """Translate one access whose page lies in the fragment run that
        starts at run_base.

        Returns True on hit. On miss the run is inserted, evicting the
        least recently used entry when full.
        """
        if run_base in self._entries:
            self._entries.move_to_end(run_base)
            return True
        self.misses += 1
        self._entries[run_base] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return False


def _operand_runs(table: DualTable, va_base: int, n_pages: int):
    """(offsets, bases) of the fragment runs that a GPU-mapped range
    touches, in address order: each run's first page relative to va_base,
    the first clipped to 0, and its base, the run's first virtual page."""
    starts, orders = table.fragment_runs(GPU, va_base, n_pages)
    end = va_base + n_pages
    lo = max(int(np.searchsorted(starts, va_base, "right")) - 1, 0)
    hi = int(np.searchsorted(starts, end))
    bases = starts[lo:hi]
    tops = bases + np.left_shift(1, orders[lo:hi], dtype=np.int64)
    # Runs do not overlap, so they cover the range iff their overlaps
    # with it add up to its length.
    overlap = np.minimum(tops, end) - np.maximum(bases, va_base)
    if int(np.maximum(overlap, 0).sum()) != n_pages:
        raise Unmapped("range not fully mapped in gpu table")
    offsets = bases - va_base
    offsets[:1] = 0
    return offsets, bases


def triad_misses(table: DualTable, arrays: list[tuple[int, int]],
                 iterations: int, capacity: int) -> int:
    """Total TLB misses of a streaming TRIAD over the given arrays.

    arrays lists (va_base, n_pages) of the operands, all the same length;
    the access pattern interleaves one page-sized window of each operand
    per index step, which is how a streaming kernel's translations arrive.
    Consecutive accesses inside one fragment run are collapsed: they hit
    by construction and only refresh an entry that is already most recent.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    n = min(np_ for _, np_ in arrays)
    runs = [_operand_runs(table, vb, np_) for vb, np_ in arrays]
    # Event compression: evaluate only where some operand changes run,
    # at the sorted union of the operands' run offsets; between two events
    # every page repeats the same run of each operand.
    idx = np.concatenate([offsets for offsets, _ in runs])
    idx = idx[idx < n]
    idx.sort()
    idx = idx[np.diff(idx, prepend=-1) != 0]
    events = [bases[np.searchsorted(offsets, idx, "right") - 1]
              for offsets, bases in runs]
    if capacity >= len(arrays) and len(idx):
        # Fragment runs tile each range in address order, so an operand's
        # bases only grow; the short count needs their ranges apart too.
        spans = sorted((int(b[0]), int(b[-1])) for b in events)
        if all(hi < lo for (_, hi), (lo, _) in zip(spans, spans[1:])):
            return _boundary_count(events, iterations, capacity)
    return _replay(events, np.diff(idx, append=n), iterations, capacity)


def _replay(events: list[np.ndarray], pages: np.ndarray, iterations: int,
            capacity: int) -> int:
    """Replay the interleaved run-base stream through a FragmentTlb; event
    step i stands for pages[i] pages, each accessing the same runs.

    Later pages of a step miss as often as its second, which leaves the
    LRU as the first left it: a step of at most capacity distinct runs
    hits them all in the same order, and a larger one leaves its last
    capacity distinct runs, in access order.
    """
    tlb = FragmentTlb(capacity)
    steps = list(zip(*(b.tolist() for b in events), pages.tolist()))

    def one_pass() -> int:
        start = tlb.misses
        for *keys, weight in steps:
            for key in keys:
                tlb.access_run(key)
            if weight > 1:
                before = tlb.misses
                for key in keys:
                    tlb.access_run(key)
                tlb.misses += (weight - 2) * (tlb.misses - before)
        return tlb.misses - start

    first = one_pass()
    if iterations == 1:
        return first
    steady = one_pass()
    return first + steady * (iterations - 1)


def _boundary_count(events: list[np.ndarray], iterations: int,
                    capacity: int) -> int:
    """_replay's count for operands with separate base ranges and a
    capacity of at least the operand count, replaying only near the pass
    boundary.

    Between two accesses of one operand come one access of each other
    operand, so its current run always hits; its bases only grow, so no
    run is visited twice in a pass. The first pass therefore misses once
    per run. A later pass misses once per run too, except for runs still
    resident from the pass before. Only the capacity most recent runs can
    be, and the last capacity event steps of a pass hold at least that
    many, so replaying those steps rebuilds the TLB at the boundary; the
    next pass is replayed until none of those runs is resident and
    unvisited, and every run after that misses.
    """
    fresh = [np.append(True, b[1:] != b[:-1]) for b in events]
    runs = sum(int(np.count_nonzero(f)) for f in fresh)
    if iterations == 1:
        return runs
    steps = len(events[0])
    columns = [b.tolist() for b in events]
    tlb = FragmentTlb(capacity)
    for step in range(max(0, steps - capacity), steps):
        for col in columns:
            tlb.access_run(col[step])
    resident = set(tlb._entries)
    tlb.misses = 0
    step = 0
    while resident and step < steps:
        for col in columns:
            tlb.access_run(col[step])
            resident.discard(col[step])
        resident = {key for key in resident if key in tlb._entries}
        step += 1
    later = sum(int(np.count_nonzero(f[step:])) for f in fresh)
    return runs + (tlb.misses + later) * (iterations - 1)
