"""Fragment-aware GPU L1 TLB simulation and TRIAD miss counting.

One TLB entry covers a whole fragment run, so reach grows with placement
contiguity. The model is a fully associative LRU over (run base, fragment)
entries; capacity comes from the machine profile. Counter name used in
reports: TCP_UTCL1_TRANSLATION_MISS.

``triad_misses`` counts without replaying every run when the capacity
holds at least one entry per operand and the operands' run bases rise
within separate ranges, as they do for separate reservations: then
every run misses exactly once per pass except those still resident
from the pass before, and only the steps around the pass boundary go
through the LRU. Other inputs, such as one array passed as several
operands, are replayed in full.
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
        self._entries: OrderedDict[tuple[int, int], None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access_run(self, run_base: int, fragment: int) -> bool:
        """Translate one access whose page lies in the given fragment run.

        Returns True on hit. On miss the run is inserted, evicting the
        least recently used entry when full.
        """
        key = (run_base, fragment)
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._entries[key] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return False

    def access(self, table: DualTable, va_page: int) -> bool:
        """Translate va_page against the GPU table (must be mapped there)."""
        entry = table.lookup(GPU, va_page)
        if entry is None:
            raise Unmapped(f"page {va_page} not mapped in gpu table")
        frag = entry.fragment
        run_base = va_page & ~((1 << frag) - 1)
        return self.access_run(run_base, frag)


def run_bases(table: DualTable, va_base: int, n_pages: int) -> np.ndarray:
    """Per-page fragment-run base for a GPU-mapped range."""
    _, frags = table.run_arrays(va_base, n_pages)
    va = va_base + np.arange(n_pages, dtype=np.int64)
    mask = (np.int64(1) << frags.astype(np.int64)) - 1
    return va & ~mask


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
    bases = [run_bases(table, vb, np_) for vb, np_ in arrays]
    n = min(len(b) for b in bases)
    bases = [b[:n] for b in bases]
    if capacity < len(arrays):
        return _replay(bases, iterations, capacity)
    # Event compression: evaluate only where some operand changes run.
    # Exact while the active runs all fit, because repeats within a
    # segment hit and leave the rest of the LRU order untouched.
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for b in bases:
        change[1:] |= b[1:] != b[:-1]
    idx = np.nonzero(change)[0]
    events = [b[idx] for b in bases]
    # Fragment runs tile each range in address order, so an operand's
    # bases only grow; the short count needs their ranges apart too.
    spans = sorted((int(b[0]), int(b[-1])) for b in events)
    if any(lo <= hi for (_, hi), (lo, _) in zip(spans, spans[1:])):
        return _replay(events, iterations, capacity)
    return _boundary_count(events, iterations, capacity)


def _replay(events: list[np.ndarray], iterations: int, capacity: int) -> int:
    """Replay the interleaved run-base stream through a FragmentTlb."""
    tlb = FragmentTlb(capacity)

    def one_pass() -> int:
        before = tlb.misses
        for step in range(len(events[0])):
            for b in events:
                tlb.access_run(int(b[step]), 0)
        return tlb.misses - before

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
            tlb.access_run(col[step], 0)
    resident = set(tlb._entries)
    tlb.misses = 0
    step = 0
    while resident and step < steps:
        for col in columns:
            tlb.access_run(col[step], 0)
            resident.discard((col[step], 0))
        resident = {key for key in resident if key in tlb._entries}
        step += 1
    later = sum(int(np.count_nonzero(f[step:])) for f in fresh)
    return runs + (tlb.misses + later) * (iterations - 1)
