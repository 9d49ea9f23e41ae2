"""Dual page tables with fragments computed on read.

Two tables cover the same virtual space: the system table (CPU side) and
the GPU table, a strict mirror subset. ``map_range`` maps system entries
only, from frames given as runs (``FrameRuns``); GPU entries come only
from ``propagate``, which mirrors system entries. Every entry carries a
5-bit fragment field: fragment f means the entry's page lies inside a run
of 2^f pages that is contiguous and 2^f-aligned in both virtual and
physical space, so a single TLB entry can cover the whole run.

Fragments are computed on read, as a pure function of the stored runs,
which keeps miss counting deterministic and order-independent. The rule
is the one of Linux ``amdgpu_vm_pte_fragment()``
(drivers/gpu/drm/amd/amdgpu/amdgpu_vm_pt.c), evaluated per run rather
than per page. A run [s, e) of mapped pages whose frames sit at the
constant offset d = frame - x splits greedily into maximal aligned
blocks: from x = s, a block has order min(ctz(x), floor(log2(e - x))),
and the next one starts where it ends. Every page of a block gets

    min(order, ctz(d), max_fragment)

with ctz(0) counted as max_fragment. All runs of a region take these
steps together, so a run that is itself one aligned power-of-two block
costs one step; unmapped pages belong to no run and read fragment -1.
A read covers the whole region that holds the range: runs never cross a
reservation, and every read the TLB makes covers a whole operand.

A block of order o whose pages get fragment f is 2^(o - f) fragment
runs of 2^f pages, each 2^f-aligned in virtual space, and one TLB entry
covers each. ``fragment_runs`` returns these runs, (start, fragment) in
address order, and is what the TLB reads.

Each region keeps its mapped pages as runs of consecutive frames: one
int32 array of page offset, page count, first frame and state, sorted,
disjoint and exactly sized (16 B a run). State 1 maps a run in the system
table only, 2 in both; a page is mapped in a table when its state reaches
that table's ``LEVEL``, so a GPU entry without a system entry cannot be
stored. The machine profile keeps frame numbers below 2^31 (validate
rejects more frames), a reservation holds fewer pages than that, and a
``FrameRuns`` rejects a frame outside that range.
"""

from __future__ import annotations

import bisect

import numpy as np

SYSTEM = "system"
GPU = "gpu"
# The page state from which a page is mapped in each table.
LEVEL = {SYSTEM: 1, GPU: 2}


class AlreadyMapped(Exception):
    pass


class Unmapped(Exception):
    pass


# Frame numbers and page offsets, stored as int32, stay below this.
FRAME_LIMIT = 1 << 31


class FrameRuns:
    """A frame sequence as runs: sizes[i] consecutive frames from starts[i],
    in order; len() is its page count. ValueError unless every run is
    non-empty and every frame lies in [0, FRAME_LIMIT)."""

    def __init__(self, starts, sizes):
        self.starts = np.asarray(starts, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        if len(self.starts) and not (
                0 <= self.starts.min() and 0 < self.sizes.min()
                and (self.starts + self.sizes).max() <= FRAME_LIMIT):
            raise ValueError(f"frame runs must be non-empty and lie in "
                             f"[0, {FRAME_LIMIT})")

    def __len__(self) -> int:
        return int(self.sizes.sum())


class _Region:
    """One reservation and its runs, as rows of an int32 array."""
    __slots__ = ("va_base", "n_pages", "runs")

    def __init__(self, va_base: int, n_pages: int):
        self.va_base = va_base
        self.n_pages = n_pages
        self.runs = np.empty((4, 0), dtype=np.int32)

    def store(self, lo: int, hi: int, inside: np.ndarray):
        """Put the runs inside in place of the parts of runs in [lo, hi)."""
        self.runs = np.concatenate((_clip(self.runs, 0, lo), inside,
                                    _clip(self.runs, hi, self.n_pages)), 1)


def _clip(runs: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """A copy of the parts of runs inside page offsets [lo, hi)."""
    if lo >= hi:
        return runs[:, :0]
    out = runs[:, np.searchsorted(runs[0] + runs[1], lo, "right"):
               np.searchsorted(runs[0], hi)].copy()
    if out.size:  # only the first and the last run can reach outside
        cut = lo - int(out[0, 0])
        if cut > 0:
            out[:, 0] += (cut, -cut, cut, 0)
        out[1, -1] = min(int(out[1, -1]), hi - int(out[0, -1]))
    return out


class DualTable:
    """System + GPU page tables over a reserved virtual address space."""

    # Virtual reservations start above zero so page number 0 stays invalid.
    _FIRST_VA_PAGE = 1 << 20

    def __init__(self, max_fragment: int = 31):
        self.max_fragment = max_fragment
        self._regions: list[_Region] = []
        self._next_va = self._FIRST_VA_PAGE

    # -- virtual space ------------------------------------------------

    def reserve(self, n_pages: int, align_pages: int = 512) -> _Region:
        """Reserve a fresh virtual range; returns its region, whose va_base
        is its first page number."""
        if n_pages >= FRAME_LIMIT:
            raise ValueError(f"a reservation holds under {FRAME_LIMIT} pages")
        base = -(-self._next_va // align_pages) * align_pages
        # Guard gap keeps fragments of distinct reservations from merging.
        self._next_va = base + n_pages + align_pages
        # Bases only grow, so appending keeps the regions sorted.
        region = _Region(base, n_pages)
        self._regions.append(region)
        return region

    def free(self, region: _Region):
        """Drop a reservation and its runs, given as its region."""
        self._regions.remove(region)

    def _region_at(self, va_page: int) -> tuple[_Region, int]:
        idx = bisect.bisect(self._regions, va_page,
                            key=lambda r: r.va_base) - 1
        if idx >= 0:
            region = self._regions[idx]
            off = va_page - region.va_base
            if 0 <= off < region.n_pages:
                return region, off
        raise Unmapped(f"virtual page {va_page} outside any reservation")

    def _range_at(self, va_page: int, n_pages: int):
        """(region, lo, hi) of [va_page, +n_pages): its region and offsets."""
        region, off = self._region_at(va_page)
        if off + n_pages > region.n_pages:
            raise Unmapped(f"range [{va_page}, +{n_pages}) crosses its "
                           f"reservation")
        return region, off, off + n_pages

    # -- mapping ------------------------------------------------------

    def map_range(self, table: str, va_page: int, frames: FrameRuns):
        """Map [va_page, +len(frames)) to frames in the system table; GPU
        entries come only from propagate, so any other table is a
        ValueError."""
        if table != SYSTEM:
            raise ValueError(f"map_range maps the {SYSTEM} table only; "
                             f"{table} entries come from propagate")
        sizes = frames.sizes
        region, lo, hi = self._range_at(va_page, len(frames))
        if _clip(region.runs, lo, hi).size:  # every stored run is mapped
            raise AlreadyMapped(f"page already mapped in {table} table")
        inside = np.empty((4, len(sizes)), dtype=np.int32)
        inside[0] = np.cumsum(sizes) - sizes + lo
        inside[1], inside[2], inside[3] = sizes, frames.starts, LEVEL[SYSTEM]
        region.store(lo, hi, inside)

    def propagate(self, va_page: int, n_pages: int) -> int:
        """Mirror [va_page, +n_pages) into the GPU table; idempotent.

        Returns the number of entries copied. The range must be fully
        mapped in the system table.
        """
        region, lo, hi = self._range_at(va_page, n_pages)
        inside = _clip(region.runs, lo, hi)
        if inside[1].sum() != hi - lo:
            raise Unmapped("propagate over a range not fully system-mapped")
        fresh = int(inside[1, inside[3] == LEVEL[SYSTEM]].sum())
        if fresh:
            inside[3] = LEVEL[GPU]
            region.store(lo, hi, inside)
        return fresh

    def unmap_range(self, va_page: int, n_pages: int):
        """Drop [va_page, +n) from both tables (missing pages are fine);
        the range must lie inside one reservation."""
        region, lo, hi = self._range_at(va_page, n_pages)
        region.store(lo, hi, region.runs[:, :0])

    # -- queries ------------------------------------------------------

    def state_runs(self, va_page: int, n_pages: int, state: int):
        """The maximal stretches of [va_page, +n_pages) whose pages are in
        state (0 unmapped, 1 system table only, 2 both tables), in address
        order: a (2, k) array of first pages and end pages."""
        region, lo, hi = self._range_at(va_page, n_pages)
        off, n, _, have = _clip(region.runs, lo, hi)
        end = off + n
        if state == 0:  # the gaps between runs
            s, e = np.append(lo, end), np.append(off, hi)
            s, e = s[s < e], e[s < e]
        else:
            s, e = off[have == state], end[have == state]
        join = np.flatnonzero(s[1:] == e[:-1])
        return np.stack((np.delete(s, join + 1), np.delete(e, join)),
                        dtype=np.int64) + region.va_base

    def fragment_runs(self, table: str, va_page: int, n_pages: int):
        """(starts, orders) of every fragment run of one table over the
        region that holds [va_page, +n_pages), in address order: run i
        covers the 2^orders[i] pages from virtual page starts[i], which is
        2^orders[i]-aligned, and every page of it reads fragment orders[i].
        Unmapped pages lie in no run."""
        region, _, _ = self._range_at(va_page, n_pages)
        # A run of pages is a maximal chain of stored runs of the table,
        # each next to the one before in both address spaces.
        off, n, frame, _ = region.runs[:, region.runs[3] >= LEVEL[table]] \
            .astype(np.int64)
        link = (off[:-1] + n[:-1] == off[1:]) & (frame[:-1] + n[:-1]
                                                  == frame[1:])
        first, last = np.ones((2, len(off)), dtype=bool)
        first[1:] = last[:-1] = ~link
        x = off[first] + region.va_base
        e = (off + n)[last] + region.va_base
        # min(ctz(d), cap) with d the run's frame offset: ctz(d | 2^cap);
        # fragments above 62 cannot occur below 2^53 pages and would
        # overflow int64.
        cap = min(self.max_fragment, 62)
        d = (frame[first] - x) | (1 << cap)
        ctz_d = _bitlen(d & -d) - 1
        # Walk every run's greedy maximal aligned blocks at once: from x a
        # block has order min(ctz(x), floor(log2(e - x))), and its pages
        # get that order capped by ctz(d). A run that is itself an aligned
        # power-of-two block ends after the first step.
        pos, order, frag = [x[:0]], [ctz_d[:0]], [ctz_d[:0]]
        while len(x):
            o = np.minimum(_bitlen(x & -x), _bitlen(e - x)) - 1
            pos.append(x)
            order.append(o)
            frag.append(np.minimum(o, ctz_d))
            x = x + np.left_shift(1, o, dtype=np.int64)
            more = x < e
            x, e, ctz_d = x[more], e[more], ctz_d[more]
        at = np.argsort(np.concatenate(pos))
        pos = np.concatenate(pos)[at]
        frag = np.concatenate(frag)[at]
        # A block of order o and fragment f is 2^(o - f) runs of 2^f pages.
        split = np.concatenate(order)[at] - frag
        if not split.any():
            return pos, frag
        count = np.left_shift(1, split, dtype=np.int64)
        frag = np.repeat(frag, count)
        k = np.arange(len(frag)) - np.repeat(np.cumsum(count) - count, count)
        return np.repeat(pos, count) + (k << frag), frag


def _bitlen(v: np.ndarray) -> np.ndarray:
    """Bit length of positive int64 values; frexp's exponent is exact
    below 2^53."""
    return np.frexp(v.astype(np.float64))[1]
