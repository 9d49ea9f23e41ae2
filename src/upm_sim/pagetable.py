"""Dual page tables with fragments computed on read.

Two tables cover the same virtual space: the system table (CPU side) and
the GPU table, which is a strict mirror subset kept in sync by explicit
propagation. Every entry carries a 5-bit fragment field: fragment f means
the entry's page lies inside a run of 2^f pages that is contiguous and
2^f-aligned in both virtual and physical space, so a single TLB entry can
cover the whole run.

Fragments are computed on read, as a pure function of the page states and
frames, which keeps miss counting deterministic and order-independent.
The rule is the one of Linux ``amdgpu_vm_pte_fragment()``
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

Each region stores, per page, one int32 frame number (-1 where the page
is unmapped) and one uint8 state: 0 unmapped, 1 mapped in the system
table only, 2 mapped in both tables. A page is mapped in a table when its
state reaches that table's ``LEVEL``, so the GPU table is a level of the
system table and a GPU entry without a system entry cannot be stored:
5 bytes a page. The machine profile keeps every frame number below 2^31
(validate rejects more frames than that), and ``map_range`` rejects a
frame outside that range rather than let it wrap.
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


class MirrorViolation(Exception):
    """GPU-table mutation without a matching system entry."""


# Frame numbers are stored as int32; the profile keeps them below this.
FRAME_LIMIT = 1 << 31


class _Region:
    __slots__ = ("va_base", "n_pages", "frames", "state")

    def __init__(self, va_base: int, n_pages: int):
        self.va_base = va_base
        self.n_pages = n_pages
        self.frames = np.full(n_pages, -1, dtype=np.int32)
        self.state = np.zeros(n_pages, dtype=np.uint8)


class DualTable:
    """System + GPU page tables over a reserved virtual address space."""

    # Virtual reservations start above zero so page number 0 stays invalid.
    _FIRST_VA_PAGE = 1 << 20

    def __init__(self, max_fragment: int = 31):
        self.max_fragment = max_fragment
        self._bases: list[int] = []
        self._regions: list[_Region] = []
        self._next_va = self._FIRST_VA_PAGE

    # -- virtual space ------------------------------------------------

    def reserve(self, n_pages: int, align_pages: int = 512) -> int:
        """Reserve a fresh virtual range; returns its base page number."""
        base = -(-self._next_va // align_pages) * align_pages
        # Guard gap keeps fragments of distinct reservations from merging.
        self._next_va = base + n_pages + align_pages
        # Bases only grow, so appending keeps them sorted.
        self._bases.append(base)
        self._regions.append(_Region(base, n_pages))
        return base

    def free(self, va_base: int):
        """Drop the reservation based at va_base and its page arrays."""
        idx = self._bases.index(va_base)
        del self._bases[idx], self._regions[idx]

    def _region_at(self, va_page: int) -> tuple[_Region, int]:
        idx = bisect.bisect(self._bases, va_page) - 1
        if idx >= 0:
            region = self._regions[idx]
            off = va_page - region.va_base
            if 0 <= off < region.n_pages:
                return region, off
        raise Unmapped(f"virtual page {va_page} outside any reservation")

    def _range_at(self, va_page: int, n_pages: int) -> tuple[_Region, slice]:
        """The region holding [va_page, +n_pages) and the range's slice."""
        region, off = self._region_at(va_page)
        if off + n_pages > region.n_pages:
            raise Unmapped(f"range [{va_page}, +{n_pages}) crosses its "
                           f"reservation")
        return region, slice(off, off + n_pages)

    # -- mapping ------------------------------------------------------

    def map_range(self, table: str, va_page: int, frames):
        """Map [va_page, +len(frames)) to frames in one table. An int32
        array, such as a slice of the region's own frames, is taken as
        is; other input must hold frame numbers in [0, FRAME_LIMIT)."""
        frames = np.asarray(frames)
        if frames.dtype != np.int32:
            frames = np.asarray(frames, dtype=np.int64)
            if len(frames) and not (0 <= frames.min()
                                    and frames.max() < FRAME_LIMIT):
                raise ValueError(f"frame numbers must lie in "
                                 f"[0, {FRAME_LIMIT})")
        region, sel = self._range_at(va_page, len(frames))
        state = region.state[sel]
        if np.any(state >= LEVEL[table]):
            raise AlreadyMapped(f"page already mapped in {table} table")
        if table == GPU:
            if not state.all():
                raise MirrorViolation("gpu entries only mirror system entries")
            if np.any(region.frames[sel] != frames):
                raise MirrorViolation("gpu entry frame differs from system entry")
        else:
            region.frames[sel] = frames
        state[:] = LEVEL[table]

    def propagate(self, va_page: int, n_pages: int) -> int:
        """Mirror [va_page, +n_pages) into the GPU table; idempotent.

        Returns the number of entries copied. The range must be fully
        mapped in the system table.
        """
        region, sel = self._range_at(va_page, n_pages)
        state = region.state[sel]
        if not state.all():
            raise Unmapped("propagate over a range not fully system-mapped")
        fresh = int(np.count_nonzero(state == LEVEL[SYSTEM]))
        state[:] = LEVEL[GPU]
        return fresh

    def unmap_range(self, va_page: int, n_pages: int):
        """Drop [va_page, +n) from both tables (missing pages are fine);
        the range must lie inside one reservation."""
        region, sel = self._range_at(va_page, n_pages)
        region.state[sel] = 0
        region.frames[sel] = -1

    # -- queries ------------------------------------------------------

    def fragment_runs(self, table: str, va_page: int, n_pages: int):
        """(starts, orders) of every fragment run of one table over the
        region that holds [va_page, +n_pages), in address order: run i
        covers the 2^orders[i] pages from virtual page starts[i], which is
        2^orders[i]-aligned, and every page of it reads fragment orders[i].
        Unmapped pages lie in no run."""
        region, _ = self._range_at(va_page, n_pages)
        # A run of pages is a maximal stretch of mapped pages with
        # consecutive frames.
        frames = region.frames
        present = region.state >= LEVEL[table]
        link = (frames[1:] == frames[:-1] + 1) & present[1:] & present[:-1]
        first = present.copy()
        first[1:] &= ~link
        last = present  # present is not read again
        last[:-1] &= ~link
        starts = np.flatnonzero(first)
        x = starts + region.va_base
        e = np.flatnonzero(last) + (region.va_base + 1)
        # min(ctz(d), cap) with d the run's frame offset: ctz(d | 2^cap);
        # fragments above 62 cannot occur below 2^53 pages and would
        # overflow int64.
        cap = min(self.max_fragment, 62)
        d = (frames[starts] - x) | (1 << cap)
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
