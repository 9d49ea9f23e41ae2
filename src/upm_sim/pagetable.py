"""Dual page tables with opportunistic fragment computation.

Two tables cover the same virtual space: the system table (CPU side) and
the GPU table, which is a strict mirror subset kept in sync by explicit
propagation. Every entry carries a 5-bit fragment field: fragment f means
the entry's page lies inside a run of 2^f pages that is contiguous and
2^f-aligned in both virtual and physical space with identical flags, so a
single TLB entry can cover the whole run.

Fragments are recomputed eagerly on map/propagate/unmap over the affected
runs, which keeps miss counting deterministic and order-independent. The
rule is the one of Linux ``amdgpu_vm_pte_fragment()``
(drivers/gpu/drm/amd/amdgpu/amdgpu_vm_pt.c), evaluated per run rather
than per page. A run [s, e) of mapped pages whose frames sit at the
constant offset d = frame - x splits greedily into maximal aligned
blocks: from x = s, a block has order min(ctz(x), floor(log2(e - x))),
and the next one starts where it ends. Every page of a block gets

    min(order, ctz(d), max_fragment)

with ctz(0) counted as max_fragment. All runs of the affected window
take these steps together, so a run that is itself one aligned
power-of-two block costs one step; unmapped pages belong to no run and
keep fragment -1.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass

import numpy as np

FLAG_READ = 1
FLAG_WRITE = 2
FLAG_RW = FLAG_READ | FLAG_WRITE

SYSTEM = "system"
GPU = "gpu"


class AlreadyMapped(Exception):
    pass


class Unmapped(Exception):
    pass


class MirrorViolation(Exception):
    """GPU-table mutation without a matching system entry."""


class GpuAccess(enum.Enum):
    HIT = "hit"
    REPLAYABLE_FAULT = "replayable_fault"
    FATAL_FAULT = "fatal_fault"


@dataclass(frozen=True)
class PageTableEntry:
    frame: int
    flags: int
    fragment: int


class _Region:
    __slots__ = ("va_base", "n_pages", "frames", "sys_flags", "gpu_flags",
                 "sys_frag", "gpu_frag")

    def __init__(self, va_base: int, n_pages: int):
        self.va_base = va_base
        self.n_pages = n_pages
        self.frames = np.full(n_pages, -1, dtype=np.int64)
        self.sys_flags = np.zeros(n_pages, dtype=np.uint8)
        self.gpu_flags = np.zeros(n_pages, dtype=np.uint8)
        self.sys_frag = np.full(n_pages, -1, dtype=np.int8)
        self.gpu_frag = np.full(n_pages, -1, dtype=np.int8)

    def flags_of(self, table: str) -> np.ndarray:
        return self.sys_flags if table == SYSTEM else self.gpu_flags

    def frag_of(self, table: str) -> np.ndarray:
        return self.sys_frag if table == SYSTEM else self.gpu_frag


class DualTable:
    """System + GPU page tables over a reserved virtual address space."""

    # Virtual reservations start above zero so page number 0 stays invalid.
    _FIRST_VA_PAGE = 1 << 20
    _SCAN_STEP = 4096

    def __init__(self, max_fragment: int = 31):
        self.max_fragment = max_fragment
        self._bases: list[int] = []
        self._regions: list[_Region] = []
        self._next_va = self._FIRST_VA_PAGE
        self.sys_mapped = 0
        self.gpu_mapped = 0

    # -- virtual space ------------------------------------------------

    def reserve(self, n_pages: int, align_pages: int = 512) -> int:
        """Reserve a fresh virtual range; returns its base page number."""
        base = -(-self._next_va // align_pages) * align_pages
        # Guard gap keeps fragments of distinct reservations from merging.
        self._next_va = base + n_pages + align_pages
        region = _Region(base, n_pages)
        idx = bisect.bisect(self._bases, base)
        self._bases.insert(idx, base)
        self._regions.insert(idx, region)
        return base

    def _region_at(self, va_page: int) -> tuple[_Region, int]:
        idx = bisect.bisect(self._bases, va_page) - 1
        if idx >= 0:
            region = self._regions[idx]
            off = va_page - region.va_base
            if 0 <= off < region.n_pages:
                return region, off
        raise Unmapped(f"virtual page {va_page} outside any reservation")

    # -- mapping ------------------------------------------------------

    def map(self, table: str, va_page: int, frame: int, flags: int = FLAG_RW):
        """Install a single entry. The target page must be unmapped there."""
        self.map_range(table, va_page, np.asarray([frame], dtype=np.int64), flags)

    def map_range(self, table: str, va_page: int, frames, flags: int = FLAG_RW):
        frames = np.asarray(frames, dtype=np.int64)
        n = len(frames)
        region, off = self._region_at(va_page)
        if off + n > region.n_pages:
            raise Unmapped(f"range [{va_page}, +{n}) crosses its reservation")
        sel = slice(off, off + n)
        tflags = region.flags_of(table)
        if np.any(tflags[sel] != 0):
            raise AlreadyMapped(f"page already mapped in {table} table")
        if table == GPU:
            if np.any(region.sys_flags[sel] == 0):
                raise MirrorViolation("gpu entries only mirror system entries")
            if np.any(region.frames[sel] != frames):
                raise MirrorViolation("gpu entry frame differs from system entry")
            self.gpu_mapped += n
        else:
            region.frames[sel] = frames
            self.sys_mapped += n
        tflags[sel] = flags
        self._recompute(region, off, off + n, table)

    def propagate(self, va_page: int, n_pages: int) -> int:
        """Mirror [va_page, +n_pages) into the GPU table; idempotent.

        Returns the number of entries copied. The range must be fully
        mapped in the system table.
        """
        region, off = self._region_at(va_page)
        if off + n_pages > region.n_pages:
            raise Unmapped(f"range [{va_page}, +{n_pages}) crosses its reservation")
        sel = slice(off, off + n_pages)
        if np.any(region.sys_flags[sel] == 0):
            raise Unmapped("propagate over a range not fully system-mapped")
        gpu_view = region.gpu_flags[sel]
        fresh = gpu_view == 0
        count = int(np.count_nonzero(fresh))
        if count:
            gpu_view[fresh] = region.sys_flags[sel][fresh]
            self.gpu_mapped += count
            self._recompute(region, off, off + n_pages, GPU)
        return count

    def unmap_range(self, va_page: int, n_pages: int):
        """Drop [va_page, +n) from both tables (missing pages are fine)."""
        region, off = self._region_at(va_page)
        lo, hi = off, min(off + n_pages, region.n_pages)
        sel = slice(lo, hi)
        self.gpu_mapped -= int(np.count_nonzero(region.gpu_flags[sel]))
        self.sys_mapped -= int(np.count_nonzero(region.sys_flags[sel]))
        region.gpu_flags[sel] = 0
        region.sys_flags[sel] = 0
        region.frames[sel] = -1
        region.sys_frag[sel] = -1
        region.gpu_frag[sel] = -1
        self._recompute(region, lo, hi, SYSTEM)
        self._recompute(region, lo, hi, GPU)

    # -- queries ------------------------------------------------------

    def lookup(self, table: str, va_page: int) -> PageTableEntry | None:
        try:
            region, off = self._region_at(va_page)
        except Unmapped:
            return None
        if region.flags_of(table)[off] == 0:
            return None
        return PageTableEntry(frame=int(region.frames[off]),
                              flags=int(region.flags_of(table)[off]),
                              fragment=int(region.frag_of(table)[off]))

    def compute_fragment(self, va_page: int, table: str = GPU) -> int:
        region, off = self._region_at(va_page)
        if region.flags_of(table)[off] == 0:
            raise Unmapped(f"page {va_page} not mapped in {table} table")
        return int(region.frag_of(table)[off])

    def gpu_access(self, va_page: int, xnack: bool) -> GpuAccess:
        try:
            region, off = self._region_at(va_page)
        except Unmapped:
            return GpuAccess.REPLAYABLE_FAULT if xnack else GpuAccess.FATAL_FAULT
        if region.gpu_flags[off] != 0:
            return GpuAccess.HIT
        return GpuAccess.REPLAYABLE_FAULT if xnack else GpuAccess.FATAL_FAULT

    def run_arrays(self, va_page: int, n_pages: int):
        """(frames, fragments) of a GPU-mapped range, for the TLB simulator."""
        region, off = self._region_at(va_page)
        sel = slice(off, off + n_pages)
        if np.any(region.gpu_flags[sel] == 0):
            raise Unmapped("range not fully mapped in gpu table")
        return region.frames[sel], region.gpu_frag[sel]

    # -- fragment recomputation ----------------------------------------

    def _run_start(self, region: _Region, idx: int, table: str) -> int:
        """Index where the run containing the mapped page idx begins."""
        flags = region.flags_of(table)
        frames = region.frames
        while idx > 0:
            start = max(0, idx - self._SCAN_STEP)
            f = frames[start:idx + 1]
            fl = flags[start:idx + 1]
            link = (f[1:] == f[:-1] + 1) & (fl[1:] == fl[:-1]) & (fl[:-1] != 0)
            bad = np.nonzero(~link)[0]
            if len(bad):
                return start + int(bad[-1]) + 1
            idx = start
        return 0

    def _run_end(self, region: _Region, idx: int, table: str) -> int:
        """One past the end of the run containing the mapped page idx."""
        flags = region.flags_of(table)
        frames = region.frames
        n = region.n_pages
        while idx < n - 1:
            stop = min(n - 1, idx + self._SCAN_STEP)
            f = frames[idx:stop + 1]
            fl = flags[idx:stop + 1]
            link = (f[1:] == f[:-1] + 1) & (fl[1:] == fl[:-1]) & (fl[1:] != 0)
            bad = np.nonzero(~link)[0]
            if len(bad):
                return idx + int(bad[0]) + 1
            idx = stop
        return n

    def _recompute(self, region: _Region, lo: int, hi: int, table: str):
        """Recompute fragments over the runs affected by [lo, hi)."""
        n_total = region.n_pages
        lo = max(0, lo)
        hi = min(n_total, hi)
        if lo >= hi:
            return
        flags = region.flags_of(table)
        if flags[lo] != 0:
            lo = self._run_start(region, lo, table)
        elif lo > 0 and flags[lo - 1] != 0:
            lo = self._run_start(region, lo - 1, table)
        if flags[hi - 1] != 0:
            hi = self._run_end(region, hi - 1, table)
        elif hi < n_total and flags[hi] != 0:
            hi = self._run_end(region, hi, table)

        # A run is a maximal stretch of mapped pages with consecutive
        # frames and equal flags; unmapped pages belong to no run.
        flags = flags[lo:hi]
        frames = region.frames[lo:hi]
        present = flags != 0
        link = (frames[1:] == frames[:-1] + 1) & present[1:] & present[:-1] \
            & (flags[1:] == flags[:-1])
        first = present.copy()
        first[1:] &= ~link
        last = present.copy()
        last[:-1] &= ~link
        starts = np.flatnonzero(first)
        base = region.va_base + lo
        x = starts + base
        e = np.flatnonzero(last) + (base + 1)
        # min(ctz(d), cap) with d the run's frame offset: ctz(d | 2^cap);
        # fragments above 62 cannot occur below 2^53 pages and would
        # overflow int64.
        cap = min(self.max_fragment, 62)
        d = (frames[starts] - starts - base) | (1 << cap)
        ctz_d = _bitlen(d & -d) - 1
        # Walk every run's greedy maximal aligned blocks at once: from x a
        # block has order min(ctz(x), floor(log2(e - x))), and its pages
        # get that order capped by ctz(d). A run that is itself an aligned
        # power-of-two block ends after the first step.
        pos, size, frag = [], [], []
        while len(x):
            order = np.minimum(_bitlen(x & -x), _bitlen(e - x)) - 1
            step = np.left_shift(1, order, dtype=np.int64)
            pos.append(x)
            size.append(step)
            frag.append(np.minimum(order, ctz_d))
            x = x + step
            more = x < e
            x, e, ctz_d = x[more], e[more], ctz_d[more]
        # Unmapped pages keep the -1 that unmap_range or _Region gave them.
        if pos:
            at = np.argsort(np.concatenate(pos))
            region.frag_of(table)[lo:hi][present] = np.repeat(
                np.concatenate(frag)[at], np.concatenate(size)[at])


def _bitlen(v: np.ndarray) -> np.ndarray:
    """Bit length of positive int64 values; frexp's exponent is exact
    below 2^53."""
    return np.frexp(v.astype(np.float64))[1]
