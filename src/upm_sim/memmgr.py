"""Allocator kinds, physical frame placement, first touch, usage counters.

Six allocator kinds are modeled, mirroring the platform's allocator matrix:
standard heap memory (on-demand), heap memory registered for GPU access,
device allocations, pinned host allocations, managed unified allocations
(up-front or on-demand depending on fault replay support) and static
managed variables. ``KINDS`` declares each kind once: its aliases, GPU
access and placement with fault replay off and on, whether it is device
memory, and whether the GPU streams it at a fixed rate. The usage counters
are read from the live allocations by that device flag. Placement reads a
kind only through its access spec and device flag, so kinds that share
both place alike; ``placement_twin`` names the first of them. xnack is read
only through access specs, so ``placement_key`` also shares across it.

Physical frames come from a buddy-style pool over power-of-two runs whose
largest order is one 512 KiB block. Placement reproduces the observable
behavior of the real allocators:

* device allocations take whole blocks, so every block is one fragment
  and channel load is perfectly even;
* host-path allocations (pinned, registered, managed, and faulting heap
  memory) receive 16-page contiguous batches, the kernel's per-CPU
  free-list refill grain;
* CPU first-touch draws those batches from channel groups with a Zipf
  bias, modeling the free-list's physical-address bias; GPU first touch
  takes whole blocks and therefore restores even channel load.

Frames drawn for a batch but not yet mapped stay reserved for the rest of
that batch's virtual block (they sit in the kernel's per-CPU cache, not in
the free pool). Each allocation keeps those reservations in an int64 array
indexed by virtual batch (CPU) or block (GPU), -1 where nothing is drawn.

The page table keeps frame runs: an up-front allocation maps the runs it
drew with one ``map_range``, and a first touch maps each segment of
unmapped pages with one ``map_range`` of the runs its reservations give.

The pool keeps whole free blocks in a bytearray alive map, and their
count beside it. Released blocks, last-released first, then a boot-time
permutation read from its end are the one source of blocks:
``_next_blocks`` takes the next k alive ones in a pass, and is asked only
for blocks its caller has counted as alive. Sequential draws take the
lowest alive blocks instead. The permutation (``BootOrder``) is drawn
from its end only as far as it is read, bit for bit as numpy shuffles;
it is shared, read-only, by every pool of one seed and size, and only the
latest is kept. Runs smaller than a block sit in one dict per order,
16-page runs (slots) in one int32 stack per channel group, and a slot map
with a one-byte row for each block that has been split tells which slots
the stacks hold. The alive map is the one store sized by the capacity.
Every free frame is in the alive map or in one of these stores: a
sequential draw leaves the rest of its last block's slots in the group
stores and takes the next slot from there while it is still free.

All scattered batches of one placement are drawn in one ``take_batches``
call, in closed form. A draw from an empty group first splits the next
block into one slot per group, so the blocks split up to each draw are a
running maximum over the groups' demand. A draw whose group saw a split
since its previous draw takes the newest split's slot; the slot each
other draw takes follows from matching the pops and pushes of each
group's stack by position. A call that needs more blocks than are alive
draws this way up to the split that takes the last of them; then both
block sources are empty, and each later draw takes a slot from its
group's store, refilled when empty from a 32- or 64-page run, or else
from the next group that holds one.

Frames go back through ``release_runs`` only, one call per release. A
block whose released pages and free slots add up to the whole block goes
back whole, and its slots leave the stores: free pieces and live runs
never overlap, so they fill it. The runs of every other block are freed
one by one, in order: a run merges with its buddy only if free pieces
tile the buddy entirely (``_pieces_tiling``, asked before any piece
leaves a store); at the first buddy that is not entirely free, the run
joins its store and stops. Such merges may make a block whole too. Every
block made whole joins the released blocks in the order of its last run,
as per-run release leaves them. A merge that fails changes nothing, and
no slot is put back in the pool call that deleted it. The slot map holds
1 for a slot in its group's stack and 0 for any other: a slot can leave
the middle of a stack, and its entry stays there until the stack is
compacted, once, at the end of the pool call (the slots of a block gone
back whole, and those deleted one by one). This is the state that freeing
run by run gives, at a cost that grows with the runs and their blocks,
not with the pool. A draw that cannot finish takes
nothing: each checks first, from counts, that the pool holds enough
frames, blocks or batches, so a failed allocate or touch raises
``OutOfMemory`` before it changes the pool or the scatter generator, and
nothing is rolled back. ``MemoryManager.check`` asserts the invariants.
"""

from __future__ import annotations

import contextlib
import enum
import functools
from dataclasses import dataclass, field, replace

import numpy as np

from . import pagetable
from .fault import FaultKind
from .machine import MachineProfile


class Agent(enum.Enum):
    CPU = "cpu"
    GPU = "gpu"


class Policy(enum.Enum):
    UP_FRONT = "up_front"
    ON_DEMAND = "on_demand"


class AllocatorKind(enum.Enum):
    LIBC_ON_DEMAND = "libc_on_demand"        # plain heap memory
    REGISTERED_HOST = "registered_host"      # heap memory + GPU registration
    DEVICE_UP_FRONT = "device_up_front"      # device allocator
    PINNED_HOST = "pinned_host"              # page-locked host allocator
    MANAGED_UNIFIED = "managed_unified"      # managed unified allocator
    STATIC_MANAGED = "static_managed"        # static managed variables


class UsageCounter(enum.Enum):
    LIBNUMA = "libnuma"
    MEMINFO = "meminfo"
    HIP_MEM_GET_INFO = "hip_mem_get_info"
    PROCESS_RSS = "process_rss"


class OutOfMemory(Exception):
    pass


class ZeroSize(Exception):
    pass


class AccessViolation(Exception):
    """Fatal (non-replayable) GPU access to memory it may not touch."""


class DoubleFree(Exception):
    pass


class UseAfterFree(Exception):
    pass


@dataclass(frozen=True)
class AccessSpec:
    gpu_access: bool
    physical: Policy


@dataclass(frozen=True)
class KindSpec:
    """One allocator kind. The pairs hold (xnack off, xnack on). Device
    memory is placed contiguously, counted by hipMemGetInfo instead of the
    process RSS, and copied by the DMA engine; the GPU streams fixed_gpu_bw
    memory (static managed data) at a fixed rate."""
    aliases: tuple[str, ...]
    gpu_access: tuple[bool, bool] = (True, True)
    on_demand: tuple[bool, bool] = (False, False)
    device: bool = False
    fixed_gpu_bw: bool = False


KINDS = {
    AllocatorKind.LIBC_ON_DEMAND: KindSpec(("malloc", "libc"),
                                           gpu_access=(False, True),
                                           on_demand=(True, True)),
    AllocatorKind.REGISTERED_HOST: KindSpec(("registered", "hipHostRegister")),
    AllocatorKind.DEVICE_UP_FRONT: KindSpec(("device", "hipMalloc"),
                                            device=True),
    AllocatorKind.PINNED_HOST: KindSpec(("pinned", "hipHostMalloc")),
    AllocatorKind.MANAGED_UNIFIED: KindSpec(("managed", "hipMallocManaged"),
                                            on_demand=(False, True)),
    AllocatorKind.STATIC_MANAGED: KindSpec(("static",), fixed_gpu_bw=True),
}


def classify(kind: AllocatorKind, xnack: bool) -> AccessSpec:
    """Access matrix of the allocator kinds (exact, total over kind x xnack)."""
    spec = KINDS[kind]
    return AccessSpec(spec.gpu_access[bool(xnack)], Policy.ON_DEMAND
                      if spec.on_demand[bool(xnack)] else Policy.UP_FRONT)


def placement_twin(kind: AllocatorKind, xnack: bool) -> AllocatorKind:
    """The first kind in KINDS with kind's classify(kind, xnack) and device
    flag. A MemoryManager reads a kind through nothing else (but the name
    in its error messages), so the twin's allocations get the same frames,
    page tables and faults: with xnack on
    managed memory places as libc and pinned and static memory as
    registered; with it off pinned, managed and static memory place as
    registered. placement_key also shares placements across xnack."""
    key = classify(kind, xnack), KINDS[kind].device
    return next(k for k, spec in KINDS.items()
                if (classify(k, xnack), spec.device) == key)


def placement_key(profile: MachineProfile, kind: AllocatorKind) -> tuple:
    """The (profile, kind) an experiment on kind simulates: kind's twin,
    on the xnack-on profile when the twin classifies alike under both
    settings (a MemoryManager reads xnack only through classify)."""
    twin = placement_twin(kind, profile.xnack)
    if profile.xnack or classify(twin, False) != classify(twin, True):
        return profile, twin
    return replace(profile, xnack=True), twin


class FaultBatch:
    """The faults of one touch call, in kind order: CPU faults, or GPU
    minor faults before GPU major ones. The batch keeps the count of each
    kind and ``runs``, the (starts, sizes) of the runs of faulting virtual
    pages in that order, as the touch found them."""

    _KIND_CODES = {FaultKind.CPU: 0, FaultKind.GPU_MINOR: 1,
                   FaultKind.GPU_MAJOR: 2}

    def __init__(self, counts: tuple[int, int, int], starts: np.ndarray,
                 sizes: np.ndarray):
        self._counts, self.runs = counts, (starts, sizes)

    def __len__(self) -> int:
        return sum(self._counts)

    def count(self, kind: FaultKind) -> int:
        return self._counts[self._KIND_CODES[kind]]


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """arange(s, s + n) for each start s and size n, concatenated; built
    with one temporary of the output's size."""
    out = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    out += np.arange(len(out))
    return out


_NO_RUNS = np.empty(0, dtype=np.int64)
_NO_RUNS.flags.writeable = False
_NO_FAULTS = (0, 0, 0), _NO_RUNS, _NO_RUNS


# --------------------------------------------------------------------------
# Frame pool: buddy structure over power-of-two runs, largest order = block
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _boot_order(entropy: int, spawn_key: tuple, n_blocks: int) -> BootOrder:
    """The boot-time block order of the pool seeded by
    SeedSequence(entropy, spawn_key). Every pool of one seed shares it;
    only the latest is kept, so a sweep over seeds keeps memory flat."""
    return BootOrder(np.random.SeedSequence(entropy, spawn_key=spawn_key),
                     n_blocks)


class BootOrder:
    """default_rng(ss).permutation(n), drawn from its end only as far as it
    is read. It indexes and slices (step 1) like that array and hands out
    read-only int32 views.

    numpy shuffles arange(n) by Fisher-Yates from the end: step t swaps
    entry i = n - 1 - t with entry j_t, drawn by masked rejection from the
    bit generator's 32-bit halves, low half first (none for i = 0). Entry
    i is final after step t, so the last k entries need only the first k
    steps. Each extension goes on with the same stream: the halves drawn
    past the last step are kept, and so are the steps' j, as the tail
    itself and the few that differ from it.

    Entry i takes the value at j_t, which is j_t itself unless an earlier
    step wrote there: one with the same j, or one whose j is the i of an
    entry of the tail. Only those rare steps are resolved, in one pass
    over the steps they touch."""

    def __init__(self, ss: np.random.SeedSequence, n: int):
        self._n = n
        self._bits = np.random.PCG64(ss)
        self._halves = np.empty(0, dtype=np.uint32)  # drawn, not yet used
        self._tail = np.empty(0, dtype=np.int32)     # order[::-1], so far
        # The steps t whose j_t is not _tail[t], and those j_t.
        self._odd = np.empty((2, 0), dtype=np.int32)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, at):
        n = self._n
        if isinstance(at, slice):
            lo, hi, step = at.indices(n)
            if step != 1:
                raise ValueError("a boot order slice has step 1")
            hi = max(lo, hi)
            return self._read(n - lo)[n - hi:n - lo][::-1]
        at = range(n)[at]
        return int(self._read(n - at)[n - 1 - at])

    def _read(self, k: int) -> np.ndarray:
        """The read-only tail of at least k entries; it grows by half at
        least, and to at least 1,024 entries (each growth sorts it)."""
        done = len(self._tail)
        if k > done:
            self._grow(min(self._n, max(k, done + done // 2, 1024)))
        return self._tail

    def _grow(self, k: int):
        """Draw the steps up to k and resolve their entries."""
        n, done = self._n, len(self._tail)
        j = np.concatenate((self._tail, self._draw(n - 1 - done, k - done)))
        tail = j.copy()
        j[self._odd[0]] = self._odd[1]
        # The steps grouped by j, in order within a group.
        bits = max(k - 1, 1).bit_length()
        key = j.astype(np.int64)
        key <<= bits
        key |= np.arange(k)
        key.sort()
        by_j, step = key >> bits, key & ((1 << bits) - 1)
        del key
        # The rare steps: each j drawn more than once; each j that is an
        # entry of the tail (the groups from n - k up), with the step whose
        # i it is. In (j, step) order, and at their places in steps.
        rare = np.zeros(k, dtype=bool)
        again = np.flatnonzero(by_j[1:] == by_j[:-1])
        rare[step[again]] = rare[step[again + 1]] = True
        into = slice(int(np.searchsorted(by_j, n - k)), k)
        rare[step[into]] = rare[n - 1 - by_j[into]] = True
        keep = np.flatnonzero(rare[step])
        by_j, step = by_j[keep], step[keep]
        steps = np.flatnonzero(rare)
        place = np.empty(k, dtype=np.int64)
        place[steps] = np.arange(len(steps))
        at = place[step]
        # Replay the rare steps: each reads the value at j from the last
        # earlier step with its j (prev), else j; each writes the value at
        # its i, the value the last step with j = i wrote before it (src,
        # followed to the first writer of the chain), else i.
        same = by_j[1:] == by_j[:-1]
        prev = np.full(len(at), -1)
        s = np.flatnonzero(same)
        prev[at[s + 1]] = at[s]
        last = np.append(~same, True) & (by_j >= n - k)
        writer, dst = at[last], place[n - 1 - by_j[last]]
        src = np.where(writer == dst, prev[writer], writer)
        ptr = np.arange(len(at))
        ptr[dst[src >= 0]] = src[src >= 0]
        moving = np.flatnonzero(ptr != np.arange(len(at)))
        while len(moving):
            ptr[moving] = ptr[ptr[moving]]
            moving = moving[ptr[moving] != ptr[ptr[moving]]]
        wrote = n - 1 - steps[ptr]
        read = j[steps]
        s = np.flatnonzero(prev >= 0)
        read[s] = wrote[prev[s]]
        s = np.flatnonzero(steps >= done)
        tail[steps[s]] = read[s]
        tail.flags.writeable = False
        odd = steps[np.flatnonzero(tail[steps] != j[steps])]
        self._tail, self._odd = tail, np.array((odd, j[odd]), dtype=np.int32)

    def _draw(self, top: int, m: int) -> np.ndarray:
        """j of the m steps from i = top down: numpy's random_interval(i),
        a 32-bit half under the mask of i's bit length, drawn again while
        it exceeds i; 0 for i = 0."""
        out = np.zeros(m, dtype=np.int32)
        s = 0
        while s < m and top - s >= 1:
            i = top - s
            mask = (1 << i.bit_length()) - 1
            end = min(m, s + i - (mask >> 1))  # the steps under this mask
            while s < end:
                # Half q goes to the step after the ones accepted before it:
                # rejected iff it exceeds i - q + (rejected before q). Of
                # the halves above i - q (the candidates), the c-th with
                # excess d is rejected iff d + (candidates accepted before
                # it) > c, so only those with d <= c can be accepted.
                want = end - s
                v = self._stream(want + (want >> 4) + 16) & np.uint32(mask)
                above = i - np.arange(len(v))
                cand = np.flatnonzero(v > above)
                d = v[cand] - above[cand]
                maybe = np.flatnonzero(d <= np.arange(len(cand)))
                accepted = []
                for c, dc in zip(maybe.tolist(), d[maybe].tolist()):
                    if dc + len(accepted) <= c:
                        accepted.append(c)
                rejected = np.delete(cand, accepted)
                # The halves up to the want-th accepted one are used.
                used = want + int(np.searchsorted(
                    rejected - np.arange(len(rejected)), want))
                took = np.delete(v[:used], rejected[:used - want])
                out[s:s + len(took)] = took
                self._halves = self._halves[used:]
                s += len(took)
                i -= len(took)
        return out

    def _stream(self, count: int) -> np.ndarray:
        """At least count unused 32-bit halves of the bit generator."""
        short = count - len(self._halves)
        if short > 0:
            raw = self._bits.random_raw(-(-short // 2))
            halves = np.empty(2 * len(raw), dtype=np.uint32)
            halves[0::2] = raw & 0xFFFFFFFF
            halves[1::2] = raw >> np.uint64(32)
            self._halves = np.concatenate((self._halves, halves))
        return self._halves


class Runs:
    """Frame runs in append order, as rows of dtype grown by doubling: the
    starts, then (unless rows=1) the page counts. array is the (rows, n)
    view; iterating yields one tuple of Python ints per run, made by one
    tolist()."""

    def __init__(self, rows: int = 2, dtype=np.int64):
        self.n, self._buf = 0, np.empty((rows, 0), dtype=dtype)

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return zip(*self.array.tolist())

    @property
    def array(self) -> np.ndarray:
        return self._buf[:, :self.n]

    def extend(self, starts, sizes=None) -> None:
        """Append runs at starts, of sizes pages (an array or one int)."""
        n = self.n + len(starts)
        if n > self._buf.shape[1]:
            grown = np.empty((len(self._buf), max(n, 2 * self.n)),
                             dtype=self._buf.dtype)
            grown[:, :self.n] = self.array
            self._buf = grown
        self._buf[0, self.n:n] = starts
        if sizes is not None:
            self._buf[1, self.n:n] = sizes
        self.n = n


class FramePool:
    """Free frames: whole blocks in an alive map beside their count,
    smaller runs in one dict per order, and 16-page slots in one stack per
    channel group, each in the order a dict would keep. A slot map with a
    row for each block that has been split answers membership."""

    def __init__(self, profile: MachineProfile, ss: np.random.SeedSequence):
        self.block_pages = profile.placement.frame_block_pages
        self.batch_pages = profile.placement.kernel_batch_pages
        self.block_order = self.block_pages.bit_length() - 1
        self.batch_order = self.batch_pages.bit_length() - 1
        if 1 << self.block_order != self.block_pages:
            raise ValueError("frame_block_pages must be a power of two")
        if 1 << self.batch_order != self.batch_pages:
            raise ValueError("kernel_batch_pages must be a power of two")
        if profile.total_frames >= pagetable.FRAME_LIMIT:
            raise ValueError("frame numbers must fit the page table's int32")
        self.groups_n = self.block_pages // self.batch_pages
        self.n_blocks = profile.total_frames // self.block_pages
        self.total_frames = self.n_blocks * self.block_pages
        self.used_frames = 0
        # Boot-time free-list order is not address-sorted; a deterministic
        # shuffle stands in for it and keeps blocks non-adjacent. Blocks
        # are drawn from its end, which is drawn only as far as it is read;
        # released blocks are drawn first, last released first.
        self._boot_order = _boot_order(ss.entropy, ss.spawn_key,
                                       self.n_blocks)
        self._boot_left = self.n_blocks
        self._released: list[int] = []
        self._block_alive = bytearray(b"\x01") * self.n_blocks
        self._alive_count = self.n_blocks
        self._runs: dict[int, dict[int, None]] = {
            o: {} for o in range(self.block_order) if o != self.batch_order}
        # One int32 stack of slot starts per group (frames fit the page
        # table's int32). The slot map has a row of a byte per group for
        # each block that has been split, in the order of first splits: 1
        # if that slot is in its group's stack, else 0. _index holds
        # block << 32 | row for those blocks, ascending. A block keeps its
        # row; a block without one has no slot in a stack. A slot deleted
        # from a stack's middle reads 0 at once, and its entry waits there
        # for compaction, listed in _dropped unless its whole block went
        # back; no slot is put back before that, so a put pushes on top.
        self._stacks = [Runs(rows=1, dtype=np.int32)
                        for _ in range(self.groups_n)]
        self._index = np.empty(0, dtype=np.int64)
        self._slots = np.empty((0, self.groups_n), dtype=np.uint8)
        self._dirty: set[int] = set()
        self._dropped: list[int] = []
        # The slot after the last sequential draw, taken next if still free.
        self._seq_next: int | None = None

    @property
    def free_frames(self) -> int:
        return self.total_frames - self.used_frames

    # -- internal stores -------------------------------------------------

    def _row(self, block: int, add: bool = False) -> int:
        """The slot-map row of block: -1 if it has none, unless add gives
        it a new row of zeros."""
        i, r = int(self._index.searchsorted(block << 32)), len(self._index)
        hit = int(self._index[i]) if i < r else -1
        if hit >> 32 == block:
            return hit & 0xFFFFFFFF
        if not add:
            return -1
        self._index = np.insert(self._index, i, (block << 32) | r)
        self._hold_rows(r + 1)
        return r

    def _rows(self, blocks: np.ndarray, add: bool = False) -> np.ndarray:
        """The slot-map row of each block, -1 where it has none, unless
        add gives each of those (they are distinct) a new row of zeros."""
        blocks = np.asarray(blocks, dtype=np.int64)
        r, fresh = len(self._index), np.arange(len(blocks))
        if not add:  # searchsorted is fastest on ascending blocks
            hit = self._index[np.minimum(self._index.searchsorted(
                blocks << 32), r - 1)] if r else np.full(len(blocks), -1)
            return np.where(hit >> 32 == blocks, hit & 0xFFFFFFFF, -1)
        # Most blocks are split for the first time: a new row each, unless
        # the index then holds a block twice.
        merged = np.sort(np.concatenate(
            (self._index, np.sort((blocks << 32) | (r + fresh)))),
            kind="stable")  # two sorted runs: a merge
        if np.any(merged[1:] >> 32 == merged[:-1] >> 32):
            rows = self._rows(blocks)
            new = np.flatnonzero(rows < 0)
            rows[new] = r + np.arange(len(new))
            merged = np.sort(np.concatenate(
                (self._index, (blocks[new] << 32) | rows[new])))
        else:
            rows = r + fresh
        self._index = merged
        self._hold_rows(len(merged))
        return rows

    def _hold_rows(self, rows: int):
        """Make room in the slot map for rows rows, grown by doubling."""
        if rows > len(self._slots):
            grown = np.zeros((max(rows, 2 * len(self._slots)), self.groups_n),
                             dtype=np.uint8)
            grown[:len(self._slots)] = self._slots
            self._slots = grown

    def _has(self, order: int, start: int) -> bool:
        if order != self.batch_order:
            return start in self._runs[order]
        r = self._row(start >> self.block_order)
        return r >= 0 and self._slots[r, (start >> order) % self.groups_n] == 1

    def _put(self, order: int, start: int):
        if order != self.batch_order:
            self._runs[order][start] = None
            return
        g = (start >> order) % self.groups_n
        self._stacks[g].extend((start,))
        row = self._row(start >> self.block_order, add=True)
        self._slots[row, g] = 1

    def _drop(self, order: int, start: int):
        if order != self.batch_order:
            del self._runs[order][start]
        else:
            g = (start >> order) % self.groups_n
            self._slots[self._row(start >> self.block_order), g] = 0
            self._dirty.add(g)
            self._dropped.append(start)

    def _pop(self, g: int) -> int:
        """Remove and return the top slot of group g's stack."""
        stack = self._stacks[g]
        start = int(stack.array[0, -1])
        stack.n -= 1
        self._slots[self._row(start >> self.block_order), g] = 0
        return start

    def _compact(self):
        """Drop the deleted entries of every stack that holds some: the
        slots of whole free blocks, and the dropped ones."""
        alive = np.frombuffer(self._block_alive, dtype=np.uint8)
        dropped = np.sort(np.array(self._dropped, dtype=np.int64))
        for g in self._dirty:
            stack = self._stacks[g]
            at = stack.array[0]
            gone = alive[at >> self.block_order] != 0
            if len(dropped):
                gone |= dropped[np.minimum(np.searchsorted(dropped, at),
                                           len(dropped) - 1)] == at
            kept = at[~gone]
            stack.n = len(kept)
            stack.array[0] = kept
        self._dirty.clear()
        self._dropped.clear()

    def _next_blocks(self, k: int) -> np.ndarray:
        """Take the next k free blocks, released ones (last first) before
        the boot order's. The caller has counted k alive blocks."""
        alive = np.frombuffer(self._block_alive, dtype=np.uint8)
        got, rel = self._scan(alive, self._released, k, len(self._released),
                              repeats=True)
        boot, left = self._scan(alive, self._boot_order, k - len(got),
                                self._boot_left, repeats=False)
        del self._released[rel:]
        self._boot_left = left
        self._alive_count -= k
        return np.concatenate((got, boot))

    @staticmethod
    def _scan(alive, source, k: int, end: int, repeats: bool):
        """Up to k alive blocks of source[:end], read backwards, each once,
        marked taken (a released block may also lie ahead of the boot
        cursor); and where the reading stopped. Only the released list
        repeats a block; the boot order is a permutation."""
        got = [np.empty(0, dtype=np.int64)]
        while k and end:
            window = np.asarray(source[max(0, end - 2 * k - 16):end])[::-1]
            if repeats:
                _, first = np.unique(window, return_index=True)
                at = np.sort(first[alive[window[first]] != 0])[:k]
            else:
                at = np.flatnonzero(alive[window])[:k]
            alive[window[at]] = 0
            got.append(window[at])
            k -= len(at)
            end -= int(at[-1]) + 1 if not k else len(window)
        return np.concatenate(got), end

    def _take_run(self, order: int) -> int:
        """Remove and return one free run of 2^order pages (may split)."""
        if order >= self.block_order:
            if not self._alive_count:  # both block sources run out
                self._released.clear()
                self._boot_left = 0
                raise OutOfMemory("no contiguous block available")
            return int(self._next_blocks(1)[0]) << self.block_order
        if order == self.batch_order:
            g = next((g for g, s in enumerate(self._stacks) if s.n), None)
            if g is not None:
                return self._pop(g)
        elif self._runs[order]:
            return self._runs[order].popitem()[0]
        upper = self._take_run(order + 1)
        self._put(order, upper + (1 << order))
        return upper

    # -- draws -------------------------------------------------------------

    def take_contiguous(self, n_pages: int) -> Runs:
        """Largest-run-first power-of-two decomposition; exact page count."""
        if n_pages > self.free_frames:
            raise OutOfMemory(f"{n_pages} pages requested, "
                              f"{self.free_frames} free")
        runs = Runs()
        k = min(n_pages >> self.block_order, self._alive_count)
        runs.extend(self._next_blocks(k) << self.block_order, self.block_pages)
        left = n_pages - k * self.block_pages
        while left:  # order 0 at the latest finds a free frame
            for order in range(min(self.block_order, left.bit_length() - 1),
                               -1, -1):
                with contextlib.suppress(OutOfMemory):
                    runs.extend([self._take_run(order)], 1 << order)
                    break
            left -= 1 << order
        self.used_frames += n_pages
        return runs

    def take_batches(self, groups) -> np.ndarray:
        """One 16-page aligned run per listed channel group, in order: the
        runs that drawing one at a time gives, found in one pass; past the
        last alive block, the rest come from _take_dry.

        With prior a draw's earlier draws in its group and depth the size
        of its store, blocks split up to draw i = running max of prior + 1
        - depth. Each split pushes one slot on every store. Draw i pops
        depth + split - prior - 1, and the pushes of splits [prev, split),
        made since its group's previous draw (at split prev), lie at depth
        + j - prior. Only the top of that span is popped at all, down to
        the lowest pop of the draw and its group's later draws. A draw with
        prev < split pops the newest push, split - 1, itself. The other
        draws and popped pushes are matched by (group, position, draw):
        there pushes and pops at one position alternate, so a pop takes the
        push before it, else a top entry. So each store gives up a top
        slice and gains the pushes no draw took, appended in split order."""
        groups = np.asarray(groups, dtype=np.int64)
        n, gn = len(groups), self.groups_n
        bo, bto = self.block_order, self.batch_order
        depth = np.array([s.n for s in self._stacks], dtype=np.int64)
        by_group = np.argsort(groups.astype(np.min_scalar_type(gn)),
                              kind="stable")  # a radix sort
        in_group = groups[by_group]
        count = np.bincount(groups, minlength=gn)
        first = np.cumsum(count) - count
        prior = np.empty(n, dtype=np.int64)
        prior[by_group] = np.arange(n) - first[in_group]
        split = np.maximum.accumulate(np.maximum(prior + 1 - depth[groups],
                                                 0))
        k, alive = int(split.max(initial=0)), self._alive_count
        if k > alive:
            if n > self.batch_room():
                raise OutOfMemory(f"{n} batches requested, "
                                  f"{self.batch_room()} free")
            # The draws up to the last alive block's split, in closed form;
            # the rest from the stores that are left.
            p = int(np.searchsorted(split, alive, "right"))
            head = self.take_batches(groups[:p])
            self._released.clear()
            self._boot_left = 0
            self.used_frames += (n - p) * self.batch_pages
            return np.concatenate((head, [self._take_dry(g)
                                          for g in groups[p:].tolist()]))
        blocks = self._next_blocks(k)
        # Positions are kept less depth plus n, so none is negative and
        # all are below span.
        span = n + k + 1
        pop_at = n + split - prior - 1
        prev = np.empty(n, dtype=np.int64)  # split at the group's last draw
        prev[by_group[1:]] = split[by_group[:-1]]
        prev[by_group[first[count > 0]]] = 0
        # The lowest pop of each draw and its group's later draws: a
        # running minimum read backwards, the groups stacked span apart
        # (from here on, in-place steps and dels keep the call's peak down).
        in_group *= span
        low = np.minimum.accumulate((pop_at[by_group] + in_group)[::-1])[::-1]
        low -= in_group
        del in_group
        taken = np.zeros(gn, dtype=np.int64)
        taken[count > 0] = np.maximum(n - low[first[count > 0]], 0)
        low[by_group] = low.copy()
        del by_group
        # The popped pushes [lo, split) of each draw's span, less the one a
        # direct draw takes: their splits j and the draw that owns each.
        direct = split > prev
        lo = np.maximum(prev, low - n + prior)
        del prev, low
        size = np.maximum(split - direct - lo, 0)
        owner = np.repeat(np.arange(n), size)
        j = _ranges(lo, size)
        del lo, size
        kept = np.ones((gn, k), dtype=bool)
        kept[groups[owner], j] = False
        kept[groups[direct], split[direct] - 1] = False
        rest = np.flatnonzero(~direct)
        # Sort a split's pushes before its draw's pop.
        at = np.flatnonzero(np.diff(split, prepend=0))
        period, m = 2 * n + 1, len(j)
        key = np.concatenate((
            (groups[owner] * span + n + j - prior[owner]) * period
            + 2 * at[j],
            (groups[rest] * span + pop_at[rest]) * period + 2 * rest + 1))
        order = np.argsort(key)
        key = key[order] // period
        own = (order[1:] >= m) & (order[:-1] < m)
        own &= key[1:] == key[:-1]
        hit, drawn = order[:-1][own], rest[order[1:][own] - m]
        del key, order, own, owner, pop_at, at, rest
        tops = []
        for g, (stack, up, keep) in enumerate(zip(self._stacks,
                                                  taken.tolist(), kept)):
            tops.append(stack.array[0, stack.n - up:][::-1].copy())
            stack.n -= up
            stack.extend((blocks[keep] << bo) + (g << bto))
        tops = np.concatenate(tops)
        # The split blocks' rows hold the slots they pushed (adding rows
        # replaces _slots, so first); the popped tops' slots read 0.
        rows = self._rows(blocks, add=True)
        self._slots[rows] = kept.T
        self._slots[self._rows(tops >> bo), (tops >> bto) % gn] = 0
        # The split whose push each draw takes, else -1 for a top entry.
        push = np.where(direct, split - 1, -1)
        push[drawn] = j[hit]
        del j, hit, drawn
        pushed = push >= 0
        starts = groups << bto
        starts[pushed] += blocks[push[pushed]] << bo
        top = (np.cumsum(taken) - taken)[groups]
        top += prior
        top -= split
        starts[~pushed] = tops[top[~pushed]]
        self.used_frames += n * self.batch_pages
        return starts

    def _take_dry(self, group: int) -> int:
        """One draw of take_batches once no block is left. An empty group
        store is refilled by splitting a 32- or 64-page run, the smallest
        first; if none is left, the next group with a slot serves."""
        if not self._stacks[group].n:
            for o in range(self.batch_order + 1, self.block_order):
                if self._runs[o]:
                    start, _ = self._runs[o].popitem()
                    for k in range(1 << (o - self.batch_order)):
                        self._put(self.batch_order,
                                  start + (k << self.batch_order))
                    break
            group = next(g % self.groups_n
                         for g in range(group, group + self.groups_n)
                         if self._stacks[g % self.groups_n].n)
        return self._pop(group)

    def batch_room(self) -> int:
        """How many 16-page runs take_batches can draw: the slots in the
        group stores, those of every run between a slot and a block, and
        one per group of every whole free block."""
        bto = self.batch_order
        return (sum(s.n for s in self._stacks)
                + sum(len(self._runs[o]) << (o - bto)
                      for o in range(bto + 1, self.block_order))
                + self.groups_n * self._alive_count)

    def take_blocks(self, count: int) -> np.ndarray:
        """The starts of count whole blocks (128 pages each)."""
        alive = self._alive_count
        if count > alive:
            raise OutOfMemory(f"{count} blocks requested, {alive} free")
        self.used_frames += count * self.block_pages
        return self._next_blocks(count) << self.block_order

    def take_batches_sequential(self, count: int) -> np.ndarray:
        """count 16-page runs in ascending frame order: the slots after the
        previous sequential draw while they are still free, then the
        lowest free blocks in order. The slots of the last block that the
        draw leaves go to the group stores, where every draw and merge can
        reach them."""
        gn, bo, bto = self.groups_n, self.block_order, self.batch_order
        nxt, lead = self._seq_next, 0
        if nxt is not None:  # the slot map from _seq_next to its block's end
            g, row = (nxt >> bto) % gn, self._row(nxt >> bo)
            free = self._slots[row, g:].tobytes()
            lead = len(free) - len(free.lstrip(b"\x01"))
        room = lead + gn * self._alive_count
        if count > room:
            raise OutOfMemory(f"{count} batches requested, {room} in order")
        here, more = min(count, lead), max(count - lead, 0)
        if here:
            self._slots[row, g:g + here] = 0  # _compact drops them
            self._dirty.update(range(g, g + here))
            self._dropped.extend(range(nxt, nxt + (here << bto), 1 << bto))
        blocks, b = [], -1
        for _ in range(-(-more // gn)):
            b = self._block_alive.find(1, b + 1)  # counted in room
            self._block_alive[b] = 0
            blocks.append(b)
        self._alive_count -= len(blocks)
        fresh = (np.array(blocks, dtype=np.int64)[:, None] << bo) \
            + (np.arange(gn) << bto)
        for start in fresh[-1, more % gn:].tolist() if more % gn else ():
            self._put(bto, start)
        starts = np.concatenate(((np.arange(here, dtype=np.int64) << bto)
                                 + (nxt or 0), fresh.ravel()[:more]))
        if count:
            nxt = int(starts[-1]) + self.batch_pages
            self._seq_next = nxt if nxt & (self.block_pages - 1) else None
        self._compact()
        self.used_frames += count * self.batch_pages
        return starts

    # -- release -----------------------------------------------------------

    def release_runs(self, starts, sizes) -> None:
        """Return the runs at starts, of sizes pages (an array or one int),
        each inside one block, to the pool.

        The pool ends in the state that freeing the runs one by one in
        order, each merged piece by piece with its free buddies, gives. A
        block is whole by count when its released pages and free slots add
        up to the block: free pieces and live runs never overlap, so they
        fill it. Its slots leave the stores and it goes back alive. The
        runs of every other block merge one by one, in order, and may
        make their block whole too. Every block made whole joins the
        released blocks in the order of its last run, as per-run release
        leaves them: a block cannot be whole before its last run is freed,
        and merges below a block never leave it.
        """
        starts = np.asarray(starts, dtype=np.int64)
        if not len(starts):
            return
        sizes = np.broadcast_to(sizes, starts.shape)
        bo = self.block_order
        if np.any(starts + sizes > (starts >> bo << bo) + self.block_pages):
            raise ValueError("a released run crosses a block boundary")
        self.used_frames -= int(sizes.sum())
        blocks, of_run = np.unique(starts >> bo, return_inverse=True)
        rows = self._rows(blocks)
        split = rows >= 0  # a block never split has no free slot
        free = np.zeros((len(blocks), self.groups_n), dtype=bool)
        free[split] = self._slots[rows[split]] == 1
        whole = np.bincount(of_run, weights=sizes) + self.batch_pages \
            * np.count_nonzero(free, axis=1) == self.block_pages
        done = len(self._released)
        self._slots[rows[whole & split]] = 0  # _compact drops them
        self._dirty.update(np.flatnonzero(free[whole].any(axis=0)).tolist())
        np.frombuffer(self._block_alive, dtype=np.uint8)[blocks[whole]] = 1
        self._alive_count += int(np.count_nonzero(whole))
        self._released.extend(blocks[whole].tolist())
        merge = ~whole[of_run]
        for start, n in zip(starts[merge].tolist(), sizes[merge].tolist()):
            self._merge_run(start, n)
        # Every block made whole, ordered by the index of its last run.
        last_run = np.zeros(len(blocks), dtype=np.int64)
        np.maximum.at(last_run, of_run, np.arange(len(starts)))
        made = np.array(self._released[done:], dtype=np.int64)
        key = last_run[np.searchsorted(blocks, made)]
        self._released[done:] = made[np.argsort(key)].tolist()
        self._compact()

    def _pieces_tiling(self, lo: int, hi: int) -> list | None:
        """(order, start) of the free pieces that tile [lo, hi) inside one
        block, or None if a page there is not in a store."""
        found = []
        top = self.block_order - 1
        while lo < hi:
            order = min((lo & -lo).bit_length() - 1 if lo else top,
                        (hi - lo).bit_length() - 1, top)
            while not self._has(order, lo):
                order -= 1
                if order < 0:
                    return None
            found.append((order, lo))
            lo += 1 << order
        return found

    def _merge_run(self, start: int, n_pages: int):
        while n_pages:
            max_align = (start & -start).bit_length() - 1 if start else self.block_order
            order = min(self.block_order, max_align, n_pages.bit_length() - 1)
            self._free_run(start, order)
            start += 1 << order
            n_pages -= 1 << order

    def _free_run(self, start: int, order: int):
        """Free [start, +2^order), merged with its buddy while the free
        pieces tile the buddy entirely; a buddy not entirely free is left
        as it is."""
        while order < self.block_order:
            buddy = start ^ (1 << order)
            pieces = self._pieces_tiling(buddy, buddy + (1 << order))
            if pieces is None:
                self._put(order, start)
                return
            for piece_order, piece in pieces:
                self._drop(piece_order, piece)
            start = min(start, buddy)
            order += 1
        b = start >> self.block_order
        self._block_alive[b] = 1
        self._alive_count += 1
        self._released.append(b)

    def free_pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """(starts, n_pages) of every free piece: the whole blocks, then
        each store's runs."""
        stores = [(np.fromiter(d, dtype=np.int64, count=len(d)), 1 << o)
                  for o, d in self._runs.items() if d]
        stores += [(s.array[0], self.batch_pages) for s in self._stacks if s.n]
        blocks = np.flatnonzero(np.frombuffer(
            self._block_alive, dtype=np.uint8)) << self.block_order
        starts = np.concatenate([blocks] + [s for s, _ in stores])
        sizes = np.repeat([self.block_pages] + [n for _, n in stores],
                          [len(blocks)] + [len(s) for s, _ in stores])
        return starts, sizes


# --------------------------------------------------------------------------
# Allocations and the manager
# --------------------------------------------------------------------------

@dataclass
class Allocation:
    """One allocation: its page-table region until release; its frame runs
    in draw order, as int64 arrays; its first-touch reservations; and, from
    its first CPU touch of up-front memory, one flag per CPU-visible chunk,
    whose size follows the first touch's agent. live and mapped_pages are
    read from the region."""
    id: int
    kind: AllocatorKind
    va_base: int                   # first virtual page number
    n_pages: int
    policy: Policy
    region: pagetable._Region | None = field(default=None, repr=False)
    first_touch_agent: Agent | None = None
    frame_runs: Runs = field(default_factory=Runs, repr=False)
    # First frame reserved for each virtual batch / block, -1 if none yet.
    pending_cpu_batches: np.ndarray | None = field(default=None, repr=False)
    pending_gpu_blocks: np.ndarray | None = field(default=None, repr=False)
    cpu_chunks_mapped: np.ndarray | None = field(default=None, repr=False)

    @property
    def live(self) -> bool:
        return self.region is not None

    @property
    def mapped_pages(self) -> int:
        return int(self.region.runs[1].sum()) if self.live else 0


def _expect(holds, invariant: str):
    if not holds:
        raise AssertionError(invariant)


class MemoryManager:
    """Single-threaded simulator instance: tables, pool, counters, RNG."""

    def __init__(self, profile: MachineProfile, seed: int = 0):
        self.profile = profile
        ss = np.random.SeedSequence(seed)
        pool_ss, scatter_ss = ss.spawn(2)
        self._scatter_rng = np.random.default_rng(scatter_ss)
        self.pool = FramePool(profile, pool_ss)
        self.table = pagetable.DualTable(profile.max_fragment)
        self.allocations: dict[int, Allocation] = {}  # release drops one
        self._next_id = 1
        self._chunk_pages = profile.hip_cpu_map_granularity // profile.page_size

    # -- allocation ------------------------------------------------------

    def allocate(self, kind: AllocatorKind, size: int) -> Allocation:
        if size <= 0:
            raise ZeroSize(f"allocation size must be positive, got {size}")
        n_pages = -(-size // self.profile.page_size)
        spec = classify(kind, self.profile.xnack)
        alloc = Allocation(id=self._next_id, kind=kind, va_base=0,
                           n_pages=n_pages, policy=spec.physical)
        if spec.physical is Policy.UP_FRONT:
            # Place first: a placement that fails leaves no frames, no
            # virtual reservation and no used id behind.
            if n_pages > self.pool.free_frames:
                raise OutOfMemory(
                    f"{n_pages} pages needed, {self.pool.free_frames} free")
            self._place_up_front(alloc, n_pages)
        alloc.region = self.table.reserve(n_pages, align_pages=512)
        va_base = alloc.va_base = alloc.region.va_base
        self._next_id += 1
        if spec.physical is Policy.UP_FRONT:
            self.table.map_range(pagetable.SYSTEM, va_base,
                                 pagetable.FrameRuns(*alloc.frame_runs.array))
            if spec.gpu_access:
                self.table.propagate(va_base, n_pages)
        self.allocations[alloc.id] = alloc
        return alloc

    def _place_up_front(self, alloc: Allocation, n_pages: int):
        """Draw the runs of n_pages up-front frames into alloc.frame_runs."""
        batch = self.pool.batch_pages
        full = 0
        if not KINDS[alloc.kind].device:
            full = n_pages // batch
            self._draw_batches(alloc, full)
        if n_pages > full * batch:
            tail = self.pool.take_contiguous(n_pages - full * batch)
            alloc.frame_runs.extend(*tail.array)

    def _draw_batches(self, alloc: Allocation, count: int) -> np.ndarray:
        """Draw count 16-page batch starts, scattered by the profile's
        degree for the allocation's policy; degree 0 draws ascending."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        pool, placement = self.pool, self.profile.placement
        if alloc.policy is Policy.UP_FRONT:
            degree = placement.host_upfront_scatter_degree
        else:
            degree = placement.cpu_touch_scatter_degree
        if degree == 0.0:
            starts = pool.take_batches_sequential(count)
        else:
            if count > pool.batch_room():  # before the groups are drawn
                raise OutOfMemory(f"{count} batches needed, "
                                  f"{pool.batch_room()} free")
            rng = self._scatter_rng
            theta = placement.scatter_zipf_scale * (1.0 - degree)
            if theta <= 0:
                groups = rng.integers(0, pool.groups_n, size=count)
            else:
                w = np.arange(1, pool.groups_n + 1, dtype=np.float64) ** -theta
                groups = rng.choice(pool.groups_n, size=count, p=w / w.sum())
            starts = pool.take_batches(groups)
        alloc.frame_runs.extend(starts, pool.batch_pages)
        return starts

    # -- touch -----------------------------------------------------------

    def touch(self, alloc: Allocation, page_range: tuple[int, int] | None,
              agent: Agent) -> FaultBatch:
        """First-touch [lo, hi) page offsets of alloc by the given agent.

        Returns the fault events produced: one per newly mapped page for
        on-demand kinds, one per newly CPU-mapped visibility chunk for
        up-front kinds. Already-covered pages produce none.
        """
        if not alloc.live:
            raise UseAfterFree(f"allocation {alloc.id} released")
        lo, hi = page_range if page_range is not None else (0, alloc.n_pages)
        if not (0 <= lo <= hi <= alloc.n_pages):
            raise ValueError(f"page range [{lo}, {hi}) outside allocation")
        spec = classify(alloc.kind, self.profile.xnack)
        if agent is Agent.GPU and not spec.gpu_access:
            raise AccessViolation(
                f"GPU access to {alloc.kind.value} is fatal here")
        if lo == hi:
            faults = _NO_FAULTS
        elif alloc.policy is Policy.ON_DEMAND:
            faults = self._touch_on_demand(alloc, lo, hi, agent is Agent.GPU)
        elif agent is Agent.CPU:
            faults = self._touch_up_front_cpu(alloc, lo, hi)
        else:
            faults = _NO_FAULTS
        # Set only once the touch has succeeded, so a failed one leaves no
        # trace.
        if alloc.first_touch_agent is None:
            alloc.first_touch_agent = agent
        return FaultBatch(*faults)

    # Each touch path maps what it must; it returns its faults' counts by
    # kind and their runs of virtual pages (starts, sizes), in kind order.

    def _touch_on_demand(self, alloc, lo, hi, gpu: bool):
        # CPU faults and GPU major faults find no entry (state 0); GPU
        # minor faults find a system entry only (state 1) and come first.
        va = alloc.va_base
        runs = [self.table.state_runs(va + lo, hi - lo, state)
                for state in ((1, 0) if gpu else (0,))]
        starts, ends = np.concatenate(runs, axis=1) - va
        n_minor = len(runs[0][0]) if gpu else 0
        if n_minor < len(starts):
            self._map_fresh(alloc, starts[n_minor:], ends[n_minor:], gpu)
        if gpu and len(starts):
            self.table.propagate(va + lo, hi - lo)
        sizes = ends - starts
        minor, major = int(sizes[:n_minor].sum()), int(sizes[n_minor:].sum())
        return ((0, minor, major) if gpu else (major, 0, 0)), va + starts, sizes

    def _touch_up_front_cpu(self, alloc, lo, hi):
        # Device and host up-front memory becomes CPU-visible in coarse
        # chunks; after GPU first touch the mapping grain is finer.
        if alloc.first_touch_agent is Agent.GPU:
            grain = self.profile.placement.gpu_init_cpu_map_pages
        else:
            grain = self._chunk_pages
        if alloc.cpu_chunks_mapped is None:
            alloc.cpu_chunks_mapped = np.zeros(-(-alloc.n_pages // grain),
                                               dtype=bool)
        mapped = alloc.cpu_chunks_mapped
        c0, c1 = lo // grain, -(-hi // grain)
        fresh = np.flatnonzero(~mapped[c0:c1]) + c0
        mapped[c0:c1] = True
        # One fault per fresh chunk, at the chunk's first page.
        return ((len(fresh), 0, 0), alloc.va_base + fresh * grain,
                np.ones(len(fresh), dtype=np.int64))

    def _map_fresh(self, alloc, starts: np.ndarray, ends: np.ndarray,
                   gpu: bool):
        """System-map the segments [starts, ends) of alloc's page offsets:
        ascending, disjoint and unmapped. First reserve one batch (CPU) or
        block (GPU) of frames for every virtual batch or block they touch
        that has none yet, in ascending order and all before any page is
        mapped, so contiguity forms as they fill and a draw that runs out
        of frames maps nothing; then map each segment with one map_range
        of the runs its reservations give."""
        grain = self.pool.block_pages if gpu else self.pool.batch_pages
        pending = alloc.pending_gpu_blocks if gpu else alloc.pending_cpu_batches
        if pending is None:  # kept only once the draw below succeeds
            pending = np.full(-(-alloc.n_pages // grain), -1, dtype=np.int64)
        # The batches touched, each once: a segment may start in the
        # batch where the one before it ends.
        b0 = starts // grain
        need = _ranges(b0, (ends - 1) // grain + 1 - b0)
        need = need[np.diff(need, prepend=-1) != 0]
        missing = need[pending[need] < 0]
        if len(missing):
            if gpu:
                drawn = self.pool.take_blocks(len(missing))
                alloc.frame_runs.extend(drawn, grain)
            else:
                drawn = self._draw_batches(alloc, len(missing))
            pending[missing] = drawn
        if gpu:
            alloc.pending_gpu_blocks = pending
        else:
            alloc.pending_cpu_batches = pending
        for s, e in zip(starts.tolist(), ends.tolist()):
            # Pages [s, e) lie in batches s // grain to (e - 1) // grain:
            # the first run starts s % grain into its batch, the last ends
            # at e.
            first = pending[s // grain:(e - 1) // grain + 1].copy()
            sizes = np.full(len(first), grain)
            first[0] += s % grain
            sizes[0] -= s % grain
            sizes[-1] -= -e % grain
            self.table.map_range(pagetable.SYSTEM, alloc.va_base + s,
                                 pagetable.FrameRuns(first, sizes))

    # -- release & usage ---------------------------------------------------

    def release(self, alloc: Allocation):
        if not alloc.live:
            raise DoubleFree(f"allocation {alloc.id} already released")
        del self.allocations[alloc.id]
        self.table.unmap_range(alloc.va_base, alloc.n_pages)
        self.table.free(alloc.region)
        alloc.region = None
        self.pool.release_runs(*alloc.frame_runs.array)
        alloc.frame_runs = Runs()
        alloc.pending_cpu_batches = alloc.pending_gpu_blocks = None

    def usage_view(self, counter: UsageCounter) -> int:
        """Bytes used as seen by one of the memory-usage interfaces: the
        mapped pages of the allocations, of device kinds only for
        hipMemGetInfo and of the other kinds only for the process RSS."""
        seen = {UsageCounter.HIP_MEM_GET_INFO: (True,),
                UsageCounter.PROCESS_RSS: (False,)}.get(counter, (False, True))
        return self.profile.page_size * sum(
            a.mapped_pages for a in self.allocations.values()
            if KINDS[a.kind].device in seen)

    def check(self):
        """Raise AssertionError, naming the invariant, unless every
        invariant of the manager holds."""
        pool = self.pool
        live = list(self.allocations.values())
        run_starts, run_sizes = np.concatenate(
            [np.empty((2, 0), dtype=np.int64)]
            + [a.frame_runs.array for a in live], axis=1)
        _expect(pool.used_frames == int(run_sizes.sum()),
                "used frames differ from the live allocations' frame runs")
        # First, so that a slot held twice is named as such: each stack
        # holds its own group's slots, each slot is held once, and the 1s
        # of the split blocks' rows are those slots.
        stacks = [s.array[0] for s in pool._stacks]
        slots = np.concatenate(stacks)
        owner = np.repeat(np.arange(pool.groups_n), list(map(len, stacks)))
        own = np.array_equal((slots >> pool.batch_order) % pool.groups_n, owner)
        slots = np.sort(slots)
        rows = pool._rows(slots >> pool.block_order)
        held = np.zeros_like(pool._slots)
        held[rows, (slots >> pool.batch_order) % pool.groups_n] = 1
        index = pool._index
        _expect(own and np.all(np.diff(index >> 32) > 0)
                and np.array_equal(np.sort(index & 0xFFFFFFFF),
                                   np.arange(len(index)))
                and np.all(np.diff(slots) > 0) and np.all(rows >= 0)
                and np.array_equal(held, pool._slots),
                "the slot map differs from the group stores")
        free_starts, free_sizes = pool.free_pieces()
        _expect(int(free_sizes.sum()) == pool.free_frames,
                "a free frame sits in no store")
        small = free_sizes < pool.block_pages
        starts = np.concatenate((free_starts[small], run_starts))
        ends = starts + np.concatenate((free_sizes[small], run_sizes))
        # The live allocation that holds each piece, -1 for a free piece.
        piece_owner = np.repeat(np.arange(-1, len(live)), [
            np.count_nonzero(small)] + [len(a.frame_runs) for a in live])
        alive = np.frombuffer(pool._block_alive, dtype=np.uint8)
        _expect(not alive[starts >> pool.block_order].any(),
                "a free piece or a live run lies inside a whole free block")
        # What makes _next_blocks and batch_room exact: the count, and a
        # whole free block in the boot order's consumed tail (all of it
        # once the cursor is at 0) is released.
        _expect(pool._alive_count == np.count_nonzero(alive),
                "the whole-block count differs from the alive map")
        behind = np.flatnonzero(alive) if not pool._boot_left \
            else pool._boot_order[pool._boot_left:]
        released = set(pool._released)
        _expect(all(b in released for b in behind[alive[behind] != 0].tolist()),
                "a whole free block is neither released nor left to boot")
        at = np.argsort(starts)
        starts, ends, piece_owner = starts[at], ends[at], piece_owner[at]
        _expect(np.all(starts[1:] >= ends[:-1]),
                "free pieces and live runs overlap")
        # The page table's runs: in each region sorted, disjoint and
        # inside it, each mapping its pages in state 1 or 2.
        tables = [a.region.runs for a in live]
        off, n, frame, state = np.concatenate(
            [np.empty((4, 0), dtype=np.int64)] + tables, axis=1)
        holder = np.repeat(np.arange(len(live)), [t.shape[1] for t in tables])
        size = np.array([a.n_pages for a in live], dtype=np.int64)[holder]
        follows = holder[1:] == holder[:-1]
        _expect(np.all((off >= 0) & (n > 0) & (off + n <= size)
                       & ((state == 1) | (state == 2)))
                and np.all(off[1:][follows] >= (off + n)[:-1][follows]),
                "a region's runs overlap, leave it or are out of order")
        # No frame is mapped twice, and each mapped run lies in one live
        # run of its own allocation: the table maps the runs an allocation
        # drew, or parts of them.
        at = np.argsort(frame)
        lo, hi, holder = frame[at], (frame + n)[at], holder[at]
        _expect(np.all(lo[1:] >= hi[:-1]), "a frame is mapped twice")
        piece = np.searchsorted(starts, lo, side="right") - 1
        _expect((not len(piece) or piece[0] >= 0) and np.all(
            (hi <= ends[piece]) & (piece_owner[piece] == holder)),
            "a mapped frame lies outside its allocation's runs")


# --------------------------------------------------------------------------
# Allocation / free cost models
# --------------------------------------------------------------------------

def _pages(profile: MachineProfile, size: int) -> int:
    return -(-size // profile.page_size)


def _affine_by_pages(profile, size, flat_limit, flat_s, anchor_size, anchor_s):
    if size <= flat_limit:
        return flat_s
    p0 = _pages(profile, flat_limit)
    p1 = _pages(profile, anchor_size)
    slope = (anchor_s - flat_s) / (p1 - p0)
    return flat_s + (_pages(profile, size) - p0) * slope


def alloc_time_model(profile: MachineProfile, kind: AllocatorKind,
                     size: int) -> float:
    """Modeled allocation cost in seconds."""
    if size <= 0:
        raise ZeroSize(f"allocation size must be positive, got {size}")
    m = profile.alloc_model
    GIB = 1 << 30
    if kind is AllocatorKind.LIBC_ON_DEMAND:
        base = m.libc_small_ns * 1e-9
        if size <= m.libc_mmap_threshold:
            return base
        slope = (m.libc_1gib_us * 1e-6 - base) / (GIB - m.libc_mmap_threshold)
        return base + (size - m.libc_mmap_threshold) * slope
    if kind is AllocatorKind.STATIC_MANAGED:
        return m.static_const_us * 1e-6
    if kind is AllocatorKind.MANAGED_UNIFIED and profile.xnack:
        return m.managed1_const_us * 1e-6
    small_us, gib_ms = {  # up front: flat, then affine in pages to 1 GiB
        AllocatorKind.DEVICE_UP_FRONT: (m.device_small_us, m.device_1gib_ms),
        AllocatorKind.PINNED_HOST: (m.pinned_small_us, m.pinned_1gib_ms),
        AllocatorKind.REGISTERED_HOST: (m.registered_small_us,
                                        m.registered_1gib_ms),
        AllocatorKind.MANAGED_UNIFIED: (m.managed0_small_us,
                                        m.managed0_1gib_ms),
    }[kind]
    return _affine_by_pages(profile, size, m.upfront_granularity,
                            small_us * 1e-6, GIB, gib_ms * 1e-3)


def free_time_model(profile: MachineProfile, kind: AllocatorKind,
                    size: int) -> float:
    """Modeled deallocation cost in seconds."""
    if size <= 0:
        raise ZeroSize(f"allocation size must be positive, got {size}")
    m = profile.alloc_model
    GIB = 1 << 30
    if kind is AllocatorKind.LIBC_ON_DEMAND:
        alloc = alloc_time_model(profile, kind, size)
        if size <= m.libc_free_crossover:
            return alloc * m.libc_free_small_factor
        ratio = m.libc_free_slow_factor * \
            (size / (2 * m.libc_free_crossover)) ** 0.3
        return alloc * min(ratio, m.libc_free_cap)
    if kind is AllocatorKind.DEVICE_UP_FRONT:
        alloc = alloc_time_model(profile, kind, size)
        if size <= m.device_free_crossover:
            return alloc * m.device_free_small_factor
        ratio = m.device_free_cap * (size / (256 << 20)) ** 0.62
        return alloc * min(max(ratio, 1.05), m.device_free_cap)
    if kind in (AllocatorKind.PINNED_HOST, AllocatorKind.REGISTERED_HOST) or \
            (kind is AllocatorKind.MANAGED_UNIFIED and not profile.xnack):
        return _affine_by_pages(profile, size, m.upfront_granularity,
                                m.pinned_free_small_us * 1e-6, GIB,
                                m.pinned_free_1gib_ms * 1e-3)
    if kind is AllocatorKind.MANAGED_UNIFIED:
        return m.managed1_free_us * 1e-6
    return m.static_const_us * 1e-6  # static managed
