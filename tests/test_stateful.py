"""A stateful model test of MemoryManager: random allocate, partial touch,
release and out-of-memory sequences on small pools. After every step the
manager's invariants hold, and a failed operation leaves no trace."""

from dataclasses import replace

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)
import pytest

from upm_sim.machine import MiB, builtin_mi300a
from upm_sim.memmgr import (AccessViolation, Agent, AllocatorKind,
                            MemoryManager, OutOfMemory, Policy, classify)
from tests.test_properties import pool_state

K = AllocatorKind


class ManagerMachine(RuleBasedStateMachine):
    """One 64 MiB manager per example: block/batch pages 128/16 or 64/1,
    scatter degree 0 (ascending draws) or above 0, xnack off or on."""

    @initialize(shape=st.sampled_from([(128, 16), (64, 1)]),
                degree=st.sampled_from([0.0, 0.5, 1.0]),
                xnack=st.booleans(), seed=st.integers(0, 3))
    def build(self, shape, degree, xnack, seed):
        block, batch = shape
        base = builtin_mi300a()
        self.profile = replace(
            base, hbm_capacity=64 * MiB, xnack=xnack,
            placement=replace(base.placement, frame_block_pages=block,
                              kernel_batch_pages=batch,
                              cpu_touch_scatter_degree=degree,
                              host_upfront_scatter_degree=degree))
        self.m = MemoryManager(self.profile, seed=seed)
        self.live = []

    def state(self):
        """What a failed operation must leave as it was."""
        m = self.m
        return (pool_state(m.pool), m.table._next_va, m._next_id,
                m._scatter_rng.bit_generator.state,
                [(a.mapped_pages, len(a.frame_runs)) for a in self.live])

    def fails(self, error, op):
        before = self.state()
        with pytest.raises(error):
            op()
        assert self.state() == before

    @rule(kind=st.sampled_from(list(K)), pages=st.integers(1, 2048),
          tail=st.integers(0, 4095))
    def allocate(self, kind, pages, tail):
        size = pages * self.profile.page_size - tail
        if pages > self.m.pool.free_frames \
                and classify(kind, self.profile.xnack).physical \
                is Policy.UP_FRONT:
            self.fails(OutOfMemory, lambda: self.m.allocate(kind, size))
        else:
            self.live.append(self.m.allocate(kind, size))

    @rule(kind=st.sampled_from([k for k in K
                                if classify(k, False).physical
                                is Policy.UP_FRONT]),
          extra=st.integers(1, 256))
    def allocate_too_much(self, kind, extra):
        # Only a kind placed up front under this xnack setting fails here.
        if classify(kind, self.profile.xnack).physical is Policy.UP_FRONT:
            pages = self.m.pool.free_frames + extra
            self.fails(OutOfMemory, lambda: self.m.allocate(
                kind, pages * self.profile.page_size))

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 1 << 16), lo=st.floats(0, 1),
          hi=st.floats(0, 1), agent=st.sampled_from(list(Agent)))
    def touch(self, index, lo, hi, agent):
        a = self.live[index % len(self.live)]
        lo, hi = sorted((int(lo * a.n_pages), int(hi * a.n_pages)))
        if agent is Agent.GPU \
                and not classify(a.kind, self.profile.xnack).gpu_access:
            self.fails(AccessViolation,
                       lambda: self.m.touch(a, (lo, hi), agent))
            return
        before = self.state()
        try:
            self.m.touch(a, (lo, hi), agent)
        except OutOfMemory:
            assert self.state() == before

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 1 << 16))
    def release(self, index):
        self.m.release(self.live.pop(index % len(self.live)))

    @invariant()
    def holds(self):
        self.m.check()
        m = self.m
        assert m.pool.used_frames + m.pool.free_frames == m.pool.total_frames


ManagerMachine.TestCase.settings = settings(max_examples=60,
                                            stateful_step_count=30)
test_manager_state_machine = ManagerMachine.TestCase
