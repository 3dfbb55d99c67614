"""Stateful properties of the admission core (no threads, no clock).

A hypothesis ``RuleBasedStateMachine`` drives
:class:`~repro.cluster.admission.AdmissionCore` through arbitrary
interleavings of offer / grant / release / withdraw / quota changes and
checks, under every admission policy, the invariants the server, the
trace simulator and the Fig 12 event loop all rely on.
"""

import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster import ResourceManager, small_cluster
from repro.cluster.admission import (
    AdmissionCore,
    FirstFitPolicy,
    HeapRulePolicy,
    fitting_mb,
)

TENANTS = (None, "a", "b", "c")
#: below the 256 MB min allocation up to above the 1024 MB max
sizes = st.integers(min_value=64, max_value=1280)


class AdmissionMachine(RuleBasedStateMachine):
    policy_type = HeapRulePolicy

    def __init__(self):
        super().__init__()
        self.cluster = small_cluster(num_nodes=2, node_memory_mb=1024)
        self.rm = ResourceManager(self.cluster)
        self.core = AdmissionCore(self.rm, self.policy_type())
        self.tickets = itertools.count(1)
        self.offered = set()
        self.rejected = set()
        self.withdrawn = set()
        #: every ticket ever granted (a ticket leaves ``holding`` when
        #: its containers are released, never this set)
        self.granted = set()
        self.holding = {}  # ticket -> containers

    # -- rules ---------------------------------------------------------------

    @rule(tenant=st.sampled_from(TENANTS), container_mb=sizes,
          rungs=st.integers(0, 3), count=st.integers(1, 3))
    def offer(self, tenant, container_mb, rungs, count):
        ticket = next(self.tickets)
        shrunk_mb = [container_mb * 3**k // 4**k for k in range(1, rungs + 1)]
        hopeless = self.rm.never_fits(container_mb, tenant, count)
        request = self.core.offer(
            ticket, tenant, container_mb, shrunk_mb, count
        )
        self.offered.add(ticket)
        assert (request is None) == hopeless
        if request is None:
            self.rejected.add(ticket)
        else:
            assert self.core.waiting[ticket] is request
            assert request.sizes == (container_mb, *shrunk_mb)

    @rule()
    def grant(self):
        self._grant()

    def _grant(self):
        used_before = self.rm.used_mb
        granted_mb = 0
        for request, containers in self.core.grant():
            assert request.ticket not in self.granted, "granted twice"
            assert request.ticket not in self.core.waiting
            assert len(containers) == request.count
            (memory_mb,) = {c.memory_mb for c in containers}
            assert memory_mb in {
                self.rm.normalize_request(mb) for mb in request.sizes
            }
            quota = self.rm.tenant_quota_mb(request.tenant)
            if quota is not None:
                usage = self.rm.usage_by_tenant()[request.tenant]
                assert usage <= quota
            self.granted.add(request.ticket)
            self.holding[request.ticket] = containers
            granted_mb += memory_mb * request.count
        # all-or-nothing: nothing is held beyond what was handed out
        assert self.rm.used_mb == used_before + granted_mb
        # a finished pass leaves nothing admissible behind: the FIFO
        # head is blocked; the other policies skip ahead, so nobody fits
        blocked = list(self.core.waiting.values())
        if self.policy_type is HeapRulePolicy:
            blocked = blocked[:1]
        for request in blocked:
            assert fitting_mb(request, self.rm) is None

    @precondition(lambda self: self.holding)
    @rule(data=st.data())
    def release(self, data):
        ticket = data.draw(st.sampled_from(sorted(self.holding)))
        before = {
            t: fitting_mb(r, self.rm) for t, r in self.core.waiting.items()
        }
        self.core.release(self.holding.pop(ticket))
        # more free capacity never yields a smaller granted size
        for t, request in self.core.waiting.items():
            if before[t] is not None:
                assert fitting_mb(request, self.rm) >= before[t]

    @precondition(lambda self: self.offered)
    @rule(data=st.data())
    def withdraw(self, data):
        ticket = data.draw(st.sampled_from(sorted(self.offered)))
        was_waiting = ticket in self.core.waiting
        request = self.core.withdraw(ticket)
        assert (request is not None) == was_waiting
        if was_waiting:
            assert request.ticket == ticket
            self.withdrawn.add(ticket)

    @rule(tenant=st.sampled_from(TENANTS[1:]),
          quota_mb=st.one_of(st.none(), st.integers(256, 2048)))
    def set_tenant_quota(self, tenant, quota_mb):
        self.rm.set_tenant_quota(tenant, quota_mb)

    @rule()
    def drain(self):
        """With everything released, repeated grant passes admit every
        waiting request that can still be placed."""
        for containers in self.holding.values():
            self.core.release(containers)
        self.holding.clear()
        for ticket, request in list(self.core.waiting.items()):
            # a quota lowered after the offer can strand a request
            if self.rm.never_fits(
                request.container_mb, request.tenant, request.count
            ):
                self.core.withdraw(ticket)
                self.withdrawn.add(ticket)
        for _ in range(len(self.core.waiting)):
            self._grant()
            for containers in self.holding.values():
                self.core.release(containers)
            self.holding.clear()
        assert not self.core.waiting
        assert self.rm.used_mb == 0

    # -- invariants ----------------------------------------------------------

    @invariant()
    def node_capacity_never_exceeded(self):
        for node in self.rm.nodes:
            assert 0 <= node.used_mb <= node.capacity_mb
        assert self.rm.used_mb == sum(
            c.memory_mb for cs in self.holding.values() for c in cs
        )

    @invariant()
    def every_ticket_is_in_exactly_one_state(self):
        waiting = set(self.core.waiting)
        states = (waiting, self.granted, self.withdrawn, self.rejected)
        assert set().union(*states) == self.offered
        assert sum(len(state) for state in states) == len(self.offered)


def _machine_for(policy_type):
    machine = type(
        f"{policy_type.__name__}Machine", (AdmissionMachine,),
        {"policy_type": policy_type},
    )
    case = machine.TestCase
    case.settings = settings(
        max_examples=40, stateful_step_count=30, deadline=None
    )
    return case


TestHeapRuleCore = _machine_for(HeapRulePolicy)
TestFirstFitCore = _machine_for(FirstFitPolicy)


class _DenyNth:
    """A fault injector that denies the n-th RM allocation."""

    def __init__(self, nth):
        self.remaining = nth

    def deny_allocation(self, site):
        self.remaining -= 1
        return self.remaining == 0


class TestAllOrNothing:
    def test_denied_midway_rolls_back_and_keeps_waiting(self):
        rm = ResourceManager(
            small_cluster(num_nodes=2, node_memory_mb=1024),
            injector=_DenyNth(2),
        )
        core = AdmissionCore(rm)
        core.offer(1, "a", 256, count=3)
        assert list(core.grant()) == []
        assert rm.used_mb == 0
        assert rm.usage_by_tenant() == {}
        assert 1 in core.waiting
        # the denial was transient: the next pass grants all three
        ((request, containers),) = core.grant()
        assert request.ticket == 1
        assert len(containers) == 3

    def test_grants_the_largest_size_that_fits(self):
        rm = ResourceManager(small_cluster(num_nodes=1, node_memory_mb=1024))
        core = AdmissionCore(rm)
        held = rm.try_allocate(512)
        core.offer(1, None, 768, shrunk_mb=(576, 432, 324))
        ((_, (container,)),) = core.grant()
        assert container.memory_mb == 432
        core.release([container, held])
        core.offer(2, None, 768, shrunk_mb=(576, 432, 324))
        ((_, (container,)),) = core.grant()
        assert container.memory_mb == 768

    def test_count_that_never_fits_is_refused(self):
        rm = ResourceManager(small_cluster(num_nodes=2, node_memory_mb=1024))
        core = AdmissionCore(rm)
        # three 600 MB containers need three nodes
        assert core.offer(1, None, 600, count=3) is None
        assert core.offer(2, None, 600, count=2) is not None

    @pytest.mark.parametrize("policy_type", [HeapRulePolicy, FirstFitPolicy])
    def test_head_of_line(self, policy_type):
        """The two orderings differ exactly where they should: a blocked
        head stops the FIFO heap rule, first fit skips ahead."""
        rm = ResourceManager(small_cluster(num_nodes=1, node_memory_mb=1024))
        core = AdmissionCore(rm, policy_type())
        core.offer(1, None, 768)
        core.offer(2, None, 768)
        core.offer(3, None, 256)
        admitted = [request.ticket for request, _ in core.grant()]
        assert admitted == ([1] if policy_type is HeapRulePolicy else [1, 3])


class TestFirstFitSkipRule:
    """A request at least as large as one that already failed in the
    same pass is not retried — but only where that failure proves it
    cannot fit either."""

    def test_same_size_requests_are_probed_once(self, monkeypatch):
        rm = ResourceManager(small_cluster(num_nodes=1, node_memory_mb=1024))
        core = AdmissionCore(rm, FirstFitPolicy())
        rm.try_allocate(1024)
        for ticket in range(100):
            core.offer(ticket, None, 512)
        probes = []
        can_fit = rm.can_fit
        monkeypatch.setattr(
            rm, "can_fit",
            lambda *args, **kwargs: probes.append(args) or can_fit(
                *args, **kwargs
            ),
        )
        assert list(core.grant()) == []
        assert len(probes) == 1

    def test_a_quota_failure_does_not_block_other_tenants(self):
        rm = ResourceManager(small_cluster(num_nodes=1, node_memory_mb=1024))
        core = AdmissionCore(rm, FirstFitPolicy())
        rm.set_tenant_quota("a", 512)
        rm.try_allocate(256, tenant="a")
        core.offer(1, "a", 300)  # within the quota, not within what is left
        core.offer(2, "b", 512)
        assert [r.ticket for r, _ in core.grant()] == [2]

    def test_a_multi_container_failure_does_not_block_single_ones(self):
        rm = ResourceManager(small_cluster(num_nodes=2, node_memory_mb=1024))
        core = AdmissionCore(rm, FirstFitPolicy())
        rm.try_allocate(600)
        core.offer(1, None, 512, count=3)
        core.offer(2, None, 768)
        assert [r.ticket for r, _ in core.grant()] == [2]

    def test_a_failure_does_not_block_requests_that_can_shrink(self):
        rm = ResourceManager(small_cluster(num_nodes=1, node_memory_mb=1024))
        core = AdmissionCore(rm, FirstFitPolicy())
        rm.try_allocate(700)
        core.offer(1, None, 512)
        core.offer(2, None, 768, shrunk_mb=(576, 432, 324))
        ((request, (container,)),) = core.grant()
        assert (request.ticket, container.memory_mb) == (2, 324)


class _RecordingHeapRule(HeapRulePolicy):
    def __init__(self):
        self.hooked = []

    def admitted(self, request):
        self.hooked.append(request.ticket)


class TestAdmittedHook:
    """No policy keeps state across grants, so the core no longer calls
    :meth:`~repro.cluster.admission.AdmissionPolicy.admitted`; the no-op
    stays callable for replays of the admission layer by hand."""

    def test_grant_does_not_call_the_hook(self):
        rm = ResourceManager(small_cluster(num_nodes=2, node_memory_mb=1024))
        policy = _RecordingHeapRule()
        core = AdmissionCore(rm, policy)
        for ticket in (1, 2, 3):
            core.offer(ticket, "a", 512)
        assert [r.ticket for r, _ in core.grant()] == [1, 2, 3]
        assert policy.hooked == []

    @pytest.mark.parametrize("policy_type", [HeapRulePolicy, FirstFitPolicy])
    def test_the_hook_is_a_no_op(self, policy_type):
        rm = ResourceManager(small_cluster(num_nodes=1, node_memory_mb=1024))
        policy = policy_type()
        core = AdmissionCore(rm, policy)
        core.offer(1, None, 768)
        core.offer(2, None, 256)
        waiting = list(core.waiting.values())
        before = policy.select(waiting, rm)
        assert policy.admitted(before) is None
        assert vars(policy) == {}
        assert policy.select(waiting, rm) is before
