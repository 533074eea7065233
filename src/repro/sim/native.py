"""Native (C) replay kernel: gate, marshal, and write-back.

The compiled extension (``repro._native.replaykernel``, built by the
*optional* ``build_ext`` in setup.py) runs the whole batched replay
loop — window advance, L1 probe, MSHR sweep, L2 probe with every
built-in policy's victim selection and insertion (LRU, LIN, EHC, AWRP,
LIP, BIP, tree-PLRU, cost-aware tree-PLRU), SBAR/CBS/DIP/tournament
dueling, bank/bus timing, cost quantization — over the raw
``PackedTrace`` column buffers.  This module is the pure-python shim
around it:

* :func:`load_extension` resolves the extension once per process and
  caches the answer (``None`` when absent — a source checkout without
  ``make native``, or a host without a compiler).
* :func:`gate_failure` is called by ``Simulator._replay`` *inside* the
  batched gate (every batched precondition already holds).  It narrows
  the gate further to the machine shapes the C kernel implements and
  returns why it cannot run (``"native: ..."``), or None.  A reason
  drops the ladder one rung to batched and becomes the result's
  ``meta["kernel_fallback"]``.
* :func:`replay` marshals the initial scalar state into a flat params
  dict, invokes the kernel, and writes the returned end-of-run state
  back into the live Python objects — leaving the Simulator
  indistinguishable from one that ran the batched kernel, bit for bit.

The C kernel never sees a Python object graph: caches, the MSHR, heaps,
ATDs, and policy side tables all start empty (a Simulator runs exactly
one trace, so they are pristine at replay time — the gate verifies it)
and come back as plain lists/tuples for reconstruction here.  The
write-back mirrors the batched kernel's end-of-loop counter flush plus
the containers batched mutates in place.
"""

from __future__ import annotations

from collections import deque

from repro.cache.block import BlockState
from repro.cache.replacement import (
    AWRPPolicy,
    EHCPolicy,
    LINPolicy,
    LRUPolicy,
)
from repro.cache.replacement.belady import NEVER
from repro.cache.replacement.dip import BIPPolicy, DIPController, LIPPolicy
from repro.cache.replacement.plru import (
    CostAwareTreePLRUPolicy,
    TreePLRUPolicy,
    _is_power_of_two,
    _TreeState,
)
from repro.mlp.cost import MAX_COST_Q, QUANTIZATION_STEP
from repro.sbar.cbs import CBSController
from repro.sbar.psel import PolicySelector
from repro.sbar.sbar import SBARController
from repro.sbar.tournament import TournamentController

#: Policy discriminants understood by the C kernel (keep in sync with
#: the ``POL_*`` enum in replaykernel.c).
(_POL_LRU, _POL_LIN, _POL_EHC, _POL_AWRP, _POL_LIP, _POL_BIP, _POL_PLRU,
 _POL_COST_PLRU) = range(8)
#: Controller discriminants (``CTRL_*`` in replaykernel.c).
_CTRL_NONE, _CTRL_SBAR, _CTRL_CBS, _CTRL_DIP, _CTRL_TOURNAMENT = range(5)

_POLICY_KINDS = {
    LRUPolicy: _POL_LRU,
    LINPolicy: _POL_LIN,
    EHCPolicy: _POL_EHC,
    AWRPPolicy: _POL_AWRP,
    LIPPolicy: _POL_LIP,
    BIPPolicy: _POL_BIP,
    TreePLRUPolicy: _POL_PLRU,
    CostAwareTreePLRUPolicy: _POL_COST_PLRU,
}
#: The kinds a DIP or tournament slot may dispatch to: their state is a
#: LIN lambda or a BIP fill counter, nothing keyed by block or set.
_SLOT_KINDS = (_POL_LRU, _POL_LIN, _POL_LIP, _POL_BIP)
#: Hooks the kernel inlines; an instance-level override (tests and
#: instrumentation patch bound methods) must keep the Python path.
_POLICY_HOOKS = ("choose_victim", "on_fill", "on_hit", "note_access")

#: Tri-state import cache: the sentinel means "not probed yet".  Tests
#: monkeypatch :func:`load_extension` itself (or set ``_extension``)
#: to exercise the no-extension fallback deterministically.
_UNRESOLVED = object()
_extension = _UNRESOLVED


def load_extension():
    """The compiled kernel module, or None when unavailable."""
    global _extension
    if _extension is _UNRESOLVED:
        try:
            from repro._native import replaykernel
        except ImportError:
            _extension = None
        else:
            _extension = replaykernel
    return _extension


def _policy_kind(policy):
    """Map an L2 policy instance to its C discriminant, or None."""
    return _POLICY_KINDS.get(type(policy))


def _sets_pristine(sets):
    return all(not cache_set.ways for cache_set in sets)


def _policy_failure(policy, assoc, kinds=None):
    """Why the kernel cannot run ``policy``, or None."""
    kind = _policy_kind(policy)
    name = type(policy).__name__
    if kind is None or (kinds is not None and kind not in kinds):
        return "policy %s not supported" % name
    if any(hook in policy.__dict__ for hook in _POLICY_HOOKS):
        return "policy %s has patched hooks" % name
    if kind == _POL_LIN and type(policy.lam) is not int:
        return "policy %s lambda %r not an int" % (name, policy.lam)
    if kind in (_POL_PLRU, _POL_COST_PLRU):
        if not _is_power_of_two(assoc):
            # The Python policy raises on first use; let it.
            return "policy %s associativity %d" % (name, assoc)
        if policy._trees or policy._pending_slot:
            return "policy %s state not pristine" % name
    if kind == _POL_EHC and (policy._last_seen or policy._intervals):
        return "policy %s state not pristine" % name
    if kind == _POL_AWRP and policy._counts:
        return "policy %s state not pristine" % name
    return None


def _controller_failure(controller, assoc):
    """Why the kernel cannot run ``controller``, or None."""
    kind = type(controller)
    name = kind.__name__
    if kind not in (SBARController, CBSController, DIPController,
                    TournamentController):
        return "controller %s not supported" % name
    if ("policy_for_set" in controller.__dict__
            or "observe_access" in controller.__dict__):
        return "controller %s has patched hooks" % name
    if kind is SBARController:
        # Mirror of the batched kernel's sbar_fast gate.
        if not (
            not controller.needs_instruction_clock
            and controller.atd_lru.is_plain()
            and type(controller.atd_lru.policy) is LRUPolicy
            and type(controller.psel) is PolicySelector
            and controller.psel.observer is None
        ):
            return "controller %s shape not supported" % name
        if not _sets_pristine(controller.atd_lru._sets.values()):
            return "controller %s state not pristine" % name
    elif kind is CBSController:
        # Mirror of the batched kernel's cbs_fast gate.
        if not (
            controller.atd_lru.is_plain()
            and controller.atd_lin.is_plain()
            and type(controller.atd_lru.policy) is LRUPolicy
            and type(controller.atd_lin.policy) is LINPolicy
            and controller.atd_lin.policy.lam == controller.lin.lam
            and all(
                type(psel) is PolicySelector and psel.observer is None
                for psel in controller._psels
            )
        ):
            return "controller %s shape not supported" % name
        if not (_sets_pristine(controller.atd_lru._sets.values())
                and _sets_pristine(controller.atd_lin._sets.values())):
            return "controller %s state not pristine" % name
    elif kind is DIPController:
        if not (type(controller.psel) is PolicySelector
                and controller.psel.observer is None):
            return "controller %s shape not supported" % name
        return (_policy_failure(controller.lru, assoc, (_POL_LRU,))
                or _policy_failure(controller.bip, assoc, (_POL_BIP,)))
    else:  # TournamentController
        if controller.observer is not None or len(controller.policies) > 255:
            return "controller %s shape not supported" % name
        for policy in controller.policies:
            failure = _policy_failure(policy, assoc, _SLOT_KINDS)
            if failure is not None:
                return failure
    return None


def gate_failure(sim):
    """Why the C kernel cannot run this Simulator, or None when it can.

    Callers guarantee the full batched gate already holds (plain
    caches, no observer, PackedTrace with no wrong-path records, stock
    bus/banks, no warm-up/phases/prefetcher/instruction clock).  This
    narrows to what replaykernel.c actually implements, plus pristine
    container state: the kernel starts its machine empty and *continues
    from* the scalar counters, so any pre-seeded tags or in-flight
    state must fall back to batched.  Reasons read ``"native: ..."``.
    """
    failure = _gate_failure(sim)
    return None if failure is None else "native: " + failure


def _gate_failure(sim):
    if load_extension() is None:
        return "extension not built"
    controller = sim.controller
    l2 = sim.l2
    assoc = l2.geometry.associativity
    if controller is None:
        if l2.policy_selector is not None:
            return "policy selector without a controller"
        failure = _policy_failure(l2.policy, assoc)
    else:
        failure = _controller_failure(controller, assoc)
    if failure is not None:
        return failure
    mshr = sim.mshr
    if not (
        _sets_pristine(sim.l1d._sets)
        and _sets_pristine(sim.l1i._sets)
        and _sets_pristine(l2._sets)
        and not (l2._seen or ())
        and not sim.window._pending
        and not sim.store_buffer._completions
        and not mshr._demand_heap
        and not mshr._occupancy_heap
        and not mshr._in_flight
        and mshr._demand_live == 0
        and not sim.memory._in_flight
        and (sim.delta is None or not sim.delta._last_cost)
    ):
        return "machine state not pristine"
    return None


def _distinct(policies):
    """Policy instances in first-seen order, each once by identity.

    Tournament candidates that share one instance share its kernel slot
    (and so its BIP fill counter), exactly as the Python objects do.
    """
    distinct = []
    for policy in policies:
        if not any(policy is seen for seen in distinct):
            distinct.append(policy)
    return distinct


def _slot(policy):
    """One ``PolSlot`` of replaykernel.c: (kind, lambda, period, fills)."""
    kind = _policy_kind(policy)
    if kind == _POL_LIN:
        return kind, policy.lam, 1, 0
    if kind == _POL_BIP:
        return kind, 0, policy.period, policy._fills
    return kind, 0, 1, 0


def _build_params(sim, trace):
    """Flatten the Simulator's initial state into the kernel's dict."""
    config = sim.config
    window = sim.window
    l1d, l1i, l2 = sim.l1d, sim.l1i, sim.l2
    mshr = sim.mshr
    memory = sim.memory
    bus = memory.bus
    banks = memory.banks
    dist = sim.cost_distribution
    delta = sim.delta
    controller = sim.controller
    policy = l2.policy

    from repro.trace.record import IFETCH, STORE

    params = {
        # Raw column buffers: the array.array objects themselves — the
        # kernel reads them through the buffer protocol, so the native
        # rung (unlike batched) does not need numpy at all.
        "addresses": trace._addresses,
        "kinds": trace._kinds,
        "gaps": trace._gaps,
        "block_bits": config.block_bits,
        "ifetch_kind": IFETCH,
        "store_kind": STORE,
        # Window.
        "win_width": window.width,
        "win_size": window.window_size,
        "win_index": window._index,
        "win_time": window._time,
        "retire_cummax": window._retire_cummax,
        "final_completion": window.final_completion,
        "stall_cycles": window.stall_cycles,
        "stall_events": window.stall_events,
        "long_stalls": window.long_stalls,
        "long_stall_threshold": window.LONG_STALL_THRESHOLD,
        # Store buffer.
        "sb_capacity": sim.store_buffer.capacity,
        "sb_full_stalls": sim.store_buffer.full_stalls,
        # Caches.
        "l1d_n_sets": l1d.n_sets,
        "l1d_assoc": l1d.geometry.associativity,
        "l1d_latency": l1d.hit_latency,
        "l1d_seq": l1d._seq,
        "l1d_accesses": l1d.accesses,
        "l1d_hits": l1d.hits,
        "l1d_misses": l1d.misses,
        "l1d_writebacks": l1d.writebacks,
        "l1i_n_sets": l1i.n_sets,
        "l1i_assoc": l1i.geometry.associativity,
        "l1i_latency": l1i.hit_latency,
        "l1i_seq": l1i._seq,
        "l1i_accesses": l1i.accesses,
        "l1i_hits": l1i.hits,
        "l1i_misses": l1i.misses,
        "l1i_writebacks": l1i.writebacks,
        "l2_n_sets": l2.n_sets,
        "l2_assoc": l2.geometry.associativity,
        "l2_latency": l2.hit_latency,
        "l2_seq": l2._seq,
        "l2_accesses": l2.accesses,
        "l2_hits": l2.hits,
        "l2_misses": l2.misses,
        "l2_writebacks": l2.writebacks,
        "l2_compulsory": l2.compulsory_misses,
        "track_seen": int(l2._seen is not None),
        "demand_ctr": sim.demand_misses,
        "compulsory_ctr": sim.compulsory_misses,
        # MSHR.
        "m_entries": mshr.n_entries,
        "n_adders": mshr.n_cost_adders,
        "m_now": mshr._now,
        "m_acc": mshr._accumulator,
        "m_allocations": mshr.allocations,
        "m_merges": mshr.merges,
        "m_full_stalls": mshr.full_stalls,
        "m_peak": mshr.peak_occupancy,
        # Memory.
        "memory_max": memory.max_outstanding,
        "mem_requests": memory.requests,
        "mem_writebacks": memory.writebacks,
        "mem_queueing": memory.queueing_stalls,
        "mem_peak": memory.peak_in_flight,
        "bus_occupancy": bus.occupancy,
        "bus_transfer_delay": bus.transfer_delay,
        "bus_free": bus._free_at,
        "bus_contended": bus.contended,
        "bus_transfers": bus.transfers,
        "bank_latency": banks.access_latency,
        "bank_free": [float(v) for v in banks._bank_free],
        "bank_conflicts": banks.conflicts,
        "bank_accesses": banks.accesses,
        # Cost + delta.
        "qstep": float(QUANTIZATION_STEP),
        "max_q": MAX_COST_Q,
        "dist_counts": list(dist.counts),
        "dist_total": dist.total,
        "dist_cost_sum": dist.cost_sum,
        "track_delta": int(delta is not None),
        "delta_count": delta._count if delta is not None else 0,
        "delta_sum": delta._sum if delta is not None else 0.0,
        "delta_below": delta._below_60 if delta is not None else 0,
        "delta_mid": delta._60_to_119 if delta is not None else 0,
        "delta_high": delta._120_plus if delta is not None else 0,
        # Policy slots: the fixed policy, DIP's LRU and BIP, or the
        # tournament's distinct candidates (SBAR/CBS dispatch on
        # lin_lam alone and never read them).
        "slot_kinds": [_POL_LRU],
        "slot_lams": [0],
        "slot_periods": [1],
        "slot_fills": [0],
        "lin_lam": 0,
        "ehc_horizon": 1,
        "ehc_pending": NEVER,
        "ehc_never": NEVER,
        "awrp_weight": 0.0,
        "awrp_fills": 0,
        "plru_threshold": 0,
        "plru_rejects": 0,
        # Controller.
        "controller_kind": _CTRL_NONE,
        "atd_assoc": 0,
        "atd_seq": 0,
        "atd_accesses": 0,
        "atd_hits": 0,
        "atd_misses": 0,
        "atd2_seq": 0,
        "atd2_accesses": 0,
        "atd2_hits": 0,
        "atd2_misses": 0,
        "cbs_local": 0,
        "psel_values": [],
        "psel_incs": [],
        "psel_decs": [],
        "psel_max": 0,
        "psel_msb": 0,
        "leaders": None,
        "deferred": 0,
        "follower_lin": 0,
        "follower_lru": 0,
        "cand_slots": [],
        "t_scores": [],
        "t_accesses": [],
        "t_decay": 1.0,
    }

    def set_slots(policies):
        kinds, lams, periods, fills = zip(*(_slot(p) for p in policies))
        params.update(slot_kinds=list(kinds), slot_lams=list(lams),
                      slot_periods=list(periods), slot_fills=list(fills))

    if controller is None:
        set_slots([policy])
        kind = _policy_kind(policy)
        if kind == _POL_EHC:
            params["ehc_horizon"] = policy.horizon
            params["ehc_pending"] = policy._pending_next_use
        elif kind == _POL_AWRP:
            params["awrp_weight"] = policy.weight
            params["awrp_fills"] = policy._fills
        elif kind == _POL_COST_PLRU:
            params["plru_threshold"] = policy.protect_threshold
            params["plru_rejects"] = policy.max_rejects
    elif type(controller) is DIPController:
        set_slots([controller.lru, controller.bip])
        psel = controller.psel
        lru_leaders = controller.lru_leaders
        bip_leaders = controller.bip_leaders
        params.update(
            controller_kind=_CTRL_DIP,
            psel_values=[psel.value],
            psel_incs=[psel.increments],
            psel_decs=[psel.decrements],
            psel_max=psel.max_value,
            psel_msb=psel._msb_threshold,
            # policy_for_set tests LRU leadership first.
            leaders=bytes(
                1 if index in lru_leaders
                else 2 if index in bip_leaders else 0
                for index in range(l2.n_sets)
            ),
        )
    elif type(controller) is TournamentController:
        distinct = _distinct(controller.policies)
        set_slots(distinct)
        owners = controller._leader_owner
        params.update(
            controller_kind=_CTRL_TOURNAMENT,
            cand_slots=[
                next(i for i, q in enumerate(distinct) if q is p)
                for p in controller.policies
            ],
            t_scores=list(controller._scores),
            t_accesses=list(controller._accesses),
            t_decay=float(controller.decay),
            leaders=bytes(
                owners[index] + 1 if index in owners else 0
                for index in range(l2.n_sets)
            ),
            deferred=controller.deferred_updates,
        )
    elif type(controller) is SBARController:
        atd = controller.atd_lru
        psel = controller.psel
        leaders = controller.leaders
        params.update(
            controller_kind=_CTRL_SBAR,
            lin_lam=controller.lin.lam,
            atd_assoc=atd.associativity,
            atd_seq=atd._seq,
            atd_accesses=atd.accesses,
            atd_hits=atd.hits,
            atd_misses=atd.misses,
            psel_values=[psel.value],
            psel_incs=[psel.increments],
            psel_decs=[psel.decrements],
            psel_max=psel.max_value,
            psel_msb=psel._msb_threshold,
            leaders=bytes(
                1 if index in leaders else 0 for index in range(l2.n_sets)
            ),
            deferred=controller.deferred_updates,
            follower_lin=controller.follower_lin_accesses,
            follower_lru=controller.follower_lru_accesses,
        )
    else:  # CBSController, per the gate
        atd_lru = controller.atd_lru
        atd_lin = controller.atd_lin
        psels = controller._psels
        params.update(
            controller_kind=_CTRL_CBS,
            lin_lam=controller.lin.lam,
            atd_assoc=atd_lru.associativity,
            atd_seq=atd_lru._seq,
            atd_accesses=atd_lru.accesses,
            atd_hits=atd_lru.hits,
            atd_misses=atd_lru.misses,
            atd2_seq=atd_lin._seq,
            atd2_accesses=atd_lin.accesses,
            atd2_hits=atd_lin.hits,
            atd2_misses=atd_lin.misses,
            cbs_local=int(controller.scope == "local"),
            psel_values=[psel.value for psel in psels],
            psel_incs=[psel.increments for psel in psels],
            psel_decs=[psel.decrements for psel in psels],
            psel_max=psels[0].max_value,
            psel_msb=psels[0]._msb_threshold,
            deferred=controller.deferred_updates,
        )
    return params


def _restore_sets(sets, payload):
    """Rebuild every CacheSet's ways/index from the kernel's dump."""
    for cache_set, entries in zip(sets, payload):
        ways = []
        index = {}
        for block, fill_seq, next_use, cost_q, dirty in entries:
            state = BlockState(block, fill_seq)
            state.next_use = next_use
            state.cost_q = cost_q
            state.dirty = bool(dirty)
            ways.append(state)
            index[block] = state
        cache_set.ways = ways
        cache_set._index = index


def _restore_atd(atd, payload_by_index):
    """Rebuild a SparseTagDirectory's shadowed sets in place."""
    for index, entries in payload_by_index:
        cache_set = atd._sets[index]
        ways = []
        block_index = {}
        for block, fill_seq, next_use, cost_q, dirty in entries:
            state = BlockState(block, fill_seq)
            state.next_use = next_use
            state.cost_q = cost_q
            state.dirty = bool(dirty)
            ways.append(state)
            block_index[block] = state
        cache_set.ways = ways
        cache_set._index = block_index


def _write_back(sim, out):
    """Mirror the batched kernel's end-of-loop flush, plus containers."""
    window = sim.window
    window._index = out["win_index"]
    window._time = out["win_time"]
    window._retire_cummax = out["retire_cummax"]
    window.final_completion = out["final_completion"]
    window.stall_cycles = out["stall_cycles"]
    window.stall_events = out["stall_events"]
    window.long_stalls = out["long_stalls"]
    window._pending = deque(out["win_pending"])

    store_buffer = sim.store_buffer
    store_buffer.full_stalls = out["sb_full_stalls"]
    # A sorted list satisfies the heap invariant verbatim.
    store_buffer._completions = out["sb_completions"]

    for cache, prefix in ((sim.l1d, "l1d"), (sim.l1i, "l1i"),
                          (sim.l2, "l2")):
        _restore_sets(cache._sets, out[prefix + "_sets"])
        cache._seq = out[prefix + "_seq"]
        cache.accesses = out[prefix + "_accesses"]
        cache.hits = out[prefix + "_hits"]
        cache.misses = out[prefix + "_misses"]
        cache.writebacks = out[prefix + "_writebacks"]
    sim.l2.compulsory_misses = out["l2_compulsory"]
    if sim.l2._seen is not None:
        sim.l2._seen.update(out["l2_seen"])
    sim.demand_misses = out["demand_ctr"]
    sim.compulsory_misses = out["compulsory_ctr"]

    mshr = sim.mshr
    mshr._now = out["m_now"]
    mshr._accumulator = out["m_acc"]
    mshr._demand_live = out["m_live"]
    mshr.allocations = out["m_allocations"]
    mshr.merges = out["m_merges"]
    mshr.full_stalls = out["m_full_stalls"]
    mshr.peak_occupancy = out["m_peak"]

    memory = sim.memory
    memory._in_flight = out["mem_in_flight"]
    memory.requests = out["mem_requests"]
    memory.writebacks = out["mem_writebacks"]
    memory.queueing_stalls = out["mem_queueing"]
    memory.peak_in_flight = out["mem_peak"]
    bus = memory.bus
    bus._free_at = out["bus_free"]
    bus.contended = out["bus_contended"]
    bus.transfers = out["bus_transfers"]
    banks = memory.banks
    banks._bank_free[:] = out["bank_free"]
    banks.conflicts = out["bank_conflicts"]
    banks.accesses = out["bank_accesses"]

    dist = sim.cost_distribution
    dist.counts[:] = out["dist_counts"]
    dist.total = out["dist_total"]
    dist.cost_sum = out["dist_cost_sum"]
    delta = sim.delta
    if delta is not None:
        delta._count = out["delta_count"]
        delta._sum = out["delta_sum"]
        delta._below_60 = out["delta_below"]
        delta._60_to_119 = out["delta_mid"]
        delta._120_plus = out["delta_high"]
        delta._last_cost.update(out["delta_last"])

    controller = sim.controller
    policy = sim.l2.policy
    if controller is None:
        kind = _policy_kind(policy)
        if kind == _POL_EHC:
            policy._pending_next_use = out["ehc_pending"]
            policy._last_seen.update(out["ehc_last"])
            horizon = policy.horizon
            intervals = policy._intervals
            for block, values in out["ehc_intervals"]:
                intervals[block] = deque(values, maxlen=horizon)
        elif kind == _POL_AWRP:
            policy._counts.update(out["awrp_counts"])
            policy._fills = out["awrp_fills"]
        elif kind == _POL_BIP:
            policy._fills = out["slot_fills"][0]
        elif kind in (_POL_PLRU, _POL_COST_PLRU):
            # Trees are keyed by CacheSet identity, built on first touch.
            sets = sim.l2._sets
            n_ways = sim.l2.geometry.associativity
            for index, bits in out["plru_bits"]:
                tree = _TreeState(n_ways)
                tree.bits = bits
                policy._trees[id(sets[index])] = tree
    elif type(controller) is DIPController:
        psel = controller.psel
        psel.value = out["psel_values"][0]
        psel.increments = out["psel_incs"][0]
        psel.decrements = out["psel_decs"][0]
        controller.bip._fills = out["slot_fills"][1]
    elif type(controller) is TournamentController:
        controller._scores[:] = out["t_scores"]
        controller._accesses[:] = out["t_accesses"]
        controller.deferred_updates = out["deferred"]
        for candidate, fills in zip(_distinct(controller.policies),
                                    out["slot_fills"]):
            if type(candidate) is BIPPolicy:
                candidate._fills = fills
    elif type(controller) is SBARController:
        atd = controller.atd_lru
        atd._seq = out["atd_seq"]
        atd.accesses = out["atd_accesses"]
        atd.hits = out["atd_hits"]
        atd.misses = out["atd_misses"]
        _restore_atd(atd, out["atd_sets"])
        psel = controller.psel
        psel.value = out["psel_values"][0]
        psel.increments = out["psel_incs"][0]
        psel.decrements = out["psel_decs"][0]
        controller.deferred_updates = out["deferred"]
        controller.follower_lin_accesses = out["follower_lin"]
        controller.follower_lru_accesses = out["follower_lru"]
    else:  # CBSController
        atd_lru = controller.atd_lru
        atd_lru._seq = out["atd_seq"]
        atd_lru.accesses = out["atd_accesses"]
        atd_lru.hits = out["atd_hits"]
        atd_lru.misses = out["atd_misses"]
        _restore_atd(atd_lru, enumerate(out["atd_sets"]))
        atd_lin = controller.atd_lin
        atd_lin._seq = out["atd2_seq"]
        atd_lin.accesses = out["atd2_accesses"]
        atd_lin.hits = out["atd2_hits"]
        atd_lin.misses = out["atd2_misses"]
        _restore_atd(atd_lin, enumerate(out["atd2_sets"]))
        for psel, value, incs, decs in zip(
            controller._psels,
            out["psel_values"],
            out["psel_incs"],
            out["psel_decs"],
        ):
            psel.value = value
            psel.increments = incs
            psel.decrements = decs
        controller.deferred_updates = out["deferred"]


def replay(sim, trace) -> None:
    """Run the trace through the C kernel.

    Leaves the Simulator holding the complete end-of-run state.  Called
    only from ``Simulator._replay`` once the batched gate and
    :func:`gate_failure` both hold.
    """
    out = load_extension().replay(_build_params(sim, trace))
    # The drain leaves nothing in flight by construction; a nonzero
    # count would mean the C machine diverged, which must never be
    # written back silently.
    if out["m_in_flight_n"] != 0:
        raise AssertionError(
            "native kernel left %d MSHR entries in flight"
            % out["m_in_flight_n"]
        )
    _write_back(sim, out)
    sim.fused_replay = True
    sim.batched_replay = False
    sim.native_replay = True
    sim.replay_kernel = "native"
