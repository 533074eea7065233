"""The top-level simulator: trace in, :class:`SimResult` out.

The dataflow per access (Figure 3a of the paper):

1. The window model dispatches the access (applying any window-full
   stall caused by earlier long-latency misses).
2. The L1 (I or D) filters it; an L1 miss probes the L2 tag store.
3. An L2 demand miss allocates an MSHR entry and a memory-controller
   request; the Cost Calculation Logic (the MSHR's event-driven
   Algorithm 1 sweep) later reports the miss's mlp-cost, which is
   quantized and written into the L2 tag entry, fed to the Table 1
   delta tracker, and — under SBAR/CBS — applied to any pending PSEL
   update.
4. Loads and instruction fetches report their completion back to the
   window (future accesses may stall on it); stores go to the store
   buffer and only backpressure the window when it is full.

The simulator is deliberately a single readable function per access
rather than a cycle loop; all timing feedback happens through
completion times.
"""

from __future__ import annotations

import warnings
from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, List, Optional, Union

from repro import obs
from repro.cache.block import BlockState
from repro.cache.cache import AccessResult, SetAssociativeCache
from repro.cache.replacement import LINPolicy, LRUPolicy, ReplacementPolicy
from repro.cache.replacement.dip import DIPController
from repro.cache.replacement.registry import parse_policy_spec
from repro.config import MachineConfig, baseline_config
from repro.cpu.store_buffer import StoreBuffer
from repro.cpu.window import WindowModel
from repro.memory.bus import SplitTransactionBus
from repro.memory.controller import MemoryController
from repro.memory.dram import DramBankArray
from repro.mlp.cost import MAX_COST_Q, QUANTIZATION_STEP, quantize_cost
from repro.mlp.delta import DeltaSummary, DeltaTracker
from repro.mlp.mshr import MSHRFile, _Entry as MSHREntry
from repro.sbar.cbs import CBSController
from repro.sbar.psel import PolicySelector
from repro.sbar.sbar import SBARController
from repro.sbar.tournament import TournamentController
from repro.sim.stats import CostDistribution, PhaseSample, SimResult
from repro.trace.packed import PackedTrace
from repro.trace.record import IFETCH, STORE

#: Valid ``Simulator(kernel=...)`` selections, fastest first.
REPLAY_KERNELS = ("auto", "native", "batched", "fused", "generic")

#: Things accepted as the L2 replacement specification.
PolicyLike = Union[
    ReplacementPolicy,
    SBARController,
    CBSController,
    DIPController,
    TournamentController,
    str,
]


def build_l2_policy(spec: PolicyLike, config: MachineConfig):
    """Deprecated: resolve a policy spec into (fixed, controller).

    The spec grammar now lives in the policy registry — use
    :func:`repro.api.parse_policy_spec` (the blessed facade spelling;
    :mod:`repro.api` is the supported import surface), which this shim
    forwards to (and which also resolves specs registered by user code
    via :func:`repro.api.register_policy`).
    """
    warnings.warn(
        "build_l2_policy is deprecated; use "
        "repro.api.parse_policy_spec",
        DeprecationWarning,
        stacklevel=2,
    )
    return parse_policy_spec(spec, config)


class Simulator:
    """One configured machine, reusable for a single :meth:`run`.

    Args:
        config: machine description; defaults to the Table 2 baseline.
        policy: L2 replacement specification (see :func:`build_l2_policy`).
        phase_interval: if set, cut a :class:`PhaseSample` every this
            many instructions (Figure 11 uses 10M on the real machine).
        warmup_instructions: if set, caches/predictors train normally
            but the reported statistics (misses, cost distribution,
            deltas, IPC window) start after this many instructions —
            the warm-up counterpart of the paper's fast-forwarding.
        observer: explicit :class:`repro.obs.Observer` to wire through
            the machine; defaults to :func:`repro.obs.default_observer`
            (None — and therefore zero overhead — unless telemetry is
            enabled in the environment).
        kernel: replay-kernel selection: ``"auto"`` (default) takes the
            fastest kernel whose gate holds — native, then batched,
            then fused, then the generic loop; ``"native"``/
            ``"batched"``/``"fused"``/``"generic"`` cap the ladder at
            that kernel (lower rungs still apply when a gate fails —
            the request is a ceiling, never a promise; a missing C
            extension simply drops ``native`` to ``batched``).  All
            kernels are bit-identical by contract, so the choice never
            appears in memo or store keys.
        track_deltas: feed serviced misses to the Table 1
            :class:`~repro.mlp.delta.DeltaTracker`.  The tracker keeps
            the last cost of every distinct block, so its footprint
            grows with the trace's block working set; pass False on
            long-running sweeps that never read ``delta_summary``.
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        policy: PolicyLike = "lru",
        phase_interval: Optional[int] = None,
        prefetcher=None,
        warmup_instructions: int = 0,
        observer: Optional[obs.Observer] = None,
        track_deltas: bool = True,
        kernel: str = "auto",
    ) -> None:
        if kernel not in REPLAY_KERNELS:
            raise ValueError(
                "unknown replay kernel %r (expected one of %s)"
                % (kernel, ", ".join(REPLAY_KERNELS))
            )
        self.config = config or baseline_config()
        fixed, controller = parse_policy_spec(policy, self.config)
        self.controller = controller
        self._policy_label = (
            controller.name if controller is not None else fixed.name
        )
        self.window = WindowModel(
            self.config.processor.issue_width,
            self.config.processor.window_size,
        )
        self.store_buffer = StoreBuffer(self.config.processor.store_buffer_size)
        self.l1d = SetAssociativeCache(
            self.config.l1d, LRUPolicy(), track_compulsory=False, label="l1d"
        )
        self.l1i = SetAssociativeCache(
            self.config.l1i, LRUPolicy(), track_compulsory=False, label="l1i"
        )
        selector = controller.policy_for_set if controller is not None else None
        self.l2 = SetAssociativeCache(
            self.config.l2,
            fixed if fixed is not None else LRUPolicy(),
            policy_selector=selector,
            label="l2",
        )
        self.mshr = MSHRFile(
            self.config.mshr.n_entries, self.config.mshr.n_cost_adders
        )
        self.memory = MemoryController(self.config.memory)
        self._obs = observer if observer is not None else obs.default_observer()
        if self._obs is not None:
            self._wire_observer(self._obs)
        self.delta: Optional[DeltaTracker] = (
            DeltaTracker() if track_deltas else None
        )
        self.cost_distribution = CostDistribution()
        self.phase_interval = phase_interval
        self.phases: List[PhaseSample] = []
        self.demand_misses = 0
        self.compulsory_misses = 0
        #: Optional StridePrefetcher (or anything with observe(block)).
        #: Prefetch fills occupy the MSHR, banks, and bus and install
        #: tags, but are non-demand: excluded from Algorithm 1's N,
        #: from miss statistics, and from PSEL updates.
        self.prefetcher = prefetcher
        self.prefetches_issued = 0
        self.prefetch_hits_suppressed = 0
        if warmup_instructions < 0:
            raise ValueError("warm-up length cannot be negative")
        self.warmup_instructions = warmup_instructions
        self._warm = warmup_instructions == 0
        self._warmup_end_cycle = 0.0
        self._warmup_end_instruction = 0
        self._ran = False
        self._kernel = kernel
        #: Whether :meth:`run` took a fused replay kernel (the fused
        #: loop or the batched kernel, which subsumes it).  Reports use
        #: this so a silent fall-back to the generic loop shows up as
        #: data instead of masquerading as a timing regression.
        self.fused_replay = False
        #: Whether :meth:`run` took the numpy batched kernel.
        self.batched_replay = False
        #: Whether :meth:`run` took the compiled C replay kernel.
        self.native_replay = False
        #: Which kernel :meth:`run` actually took: ``"native"``,
        #: ``"batched"``, ``"fused"``, or ``"generic"``.
        self.replay_kernel = "generic"
        #: When :meth:`run` resolved below the requested rung, the first
        #: gate that failed (``"<rung>: <reason>"``), else None.
        self.kernel_fallback: Optional[str] = None

    def _wire_observer(self, observer: obs.Observer) -> None:
        """Install the telemetry sink into every instrumented component."""
        self.l1i.observer = observer
        self.l1d.observer = observer
        self.l2.observer = observer
        self.mshr.observer = observer
        self.memory.observer = observer
        controller = self.controller
        if controller is None:
            return
        if isinstance(controller, SBARController):
            controller.psel.label = "sbar"
            controller.psel.observer = observer
        elif isinstance(controller, CBSController):
            for index, psel in enumerate(controller._psels):
                psel.label = (
                    "cbs" if len(controller._psels) == 1 else "cbs[%d]" % index
                )
                psel.observer = observer
        elif isinstance(controller, DIPController):
            controller.psel.label = "dip"
            controller.psel.observer = observer
        elif isinstance(controller, TournamentController):
            controller.observer = observer

    # -- main loop --------------------------------------------------------

    def run(self, trace) -> SimResult:
        """Simulate ``trace`` (a sequence of :class:`Access`) to completion."""
        if self._ran:
            raise RuntimeError("a Simulator instance runs exactly one trace")
        self._ran = True
        profiler = self._obs.profiler if self._obs is not None else None
        if profiler is None:
            return self._finalize(self._replay(trace))
        # The replay span must close before _finalize folds the
        # profiler into the session totals, or it would be lost.
        replay_start = perf_counter()
        try:
            current_phase = self._replay(trace)
        finally:
            profiler.add("sim.replay", perf_counter() - replay_start)
        return self._finalize(current_phase)

    def _replay(self, trace) -> Optional[PhaseSample]:
        """Drive every access through the machine; returns the open phase.

        The loop is the simulator's hot path.  When no observer or
        instance-level ``access`` wrapper is installed the run is
        delegated to :meth:`_replay_fused`, which flattens the whole
        demand walk inline; this generic loop keeps every hook live and
        is the semantic reference the fused path must match bit for
        bit.
        """
        l1d = self.l1d
        l1i = self.l1i
        if self._kernel != "generic":
            # The kernel ladder: each rung narrows the one below it, and
            # the request is a ceiling.  The first gate that fails names
            # the rung it guards, and the run drops to the next one down.
            fused_failure = self._fused_gate_failure()
            fallback = fused_failure
            if fallback is None and self._kernel != "fused":
                fallback = self._batched_gate_failure(trace)
                if fallback is None:
                    if self._kernel != "batched":
                        # Top rung: the compiled C kernel.  Its gate
                        # narrows further (supported policy/controller
                        # shapes, pristine machine state); a missing
                        # extension drops one rung, never errors.
                        from repro.sim import native as _native

                        fallback = _native.gate_failure(self)
                        if fallback is None:
                            _native.replay(self, trace)
                            return None
                    try:
                        import numpy  # noqa: F401
                    except ImportError:
                        # numpy is a hard dep of the batched kernel only
                        fallback = fallback or "batched: numpy not installed"
                    else:
                        self.kernel_fallback = fallback
                        return self._replay_batched(trace)
            self.kernel_fallback = fallback
            if fused_failure is None:
                return self._replay_fused(trace)

        window = self.window
        controller = self.controller
        block_bits = self.config.block_bits
        phase_interval = self.phase_interval
        l1d_latency = l1d.hit_latency
        l1i_latency = l1i.hit_latency
        store_buffer = self.store_buffer
        advance = window.advance
        complete_memory_op = window.complete_memory_op
        access_hierarchy = self._access_hierarchy
        l1d_hit = l1d.try_hit
        l1i_hit = l1i.try_hit
        warm = self._warm
        warmup_instructions = self.warmup_instructions
        # Controllers that declare needs_instruction_clock=False have a
        # no-op note_instructions; skipping the call per record is pure
        # overhead removal.  Unknown controllers default to needing it.
        clock_controller = (
            controller
            if controller is not None
            and getattr(controller, "needs_instruction_clock", True)
            else None
        )
        bookkeeping = (
            clock_controller is not None or not warm or phase_interval
        )
        current_phase: Optional[PhaseSample] = None
        if phase_interval:
            current_phase = PhaseSample(start_instruction=0, start_cycle=0.0)
            self.phases.append(current_phase)

        for access in trace:
            if access.wrong_path:
                # Wrong-path references disturb the caches and memory
                # timing but never the committed instruction stream.
                access_hierarchy(
                    access.address >> block_bits,
                    access.kind,
                    window.now,
                    demand=False,
                    phase=None,
                )
                continue

            dispatch = advance(access.gap)
            if bookkeeping:
                instr_index = window.instructions
                if not warm and instr_index >= warmup_instructions:
                    self._finish_warmup(instr_index, dispatch)
                    warm = True
                    bookkeeping = (
                        clock_controller is not None or phase_interval
                    )
                if clock_controller is not None:
                    clock_controller.note_instructions(instr_index)
                if phase_interval and instr_index // phase_interval != (
                    current_phase.start_instruction // phase_interval
                ):
                    current_phase.end_instruction = instr_index
                    current_phase.end_cycle = dispatch
                    current_phase = PhaseSample(
                        start_instruction=instr_index, start_cycle=dispatch
                    )
                    self.phases.append(current_phase)

            kind = access.kind
            block = access.address >> block_bits
            if kind == IFETCH:
                if l1i_hit(block):
                    complete_memory_op(dispatch + l1i_latency)
                    continue
            elif kind == STORE:
                if l1d_hit(block, True):
                    admitted = store_buffer.admit(
                        dispatch, dispatch + l1d_latency
                    )
                    if admitted > dispatch:
                        window.stall_until(admitted)
                    continue
            elif l1d_hit(block):
                complete_memory_op(dispatch + l1d_latency)
                continue

            completion = access_hierarchy(
                block, kind, dispatch, demand=True, phase=current_phase
            )
            if kind == STORE:
                admitted = store_buffer.admit(dispatch, completion)
                if admitted > dispatch:
                    window.stall_until(admitted)
            else:
                complete_memory_op(completion)

        self.mshr.drain()
        return current_phase

    def _fused_gate_failure(self) -> Optional[str]:
        """Why the fused loop cannot run, or None when it can.

        The fused loop flattens every hook away, so it needs no
        observer, no instance-level ``access`` wrapper, plain
        tail-evicting LRU L1s without compulsory tracking, and the
        stock split-transaction bus.
        """
        l1d = self.l1d
        l1i = self.l1i
        l2 = self.l2
        memory = self.memory
        if self._obs is not None or any(
            component.observer is not None
            for component in (l2, self.mshr, memory)
        ):
            return "fused: observer installed"
        if not (l1d.is_plain() and l1i.is_plain()
                and l1d.policy.victim_is_lru_tail
                and l1i.policy.victim_is_lru_tail):
            return "fused: L1 not plain LRU"
        if l1d._seen is not None or l1i._seen is not None:
            return "fused: L1 tracks compulsory misses"
        if "access" in l2.__dict__:
            return "fused: L2 access wrapped"
        if type(memory.bus) is not SplitTransactionBus:
            return "fused: bus %s" % type(memory.bus).__name__
        return None

    def _batched_gate_failure(self, trace) -> Optional[str]:
        """Why the batched kernel cannot run, or None when it can.

        On top of the fused gate, the batched kernel needs the numpy
        column views of a PackedTrace, excludes every bookkeeping rung
        the fused loop still services per record (wrong-path records,
        warm-up, phase cuts, an instruction clock, a prefetcher), and
        requires the stock flat-latency bank array plus a serializing
        bus (occupancy > 0 makes demand completions strictly monotone,
        which is what lets the demand heap flatten into a deque).
        """
        memory = self.memory
        if not isinstance(trace, PackedTrace):
            return "batched: %s trace" % (
                "list" if isinstance(trace, list) else type(trace).__name__
            )
        if trace.wrong_path_count:
            return "batched: wrong-path records"
        if self.warmup_instructions:
            return "batched: warm-up"
        if self.phase_interval:
            return "batched: phase sampling"
        if self.prefetcher is not None:
            return "batched: prefetcher"
        if self.controller is not None and getattr(
            self.controller, "needs_instruction_clock", True
        ):
            return "batched: controller %s needs an instruction clock" % (
                type(self.controller).__name__
            )
        if type(memory.banks) is not DramBankArray:
            return "batched: banks %s" % type(memory.banks).__name__
        if not memory.bus.occupancy > 0:
            return "batched: non-serializing bus"
        return None

    def _replay_fused(self, trace) -> Optional[PhaseSample]:
        """One-function replay for the hook-free configuration.

        Flattens the generic loop, :meth:`_access_hierarchy`, and the
        per-access methods of the cache, MSHR, and memory controller
        into a single loop with every stable object bound once per run.
        ``_replay`` only dispatches here when no observer and no
        instance-level ``access`` wrapper is installed, the L1 policies
        are plain tail-evicting LRU without compulsory tracking, and
        the memory bus is the stock split-transaction model; a per-set
        L2 policy selector, a non-plain L2 policy, and a dueling
        controller are all handled inline (``observe_access`` never
        retains its ``mtd_result``, so one scratch
        :class:`AccessResult` is reused for every call).

        The generic path is the semantic reference: the statement
        ordering here mirrors it one for one — same MSHR sweep points,
        same float-accumulation grouping, same counter and observe
        ordering — and any divergence is a bug.  The fast-path
        differential tests and the PR 2 golden tests compare the two
        end to end.  Counters stay object attributes (never hoisted
        into locals) so the generic helpers that still run inside a
        fused replay (wrong-path accesses, prefetch fills, L1
        writebacks) always see coherent state.

        SBAR and CBS additionally get a dedicated dueling fast path:
        the leader-set ATD probes, the ±cost_q PSEL updates, and the
        follower policy-selector lookup are inlined when the
        ``sbar_fast``/``cbs_fast`` gates below hold, with the same
        bit-for-bit contract.
        """
        self.fused_replay = True
        self.replay_kernel = "fused"
        window = self.window
        controller = self.controller
        block_bits = self.config.block_bits
        phase_interval = self.phase_interval
        l1d = self.l1d
        l1i = self.l1i
        l2 = self.l2
        mshr = self.mshr
        memory = self.memory
        l1d_sets = l1d._sets
        l1d_n_sets = l1d.n_sets
        l1d_assoc = l1d.geometry.associativity
        l1d_latency = l1d.hit_latency
        l1i_sets = l1i._sets
        l1i_n_sets = l1i.n_sets
        l1i_assoc = l1i.geometry.associativity
        l1i_latency = l1i.hit_latency
        l2_sets = l2._sets
        l2_n_sets = l2.n_sets
        l2_assoc = l2.geometry.associativity
        l2_selector = l2.policy_selector
        l2_policy = l2.policy
        l2_seen = l2._seen
        l2_hit_latency = l2.hit_latency
        mshr_demand_heap = mshr._demand_heap
        mshr_occ_heap = mshr._occupancy_heap
        mshr_in_flight = mshr._in_flight
        mshr_entries = mshr.n_entries
        mshr_advance = mshr._advance
        bus = memory.bus
        bus_occupancy = bus.occupancy
        bus_transfer_delay = bus.transfer_delay
        banks = memory.banks
        banks_access = banks.access
        plain_banks = type(banks) is DramBankArray
        if plain_banks:
            bank_free = banks._bank_free
            n_banks = banks.n_banks
            bank_latency = banks.access_latency
        memory_in_flight = memory._in_flight
        memory_max = memory.max_outstanding
        memory_write = memory.write_line
        l1_writeback = self._l1_writeback
        access_hierarchy = self._access_hierarchy
        store_buffer = self.store_buffer
        store_admit = store_buffer.admit
        # ---- window model hoisted into locals (WindowModel.advance /
        # complete_memory_op / stall_until, inlined below).  Unlike the
        # cache/MSHR counters, the window's scalar state can live in
        # locals for the whole replay because nothing outside this loop
        # reads it mid-run — except _finish_warmup, which gets an
        # explicit flush at the warm-up boundary; a final flush before
        # the return hands the state back for finish()/_finalize.
        win_pending = window._pending
        win_popleft = win_pending.popleft
        win_append = win_pending.append
        win_size = window.window_size
        win_width = window.width
        win_index = window._index
        win_time = window._time
        retire_cummax = window._retire_cummax
        final_completion = window.final_completion
        stall_cycles = window.stall_cycles
        stall_events = window.stall_events
        long_stalls = window.long_stalls
        long_stall_threshold = window.LONG_STALL_THRESHOLD
        dist_record = self.cost_distribution.record
        delta = self.delta
        delta_record = delta.record if delta is not None else None
        prefetcher = self.prefetcher
        prefetch_block = self._prefetch_block
        quantize = quantize_cost
        scratch = (
            AccessResult(False, None, 0) if controller is not None else None
        )

        # ---- dueling fast-path gates (SBARController.policy_for_set /
        # observe_access and CBSController counterparts, inlined below).
        # Each gate demands the exact controller class with no
        # instance-level method patches, plain ATDs with the stock
        # LRU/LIN policies, and un-observed stock PSELs; anything else
        # keeps the scratch-AccessResult controller path, which calls
        # the real methods.  `sbar_fast` additionally requires a stable
        # leader set (no rand-dynamic epoch clock) so the frozenset and
        # the ATD can be hoisted out of the loop.
        sbar_fast = (
            type(controller) is SBARController
            and not controller.needs_instruction_clock
            and "policy_for_set" not in controller.__dict__
            and "observe_access" not in controller.__dict__
            and controller.atd_lru.is_plain()
            and type(controller.atd_lru.policy) is LRUPolicy
            and type(controller.psel) is PolicySelector
            and controller.psel.observer is None
        )
        cbs_fast = (
            type(controller) is CBSController
            and "policy_for_set" not in controller.__dict__
            and "observe_access" not in controller.__dict__
            and controller.atd_lru.is_plain()
            and controller.atd_lin.is_plain()
            and type(controller.atd_lru.policy) is LRUPolicy
            and type(controller.atd_lin.policy) is LINPolicy
            and all(
                type(psel) is PolicySelector and psel.observer is None
                for psel in controller._psels
            )
        )
        if sbar_fast:
            sbar_leaders = controller.leaders
            sbar_lin = controller.lin
            sbar_lru = controller.lru
            sbar_psel = controller.psel
            sbar_psel_max = sbar_psel.max_value
            sbar_psel_msb = sbar_psel._msb_threshold
            sbar_atd = controller.atd_lru
            sbar_atd_sets = sbar_atd._sets
            sbar_atd_assoc = sbar_atd.associativity
        if cbs_fast:
            cbs_local = controller.scope == "local"
            cbs_psels = controller._psels
            cbs_psel0 = cbs_psels[0]
            cbs_psel_max = cbs_psel0.max_value
            cbs_psel_msb = cbs_psel0._msb_threshold
            cbs_lin = controller.lin
            cbs_lru = controller.lru
            atd_lru = controller.atd_lru
            atd_lru_sets = atd_lru._sets
            atd_lru_assoc = atd_lru.associativity
            atd_lin = controller.atd_lin
            atd_lin_sets = atd_lin._sets
            atd_lin_assoc = atd_lin.associativity
            atd_lin_choose = atd_lin.policy.choose_victim

        warm = self._warm
        warmup_instructions = self.warmup_instructions
        clock_controller = (
            controller
            if controller is not None
            and getattr(controller, "needs_instruction_clock", True)
            else None
        )
        bookkeeping = (
            clock_controller is not None or not warm or phase_interval
        )
        current_phase: Optional[PhaseSample] = None
        if phase_interval:
            current_phase = PhaseSample(start_instruction=0, start_cycle=0.0)
            self.phases.append(current_phase)

        # Packed traces hand the loop bare column tuples; anything else
        # is adapted through the same shape so the loop body reads one
        # way.  No Access objects are materialized for a PackedTrace.
        if isinstance(trace, PackedTrace):
            records = trace.iter_tuples()
        else:
            records = (
                (access.address, access.kind, access.gap, access.wrong_path)
                for access in trace
            )

        for address, kind, gap, wrong_path in records:
            if wrong_path:
                # Wrong-path references disturb the caches and memory
                # timing but never the committed instruction stream.
                access_hierarchy(
                    address >> block_bits,
                    kind,
                    win_time,
                    demand=False,
                    phase=None,
                )
                continue

            # ---- WindowModel.advance(gap), inlined ----
            target = win_index + gap + 1
            while win_pending and win_pending[0][0] + win_size <= target:
                blocked_index, frontier = win_popleft()
                reach = blocked_index + win_size
                arrival = win_time + (reach - win_index) / win_width
                if frontier > arrival:
                    stall_cycles += frontier - arrival
                    stall_events += 1
                    if frontier - arrival >= long_stall_threshold:
                        long_stalls += 1
                    win_time = frontier
                else:
                    win_time = arrival
                win_index = reach
            win_time += (target - win_index) / win_width
            win_index = target
            dispatch = win_time

            if bookkeeping:
                instr_index = win_index
                if not warm and instr_index >= warmup_instructions:
                    # _finish_warmup snapshots the window counters, so
                    # the hoisted state must be flushed first.
                    window._index = win_index
                    window._time = win_time
                    window.stall_cycles = stall_cycles
                    window.stall_events = stall_events
                    window.long_stalls = long_stalls
                    self._finish_warmup(instr_index, dispatch)
                    warm = True
                    bookkeeping = (
                        clock_controller is not None or phase_interval
                    )
                if clock_controller is not None:
                    clock_controller.note_instructions(instr_index)
                if phase_interval and instr_index // phase_interval != (
                    current_phase.start_instruction // phase_interval
                ):
                    current_phase.end_instruction = instr_index
                    current_phase.end_cycle = dispatch
                    current_phase = PhaseSample(
                        start_instruction=instr_index, start_cycle=dispatch
                    )
                    self.phases.append(current_phase)

            block = address >> block_bits

            # ---- L1 probe and fill (SetAssociativeCache.hit_fast /
            # miss_fill for a plain tail-evicting LRU, inlined) ----
            if kind == IFETCH:
                cache_set = l1i_sets[block % l1i_n_sets]
                state = cache_set._index.get(block)
                if state is not None:
                    l1i._seq += 1
                    l1i.accesses += 1
                    l1i.hits += 1
                    ways = cache_set.ways
                    if ways[0] is not state:
                        ways.remove(state)
                        ways.insert(0, state)
                    # WindowModel.complete_memory_op, inlined.
                    completion = dispatch + l1i_latency
                    if completion > retire_cummax:
                        retire_cummax = completion
                    if completion > final_completion:
                        final_completion = completion
                    win_append((win_index, retire_cummax))
                    continue
                l1 = l1i
                l1_assoc = l1i_assoc
                l1_done = dispatch + l1i_latency
                is_store = False
            else:
                cache_set = l1d_sets[block % l1d_n_sets]
                state = cache_set._index.get(block)
                is_store = kind == STORE
                if state is not None:
                    l1d._seq += 1
                    l1d.accesses += 1
                    l1d.hits += 1
                    ways = cache_set.ways
                    if ways[0] is not state:
                        ways.remove(state)
                        ways.insert(0, state)
                    if is_store:
                        state.dirty = True
                        admitted = store_admit(
                            dispatch, dispatch + l1d_latency
                        )
                        if admitted > dispatch:
                            # WindowModel.stall_until, inlined
                            # (win_time == dispatch here, so the
                            # admitted > win_time guard already held).
                            stall_cycles += admitted - win_time
                            stall_events += 1
                            if admitted - win_time >= long_stall_threshold:
                                long_stalls += 1
                            win_time = admitted
                    else:
                        # WindowModel.complete_memory_op, inlined.
                        completion = dispatch + l1d_latency
                        if completion > retire_cummax:
                            retire_cummax = completion
                        if completion > final_completion:
                            final_completion = completion
                        win_append((win_index, retire_cummax))
                    continue
                l1 = l1d
                l1_assoc = l1d_assoc
                l1_done = dispatch + l1d_latency

            # Finalize the cost of every miss serviced before this
            # access so replacement sees up-to-date cost_q values
            # (inline MSHRFile._advance fast path; the full sweep runs
            # only when a completion falls inside the interval).
            if dispatch > mshr._now:
                if mshr_demand_heap and mshr_demand_heap[0][0] <= dispatch:
                    mshr_advance(dispatch)
                else:
                    live = mshr._demand_live
                    if live:
                        mshr._accumulator += (dispatch - mshr._now) / live
                    mshr._now = dispatch

            seq = l1._seq
            l1._seq = seq + 1
            l1.accesses += 1
            l1.misses += 1
            state = BlockState(block, seq)
            ways = cache_set.ways
            l1_victim = None
            if len(ways) >= l1_assoc:
                l1_victim = ways.pop()
                del cache_set._index[l1_victim.block]
                if l1_victim.dirty:
                    l1.writebacks += 1
            ways.insert(0, state)
            cache_set._index[block] = state
            if is_store:
                state.dirty = True
            if l1_victim is not None and l1_victim.dirty:
                l1_writeback(l1_victim.block, dispatch)

            # ---- L2 lookup (SetAssociativeCache.access minus the
            # observer/profiler hooks, excluded by the dispatch) ----
            set_index = block % l2_n_sets
            cache_set = l2_sets[set_index]
            if l2_selector is None:
                policy = l2_policy
            elif sbar_fast:
                # Inline SBARController.policy_for_set: leaders always
                # run LIN, followers obey the PSEL MSB.
                is_leader = set_index in sbar_leaders
                if is_leader:
                    policy = sbar_lin
                elif sbar_psel.value >= sbar_psel_msb:
                    controller.follower_lin_accesses += 1
                    policy = sbar_lin
                else:
                    controller.follower_lru_accesses += 1
                    policy = sbar_lru
            elif cbs_fast:
                # Inline CBSController.policy_for_set.
                psel = cbs_psels[set_index] if cbs_local else cbs_psel0
                policy = cbs_lin if psel.value >= cbs_psel_msb else cbs_lru
            else:
                policy = l2_selector(set_index)
            seq = l2._seq
            l2._seq = seq + 1
            l2.accesses += 1
            if policy.needs_note_access:
                policy.note_access(block, seq)
            state = cache_set._index.get(block)
            if state is not None:
                l2.hits += 1
                ways = cache_set.ways
                if policy.default_on_hit:
                    if ways[0] is not state:
                        ways.remove(state)
                        ways.insert(0, state)
                else:
                    policy.on_hit(cache_set, ways.index(state))
                if controller is not None:
                    if sbar_fast:
                        if is_leader:
                            # Inline SBARController.observe_access for
                            # an MTD hit: race the ATD-LRU shadow
                            # (SparseTagDirectory.access under plain
                            # LRU); a divergent ATD miss credits LIN by
                            # the MTD tag's cost_q immediately —
                            # nothing ever defers on a hit.
                            aseq = sbar_atd._seq
                            sbar_atd._seq = aseq + 1
                            sbar_atd.accesses += 1
                            aset = sbar_atd_sets[set_index]
                            astate = aset._index.get(block)
                            aways = aset.ways
                            if astate is not None:
                                sbar_atd.hits += 1
                                if aways[0] is not astate:
                                    aways.remove(astate)
                                    aways.insert(0, astate)
                            else:
                                sbar_atd.misses += 1
                                astate = BlockState(block, aseq)
                                if len(aways) >= sbar_atd_assoc:
                                    avictim = aways.pop()
                                    del aset._index[avictim.block]
                                aways.insert(0, astate)
                                aset._index[block] = astate
                                # PolicySelector.increment(cost_q).
                                amount = state.cost_q
                                value = sbar_psel.value + amount
                                if value > sbar_psel_max:
                                    value = sbar_psel_max
                                sbar_psel.value = value
                                sbar_psel.increments += amount
                    elif cbs_fast:
                        # Inline CBSController.observe_access for an
                        # MTD hit: race both full ATDs; every PSEL
                        # movement and ATD-LIN cost patch resolves now
                        # because the MTD tag supplies cost_q
                        # (footnote 6) — nothing ever defers on a hit.
                        aseq = atd_lru._seq
                        atd_lru._seq = aseq + 1
                        atd_lru.accesses += 1
                        aset = atd_lru_sets[set_index]
                        astate = aset._index.get(block)
                        aways = aset.ways
                        if astate is not None:
                            atd_lru.hits += 1
                            lru_hit = True
                            if aways[0] is not astate:
                                aways.remove(astate)
                                aways.insert(0, astate)
                        else:
                            atd_lru.misses += 1
                            lru_hit = False
                            astate = BlockState(block, aseq)
                            if len(aways) >= atd_lru_assoc:
                                avictim = aways.pop()
                                del aset._index[avictim.block]
                            aways.insert(0, astate)
                            aset._index[block] = astate
                        aseq = atd_lin._seq
                        atd_lin._seq = aseq + 1
                        atd_lin.accesses += 1
                        aset = atd_lin_sets[set_index]
                        astate = aset._index.get(block)
                        aways = aset.ways
                        if astate is not None:
                            atd_lin.hits += 1
                            lin_hit = True
                            if aways[0] is not astate:
                                aways.remove(astate)
                                aways.insert(0, astate)
                        else:
                            atd_lin.misses += 1
                            lin_hit = False
                            astate = BlockState(block, aseq)
                            if len(aways) >= atd_lin_assoc:
                                avictim = aways.pop(atd_lin_choose(aset))
                                del aset._index[avictim.block]
                            aways.insert(0, astate)
                            aset._index[block] = astate
                            astate.cost_q = state.cost_q
                        if lin_hit != lru_hit:
                            amount = state.cost_q
                            if lin_hit:
                                value = psel.value + amount
                                if value > cbs_psel_max:
                                    value = cbs_psel_max
                                psel.value = value
                                psel.increments += amount
                            else:
                                value = psel.value - amount
                                if value < 0:
                                    value = 0
                                psel.value = value
                                psel.decrements += amount
                    else:
                        scratch.hit = True
                        scratch.state = state
                        scratch.set_index = set_index
                        pending = controller.observe_access(
                            set_index, block, scratch
                        )
                        assert pending is None, (
                            "controllers defer only on MTD misses"
                        )
                # A tag hit may still be an in-flight line
                # (hit-under-miss): complete no earlier than the
                # outstanding fill, without counting a merge (inline
                # MSHRFile.lookup with count_merge=False).
                completion = l1_done + l2_hit_latency
                entry = mshr_in_flight.get(block)
                if entry is not None:
                    in_flight = entry.complete
                    if in_flight <= l1_done:
                        del mshr_in_flight[block]
                    elif in_flight > completion:
                        completion = in_flight
            else:
                # L2 miss: fill, then walk the MSHR/memory path.
                l2.misses += 1
                state = BlockState(block, seq)
                ways = cache_set.ways
                victim = None
                if len(ways) >= l2_assoc:
                    if policy.victim_is_lru_tail:
                        victim = ways.pop()
                    else:
                        victim = ways.pop(policy.choose_victim(cache_set))
                    del cache_set._index[victim.block]
                    if victim.dirty:
                        l2.writebacks += 1
                if policy.default_on_fill:
                    ways.insert(0, state)
                    cache_set._index[block] = state
                else:
                    policy.on_fill(cache_set, state)
                compulsory = False
                if l2_seen is not None and block not in l2_seen:
                    l2_seen.add(block)
                    compulsory = True
                    l2.compulsory_misses += 1
                pending = None
                if controller is not None:
                    if sbar_fast:
                        if is_leader:
                            # Inline SBARController.observe_access for
                            # an MTD miss: ATD-LRU hit means LRU
                            # avoided a miss LIN incurred; its cost is
                            # only known at service time, so the PSEL
                            # decrement defers to the cost sink.
                            aseq = sbar_atd._seq
                            sbar_atd._seq = aseq + 1
                            sbar_atd.accesses += 1
                            aset = sbar_atd_sets[set_index]
                            astate = aset._index.get(block)
                            aways = aset.ways
                            if astate is not None:
                                sbar_atd.hits += 1
                                if aways[0] is not astate:
                                    aways.remove(astate)
                                    aways.insert(0, astate)
                                controller.deferred_updates += 1
                                pending = sbar_psel.decrement
                            else:
                                sbar_atd.misses += 1
                                astate = BlockState(block, aseq)
                                if len(aways) >= sbar_atd_assoc:
                                    avictim = aways.pop()
                                    del aset._index[avictim.block]
                                aways.insert(0, astate)
                                aset._index[block] = astate
                    elif cbs_fast:
                        # Inline CBSController.observe_access for an
                        # MTD miss: race both ATDs; a divergent outcome
                        # defers its ±cost_q PSEL update, and an
                        # ATD-LIN fill waits for the serviced cost_q
                        # (CBSController._deferred).
                        aseq = atd_lru._seq
                        atd_lru._seq = aseq + 1
                        atd_lru.accesses += 1
                        aset = atd_lru_sets[set_index]
                        astate = aset._index.get(block)
                        aways = aset.ways
                        if astate is not None:
                            atd_lru.hits += 1
                            lru_hit = True
                            if aways[0] is not astate:
                                aways.remove(astate)
                                aways.insert(0, astate)
                        else:
                            atd_lru.misses += 1
                            lru_hit = False
                            astate = BlockState(block, aseq)
                            if len(aways) >= atd_lru_assoc:
                                avictim = aways.pop()
                                del aset._index[avictim.block]
                            aways.insert(0, astate)
                            aset._index[block] = astate
                        aseq = atd_lin._seq
                        atd_lin._seq = aseq + 1
                        atd_lin.accesses += 1
                        aset = atd_lin_sets[set_index]
                        astate = aset._index.get(block)
                        aways = aset.ways
                        lin_fill = None
                        if astate is not None:
                            atd_lin.hits += 1
                            lin_hit = True
                            if aways[0] is not astate:
                                aways.remove(astate)
                                aways.insert(0, astate)
                        else:
                            atd_lin.misses += 1
                            lin_hit = False
                            astate = BlockState(block, aseq)
                            if len(aways) >= atd_lin_assoc:
                                avictim = aways.pop(atd_lin_choose(aset))
                                del aset._index[avictim.block]
                            aways.insert(0, astate)
                            aset._index[block] = astate
                            lin_fill = astate
                        psel_update = None
                        if lin_hit != lru_hit:
                            psel_update = (
                                psel.increment if lin_hit
                                else psel.decrement
                            )
                        if psel_update is not None or lin_fill is not None:
                            controller.deferred_updates += 1

                            def pending(cost_q, _fill=lin_fill,
                                        _update=psel_update):
                                if _fill is not None:
                                    _fill.cost_q = cost_q
                                if _update is not None:
                                    _update(cost_q)
                    else:
                        scratch.hit = False
                        scratch.state = state
                        scratch.set_index = set_index
                        scratch.compulsory = compulsory
                        if victim is not None:
                            scratch.victim_block = victim.block
                            scratch.victim_dirty = victim.dirty
                        else:
                            scratch.victim_block = None
                            scratch.victim_dirty = False
                        pending = controller.observe_access(
                            set_index, block, scratch
                        )
                if victim is not None:
                    victim_block = victim.block
                    if victim.dirty:
                        memory_write(victim_block, l1_done)
                    # Enforce inclusion: the victim leaves the L1s as
                    # well (inline SetAssociativeCache.invalidate).
                    vset = l1d_sets[victim_block % l1d_n_sets]
                    vstate = vset._index.get(victim_block)
                    if vstate is not None:
                        vset.ways.remove(vstate)
                        del vset._index[victim_block]
                    vset = l1i_sets[victim_block % l1i_n_sets]
                    vstate = vset._index.get(victim_block)
                    if vstate is not None:
                        vset.ways.remove(vstate)
                        del vset._index[victim_block]
                if warm:
                    self.demand_misses += 1
                    if compulsory:
                        self.compulsory_misses += 1
                    if current_phase is not None:
                        current_phase.misses += 1

                # Inline MSHRFile.lookup: a hit on the miss path is a
                # merge — the access piggybacks on the old fill whose
                # tag was evicted while still in flight.
                entry = mshr_in_flight.get(block)
                if entry is not None and entry.complete <= l1_done:
                    del mshr_in_flight[block]
                    entry = None
                if entry is not None:
                    mshr.merges += 1
                    if pending is not None:
                        pending(0)
                    completion = l1_done + l2_hit_latency
                    in_flight = entry.complete
                    if in_flight > completion:
                        completion = in_flight
                else:
                    # Inline MSHRFile.admission_time.
                    issue = l1_done + l2_hit_latency
                    while mshr_occ_heap and mshr_occ_heap[0] <= issue:
                        heappop(mshr_occ_heap)
                    while len(mshr_occ_heap) >= mshr_entries:
                        earliest = heappop(mshr_occ_heap)
                        if earliest > issue:
                            issue = earliest
                            mshr.full_stalls += 1
                    if issue < mshr._now:
                        issue = mshr._now
                    # Inline MemoryController.read_line (_admit, bank
                    # access for the flat-latency array, bus transfer).
                    while memory_in_flight and memory_in_flight[0] <= issue:
                        heappop(memory_in_flight)
                    start_at = issue
                    while len(memory_in_flight) >= memory_max:
                        earliest = heappop(memory_in_flight)
                        if earliest > start_at:
                            start_at = earliest
                            memory.queueing_stalls += 1
                    if plain_banks:
                        bank = block % n_banks
                        bank_start = bank_free[bank]
                        if bank_start > start_at:
                            banks.conflicts += 1
                        else:
                            bank_start = start_at
                        data_ready = bank_start + bank_latency
                        bank_free[bank] = data_ready
                        banks.accesses += 1
                    else:
                        data_ready = banks_access(block, start_at)
                    bus_start = bus._free_at
                    if bus_start > data_ready:
                        bus.contended += 1
                    else:
                        bus_start = data_ready
                    bus._free_at = bus_start + bus_occupancy
                    bus.transfers += 1
                    completion = bus_start + bus_transfer_delay
                    heappush(memory_in_flight, completion)
                    in_flight_count = len(memory_in_flight)
                    if in_flight_count > memory.peak_in_flight:
                        memory.peak_in_flight = in_flight_count
                    memory.requests += 1

                    def on_cost(cost, _state=state, _block=block,
                                _phase=current_phase, _warm=warm,
                                _pending=pending):
                        # Inline _make_cost_sink (observer is None on
                        # the fused path); loop variables are frozen as
                        # defaults, run-constant sinks close over the
                        # enclosing scope.
                        cost_q = quantize(cost)
                        _state.cost_q = cost_q
                        if _warm:
                            dist_record(cost)
                            if delta_record is not None:
                                delta_record(_block, cost)
                            if _phase is not None:
                                _phase.cost_q_sum += cost_q
                                _phase.cost_count += 1
                        if _pending is not None:
                            _pending(cost_q)

                    # Inline MSHRFile.allocate (issue ordering and
                    # completion >= issue hold by construction here, so
                    # the entry checks are skipped).
                    if mshr_demand_heap and mshr_demand_heap[0][0] <= issue:
                        mshr_advance(issue)
                    elif issue > mshr._now:
                        live = mshr._demand_live
                        if live:
                            mshr._accumulator += (issue - mshr._now) / live
                        mshr._now = issue
                    entry = MSHREntry(block, issue, completion, True)
                    entry.on_cost = on_cost
                    entry.accumulator_start = mshr._accumulator
                    mshr._demand_live += 1
                    tiebreak = mshr._tiebreak + 1
                    mshr._tiebreak = tiebreak
                    heappush(mshr_demand_heap, (completion, tiebreak, entry))
                    heappush(mshr_occ_heap, completion)
                    mshr_in_flight[block] = entry
                    mshr.allocations += 1
                    occupancy = len(mshr_occ_heap)
                    if occupancy > mshr.peak_occupancy:
                        mshr.peak_occupancy = occupancy

                    if prefetcher is not None:
                        for candidate in prefetcher.observe(block):
                            prefetch_block(candidate, issue)

            if is_store:
                admitted = store_admit(dispatch, completion)
                if admitted > dispatch:
                    # WindowModel.stall_until, inlined (win_time ==
                    # dispatch here).
                    stall_cycles += admitted - win_time
                    stall_events += 1
                    if admitted - win_time >= long_stall_threshold:
                        long_stalls += 1
                    win_time = admitted
            else:
                # WindowModel.complete_memory_op, inlined.
                if completion > retire_cummax:
                    retire_cummax = completion
                if completion > final_completion:
                    final_completion = completion
                win_append((win_index, retire_cummax))

        # Hand the hoisted window state back for finish()/_finalize.
        window._index = win_index
        window._time = win_time
        window._retire_cummax = retire_cummax
        window.final_completion = final_completion
        window.stall_cycles = stall_cycles
        window.stall_events = stall_events
        window.long_stalls = long_stalls
        mshr.drain()
        return current_phase

    def _replay_batched(self, trace) -> Optional[PhaseSample]:
        """numpy batched replay over :class:`PackedTrace` columns.

        The batch kernel is the top rung of the replay ladder.  It
        keeps the fused loop's scalar event machine — on the heavily
        L2-missing traces the macro matrix times, the "runs of accesses
        between MSHR-occupancy events" the event-driven integral
        suggests degenerate to singletons, so there is nothing to slice
        *within* the timeline — and instead wins by restructuring
        around the batch:

        * **Vectorized precompute** — block numbers, every set index,
          bank index, the window fetch targets (one ``cumsum``) and the
          per-record dispatch increments all come off zero-copy numpy
          views of the trace columns (:meth:`PackedTrace.column_views`)
          in C, chunked so the materialized Python lists stay
          cache-sized.  The per-record ``(gap + 1) / width`` division
          is exact: both operands are integers below 2**53, so numpy
          and the interpreter produce the same IEEE double.
        * **Flattened MSHR** — with every allocation a demand read
          behind one serializing bus (gate: no prefetcher, stock bus
          with ``occupancy > 0``), completions are strictly increasing,
          so both MSHR heaps degrade to deques (pushes arrive sorted,
          making heappop order the append order, stale occupancy
          entries and all).  The Algorithm 1 sweep, the cost
          sink, and the quantize/histogram bucket (one shared
          floor-division) are inlined into the pop loop.
        * **Full hoisting** — unlike the fused loop, *every* counter
          lives in a local and is flushed once at the end: the gate
          excludes everything that could re-enter the machine mid-run
          (wrong-path records, warm-up, phase cuts, instruction clocks,
          prefetchers), and the two remaining escape hatches —
          L2-victim and L1-victim writebacks — are inlined here
          (``write_back`` closes over the same cells).

        The generic loop remains the semantic reference and the fused
        loop the first fallback; the differential and golden batteries
        compare all three end to end, bit for bit.
        """
        import numpy as np
        from math import floor

        self.fused_replay = True
        self.batched_replay = True
        self.replay_kernel = "batched"
        window = self.window
        controller = self.controller
        block_bits = self.config.block_bits
        l1d = self.l1d
        l1i = self.l1i
        l2 = self.l2
        mshr = self.mshr
        memory = self.memory
        l1d_sets = l1d._sets
        l1d_n_sets = l1d.n_sets
        l1d_assoc = l1d.geometry.associativity
        l1d_latency = l1d.hit_latency
        l1i_sets = l1i._sets
        l1i_n_sets = l1i.n_sets
        l1i_assoc = l1i.geometry.associativity
        l1i_latency = l1i.hit_latency
        l2_sets = l2._sets
        l2_n_sets = l2.n_sets
        l2_assoc = l2.geometry.associativity
        l2_selector = l2.policy_selector
        l2_policy = l2.policy
        l2_seen = l2._seen
        l2_hit_latency = l2.hit_latency
        # Cache/MSHR/memory counters, hoisted (flushed after the loop).
        l1d_seq = l1d._seq
        l1d_accesses = l1d.accesses
        l1d_hits = l1d.hits
        l1d_misses = l1d.misses
        l1d_writebacks = l1d.writebacks
        l1i_seq = l1i._seq
        l1i_accesses = l1i.accesses
        l1i_hits = l1i.hits
        l1i_misses = l1i.misses
        l1i_writebacks = l1i.writebacks
        l2_seq = l2._seq
        l2_accesses = l2.accesses
        l2_hits = l2.hits
        l2_misses = l2.misses
        l2_writebacks = l2.writebacks
        l2_compulsory = l2.compulsory_misses
        demand_ctr = self.demand_misses
        compulsory_ctr = self.compulsory_misses
        # MSHR, flattened: ``md`` replaces both heaps (see docstring);
        # entries are ``(completion, block, state, pending, acc_start)``
        # tuples, identity-checked in ``m_in_flight`` exactly like the
        # heap entries they replace.
        from collections import deque

        md = deque()
        md_append = md.append
        md_popleft = md.popleft
        # Occupancy mirror of the fused loop's heap: allocation
        # completions are strictly increasing (serializing bus), so
        # pushes arrive sorted and heappop order IS append order — a
        # deque popleft replays the heap bit for bit, stale entries
        # and all.
        occ = deque()
        occ_append = occ.append
        occ_popleft = occ.popleft
        m_in_flight = mshr._in_flight
        m_entries = mshr.n_entries
        n_adders = mshr.n_cost_adders
        m_now = mshr._now
        m_acc = mshr._accumulator
        m_live = mshr._demand_live
        m_allocations = mshr.allocations
        m_merges = mshr.merges
        m_full_stalls = mshr.full_stalls
        m_peak = mshr.peak_occupancy
        bus = memory.bus
        bus_occupancy = bus.occupancy
        bus_transfer_delay = bus.transfer_delay
        bus_free = bus._free_at
        bus_contended = bus.contended
        bus_transfers = bus.transfers
        banks = memory.banks
        bank_free = banks._bank_free
        n_banks = banks.n_banks
        bank_latency = banks.access_latency
        bank_conflicts = banks.conflicts
        bank_accesses = banks.accesses
        memory_in_flight = memory._in_flight
        memory_max = memory.max_outstanding
        mem_requests = memory.requests
        mem_writebacks = memory.writebacks
        mem_queueing = memory.queueing_stalls
        mem_peak = memory.peak_in_flight
        store_admit = self.store_buffer.admit
        # Window state, hoisted exactly as in the fused loop.
        win_pending = window._pending
        win_popleft = win_pending.popleft
        win_append = win_pending.append
        win_size = window.window_size
        win_width = window.width
        win_index = window._index
        win_time = window._time
        retire_cummax = window._retire_cummax
        final_completion = window.final_completion
        stall_cycles = window.stall_cycles
        stall_events = window.stall_events
        long_stalls = window.long_stalls
        long_stall_threshold = window.LONG_STALL_THRESHOLD
        dist = self.cost_distribution
        dist_counts = dist.counts
        dist_total = dist.total
        dist_cost_sum = dist.cost_sum
        qstep = QUANTIZATION_STEP
        max_q = MAX_COST_Q
        delta = self.delta
        # DeltaTracker.record, hoisted for inlining at the sweep sites
        # (one call per serviced miss otherwise).
        track_delta = delta is not None
        if track_delta:
            delta_last = delta._last_cost
            delta_count = delta._count
            delta_sum = delta._sum
            delta_below = delta._below_60
            delta_mid = delta._60_to_119
            delta_high = delta._120_plus
        scratch = (
            AccessResult(False, None, 0) if controller is not None else None
        )

        # Dueling fast-path gates, identical to the fused loop's.
        sbar_fast = (
            type(controller) is SBARController
            and not controller.needs_instruction_clock
            and "policy_for_set" not in controller.__dict__
            and "observe_access" not in controller.__dict__
            and controller.atd_lru.is_plain()
            and type(controller.atd_lru.policy) is LRUPolicy
            and type(controller.psel) is PolicySelector
            and controller.psel.observer is None
        )
        cbs_fast = (
            type(controller) is CBSController
            and "policy_for_set" not in controller.__dict__
            and "observe_access" not in controller.__dict__
            and controller.atd_lru.is_plain()
            and controller.atd_lin.is_plain()
            and type(controller.atd_lru.policy) is LRUPolicy
            and type(controller.atd_lin.policy) is LINPolicy
            and all(
                type(psel) is PolicySelector and psel.observer is None
                for psel in controller._psels
            )
        )
        if sbar_fast:
            sbar_leaders = controller.leaders
            sbar_lin = controller.lin
            sbar_lru = controller.lru
            sbar_psel = controller.psel
            sbar_psel_max = sbar_psel.max_value
            sbar_psel_msb = sbar_psel._msb_threshold
            sbar_atd = controller.atd_lru
            sbar_atd_sets = sbar_atd._sets
            sbar_atd_assoc = sbar_atd.associativity
        if cbs_fast:
            cbs_local = controller.scope == "local"
            cbs_psels = controller._psels
            cbs_psel0 = cbs_psels[0]
            cbs_psel_max = cbs_psel0.max_value
            cbs_psel_msb = cbs_psel0._msb_threshold
            cbs_lin = controller.lin
            cbs_lru = controller.lru
            atd_lru = controller.atd_lru
            atd_lru_sets = atd_lru._sets
            atd_lru_assoc = atd_lru.associativity
            atd_lin = controller.atd_lin
            atd_lin_sets = atd_lin._sets
            atd_lin_assoc = atd_lin.associativity
            atd_lin_choose = atd_lin.policy.choose_victim

        def write_back(wb_block, when):
            # MemoryController.write_line, inlined: the line crosses
            # the bus to memory FIRST, then updates the bank (the read
            # path below is the reverse).  Shared timing state lives in
            # this closure's cells so the loop and the writebacks see
            # one coherent timeline.
            nonlocal bus_free, bus_contended, bus_transfers
            nonlocal mem_requests, mem_writebacks, mem_queueing, mem_peak
            nonlocal bank_conflicts, bank_accesses
            while memory_in_flight and memory_in_flight[0] <= when:
                heappop(memory_in_flight)
            while len(memory_in_flight) >= memory_max:
                earliest = heappop(memory_in_flight)
                if earliest > when:
                    when = earliest
                    mem_queueing += 1
            start = bus_free
            if start > when:
                bus_contended += 1
            else:
                start = when
            bus_free = start + bus_occupancy
            bus_transfers += 1
            arrive = start + bus_transfer_delay
            bank = wb_block % n_banks
            bank_start = bank_free[bank]
            if bank_start > arrive:
                bank_conflicts += 1
            else:
                bank_start = arrive
            data_ready = bank_start + bank_latency
            bank_free[bank] = data_ready
            bank_accesses += 1
            heappush(memory_in_flight, data_ready)
            count = len(memory_in_flight)
            if count > mem_peak:
                mem_peak = count
            mem_requests += 1
            mem_writebacks += 1

        # ---- batch precompute over the zero-copy column views ----
        addr_view, kind_view, gap_view = trace.column_views()
        n = len(addr_view)
        gaps1 = gap_view + 1
        # Fetch targets are a running sum of (gap + 1) from the
        # window's starting index; the no-stall dispatch increment
        # (gap + 1) / width divides exact integers below 2**53, so the
        # vectorized double equals the interpreter's.
        targets_np = np.cumsum(gaps1) + win_index
        dts_np = gaps1 / win_width
        ifetch = IFETCH
        store_kind = STORE
        chunk = 1 << 16

        for chunk_start in range(0, n, chunk):
            chunk_stop = chunk_start + chunk
            if chunk_stop > n:
                chunk_stop = n
            ablk = addr_view[chunk_start:chunk_stop] >> block_bits
            kc = kind_view[chunk_start:chunk_stop]
            if (kc == ifetch).any():
                l1set_np = np.where(
                    kc == ifetch, ablk % l1i_n_sets, ablk % l1d_n_sets
                )
            else:
                l1set_np = ablk % l1d_n_sets
            records = zip(
                ablk.tolist(),
                kc.tolist(),
                targets_np[chunk_start:chunk_stop].tolist(),
                dts_np[chunk_start:chunk_stop].tolist(),
                l1set_np.tolist(),
                (ablk % l2_n_sets).tolist(),
                (ablk % n_banks).tolist(),
            )
            for block, kind, target, dt, l1_set, set_index, bank in records:
                # ---- WindowModel.advance, inlined; the no-stall step
                # uses the precomputed (gap + 1) / width increment ----
                if win_pending and win_pending[0][0] + win_size <= target:
                    while win_pending and (
                        win_pending[0][0] + win_size <= target
                    ):
                        blocked_index, frontier = win_popleft()
                        reach = blocked_index + win_size
                        arrival = win_time + (reach - win_index) / win_width
                        if frontier > arrival:
                            stall_cycles += frontier - arrival
                            stall_events += 1
                            if frontier - arrival >= long_stall_threshold:
                                long_stalls += 1
                            win_time = frontier
                        else:
                            win_time = arrival
                        win_index = reach
                    win_time += (target - win_index) / win_width
                else:
                    win_time += dt
                win_index = target
                dispatch = win_time

                # ---- L1 probe (hit_fast / miss_fill, inlined) ----
                if kind == ifetch:
                    cache_set = l1i_sets[l1_set]
                    state = cache_set._index.get(block)
                    if state is not None:
                        l1i_seq += 1
                        l1i_accesses += 1
                        l1i_hits += 1
                        ways = cache_set.ways
                        if ways[0] is not state:
                            ways.remove(state)
                            ways.insert(0, state)
                        completion = dispatch + l1i_latency
                        if completion > retire_cummax:
                            retire_cummax = completion
                        if completion > final_completion:
                            final_completion = completion
                        win_append((win_index, retire_cummax))
                        continue
                    is_ifetch = True
                    is_store = False
                    l1_done = dispatch + l1i_latency
                else:
                    cache_set = l1d_sets[l1_set]
                    state = cache_set._index.get(block)
                    is_store = kind == store_kind
                    if state is not None:
                        l1d_seq += 1
                        l1d_accesses += 1
                        l1d_hits += 1
                        ways = cache_set.ways
                        if ways[0] is not state:
                            ways.remove(state)
                            ways.insert(0, state)
                        if is_store:
                            state.dirty = True
                            admitted = store_admit(
                                dispatch, dispatch + l1d_latency
                            )
                            if admitted > dispatch:
                                stall_cycles += admitted - win_time
                                stall_events += 1
                                if (
                                    admitted - win_time
                                    >= long_stall_threshold
                                ):
                                    long_stalls += 1
                                win_time = admitted
                        else:
                            completion = dispatch + l1d_latency
                            if completion > retire_cummax:
                                retire_cummax = completion
                            if completion > final_completion:
                                final_completion = completion
                            win_append((win_index, retire_cummax))
                        continue
                    is_ifetch = False
                    l1_done = dispatch + l1d_latency

                # ---- MSHRFile._advance(dispatch), inlined ----
                if dispatch > m_now:
                    if md and md[0][0] <= dispatch:
                        now = m_now
                        while md and md[0][0] <= dispatch:
                            sentry = md_popleft()
                            scomplete = sentry[0]
                            if scomplete > now:
                                m_acc += (scomplete - now) / m_live
                                now = scomplete
                            cost = m_acc - sentry[4]
                            if n_adders:
                                cost = floor(cost * n_adders) / n_adders
                            m_live -= 1
                            sblock = sentry[1]
                            if m_in_flight.get(sblock) is sentry:
                                del m_in_flight[sblock]
                            # Cost sink, inlined: one floordiv feeds
                            # both quantize_cost and the histogram
                            # bucket (they are the same expression).
                            bkt = int(cost // qstep)
                            if bkt > max_q:
                                bkt = max_q
                            sentry[2].cost_q = bkt
                            dist_counts[bkt] += 1
                            dist_total += 1
                            dist_cost_sum += cost
                            if track_delta:
                                previous = delta_last.get(sblock)
                                delta_last[sblock] = cost
                                if previous is not None:
                                    dv = abs(cost - previous)
                                    delta_count += 1
                                    delta_sum += dv
                                    if dv < 60:
                                        delta_below += 1
                                    elif dv < 120:
                                        delta_mid += 1
                                    else:
                                        delta_high += 1
                            spending = sentry[3]
                            if spending is not None:
                                spending(bkt)
                        if dispatch > now and m_live:
                            m_acc += (dispatch - now) / m_live
                        m_now = dispatch if dispatch > now else now
                    else:
                        if m_live:
                            m_acc += (dispatch - m_now) / m_live
                        m_now = dispatch

                # ---- L1 fill ----
                if is_ifetch:
                    seq = l1i_seq
                    l1i_seq = seq + 1
                    l1i_accesses += 1
                    l1i_misses += 1
                    l1_assoc = l1i_assoc
                else:
                    seq = l1d_seq
                    l1d_seq = seq + 1
                    l1d_accesses += 1
                    l1d_misses += 1
                    l1_assoc = l1d_assoc
                state = BlockState(block, seq)
                ways = cache_set.ways
                l1_victim = None
                if len(ways) >= l1_assoc:
                    l1_victim = ways.pop()
                    del cache_set._index[l1_victim.block]
                    if l1_victim.dirty:
                        if is_ifetch:
                            l1i_writebacks += 1
                        else:
                            l1d_writebacks += 1
                ways.insert(0, state)
                cache_set._index[block] = state
                if is_store:
                    state.dirty = True
                if l1_victim is not None and l1_victim.dirty:
                    # Simulator._l1_writeback, inlined.
                    vb = l1_victim.block
                    resident = l2_sets[vb % l2_n_sets]._index.get(vb)
                    if resident is not None:
                        resident.dirty = True
                    else:
                        write_back(vb, dispatch)

                # ---- L2 lookup ----
                cache_set = l2_sets[set_index]
                if l2_selector is None:
                    policy = l2_policy
                elif sbar_fast:
                    is_leader = set_index in sbar_leaders
                    if is_leader:
                        policy = sbar_lin
                    elif sbar_psel.value >= sbar_psel_msb:
                        controller.follower_lin_accesses += 1
                        policy = sbar_lin
                    else:
                        controller.follower_lru_accesses += 1
                        policy = sbar_lru
                elif cbs_fast:
                    psel = cbs_psels[set_index] if cbs_local else cbs_psel0
                    policy = cbs_lin if psel.value >= cbs_psel_msb else cbs_lru
                else:
                    policy = l2_selector(set_index)
                seq = l2_seq
                l2_seq = seq + 1
                l2_accesses += 1
                if policy.needs_note_access:
                    policy.note_access(block, seq)
                state = cache_set._index.get(block)
                if state is not None:
                    l2_hits += 1
                    ways = cache_set.ways
                    if policy.default_on_hit:
                        if ways[0] is not state:
                            ways.remove(state)
                            ways.insert(0, state)
                    else:
                        policy.on_hit(cache_set, ways.index(state))
                    if controller is not None:
                        if sbar_fast:
                            if is_leader:
                                aseq = sbar_atd._seq
                                sbar_atd._seq = aseq + 1
                                sbar_atd.accesses += 1
                                aset = sbar_atd_sets[set_index]
                                astate = aset._index.get(block)
                                aways = aset.ways
                                if astate is not None:
                                    sbar_atd.hits += 1
                                    if aways[0] is not astate:
                                        aways.remove(astate)
                                        aways.insert(0, astate)
                                else:
                                    sbar_atd.misses += 1
                                    astate = BlockState(block, aseq)
                                    if len(aways) >= sbar_atd_assoc:
                                        avictim = aways.pop()
                                        del aset._index[avictim.block]
                                    aways.insert(0, astate)
                                    aset._index[block] = astate
                                    amount = state.cost_q
                                    value = sbar_psel.value + amount
                                    if value > sbar_psel_max:
                                        value = sbar_psel_max
                                    sbar_psel.value = value
                                    sbar_psel.increments += amount
                        elif cbs_fast:
                            aseq = atd_lru._seq
                            atd_lru._seq = aseq + 1
                            atd_lru.accesses += 1
                            aset = atd_lru_sets[set_index]
                            astate = aset._index.get(block)
                            aways = aset.ways
                            if astate is not None:
                                atd_lru.hits += 1
                                lru_hit = True
                                if aways[0] is not astate:
                                    aways.remove(astate)
                                    aways.insert(0, astate)
                            else:
                                atd_lru.misses += 1
                                lru_hit = False
                                astate = BlockState(block, aseq)
                                if len(aways) >= atd_lru_assoc:
                                    avictim = aways.pop()
                                    del aset._index[avictim.block]
                                aways.insert(0, astate)
                                aset._index[block] = astate
                            aseq = atd_lin._seq
                            atd_lin._seq = aseq + 1
                            atd_lin.accesses += 1
                            aset = atd_lin_sets[set_index]
                            astate = aset._index.get(block)
                            aways = aset.ways
                            if astate is not None:
                                atd_lin.hits += 1
                                lin_hit = True
                                if aways[0] is not astate:
                                    aways.remove(astate)
                                    aways.insert(0, astate)
                            else:
                                atd_lin.misses += 1
                                lin_hit = False
                                astate = BlockState(block, aseq)
                                if len(aways) >= atd_lin_assoc:
                                    avictim = aways.pop(atd_lin_choose(aset))
                                    del aset._index[avictim.block]
                                aways.insert(0, astate)
                                aset._index[block] = astate
                                astate.cost_q = state.cost_q
                            if lin_hit != lru_hit:
                                amount = state.cost_q
                                if lin_hit:
                                    value = psel.value + amount
                                    if value > cbs_psel_max:
                                        value = cbs_psel_max
                                    psel.value = value
                                    psel.increments += amount
                                else:
                                    value = psel.value - amount
                                    if value < 0:
                                        value = 0
                                    psel.value = value
                                    psel.decrements += amount
                        else:
                            scratch.hit = True
                            scratch.state = state
                            scratch.set_index = set_index
                            pending = controller.observe_access(
                                set_index, block, scratch
                            )
                            assert pending is None, (
                                "controllers defer only on MTD misses"
                            )
                    completion = l1_done + l2_hit_latency
                    entry = m_in_flight.get(block)
                    if entry is not None:
                        in_flight = entry[0]
                        if in_flight <= l1_done:
                            del m_in_flight[block]
                        elif in_flight > completion:
                            completion = in_flight
                else:
                    # L2 miss: fill, then walk the MSHR/memory path.
                    l2_misses += 1
                    state = BlockState(block, seq)
                    ways = cache_set.ways
                    victim = None
                    if len(ways) >= l2_assoc:
                        if policy.victim_is_lru_tail:
                            victim = ways.pop()
                        else:
                            victim = ways.pop(policy.choose_victim(cache_set))
                        del cache_set._index[victim.block]
                        if victim.dirty:
                            l2_writebacks += 1
                    if policy.default_on_fill:
                        ways.insert(0, state)
                        cache_set._index[block] = state
                    else:
                        policy.on_fill(cache_set, state)
                    compulsory = False
                    if l2_seen is not None and block not in l2_seen:
                        l2_seen.add(block)
                        compulsory = True
                        l2_compulsory += 1
                    pending = None
                    if controller is not None:
                        if sbar_fast:
                            if is_leader:
                                aseq = sbar_atd._seq
                                sbar_atd._seq = aseq + 1
                                sbar_atd.accesses += 1
                                aset = sbar_atd_sets[set_index]
                                astate = aset._index.get(block)
                                aways = aset.ways
                                if astate is not None:
                                    sbar_atd.hits += 1
                                    if aways[0] is not astate:
                                        aways.remove(astate)
                                        aways.insert(0, astate)
                                    controller.deferred_updates += 1
                                    pending = sbar_psel.decrement
                                else:
                                    sbar_atd.misses += 1
                                    astate = BlockState(block, aseq)
                                    if len(aways) >= sbar_atd_assoc:
                                        avictim = aways.pop()
                                        del aset._index[avictim.block]
                                    aways.insert(0, astate)
                                    aset._index[block] = astate
                        elif cbs_fast:
                            aseq = atd_lru._seq
                            atd_lru._seq = aseq + 1
                            atd_lru.accesses += 1
                            aset = atd_lru_sets[set_index]
                            astate = aset._index.get(block)
                            aways = aset.ways
                            if astate is not None:
                                atd_lru.hits += 1
                                lru_hit = True
                                if aways[0] is not astate:
                                    aways.remove(astate)
                                    aways.insert(0, astate)
                            else:
                                atd_lru.misses += 1
                                lru_hit = False
                                astate = BlockState(block, aseq)
                                if len(aways) >= atd_lru_assoc:
                                    avictim = aways.pop()
                                    del aset._index[avictim.block]
                                aways.insert(0, astate)
                                aset._index[block] = astate
                            aseq = atd_lin._seq
                            atd_lin._seq = aseq + 1
                            atd_lin.accesses += 1
                            aset = atd_lin_sets[set_index]
                            astate = aset._index.get(block)
                            aways = aset.ways
                            lin_fill = None
                            if astate is not None:
                                atd_lin.hits += 1
                                lin_hit = True
                                if aways[0] is not astate:
                                    aways.remove(astate)
                                    aways.insert(0, astate)
                            else:
                                atd_lin.misses += 1
                                lin_hit = False
                                astate = BlockState(block, aseq)
                                if len(aways) >= atd_lin_assoc:
                                    avictim = aways.pop(atd_lin_choose(aset))
                                    del aset._index[avictim.block]
                                aways.insert(0, astate)
                                aset._index[block] = astate
                                lin_fill = astate
                            psel_update = None
                            if lin_hit != lru_hit:
                                psel_update = (
                                    psel.increment if lin_hit
                                    else psel.decrement
                                )
                            if psel_update is not None or lin_fill is not None:
                                controller.deferred_updates += 1

                                def pending(cost_q, _fill=lin_fill,
                                            _update=psel_update):
                                    if _fill is not None:
                                        _fill.cost_q = cost_q
                                    if _update is not None:
                                        _update(cost_q)
                        else:
                            scratch.hit = False
                            scratch.state = state
                            scratch.set_index = set_index
                            scratch.compulsory = compulsory
                            if victim is not None:
                                scratch.victim_block = victim.block
                                scratch.victim_dirty = victim.dirty
                            else:
                                scratch.victim_block = None
                                scratch.victim_dirty = False
                            pending = controller.observe_access(
                                set_index, block, scratch
                            )
                    if victim is not None:
                        victim_block = victim.block
                        if victim.dirty:
                            write_back(victim_block, l1_done)
                        # Enforce inclusion: the victim leaves the L1s.
                        vset = l1d_sets[victim_block % l1d_n_sets]
                        vstate = vset._index.get(victim_block)
                        if vstate is not None:
                            vset.ways.remove(vstate)
                            del vset._index[victim_block]
                        vset = l1i_sets[victim_block % l1i_n_sets]
                        vstate = vset._index.get(victim_block)
                        if vstate is not None:
                            vset.ways.remove(vstate)
                            del vset._index[victim_block]
                    demand_ctr += 1
                    if compulsory:
                        compulsory_ctr += 1

                    # Merge probe (inline MSHRFile.lookup).
                    entry = m_in_flight.get(block)
                    if entry is not None and entry[0] <= l1_done:
                        del m_in_flight[block]
                        entry = None
                    if entry is not None:
                        m_merges += 1
                        if pending is not None:
                            pending(0)
                        completion = l1_done + l2_hit_latency
                        in_flight = entry[0]
                        if in_flight > completion:
                            completion = in_flight
                    else:
                        # Inline MSHRFile.admission_time over the
                        # sorted occupancy deque (popleft == heappop,
                        # see the declaration above).
                        issue = l1_done + l2_hit_latency
                        while occ and occ[0] <= issue:
                            occ_popleft()
                        while len(occ) >= m_entries:
                            earliest = occ_popleft()
                            if earliest > issue:
                                issue = earliest
                                m_full_stalls += 1
                        if issue < m_now:
                            issue = m_now
                        # Inline MemoryController.read_line (bank
                        # first, then the bus — the write path above
                        # is the reverse).
                        while memory_in_flight and (
                            memory_in_flight[0] <= issue
                        ):
                            heappop(memory_in_flight)
                        start_at = issue
                        while len(memory_in_flight) >= memory_max:
                            earliest = heappop(memory_in_flight)
                            if earliest > start_at:
                                start_at = earliest
                                mem_queueing += 1
                        bank_start = bank_free[bank]
                        if bank_start > start_at:
                            bank_conflicts += 1
                        else:
                            bank_start = start_at
                        data_ready = bank_start + bank_latency
                        bank_free[bank] = data_ready
                        bank_accesses += 1
                        bus_start = bus_free
                        if bus_start > data_ready:
                            bus_contended += 1
                        else:
                            bus_start = data_ready
                        bus_free = bus_start + bus_occupancy
                        bus_transfers += 1
                        completion = bus_start + bus_transfer_delay
                        heappush(memory_in_flight, completion)
                        count = len(memory_in_flight)
                        if count > mem_peak:
                            mem_peak = count
                        mem_requests += 1

                        # ---- MSHRFile._advance(issue), inlined ----
                        if md and md[0][0] <= issue:
                            now = m_now
                            while md and md[0][0] <= issue:
                                sentry = md_popleft()
                                scomplete = sentry[0]
                                if scomplete > now:
                                    m_acc += (scomplete - now) / m_live
                                    now = scomplete
                                cost = m_acc - sentry[4]
                                if n_adders:
                                    cost = floor(cost * n_adders) / n_adders
                                m_live -= 1
                                sblock = sentry[1]
                                if m_in_flight.get(sblock) is sentry:
                                    del m_in_flight[sblock]
                                bkt = int(cost // qstep)
                                if bkt > max_q:
                                    bkt = max_q
                                sentry[2].cost_q = bkt
                                dist_counts[bkt] += 1
                                dist_total += 1
                                dist_cost_sum += cost
                                if track_delta:
                                    previous = delta_last.get(sblock)
                                    delta_last[sblock] = cost
                                    if previous is not None:
                                        dv = abs(cost - previous)
                                        delta_count += 1
                                        delta_sum += dv
                                        if dv < 60:
                                            delta_below += 1
                                        elif dv < 120:
                                            delta_mid += 1
                                        else:
                                            delta_high += 1
                                spending = sentry[3]
                                if spending is not None:
                                    spending(bkt)
                            if issue > now and m_live:
                                m_acc += (issue - now) / m_live
                            m_now = issue if issue > now else now
                        elif issue > m_now:
                            if m_live:
                                m_acc += (issue - m_now) / m_live
                            m_now = issue

                        # Inline MSHRFile.allocate for a demand read:
                        # completions are strictly increasing (see
                        # docstring), so appending keeps the deque
                        # sorted — the heap's tiebreak is the append
                        # order itself.
                        entry = (completion, block, state, pending, m_acc)
                        md_append(entry)
                        occ_append(completion)
                        m_in_flight[block] = entry
                        m_allocations += 1
                        m_live += 1
                        occupancy = len(occ)
                        if occupancy > m_peak:
                            m_peak = occupancy

                if is_store:
                    admitted = store_admit(dispatch, completion)
                    if admitted > dispatch:
                        stall_cycles += admitted - win_time
                        stall_events += 1
                        if admitted - win_time >= long_stall_threshold:
                            long_stalls += 1
                        win_time = admitted
                else:
                    if completion > retire_cummax:
                        retire_cummax = completion
                    if completion > final_completion:
                        final_completion = completion
                    win_append((win_index, retire_cummax))

        # ---- MSHRFile.drain, inlined ----
        if md:
            horizon = max(sentry[0] for sentry in md)
            target = horizon + 1
            now = m_now
            while md:
                sentry = md_popleft()
                scomplete = sentry[0]
                if scomplete > now:
                    m_acc += (scomplete - now) / m_live
                    now = scomplete
                cost = m_acc - sentry[4]
                if n_adders:
                    cost = floor(cost * n_adders) / n_adders
                m_live -= 1
                sblock = sentry[1]
                if m_in_flight.get(sblock) is sentry:
                    del m_in_flight[sblock]
                bkt = int(cost // qstep)
                if bkt > max_q:
                    bkt = max_q
                sentry[2].cost_q = bkt
                dist_counts[bkt] += 1
                dist_total += 1
                dist_cost_sum += cost
                if track_delta:
                    previous = delta_last.get(sblock)
                    delta_last[sblock] = cost
                    if previous is not None:
                        dv = abs(cost - previous)
                        delta_count += 1
                        delta_sum += dv
                        if dv < 60:
                            delta_below += 1
                        elif dv < 120:
                            delta_mid += 1
                        else:
                            delta_high += 1
                spending = sentry[3]
                if spending is not None:
                    spending(bkt)
            if target > now and m_live:
                m_acc += (target - now) / m_live
            m_now = target if target > now else now

        # ---- flush every hoisted counter back to its object ----
        window._index = win_index
        window._time = win_time
        window._retire_cummax = retire_cummax
        window.final_completion = final_completion
        window.stall_cycles = stall_cycles
        window.stall_events = stall_events
        window.long_stalls = long_stalls
        l1d._seq = l1d_seq
        l1d.accesses = l1d_accesses
        l1d.hits = l1d_hits
        l1d.misses = l1d_misses
        l1d.writebacks = l1d_writebacks
        l1i._seq = l1i_seq
        l1i.accesses = l1i_accesses
        l1i.hits = l1i_hits
        l1i.misses = l1i_misses
        l1i.writebacks = l1i_writebacks
        l2._seq = l2_seq
        l2.accesses = l2_accesses
        l2.hits = l2_hits
        l2.misses = l2_misses
        l2.writebacks = l2_writebacks
        l2.compulsory_misses = l2_compulsory
        self.demand_misses = demand_ctr
        self.compulsory_misses = compulsory_ctr
        mshr._now = m_now
        mshr._accumulator = m_acc
        mshr._demand_live = m_live
        mshr.allocations = m_allocations
        mshr.merges = m_merges
        mshr.full_stalls = m_full_stalls
        mshr.peak_occupancy = m_peak
        bus._free_at = bus_free
        bus.contended = bus_contended
        bus.transfers = bus_transfers
        banks.conflicts = bank_conflicts
        banks.accesses = bank_accesses
        memory.requests = mem_requests
        memory.writebacks = mem_writebacks
        memory.queueing_stalls = mem_queueing
        memory.peak_in_flight = mem_peak
        dist.total = dist_total
        dist.cost_sum = dist_cost_sum
        if track_delta:
            delta._count = delta_count
            delta._sum = delta_sum
            delta._below_60 = delta_below
            delta._60_to_119 = delta_mid
            delta._120_plus = delta_high
        return None

    # -- hierarchy --------------------------------------------------------

    def _access_hierarchy(
        self,
        block: int,
        kind: int,
        when: float,
        demand: bool,
        phase: Optional[PhaseSample],
    ) -> float:
        """Send one access down L1 -> L2 -> memory; return completion time."""
        mshr = self.mshr
        # Finalize the cost of every miss serviced before this access so
        # replacement sees up-to-date cost_q values (the hardware writes
        # cost into the tag store at service completion, Section 5).
        if when > mshr._now:
            mshr._advance(when)
        if kind == IFETCH:
            l1 = self.l1i
            is_store = False
        else:
            l1 = self.l1d
            is_store = kind == STORE
        r1 = l1.access(block, is_write=is_store)
        l1_done = when + l1.hit_latency
        if r1.hit:
            return l1_done
        if r1.victim_dirty:
            self._l1_writeback(r1.victim_block, when)

        r2 = self.l2.access(block)
        pending: Optional[Callable[[int], None]] = None
        controller = self.controller
        if demand and controller is not None:
            pending = controller.observe_access(r2.set_index, block, r2)

        l2_hit_latency = self.l2.hit_latency
        if r2.hit:
            # A tag hit may still be an in-flight line (hit-under-miss
            # to the same block): the access completes no earlier than
            # the outstanding fill.  No MSHR entry is allocated or
            # coalesced here, so the probe must not count as a merge.
            completion = l1_done + l2_hit_latency
            in_flight = mshr.lookup(block, l1_done, count_merge=False)
            if in_flight is not None and in_flight > completion:
                completion = in_flight
            assert pending is None, "controllers defer only on MTD misses"
            return completion

        # L2 miss path.
        victim_block = r2.victim_block
        if victim_block is not None:
            if r2.victim_dirty:
                self.memory.write_line(victim_block, l1_done)
            # Enforce inclusion: the victim leaves the L1s as well.
            self.l1d.invalidate(victim_block)
            self.l1i.invalidate(victim_block)

        warm = self._warm
        if demand and warm:
            self.demand_misses += 1
            if r2.compulsory:
                self.compulsory_misses += 1
            if phase is not None:
                phase.misses += 1

        in_flight = mshr.lookup(block, l1_done)
        if in_flight is not None:
            # The line's tag was evicted while its fill was still in
            # flight and is now re-requested: merge with the old fill.
            if pending is not None:
                pending(0)
            return max(in_flight, l1_done + l2_hit_latency)

        issue = mshr.admission_time(l1_done + l2_hit_latency)
        if issue < mshr._now:
            issue = mshr._now
        completion = self.memory.read_line(block, issue)
        on_cost = None
        if demand:
            on_cost = self._make_cost_sink(
                block, r2.state, pending, phase, record_stats=warm
            )
        mshr.allocate(block, issue, completion, demand, on_cost)
        if demand and self.prefetcher is not None:
            for candidate in self.prefetcher.observe(block):
                self._prefetch_block(candidate, issue)
        return completion

    def _prefetch_block(self, block: int, when: float) -> None:
        """Issue one non-demand prefetch into the L2."""
        if self.l2.contains(block) or self.mshr.in_flight(block, when):
            self.prefetch_hits_suppressed += 1
            return
        issue = self.mshr.admission_time(when)
        if issue < self.mshr.sweep_time:
            issue = self.mshr.sweep_time
        completion = self.memory.read_line(block, issue)
        self.mshr.allocate(block, issue, completion, is_demand=False)
        result = self.l2.access(block)
        if result.victim_dirty:
            self.memory.write_line(result.victim_block, issue)
        if result.victim_block is not None:
            self.l1d.invalidate(result.victim_block)
            self.l1i.invalidate(result.victim_block)
        self.prefetches_issued += 1

    def _make_cost_sink(self, block, state, pending, phase, record_stats=True):
        """Callback run when the MSHR sweep services this miss.

        ``record_stats=False`` (warm-up misses) still writes cost_q to
        the tag and drives PSEL — the mechanism must behave identically
        — but keeps the miss out of the reported distributions.
        """
        distribution = self.cost_distribution
        delta = self.delta
        observer = self._obs

        def on_cost(cost: float) -> None:
            cost_q = quantize_cost(cost)
            state.cost_q = cost_q
            if observer is not None:
                observer.cost_quantized(block, cost, cost_q)
            if record_stats:
                distribution.record(cost)
                if delta is not None:
                    delta.record(block, cost)
                if phase is not None:
                    phase.cost_q_sum += cost_q
                    phase.cost_count += 1
            if pending is not None:
                pending(cost_q)

        return on_cost

    def _finish_warmup(self, instr_index: int, cycle: float) -> None:
        """Reset reported statistics at the warm-up boundary.

        Every counter :meth:`_finalize` reports must be snapshotted
        here; anything left out would mix warm-up activity into the
        measured region.
        """
        self._warm = True
        self._warmup_end_instruction = instr_index
        self._warmup_end_cycle = cycle
        window = self.window
        self._warmup_stall_events = window.stall_events
        self._warmup_long_stalls = window.long_stalls
        self._warmup_stall_cycles = window.stall_cycles
        self._warmup_l2_accesses = self.l2.accesses
        self._warmup_l2_misses = self.l2.misses
        self._warmup_l1d_accesses = self.l1d.accesses
        self._warmup_l1d_misses = self.l1d.misses
        self._warmup_mshr_merges = self.mshr.merges
        self._warmup_mshr_full_stalls = self.mshr.full_stalls
        self._warmup_writebacks = self.l2.writebacks
        self._warmup_bank_conflicts = self.memory.banks.conflicts
        self._warmup_bus_contended = self.memory.bus.contended

    def _l1_writeback(self, block: int, when: float) -> None:
        """An L1 victim writes back into the L2 without recency update."""
        resident = self.l2.set_state(self.l2.set_index(block)).get(block)
        if resident is not None:
            resident.dirty = True
        else:
            # Not in L2 (inclusion was broken by an L2 eviction racing
            # the dirty line): write through to memory, timing only.
            self.memory.write_line(block, when)

    # -- results ----------------------------------------------------------

    def _finalize(self, current_phase: Optional[PhaseSample]) -> SimResult:
        window = self.window
        cycles = window.finish()
        if current_phase is not None:
            current_phase.end_instruction = window.instructions
            current_phase.end_cycle = cycles
            if current_phase.instructions == 0 and len(self.phases) > 1:
                # The final access opened a zero-length phase; fold its
                # activity into the previous sample instead of losing it.
                tail = self.phases.pop()
                previous = self.phases[-1]
                previous.misses += tail.misses
                previous.cost_q_sum += tail.cost_q_sum
                previous.cost_count += tail.cost_count
        psel_final = None
        if isinstance(self.controller, SBARController):
            psel_final = self.controller.psel.value
        instructions = window.instructions - self._warmup_end_instruction
        cycles -= self._warmup_end_cycle
        stall_events = window.stall_events - getattr(
            self, "_warmup_stall_events", 0
        )
        long_stalls = window.long_stalls - getattr(
            self, "_warmup_long_stalls", 0
        )
        stall_cycles = window.stall_cycles - getattr(
            self, "_warmup_stall_cycles", 0.0
        )
        if self.delta is not None:
            delta_summary = self.delta.summary()
        else:
            delta_summary = DeltaSummary(0, 0.0, 0.0, 0.0, 0.0)
        result = SimResult(
            policy_name=self._policy_label,
            instructions=instructions,
            cycles=cycles,
            l2_accesses=self.l2.accesses
            - getattr(self, "_warmup_l2_accesses", 0),
            l2_misses=self.l2.misses - getattr(self, "_warmup_l2_misses", 0),
            demand_misses=self.demand_misses,
            compulsory_misses=self.compulsory_misses,
            stall_events=stall_events,
            stall_cycles=stall_cycles,
            long_stalls=long_stalls,
            cost_distribution=self.cost_distribution,
            delta_summary=delta_summary,
            phases=self.phases,
            l1d_accesses=self.l1d.accesses
            - getattr(self, "_warmup_l1d_accesses", 0),
            l1d_misses=self.l1d.misses
            - getattr(self, "_warmup_l1d_misses", 0),
            mshr_merges=self.mshr.merges
            - getattr(self, "_warmup_mshr_merges", 0),
            mshr_full_stalls=self.mshr.full_stalls
            - getattr(self, "_warmup_mshr_full_stalls", 0),
            bank_conflicts=self.memory.banks.conflicts
            - getattr(self, "_warmup_bank_conflicts", 0),
            bus_contended=self.memory.bus.contended
            - getattr(self, "_warmup_bus_contended", 0),
            writebacks=self.l2.writebacks
            - getattr(self, "_warmup_writebacks", 0),
            psel_final=psel_final,
        )
        # Provenance only: which rung actually ran.  Stored on the
        # instance (never a dataclass field), so digests, store keys,
        # and serialized payloads are untouched — see SimResult.meta.
        result.meta = {"kernel_used": self.replay_kernel}
        if self.kernel_fallback is not None:
            result.meta["kernel_fallback"] = self.kernel_fallback
        if self._obs is not None:
            result.metrics = self._obs.finalize_run(self, result)
        return result
