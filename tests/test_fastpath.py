"""Tests pinning down the optimized simulation kernel.

The PR 3 speedup rests on three load-bearing invariants:

* ``CacheSet._index[state.block] is state`` for exactly the entries in
  ``ways`` (the dict-backed residency index);
* the ``try_hit``/``hit_fast``/``miss_fill`` fast-path protocol applies
  byte-for-byte the same side effects as the generic ``access``;
* the fused replay loop in ``Simulator._replay_fused`` produces
  bit-identical :class:`SimResult` payloads to the generic loop.
"""

import random
from unittest import mock

import pytest

from repro import obs
from repro.cache.block import BlockState
from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.lin import LINPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.sets import CacheSet
from repro.config import CacheGeometry
from repro.sim.simulator import Simulator
from repro.trace.packed import pack_trace
from repro.trace.record import Access
from repro.workloads import build_trace, experiment_config


class TestCacheSetIndex:
    def test_randomized_ops_keep_index_coherent(self):
        rng = random.Random(20060617)
        cache_set = CacheSet(8)
        reference = []  # mirror of ways maintained with plain list ops
        next_block = 0
        for _ in range(5000):
            op = rng.randrange(6)
            if op == 0 and len(reference) < 8:
                state = BlockState(next_block, next_block)
                next_block += 1
                cache_set.insert_mru(state)
                reference.insert(0, state)
            elif op == 1 and len(reference) < 8:
                state = BlockState(next_block, next_block)
                next_block += 1
                cache_set.insert_lru(state)
                reference.append(state)
            elif op == 2 and len(reference) < 8:
                state = BlockState(next_block, next_block)
                next_block += 1
                position = rng.randrange(len(reference) + 1)
                cache_set.insert_at(position, state)
                if position >= len(reference):
                    reference.append(state)
                else:
                    reference.insert(position, state)
            elif op == 3 and reference:
                position = rng.randrange(len(reference))
                assert cache_set.evict(position) is reference.pop(position)
            elif op == 4 and reference:
                position = rng.randrange(len(reference))
                state = cache_set.touch(position)
                assert state is reference.pop(position)
                reference.insert(0, state)
            elif op == 5:
                probe = rng.randrange(next_block + 1)
                expected = next(
                    (i for i, s in enumerate(reference) if s.block == probe),
                    -1,
                )
                assert cache_set.find(probe) == expected
                resident = cache_set.get(probe)
                if expected == -1:
                    assert resident is None
                else:
                    assert resident is reference[expected]
            assert cache_set.ways == reference
            assert cache_set.index_coherent()

    def test_cache_access_stream_keeps_every_set_coherent(self):
        rng = random.Random(7)
        cache = SetAssociativeCache(CacheGeometry(4096, 64, 4, 2), LRUPolicy())
        resident = set()
        for _ in range(3000):
            block = rng.randrange(200)
            if rng.random() < 0.1:
                assert cache.invalidate(block) == (block in resident)
                resident.discard(block)
            else:
                result = cache.access(block, is_write=rng.random() < 0.3)
                assert result.hit == (block in resident)
                resident.add(block)
                if result.victim_block is not None:
                    resident.discard(result.victim_block)
            assert cache.contains(block) == (block in resident)
        for set_index in range(cache.n_sets):
            assert cache.set_state(set_index).index_coherent()
        assert cache.resident_blocks() == resident


class TestFastPathProtocol:
    def _twin_caches(self):
        geometry = CacheGeometry(2048, 64, 4, 2)
        return (
            SetAssociativeCache(geometry, LRUPolicy()),
            SetAssociativeCache(geometry, LRUPolicy()),
        )

    def test_fast_path_matches_generic_access(self):
        fast, generic = self._twin_caches()
        assert fast.is_plain()
        rng = random.Random(42)
        for _ in range(4000):
            block = rng.randrange(96)
            is_write = rng.random() < 0.25
            expected = generic.access(block, is_write)
            if not fast.hit_fast(block, is_write):
                state, victim, compulsory = fast.miss_fill(block, is_write)
                assert not expected.hit
                assert state.block == expected.state.block
                victim_block = victim.block if victim is not None else None
                assert victim_block == expected.victim_block
                assert compulsory == expected.compulsory
            else:
                assert expected.hit
        for field in ("accesses", "hits", "misses", "compulsory_misses",
                      "writebacks"):
            assert getattr(fast, field) == getattr(generic, field), field
        assert fast.resident_blocks() == generic.resident_blocks()
        for set_index in range(fast.n_sets):
            assert (fast.set_state(set_index).snapshot()
                    == generic.set_state(set_index).snapshot())

    def test_try_hit_declines_when_not_plain(self):
        cache, _ = self._twin_caches()
        cache.access(0)
        assert cache.try_hit(0)
        cache.policy_selector = lambda set_index: cache.policy
        assert not cache.is_plain()
        assert not cache.try_hit(0)  # declined, not a miss

    def test_instance_access_patch_disables_fast_path(self):
        cache, _ = self._twin_caches()
        assert cache.is_plain()
        # attach_classifier-style instrumentation rebinds the bound
        # method on the instance; the fast path must stand down.
        cache.access = SetAssociativeCache.access.__get__(cache)
        assert not cache.is_plain()


class TestVictimIsLruTailFlag:
    def test_flag_values(self):
        assert LRUPolicy.victim_is_lru_tail is True
        assert LINPolicy.victim_is_lru_tail is False
        assert ReplacementPolicy.victim_is_lru_tail is False

    def test_subclass_inherits_until_choose_victim_changes(self):
        class RenamedLRU(LRUPolicy):
            name = "renamed-lru"

        assert RenamedLRU.victim_is_lru_tail is True

        class NotTailLRU(LRUPolicy):
            name = "not-tail-lru"

            def choose_victim(self, cache_set):
                return 0

        # Overriding choose_victim without redeclaring the flag must
        # reset it: the fused loop would otherwise evict the wrong way.
        assert NotTailLRU.victim_is_lru_tail is False


class TestFusedReplayDifferential:
    def test_fused_matches_generic_loop(self):
        trace = build_trace("mcf", scale=0.05)
        for policy in ("lru", "lin(4)", "sbar", "dip"):
            # kernel="fused" pins the ladder rung: under "auto" a
            # packed trace would take the batched kernel and the spy
            # below would never fire.
            fused_sim = Simulator(experiment_config(), policy,
                                  kernel="fused")
            with mock.patch.object(
                Simulator, "_replay_fused", wraps=fused_sim._replay_fused
            ) as fused_spy:
                fused = fused_sim.run(trace)
            assert fused_spy.called, policy  # really took the fused loop
            assert fused_sim.fused_replay, policy
            generic_sim = Simulator(experiment_config(), policy)
            # An instance-level ``access`` binding makes the L2 fail
            # ``is_plain`` and forces _replay down the generic loop
            # while changing no behavior.
            generic_sim.l2.access = SetAssociativeCache.access.__get__(
                generic_sim.l2
            )
            generic = generic_sim.run(trace)
            assert not generic_sim.fused_replay, policy
            assert fused.to_dict() == generic.to_dict(), policy


class TestBatchedReplayDifferential:
    """The PR 8 batched kernel: three-way kernel equivalence.

    ``_replay_batched`` must produce bit-identical :class:`SimResult`
    payloads to the fused loop and the generic loop for every policy
    family it admits, and the kernel ladder must degrade exactly one
    rung at a time: a requested kernel is a *ceiling*, never a demand.
    """

    POLICIES = ("lru", "lin(4)", "sbar", "cbs-global", "ehc", "awrp")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_batched_matches_fused_and_generic(self, policy):
        trace = pack_trace(build_trace("mcf", scale=0.05))
        # kernel="batched" pins the rung: under "auto" a host with the
        # compiled extension would take the native kernel instead.
        batched_sim = Simulator(experiment_config(), policy,
                                kernel="batched")
        with mock.patch.object(
            Simulator, "_replay_batched",
            wraps=batched_sim._replay_batched,
        ) as batched_spy:
            batched = batched_sim.run(trace)
        assert batched_spy.called, policy  # really took the batched kernel
        assert batched_sim.batched_replay, policy
        assert batched_sim.replay_kernel == "batched", policy

        fused_sim = Simulator(experiment_config(), policy, kernel="fused")
        fused = fused_sim.run(trace)
        assert fused_sim.replay_kernel == "fused", policy
        assert not fused_sim.batched_replay, policy

        generic_sim = Simulator(experiment_config(), policy,
                                kernel="generic")
        generic = generic_sim.run(trace)
        assert generic_sim.replay_kernel == "generic", policy
        assert not generic_sim.fused_replay, policy

        assert batched.to_dict() == fused.to_dict(), policy
        assert batched.to_dict() == generic.to_dict(), policy
        if batched_sim.controller is not None:
            assert (controller_fingerprint(batched_sim.controller)
                    == controller_fingerprint(fused_sim.controller)), policy
            assert (controller_fingerprint(batched_sim.controller)
                    == controller_fingerprint(generic_sim.controller)), \
                policy

    def test_list_trace_falls_back_to_fused(self):
        # The batched kernel needs the numpy column views of a
        # PackedTrace; a list trace drops one rung even when batched
        # is requested explicitly.
        sim = Simulator(experiment_config(), "lru", kernel="batched")
        sim.run(build_trace("mcf", scale=0.05))
        assert sim.fused_replay
        assert not sim.batched_replay
        assert sim.replay_kernel == "fused"

    def test_wrong_path_records_fall_back_to_fused(self):
        trace = build_trace("mcf", scale=0.05)
        trace[3] = Access(trace[3].address, trace[3].kind, trace[3].gap,
                          wrong_path=True)
        sim = Simulator(experiment_config(), "lru", kernel="batched")
        sim.run(pack_trace(trace))
        assert sim.fused_replay
        assert not sim.batched_replay

    def test_observer_forces_generic_loop_same_results(self):
        trace = pack_trace(build_trace("mcf", scale=0.05))
        observed_sim = Simulator(
            experiment_config(), "lru", kernel="batched",
            observer=obs.Observer(events=obs.MemoryEventTrace()),
        )
        observed = observed_sim.run(trace)
        assert not observed_sim.fused_replay
        assert not observed_sim.batched_replay
        assert observed_sim.replay_kernel == "generic"
        batched_sim = Simulator(experiment_config(), "lru",
                                kernel="batched")
        batched = batched_sim.run(trace)
        assert batched_sim.batched_replay
        assert observed.to_dict() == batched.to_dict()

    def test_warmup_falls_back_to_fused(self):
        trace = pack_trace(build_trace("mcf", scale=0.05))
        warm_sim = Simulator(experiment_config(), "lru", kernel="batched",
                             warmup_instructions=1000)
        warm = warm_sim.run(trace)
        assert warm_sim.fused_replay
        assert not warm_sim.batched_replay
        plain_sim = Simulator(experiment_config(), "lru", kernel="fused",
                              warmup_instructions=1000)
        plain = plain_sim.run(trace)
        assert warm.to_dict() == plain.to_dict()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            Simulator(experiment_config(), "lru", kernel="vectorized")

    def test_kernel_never_changes_results_across_ladder(self):
        # One policy, every requested kernel: identical SimResult —
        # the contract that keeps `kernel` out of memo/store keys.
        trace = pack_trace(build_trace("art", scale=0.05))
        results = {}
        for kernel in ("auto", "native", "batched", "fused", "generic"):
            sim = Simulator(experiment_config(), "sbar", kernel=kernel)
            results[kernel] = sim.run(trace).to_dict()
        assert all(r == results["auto"] for r in results.values())


def controller_fingerprint(controller):
    """Every externally visible dueling-controller counter.

    The fused fast paths must leave SBAR/CBS/DIP/tournament in *exactly*
    the state the method-call path leaves them in — not just produce
    equal SimResults — or a later epoch/report would diverge.
    """
    fingerprint = {"deferred_updates": controller.deferred_updates}
    for name in ("atd_lru", "atd_lin"):
        atd = getattr(controller, name, None)
        if atd is not None:
            fingerprint[name] = (
                atd.accesses, atd.hits, atd.misses, atd._seq,
                {index: atd.set_state(index).snapshot()
                 for index in sorted(atd._sets)},
            )
    psels = getattr(controller, "_psels", None)
    if psels is None:
        psels = [controller.psel] if hasattr(controller, "psel") else []
    fingerprint["psels"] = [
        (psel.value, psel.increments, psel.decrements) for psel in psels
    ]
    for name in ("follower_lin_accesses", "follower_lru_accesses"):
        if hasattr(controller, name):
            fingerprint[name] = getattr(controller, name)
    if hasattr(controller, "_scores"):
        # Tournament: decayed scores and access counts, compared as
        # exact floats.
        fingerprint["scores"] = list(controller._scores)
        fingerprint["accesses"] = list(controller._accesses)
    candidates = getattr(controller, "policies", None) or [
        getattr(controller, "bip", None)
    ]
    fingerprint["bip_fills"] = [
        getattr(policy, "_fills", None) for policy in candidates
    ]
    return fingerprint


def policy_fingerprint(cache):
    """The L2 policy's own end state: fill counters and PLRU tree bits
    by set index (trees are keyed by CacheSet identity)."""
    policy = cache.policy
    fingerprint = {"fills": getattr(policy, "_fills", None)}
    trees = getattr(policy, "_trees", None)
    if trees is not None:
        fingerprint["trees"] = {
            index: list(trees[id(cache_set)].bits)
            for index, cache_set in enumerate(cache._sets)
            if id(cache_set) in trees
        }
        fingerprint["pending_slot"] = dict(policy._pending_slot)
    return fingerprint


class TestDuelingFastPathDifferential:
    """The PR 4 dueling fast paths: SBAR/CBS inlined into the fused loop.

    Matrix required by the issue: {sbar, cbs-local, cbs-global} ×
    {packed trace, Access list} × {observer off, observer on}, always
    compared against the generic per-call loop — results *and*
    controller state bit-identical.
    """

    DUELING = ("sbar", "cbs-local", "cbs-global")

    @staticmethod
    def _generic_run(policy, trace):
        sim = Simulator(experiment_config(), policy)
        sim.l2.access = SetAssociativeCache.access.__get__(sim.l2)
        result = sim.run(trace)
        assert not sim.fused_replay
        return sim, result

    @pytest.mark.parametrize("policy", DUELING)
    def test_fast_path_matches_generic(self, policy):
        trace = build_trace("mcf", scale=0.05)
        fused_sim = Simulator(experiment_config(), policy)
        fused = fused_sim.run(pack_trace(trace))
        assert fused_sim.fused_replay, policy
        generic_sim, generic = self._generic_run(policy, trace)
        assert fused.to_dict() == generic.to_dict(), policy
        assert (controller_fingerprint(fused_sim.controller)
                == controller_fingerprint(generic_sim.controller)), policy

    @pytest.mark.parametrize("policy", DUELING)
    def test_list_and_packed_traces_agree(self, policy):
        trace = build_trace("art", scale=0.05)
        on_list = Simulator(experiment_config(), policy).run(trace)
        on_packed = Simulator(experiment_config(), policy).run(
            pack_trace(trace)
        )
        assert on_list.to_dict() == on_packed.to_dict(), policy

    @pytest.mark.parametrize("policy", DUELING)
    def test_observer_forces_generic_loop_same_results(self, policy):
        trace = build_trace("mcf", scale=0.05)
        observed_sim = Simulator(
            experiment_config(), policy,
            observer=obs.Observer(events=obs.MemoryEventTrace()),
        )
        observed = observed_sim.run(pack_trace(trace))
        # An observer must disable the fused loop entirely...
        assert not observed_sim.fused_replay, policy
        plain_sim = Simulator(experiment_config(), policy)
        plain = plain_sim.run(trace)
        assert plain_sim.fused_replay, policy
        # ...without changing a single simulated number.
        assert observed.to_dict() == plain.to_dict(), policy
        assert (controller_fingerprint(observed_sim.controller)
                == controller_fingerprint(plain_sim.controller)), policy

    def test_patched_controller_declines_fast_path_but_matches(self):
        trace = build_trace("mcf", scale=0.05)
        patched_sim = Simulator(experiment_config(), "sbar")
        controller = patched_sim.controller
        # attach-style instrumentation rebinds the bound method on the
        # instance; the dueling fast path must stand down to the
        # per-call controller path (the loop itself stays fused).
        controller.observe_access = type(controller).observe_access.__get__(
            controller
        )
        patched = patched_sim.run(pack_trace(trace))
        assert patched_sim.fused_replay
        plain_sim = Simulator(experiment_config(), "sbar")
        plain = plain_sim.run(trace)
        assert patched.to_dict() == plain.to_dict()
        assert (controller_fingerprint(patched_sim.controller)
                == controller_fingerprint(plain_sim.controller))
