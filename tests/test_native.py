"""Tests pinning down the compiled native replay kernel.

The ``native`` rung is a hand-written C extension running the fused
loop body over the packed-trace columns.  ``tests/conftest.py`` builds
it for the session when a compiler is present, so these tests exercise
the C code rather than comparing batched with itself.  Three contracts
matter:

* **bit-exactness** — for every built-in policy the native kernel
  produces :class:`SimResult` payloads *and* policy/dueling-controller
  end states identical to the batched, fused, and generic kernels;
* **graceful degradation** — a host without the extension (no compiler
  at install time) or a policy the kernel does not implement resolves
  a ``native`` request to ``batched`` with identical results and a
  ``meta["kernel_fallback"]`` naming the failed gate, never an error;
* **cache neutrality** — the kernel never enters memo or store keys, a
  result computed under one kernel satisfies a request under any
  other, and ``SimResult.meta["kernel_used"]`` (which records the
  producing rung) never leaks into digests or persisted payloads.
"""

from __future__ import annotations

import pytest

from repro.cache.replacement import LRUPolicy
from repro.cache.replacement.registry import (
    _REGISTRY,
    available_policies,
    register_policy,
)
from repro.sim import RunOptions, native
from repro.sim.runner import cache_stats, clear_cache, run_policy
from repro.sim.simulator import Simulator
from repro.workloads import build_workload, experiment_config

from tests.test_fastpath import controller_fingerprint, policy_fingerprint

#: Whether the C extension loads in this session (built in place, or
#: by tests/conftest.py on any host with a compiler).  The differential
#: battery still runs without it (a native request resolves one rung
#: down), so the full suite passes on compiler-less hosts.
HAVE_NATIVE = native.load_extension() is not None
NO_NATIVE_REASON = "extension not built (see the session header for why)"

#: The rung a ``native`` request actually resolves to on this host.
NATIVE_RUNG = "native" if HAVE_NATIVE else "batched"

#: Every built-in policy: the kernel implements the whole roster
#: (``lin`` spelled at its paper default, as the rest of the suite does).
POLICIES = tuple(
    "lin(4)" if name == "lin" else name for name in available_policies()
)

#: Two default surrogates, two seeded ones and a composition.
WORKLOADS = (
    "mcf", "art", "twolf(seed=7)", "equake(seed=3)", "interleave(mcf,art)",
)


def _state(sim):
    """The policy and controller end state a kernel leaves behind."""
    state = {"policy": policy_fingerprint(sim.l2)}
    if sim.controller is not None:
        state["controller"] = controller_fingerprint(sim.controller)
    return state


class TestNativeDifferential:
    """Four-way kernel equivalence for every built-in policy."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_native_matches_batched_fused_generic(self, workload, policy):
        trace = build_workload(workload, scale=0.05)
        runs = {}
        states = {}
        for kernel in ("native", "batched", "fused", "generic"):
            sim = Simulator(experiment_config(), policy, kernel=kernel)
            runs[kernel] = sim.run(trace).to_dict()
            states[kernel] = _state(sim)
            expected = NATIVE_RUNG if kernel == "native" else kernel
            assert sim.replay_kernel == expected, (policy, kernel)
        for kernel in ("batched", "fused", "generic"):
            assert runs["native"] == runs[kernel], (policy, kernel)
            assert states["native"] == states[kernel], (policy, kernel)

    @pytest.mark.skipif(not HAVE_NATIVE, reason=NO_NATIVE_REASON)
    def test_native_really_runs(self):
        # Guard against the battery silently degenerating into
        # batched-vs-batched: on a host with the extension, auto and
        # native requests must actually resolve to the C kernel.
        for kernel in ("auto", "native"):
            sim = Simulator(experiment_config(), "sbar", kernel=kernel)
            sim.run(build_workload("mcf", scale=0.05))
            assert sim.replay_kernel == "native", kernel
            assert sim.native_replay, kernel
            assert not sim.batched_replay, kernel

    @pytest.mark.skipif(not HAVE_NATIVE, reason=NO_NATIVE_REASON)
    def test_whole_roster_resolves_native(self):
        # No built-in policy may downgrade silently: on a plain packed
        # trace every one runs the C kernel with no fallback recorded.
        assert len(POLICIES) == 13
        trace = build_workload("mcf", scale=0.02)
        for policy in POLICIES:
            result = Simulator(experiment_config(), policy).run(trace)
            assert result.meta == {"kernel_used": "native"}, policy

    @pytest.mark.skipif(not HAVE_NATIVE, reason=NO_NATIVE_REASON)
    def test_adaptive_state_moves(self):
        # The end-state comparison above is only as strong as the state
        # it sees: DIP's PSEL and the tournament's scores must move.
        trace = build_workload("mcf", scale=0.05)
        dip = Simulator(experiment_config(), "dip")
        dip.run(trace)
        assert dip.controller.psel.increments > 0
        assert dip.controller.psel.decrements > 0
        assert dip.controller.bip._fills > 0
        tournament = Simulator(experiment_config(), "tournament")
        tournament.run(trace)
        assert tournament.controller.deferred_updates > 0
        assert all(score > 0 for score in tournament.controller._scores)
        plru = Simulator(experiment_config(), "cost-plru")
        plru.run(trace)
        assert policy_fingerprint(plru.l2)["trees"]


class TestLadderDegradation:
    def test_missing_extension_falls_back_to_batched(self, monkeypatch):
        trace = build_workload("mcf", scale=0.05)
        reference = Simulator(
            experiment_config(), "sbar", kernel="native"
        ).run(trace)
        # Simulate a host whose optional build_ext found no compiler:
        # the import fails, load_extension caches None, and a native
        # request must resolve to batched with identical results.
        monkeypatch.setattr(native, "_extension", None)
        sim = Simulator(experiment_config(), "sbar", kernel="native")
        degraded = sim.run(trace)
        assert sim.replay_kernel == "batched"
        assert sim.batched_replay
        assert not sim.native_replay
        assert degraded.to_dict() == reference.to_dict()

    def test_unsupported_policy_falls_back(self, monkeypatch):
        # A user-registered policy subclass is not a shape the C kernel
        # implements; the request is a ceiling, so the run degrades
        # (batched admits it) rather than erroring, names the gate that
        # failed, and matches the generic loop.
        monkeypatch.setitem(_REGISTRY, "mid-insert", None)

        @register_policy("mid-insert", overwrite=True)
        class MidInsertPolicy(LRUPolicy):
            def on_fill(self, cache_set, state):
                cache_set.insert_at(len(cache_set.ways) // 2, state)

        trace = build_workload("mcf", scale=0.05)
        sim = Simulator(experiment_config(), "mid-insert", kernel="native")
        result = sim.run(trace)
        assert sim.replay_kernel == "batched"
        expected = (
            "native: policy MidInsertPolicy not supported" if HAVE_NATIVE
            else "native: extension not built"
        )
        assert result.meta == {
            "kernel_used": "batched", "kernel_fallback": expected,
        }
        generic = Simulator(
            experiment_config(), "mid-insert", kernel="generic"
        ).run(trace)
        assert result.to_dict() == generic.to_dict()
        assert generic.meta == {"kernel_used": "generic"}

    def test_list_trace_never_native(self):
        # The native kernel consumes packed columns; an Access list
        # drops below batched too, landing on fused.
        sim = Simulator(experiment_config(), "lru", kernel="native")
        result = sim.run(build_workload("mcf", scale=0.05).to_accesses())
        assert sim.replay_kernel == "fused"
        assert not sim.native_replay
        assert result.meta == {
            "kernel_used": "fused", "kernel_fallback": "batched: list trace",
        }

    def test_fallback_names_first_failed_gate(self):
        from repro import obs

        trace = build_workload("mcf", scale=0.05)
        observed = Simulator(
            experiment_config(), "lru", kernel="native",
            observer=obs.Observer(events=obs.MemoryEventTrace()),
        ).run(trace)
        assert observed.meta == {
            "kernel_used": "generic",
            "kernel_fallback": "fused: observer installed",
        }
        warm = Simulator(
            experiment_config(), "dip", kernel="batched",
            warmup_instructions=1000,
        ).run(trace)
        assert warm.meta == {
            "kernel_used": "fused", "kernel_fallback": "batched: warm-up",
        }
        # A request at or below the rung that ran records nothing.
        fused = Simulator(experiment_config(), "dip", kernel="fused")
        assert fused.run(trace).meta == {"kernel_used": "fused"}


class TestKernelUsedMeta:
    def test_meta_records_resolved_rung(self):
        trace = build_workload("art", scale=0.05)
        for kernel in ("native", "batched", "fused", "generic"):
            sim = Simulator(experiment_config(), "lru", kernel=kernel)
            result = sim.run(trace)
            expected = NATIVE_RUNG if kernel == "native" else kernel
            meta = {"kernel_used": expected}
            if expected != kernel:
                # Only a compiler-less host skips a rung here.
                meta["kernel_fallback"] = "native: extension not built"
            assert result.meta == meta, kernel

    def test_meta_excluded_from_digest_and_dict(self):
        trace = build_workload("art", scale=0.05)
        native_run = Simulator(
            experiment_config(), "lru", kernel="native"
        ).run(trace)
        generic_run = Simulator(
            experiment_config(), "lru", kernel="generic"
        ).run(trace)
        assert native_run.meta != generic_run.meta or not HAVE_NATIVE
        assert "meta" not in native_run.to_dict()
        assert "kernel_used" not in native_run.to_dict()
        assert native_run.to_dict() == generic_run.to_dict()
        from repro.sim.store import result_digest

        assert (result_digest(native_run.to_dict())
                == result_digest(generic_run.to_dict()))


class TestKernelNeverKeysCaches:
    def test_memo_shared_across_kernels(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_STORE", "1")
        clear_cache()
        first = run_policy(
            "mcf", "lru", scale=0.05,
            options=RunOptions(kernel="generic"),
        )
        assert first.meta == {"kernel_used": "generic"}
        before = cache_stats()["memo_hits"]
        second = run_policy(
            "mcf", "lru", scale=0.05,
            options=RunOptions(kernel="native"),
        )
        # One memo entry serves both requests: the native request is a
        # hit on the generic run's result, object-identically.
        assert second is first
        assert cache_stats()["memo_hits"] == before + 1
        clear_cache()

    def test_store_shared_across_kernels(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_STORE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        first = run_policy(
            "mcf", "lru", scale=0.05,
            options=RunOptions(kernel="generic"),
        )
        # Drop the in-process memo so the second request must go to
        # the persistent store; a kernel-keyed store would miss here.
        clear_cache()
        from repro.sim.store import default_store

        before = default_store().counters()["store_hits"]
        second = run_policy(
            "mcf", "lru", scale=0.05,
            options=RunOptions(kernel="native"),
        )
        assert default_store().counters()["store_hits"] == before + 1
        assert second.to_dict() == first.to_dict()
        # Provenance never persists: a store-loaded result carries no
        # meta, proving kernel_used stays out of the payload on disk.
        assert second.meta is None
        clear_cache()
