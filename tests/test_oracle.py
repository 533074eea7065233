"""The oracle referee: property, differential, and regression battery.

Three layers, per the oracle's contract:

* **Property tests** (seeded-random always; hypothesis-generated when
  available): no registered policy may ever report fewer demand misses
  than the per-set OPT bound, or fewer stall cycles than the
  cost-weighted-OPT floor, on the same trace and machine config.  Run
  over random small traces and the committed ChampSim fixture.
* **Differential tests**: ``ehc(1)`` (predict "last interval repeats")
  must make Belady's per-set decisions on strictly periodic streams,
  where the prediction is exact.
* **Regression tests** for the ``collapse_consecutive`` /
  ``next_use_distances`` edge cases the oracle leans on — previously
  only exercised indirectly through the Figure 1 analysis.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.analysis.oracle import (
    annotate_result,
    oracle_report,
    oracle_store_key,
)
from repro.cache.replacement.belady import (
    NEVER,
    BeladyPolicy,
    collapse_consecutive,
    next_use_distances,
)
from repro.config import (
    CacheGeometry,
    MachineConfig,
    MemoryConfig,
    MSHRConfig,
    ProcessorConfig,
)
from repro.sim.simulator import Simulator
from repro.trace.packed import PackedTrace
from repro.trace.record import IFETCH, LOAD, STORE, Access

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in CI
    HAVE_HYPOTHESIS = False

FIXTURE = Path(__file__).parent / "fixtures" / "mix4k.champsim.gz"

#: Registered fixed policies the property battery referees.
PROPERTY_POLICIES = ("lru", "lin(4)", "plru", "lip", "ehc", "awrp")


def random_trace(seed: int, n_accesses: int = 1200, n_blocks: int = 40):
    """Seeded stream with hot blocks, stores, ifetches, and gaps."""
    rng = random.Random(seed)
    hot = [rng.randrange(n_blocks) for _ in range(6)]
    trace = []
    for _ in range(n_accesses):
        block = (
            rng.choice(hot) if rng.random() < 0.3
            else rng.randrange(n_blocks)
        )
        roll = rng.random()
        kind = STORE if roll < 0.1 else (IFETCH if roll < 0.2 else LOAD)
        trace.append(Access(64 * block, kind, gap=rng.randrange(8)))
    return trace


def assert_bounded(result, report, label=""):
    """The two floor properties, plus regret-field consistency."""
    annotated = annotate_result(result, report)
    assert annotated.miss_regret >= 0, (
        "%s: policy reported %d misses, below the OPT bound %d"
        % (label, result.demand_misses, report.opt_misses)
    )
    assert annotated.stall_regret >= 0, (
        "%s: policy reported %.0f stall cycles, below the floor %.0f"
        % (label, result.stall_cycles, report.cost_opt_stall_cycles)
    )
    assert annotated.oracle_misses == report.opt_misses
    assert annotated.oracle_stall_cycles == report.cost_opt_stall_cycles
    # Annotation must never mutate the cached original.
    assert result.miss_regret is None
    assert result.oracle_misses is None


class TestNextUseEdgeCases:
    """Regression coverage for the oracle's building blocks."""

    def test_empty_trace(self):
        assert collapse_consecutive([]) == []
        assert next_use_distances([]) == []

    def test_single_block(self):
        assert collapse_consecutive([5, 5, 5]) == [5]
        assert next_use_distances([5]) == [NEVER]

    def test_all_distinct_blocks_never_reuse(self):
        blocks = [3, 1, 4, 1, 5]
        assert collapse_consecutive(blocks) == blocks
        assert next_use_distances([3, 1, 4, 5]) == [NEVER] * 4

    def test_never_sentinel_at_trace_tail(self):
        # Every block's final occurrence carries the sentinel, and the
        # sentinel is the collation maximum (farther than any index).
        blocks = [1, 2, 1, 2]
        distances = next_use_distances(blocks)
        assert distances == [2, 3, NEVER, NEVER]
        assert all(d == NEVER or d > i for i, d in enumerate(distances))
        assert NEVER > len(blocks)

    def test_collapse_only_drops_adjacent_repeats(self):
        assert collapse_consecutive([7, 7, 2, 7, 7, 7, 2]) == [7, 2, 7, 2]

    def test_oracle_handles_empty_trace(self, small_machine):
        report = oracle_report(
            PackedTrace.from_accesses([]), small_machine, use_store=False
        )
        assert report.opt_misses == 0
        assert report.cost_opt_stall_cycles == 0.0
        assert report.l2_accesses == 0


class TestOracleBoundsRandomTraces:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_no_policy_beats_the_oracle(self, small_machine, seed):
        trace = random_trace(seed)
        report = oracle_report(
            PackedTrace.from_accesses(list(trace)),
            small_machine,
            use_store=False,
        )
        for spec in PROPERTY_POLICIES:
            result = Simulator(small_machine, spec).run(list(trace))
            assert_bounded(result, report, "seed %d %s" % (seed, spec))

    def test_oracle_miss_bound_is_attainable_shape(self, small_machine):
        # The bound counts demand misses over the same L1-filtered
        # stream the machine sees: it can never exceed the stream's
        # demand length and never undercut its compulsory misses.
        trace = random_trace(99)
        report = oracle_report(
            PackedTrace.from_accesses(list(trace)),
            small_machine,
            use_store=False,
        )
        assert (
            report.compulsory_misses
            <= report.opt_misses
            <= report.l2_demand_accesses
        )
        assert report.cost_opt_misses >= report.compulsory_misses

    def test_report_round_trips_and_is_deterministic(self, small_machine):
        from repro.analysis.oracle import OracleReport

        trace = PackedTrace.from_accesses(list(random_trace(7)))
        first = oracle_report(trace, small_machine, use_store=False)
        second = oracle_report(trace, small_machine, use_store=False)
        assert first == second
        assert OracleReport.from_dict(first.to_dict()) == first


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestOracleBoundsGenerated:
    @settings(max_examples=20, deadline=None)
    @given(
        accesses=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=31),
                st.sampled_from([LOAD, STORE, IFETCH]),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=250,
        )
    )
    def test_lru_and_ehc_never_beat_the_bounds(self, accesses):
        config = MachineConfig(
            processor=ProcessorConfig(),
            l1i=CacheGeometry(64, 64, 1, 1),
            l1d=CacheGeometry(64, 64, 1, 1),
            l2=CacheGeometry(4 * 4 * 64, 64, 4, 15),
            mshr=MSHRConfig(n_entries=32),
            memory=MemoryConfig(),
        )
        trace = [
            Access(64 * block, kind, gap=gap)
            for block, kind, gap in accesses
        ]
        report = oracle_report(
            PackedTrace.from_accesses(list(trace)), config, use_store=False
        )
        for spec in ("lru", "ehc"):
            result = Simulator(config, spec).run(list(trace))
            assert result.demand_misses >= report.opt_misses
            assert result.stall_cycles >= report.cost_opt_stall_cycles


class TestOracleBoundsChampsimFixture:
    @pytest.fixture(scope="class")
    def fixture_setup(self):
        from repro.workloads import build_workload, experiment_config

        trace = build_workload("champsim:%s" % FIXTURE, scale=1.0)
        config = experiment_config()
        report = oracle_report(trace, config, use_store=False)
        return trace, config, report

    @pytest.mark.parametrize(
        "spec", ["lru", "lin(4)", "sbar", "ehc", "awrp"]
    )
    def test_fixture_policies_respect_bounds(self, fixture_setup, spec):
        trace, config, report = fixture_setup
        result = Simulator(config, spec).run(trace)
        assert_bounded(result, report, "mix4k %s" % spec)


class TestEhcHorizonOneIsBelady:
    """``ehc(1)`` degenerates to Belady where its prediction is exact.

    On a strictly periodic stream in which every block recurs with a
    constant interval ([A,B,A,C] per set, so A has period 2 and B/C
    period 4 in L2-visible accesses), "last interval repeats" *is* the
    oracle, and first-touch blocks (predicted never-reused) coincide
    with Belady's farthest-next-use choice; the victim streams must be
    identical from the first eviction on.
    """

    @staticmethod
    def _config() -> MachineConfig:
        # One-block L1s pass the (repeat-free) stream through; 4-set
        # 2-way L2 so a 3-block per-set working set forces evictions.
        return MachineConfig(
            processor=ProcessorConfig(),
            l1i=CacheGeometry(64, 64, 1, 1),
            l1d=CacheGeometry(64, 64, 1, 1),
            l2=CacheGeometry(4 * 2 * 64, 64, 2, 15),
            mshr=MSHRConfig(n_entries=32),
            memory=MemoryConfig(),
        )

    @staticmethod
    def _periodic_trace(reps: int = 60):
        # Per set s: blocks s, s+4, s, s+8 — the unit repeats `reps`
        # times, interleaved across sets so no block repeats
        # back-to-back globally.
        trace = []
        for _ in range(reps):
            for offset in (0, 4, 0, 8):
                for set_index in range(4):
                    trace.append(
                        Access(64 * (set_index + offset), LOAD, gap=0)
                    )
        return trace

    def test_victim_streams_identical(self):
        from tests.test_differential import victim_stream

        config = self._config()
        trace = self._periodic_trace()
        blocks = [access.address >> 6 for access in trace]
        # Belady over the periodic *extension* (doubled stream, first
        # half's distances): ehc(1) models an endless periodic stream,
        # so the oracle must not "know" the trace stops — with the raw
        # distances the two legitimately diverge in the final period,
        # where true OPT evicts the blocks whose next use is NEVER.
        next_use = next_use_distances(blocks * 2)[: len(blocks)]
        belady = BeladyPolicy(next_use, expected_blocks=blocks)
        ehc_events, ehc_result = victim_stream("ehc(1)", config, trace)
        opt_events, opt_result = victim_stream(belady, config, trace)
        assert ehc_events, "periodic trace produced no L2 evictions"
        assert ehc_events == opt_events
        assert ehc_result.demand_misses == opt_result.demand_misses
        assert ehc_result.cycles == opt_result.cycles

    def test_ehc_diverges_from_lru_somewhere(self, small_machine):
        """Sanity: the equivalence above has teeth."""
        from tests.test_differential import victim_stream

        for seed in range(5):
            trace = random_trace(seed)
            ehc_events, _ = victim_stream("ehc(1)", small_machine, trace)
            lru_events, _ = victim_stream("lru", small_machine, trace)
            if ehc_events != lru_events:
                return
        pytest.fail("ehc(1) never diverged from lru on any seed")


class TestOracleStoreCaching:
    def test_report_cached_by_content_digest(self, small_machine):
        from repro.sim.store import default_store

        trace = PackedTrace.from_accesses(list(random_trace(11)))
        store = default_store()
        assert store is not None, "conftest should isolate a store"
        key = oracle_store_key(trace.content_digest(), small_machine)
        first = oracle_report(trace, small_machine)
        assert store.contains(key)
        hits_before = store.hits
        second = oracle_report(trace, small_machine)
        assert second == first
        assert store.hits == hits_before + 1

    def test_key_varies_with_trace_and_config(self, small_machine):
        from repro.workloads import experiment_config

        a = PackedTrace.from_accesses(list(random_trace(1)))
        b = PackedTrace.from_accesses(list(random_trace(2)))
        key_a = oracle_store_key(a.content_digest(), small_machine)
        assert key_a != oracle_store_key(b.content_digest(), small_machine)
        assert key_a != oracle_store_key(
            a.content_digest(), experiment_config()
        )


class TestSuiteOracleIntegration:
    def test_suite_rows_carry_regret_columns(self):
        from repro.sim.suite import run_suite

        suite = run_suite(
            policies=("lru", "ehc"),
            benchmarks=("art",),
            scale=0.05,
            oracle=True,
        )
        rows = suite.to_rows()
        assert len(rows) == 2
        for row in rows:
            assert row["oracle_misses"] == suite.oracle["art"]["opt_misses"]
            assert row["miss_regret"] >= 0
            assert row["stall_regret"] >= 0
        header = suite.to_csv().splitlines()[0]
        for column in ("oracle_misses", "oracle_stall_cycles",
                       "miss_regret", "stall_regret"):
            assert column in header

    def test_columns_default_to_none_without_oracle(self):
        from repro.sim.suite import run_suite

        suite = run_suite(
            policies=("lru",), benchmarks=("art",), scale=0.05
        )
        (row,) = suite.to_rows()
        assert row["miss_regret"] is None
        assert suite.oracle is None

    @pytest.mark.parametrize("workers", [0, 1])
    def test_oracle_pass_reuses_resident_traces(self, monkeypatch, workers):
        # The cells build every trace in grid order and the memo keeps
        # the last TRACE_CACHE_MAX; an oracle pass in grid order rebuilt
        # all 14 (28 builds).  Resident traces must be visited first.
        from repro.sim import runner
        from repro.sim.options import RunOptions
        from repro.sim.suite import run_suite
        from repro.workloads import BENCHMARKS

        assert len(BENCHMARKS) == 14
        assert runner.TRACE_CACHE_MAX < len(BENCHMARKS)
        monkeypatch.setenv("REPRO_NO_STORE", "1")
        runner.clear_cache()
        before = runner.cache_stats()["trace_builds"]
        suite = run_suite(
            policies=("lru",), benchmarks=BENCHMARKS, scale=0.02,
            options=RunOptions(workers=workers), oracle=True,
        )
        builds = runner.cache_stats()["trace_builds"] - before
        runner.clear_cache()
        assert not suite.failures
        assert builds <= 20
        # The reports still line up with their benchmarks, in order.
        assert list(suite.oracle) == list(BENCHMARKS)
        for benchmark in BENCHMARKS:
            trace = runner.packed_trace(benchmark, scale=0.02)
            assert suite.oracle[benchmark]["trace_digest"] == (
                trace.content_digest()
            )
        runner.clear_cache()
