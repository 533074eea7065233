"""What each benchmark workload runs, and why.

Shared by the orchestrator (``run.py``), the fresh-interpreter child
(``child.py``) and the pin generator (``pin.py``), so all three agree
on the exact inputs a ``(workload, seed)`` pair stands for.

Seed convention: ``--seed 0`` means the default, unseeded surrogates
(``mcf``, ``art``, ...); any other seed ``S`` spells every surrogate as
``name(seed=S)``.  The service workload always uses seeded surrogates,
because each of its jobs needs a workload no earlier job built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

#: The paper's 14 SPEC CPU2000 surrogates, in its figure order
#: (``repro.workloads.BENCHMARKS``; repeated here so the orchestrator
#: can plan without importing the package).
BENCHMARKS = (
    "art", "mcf", "twolf", "vpr", "facerec", "ammp", "galgel",
    "equake", "bzip2", "parser", "sixtrack", "apsi", "lucas", "mgrid",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    policies: Tuple[str, ...]
    scale: float
    oracle: bool = False


SUITE_COLD = Workload(
    name="suite-cold",
    # dip falls back to the batched kernel and the other 84 cells replay
    # natively: the two largest layers, then synthesis plus packing.
    # Scale 0.1 gives a run about a dozen cold passes, so each step's
    # fastest slice is the best of a dozen; with five passes at 0.25 its
    # throughput spread 0.18-0.36 across ten runs.  At 0.1 native replay
    # (about 17 ms a cell, mostly per-call cost) edges past batched.
    why=(
        "the cold 14x7 suite users wait on: dip's batched fallback, "
        "trace synthesis and native replay, through run_grid and its "
        "journal"
    ),
    policies=("lru", "lin", "sbar", "cbs-global", "ehc(4)", "awrp(8)",
              "dip"),
    scale=0.1,
)

SUITE_ORACLE = Workload(
    name="suite-oracle",
    # Every policy stays on the native rung, so a faster batched kernel
    # (or a C port of dip) must leave this workload unchanged, while the
    # pure-Python OPT replays dominate it.  Scale 0.1 as for suite-cold:
    # run side by side with 0.25 on the same host, its throughput spread
    # half as wide, and OPT still dominates at 0.1.
    why=(
        "14x4 suite with OPT bounds: the pure-Python oracle dominates "
        "and every policy stays native, so batched-kernel work must not "
        "move it"
    ),
    policies=("lru", "lin", "sbar", "ehc(4)"),
    scale=0.1,
    oracle=True,
)

SERVICE_TENANTS = Workload(
    name="service-tenants",
    # Job latency is set by trace synthesis in the single worker slot,
    # plus dispatch and dedup; no oracle and no batched replay.
    why=(
        "two tenants in a closed loop on a one-slot job service: "
        "dedup, store hits and per-job synthesis set job latency"
    ),
    policies=("lru", "lin", "sbar", "ehc(4)"),
    scale=0.25,
)

WORKLOADS = {w.name: w for w in (SUITE_COLD, SUITE_ORACLE, SERVICE_TENANTS)}

#: The service's two tenants and the native policies each submits per
#: job.  They overlap on lru and sbar, so every fresh workload has two
#: cells the service can share between them (dedup in flight, or a
#: store hit once the other tenant's cell finished).
TENANTS = (
    ("alice", ("lru", "lin", "sbar")),
    ("bob", ("lru", "sbar", "ehc(4)")),
)
#: Probability that a job resubmits one of the tenant's earlier grids
#: (so store reads run beside store writes), after the first few jobs.
RESUBMIT_P = 0.2
RESUBMIT_AFTER = 5
#: Jobs the closed loop completes at least, however short ``--seconds``
#: is: the p90 latency needs ten samples above it.
SERVICE_MIN_JOBS = 100
#: Fresh workloads at the head of the job plan (three of each
#: surrogate) whose cells form the service's pinned digest, simulated
#: counts and IPC gain; the loop runs until both tenants have finished
#: them.  One block of 14 left the gain 13% apart across seeds.
SERVICE_PIN_WORKLOADS = 3 * len(BENCHMARKS)

#: The cell the traced suite-cold run replays on every kernel rung.
LADDER_CELL = ("mcf", "sbar")
LADDER_KERNELS = ("native", "batched", "fused")

#: Fixed cells of the committed ``BENCH_pr9.json`` (scale 0.5, default
#: surrogates) that suite-cold also runs: ``lin`` is ``lin(4)`` and
#: ``ehc(4)`` is ``ehc`` there.  Fields are its machine-independent
#: ``result`` block, copied so the check survives that file.
BASELINE_SCALE = 0.5
BASELINE_CELLS = {
    ("mcf", "lru"): (74919, 22901296.75, 74919, 21741668.25),
    ("mcf", "lin"): (63429, 19624806.375, 63429, 18465177.875),
    ("mcf", "sbar"): (63429, 19624806.375, 63429, 18465177.875),
    ("mcf", "cbs-global"): (63429, 19624806.375, 63429, 18465177.875),
    ("mcf", "ehc(4)"): (51052, 15884863.0, 51052, 14725234.5),
    ("art", "lru"): (74239, 10317632.5, 74239, 10066388.0),
    ("art", "lin"): (55942, 8842448.5, 55942, 8591284.0),
    ("art", "sbar"): (55942, 8842448.5, 55942, 8591284.0),
    ("art", "cbs-global"): (55942, 8842448.5, 55942, 8591284.0),
    ("art", "ehc(4)"): (41837, 5600131.5, 41837, 5350405.625),
}
#: Order of the tuples above.
BASELINE_FIELDS = ("demand_misses", "cycles", "l2_misses",
                   "stall_cycles")


def surrogate(name: str, seed: int) -> str:
    """The workload spec of surrogate ``name`` under benchmark seed."""
    return name if seed == 0 else "%s(seed=%d)" % (name, seed)


def suite_benchmarks(seed: int, limit: int = len(BENCHMARKS)) -> List[str]:
    return [surrogate(name, seed) for name in BENCHMARKS[:limit]]


def service_warmup_spec(seed: int) -> str:
    """The warm-up job's workload: a seed no timed job uses."""
    return "mcf(seed=%d)" % (seed * 1000003)


def _fresh_specs(seed: int, count: int) -> List[str]:
    """Fresh job workloads: each block of 14 covers every surrogate once,
    in a seeded order, so the mix is the same at every seed."""
    rng = random.Random(seed)
    names: List[str] = []
    while len(names) < count:
        block = list(BENCHMARKS)
        rng.shuffle(block)
        names.extend(block)
    return [
        "%s(seed=%d)" % (name, seed * 1000003 + 1 + i)
        for i, name in enumerate(names[:count])
    ]


def service_plan(seed: int, jobs: int) -> List[List[Tuple[str, bool]]]:
    """Each tenant's job sequence: ``(workload spec, is_resubmit)``.

    Both tenants walk the same fresh workloads in the same order (that
    is what makes their cells shareable), and each resubmits one of its
    own earlier grids with probability :data:`RESUBMIT_P`.
    """
    fresh = _fresh_specs(seed, jobs)
    plans = []
    for index in range(len(TENANTS)):
        rng = random.Random("%d/%d" % (seed, index))
        plan: List[Tuple[str, bool]] = []
        next_fresh = 0
        while len(plan) < jobs:
            if len(plan) >= RESUBMIT_AFTER and rng.random() < RESUBMIT_P:
                plan.append((plan[rng.randrange(len(plan))][0], True))
            else:
                plan.append((fresh[next_fresh], False))
                next_fresh += 1
        plans.append(plan)
    return plans


def service_pin_cells(seed: int, workloads: int) -> List[Tuple[str, str]]:
    """The ``(workload, policy)`` cells behind the service's digest:
    every policy either tenant runs, on the first fresh workloads."""
    policies = sorted({p for _, tenant in TENANTS for p in tenant})
    return [
        (spec, policy)
        for spec in _fresh_specs(seed, workloads)
        for policy in policies
    ]
