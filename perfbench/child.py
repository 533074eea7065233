"""One benchmark sample in a fresh interpreter.

``run.py`` starts this file once per sample with a JSON config as its
only argument, and an empty ``REPRO_CACHE_DIR``.  The child

1. puts the checkout's ``src`` on ``sys.path`` and the kernel built by
   ``build.py`` at the front of ``repro._native.__path__``, and fails
   (exit 3) if the ``native`` rung would not be that kernel;
2. does the workload's set-up (imports, empty store, and for the
   service: server start, worker spawn and one warm-up job), then
   prints ``READY`` — the parent times spawn-to-``READY`` as one
   ``setup_s`` sample;
3. unless it is a set-up-only sample, runs the timed workload once
   (traced or not), gathers results and output checks outside the
   timed region, and prints them as one JSON line.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import os
import random
import resource
import sys
import threading
import time
from time import perf_counter

import plan
from tracer import REGION, Tracer


def _bootstrap(config) -> None:
    sys.path.insert(0, os.path.join(config["root"], "src"))
    import repro._native

    kernel_dir = os.path.join(config["native_dir"], "repro", "_native")
    repro._native.__path__.insert(0, kernel_dir)
    from repro.sim import native

    extension = native.load_extension()
    where = getattr(extension, "__file__", None) or ""
    if extension is None or not os.path.abspath(where).startswith(
        os.path.abspath(kernel_dir) + os.sep
    ):
        sys.stderr.write(
            "perfbench: the native kernel did not load from %s (got %r)\n"
            % (kernel_dir, where or extension)
        )
        sys.exit(3)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _geomean_gain_pct(pairs) -> float:
    """Geometric-mean IPC gain (%) over ``(ipc_sbar, ipc_lru)`` pairs."""
    logs = [math.log(sbar / lru) for sbar, lru in pairs]
    return 100.0 * (math.exp(sum(logs) / len(logs)) - 1.0)


def _ipc(result: dict) -> float:
    return result["instructions"] / result["cycles"]


def _simulated(results) -> dict:
    """Exact simulated counts summed over result dicts."""
    return {
        "cache.l2_misses": sum(r["l2_misses"] for r in results),
        "cache.demand_misses": sum(r["demand_misses"] for r in results),
        "mlp.stall_cycles": sum(r["stall_cycles"] for r in results),
        "cpu.cycles": sum(r["cycles"] for r in results),
    }


# -- suites ---------------------------------------------------------------


def _suite_setup(workload):
    import numpy  # noqa: F401  (a hard dependency every run imports)

    import repro.sim.parallel  # noqa: F401  (run_suite imports it lazily)
    from repro.api import RunOptions, run_suite
    from repro.sim.store import default_store

    if workload.oracle:
        import repro.analysis.oracle  # noqa: F401
    default_store().root.mkdir(parents=True, exist_ok=True)
    return RunOptions, run_suite


def _run_suite(config, workload, traced: bool) -> dict:
    RunOptions, run_suite = _suite_setup(workload)
    print("READY", flush=True)
    if config["mode"] == "setup":
        return {}

    from repro.sim import runner
    from repro.sim.store import default_store

    seed = config["seed"]
    scale = config["scale"]
    benchmarks = plan.suite_benchmarks(seed, config["benchmarks"])
    # Consecutive slices of the timed call, one per step: each cell up
    # to its delivery, each benchmark's OPT report, and the tail.  They
    # add up to the wall time, and ``run.py`` takes each step's fastest
    # slice over the run's samples.
    steps = []
    mark = [0.0]

    def lap(label: str) -> None:
        now = perf_counter()
        steps.append([label, now - mark[0]])
        mark[0] = now

    def progress(report, _done, _total):
        lap("%s|%s" % (report.task.benchmark, report.task.policy_spec))

    call = functools.partial(
        run_suite, policies=list(workload.policies), benchmarks=benchmarks,
        scale=scale, options=RunOptions(workers=1, progress=progress),
        oracle=workload.oracle,
    )
    tracer = Tracer() if traced else None
    undo = None
    if tracer is not None:
        tracer.install()
    elif workload.oracle:
        undo = _lap_oracle_reports(benchmarks, lap)
    start = mark[0] = perf_counter()
    try:
        suite = call() if tracer is None else tracer.span(REGION, call)
        lap("tail")
        wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        if undo is not None:
            undo()

    # Everything below is outside the timed region; the peak RSS is read
    # first, so the seed-0 baseline re-run at scale 0.5 stays out of it.
    peak_rss_mb = _peak_rss_mb()
    simulations = runner.cache_stats()["simulations"]
    kernels = {}
    rows = []
    failed_checks = []
    for benchmark in benchmarks:
        for policy in workload.policies:
            result = suite.results.get(benchmark, {}).get(policy)
            if result is None:
                continue
            meta = result.meta
            if meta is None:
                # Oracle annotation returns copies without provenance;
                # the memo still holds the simulated original.
                meta = runner.run_policy(benchmark, policy, scale=scale).meta
            kernel = (meta or {}).get("kernel_used", "unknown")
            kernels[kernel] = kernels.get(kernel, 0) + 1
            rows.append((benchmark, policy, result))
    if runner.cache_stats()["simulations"] != simulations:
        failed_checks.append("provenance lookup re-simulated a cell")

    gain_pairs = [
        (suite.result(b, "sbar").ipc, suite.result(b, "lru").ipc)
        for b in benchmarks
        if "sbar" in suite.results.get(b, {})
        and "lru" in suite.results.get(b, {})
    ]
    out = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "cells": len(rows),
        "cell_failures": sum(len(v) for v in suite.failures.values()),
        "steps_s": steps,
        "digest": suite.content_digest(),
        "kernels": kernels,
        "sbar_ipc_gain_pct": (
            _geomean_gain_pct(gain_pairs) if gain_pairs else 0.0
        ),
        "simulated": _simulated([r.to_dict() for _, _, r in rows]),
        "store": default_store().counters(),
        "parallel_overhead_s": suite.meta["elapsed_s"] - sum(
            task["wall_time_s"] for task in suite.meta["tasks"]
        ),
    }
    if workload.oracle:
        regrets = [
            (r.miss_regret, r.stall_regret) for _, _, r in rows
        ]
        if any(m is None or s is None or m < 0 or s < 0
               for m, s in regrets):
            failed_checks.append("an oracle regret is negative or missing")
        sbar = [r for _, p, r in rows if p == "sbar"]
        out["sbar_miss_regret_pct"] = 100.0 * sum(
            r.miss_regret for r in sbar
        ) / sum(r.oracle_misses for r in sbar)
    if config.get("baseline"):
        failed_checks.extend(_baseline_check())
    if tracer is not None:
        out["trace"] = _trace_summary(tracer, config)
        if config.get("ladder"):
            out["ladder"] = _kernel_ladder(seed, scale, failed_checks)
    out["failed_checks"] = failed_checks
    return out


def _lap_oracle_reports(benchmarks, lap):
    """Time each ``oracle_report`` call as one step (``benchmarks`` in
    the order ``run_suite`` reports them); returns the undo.

    Only untraced samples do this; traced ones span the same function.
    """
    import repro.analysis.oracle as oracle

    original = oracle.oracle_report
    done = []

    @functools.wraps(original)
    def timed(*args, **kwargs):
        result = original(*args, **kwargs)
        lap("%s|oracle" % benchmarks[len(done)])
        done.append(True)
        return result

    oracle.oracle_report = timed
    return functools.partial(setattr, oracle, "oracle_report", original)


def _baseline_check() -> list:
    """The cells suite-cold shares with ``BENCH_pr9.json``, re-run at
    that file's scale; their result fields must match it exactly."""
    from repro.api import RunOptions, run_policy

    failures = []
    for (benchmark, policy), expected in plan.BASELINE_CELLS.items():
        result = run_policy(benchmark, policy, scale=plan.BASELINE_SCALE,
                            options=RunOptions(use_cache=False))
        got = tuple(getattr(result, f) for f in plan.BASELINE_FIELDS)
        if got != expected:
            failures.append("%s/%s differs from BENCH_pr9.json: %r != %r"
                            % (benchmark, policy, got, expected))
    return failures


def _kernel_ladder(seed: int, scale: float, failed_checks) -> dict:
    """Replay one fixed cell on each requested kernel rung."""
    from repro.sim.runner import packed_trace
    from repro.sim.simulator import Simulator
    from repro.workloads import experiment_config

    benchmark, policy = plan.LADDER_CELL
    trace = packed_trace(plan.surrogate(benchmark, seed), scale=scale)
    seconds = {}
    reference = None
    for kernel in plan.LADDER_KERNELS:
        simulator = Simulator(experiment_config(), policy, kernel=kernel)
        start = perf_counter()
        result = simulator.run(trace)
        seconds[kernel] = perf_counter() - start
        used = (result.meta or {}).get("kernel_used")
        if used != kernel:
            failed_checks.append(
                "ladder: requested %s, ran %s" % (kernel, used)
            )
        if reference is None:
            reference = result.to_dict()
        elif result.to_dict() != reference:
            failed_checks.append("ladder: %s result differs" % kernel)
    return seconds


def _trace_summary(tracer: Tracer, config) -> dict:
    tracer.dump(config.get("spans_out"))
    replayed = tracer.counts("sim.replay.")
    return {
        "self_s": tracer.layer_times(),
        "builds": tracer.calls("workloads.synth"),
        "replayed_accesses": replayed,
    }


# -- service --------------------------------------------------------------


def _run_service(config, traced: bool) -> dict:
    import numpy  # noqa: F401

    from repro.service.client import ServiceClient
    from repro.service.server import ServiceConfig, serve_in_thread
    from repro.sim.options import RunOptions
    from repro.sim.store import default_store

    default_store().root.mkdir(parents=True, exist_ok=True)
    seed = config["seed"]
    scale = config["scale"]
    handle = serve_in_thread(
        ServiceConfig(port=0, workers=1, options=RunOptions())
    )
    try:
        port = handle.port
        warm = ServiceClient(port=port, tenant="warmup")
        warm_spec = plan.service_warmup_spec(seed)
        warm_policies = plan.TENANTS[0][1]
        warm_job = warm.wait(warm.submit([warm_spec], warm_policies,
                                         scale=scale))
        print("READY", flush=True)
        if config["mode"] == "setup":
            return {}
        out = _service_loop(config, traced, port)
        out["failed_checks"].extend(
            _service_checks(config, out, warm_job, port, scale)
        )
        return out
    finally:
        handle.stop()
        # The worker slot's process exits once its executor shuts down;
        # wait for it so no process outlives this sample.
        for process in multiprocessing.active_children():
            process.join(30)


def _service_loop(config, traced: bool, port: int) -> dict:
    from repro.service.client import ServiceClient, ServiceError
    from repro.sim.store import default_store

    seed = config["seed"]
    scale = config["scale"]
    seconds = config["seconds"]
    min_jobs = config["min_jobs"]
    plans = plan.service_plan(seed, config["max_jobs"])
    lock = threading.Lock()
    stop = threading.Event()
    jobs = []  # (tenant index, spec, resubmit, latency, snapshot)
    rejected = [0]
    fresh = [0] * len(plan.TENANTS)
    errors = []
    tracer = Tracer() if traced else None
    start = perf_counter()

    def tenant(index: int) -> None:
        name, policies = plan.TENANTS[index]
        client = ServiceClient(port=port, tenant=name, timeout=120.0)
        for spec, resubmit in plans[index]:
            if stop.is_set():
                return
            while True:
                began = perf_counter()
                try:
                    job_id = client.submit([spec], policies, scale=scale)
                    break
                except ServiceError as exc:
                    if exc.retry_after_s is None:
                        raise
                    with lock:
                        rejected[0] += 1
                    time.sleep(exc.retry_after_s)
            snap = client.wait(job_id)
            latency = perf_counter() - began
            with lock:
                jobs.append((index, spec, resubmit, latency, snap))
                fresh[index] += not resubmit
                if (
                    len(jobs) >= min_jobs
                    and min(fresh) >= config["pin_workloads"]
                    and perf_counter() - start >= seconds
                ):
                    stop.set()

    def guarded(index: int) -> None:
        try:
            if tracer is not None:
                tracer.span(REGION, tenant, index)
            else:
                tenant(index)
        except Exception as exc:  # reported as a failed check
            errors.append("tenant %d: %s: %s"
                          % (index, type(exc).__name__, exc))
            stop.set()

    threads = [threading.Thread(target=guarded, args=(index,))
               for index in range(len(plan.TENANTS))]
    if tracer is not None:
        tracer.install()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    stats = ServiceClient(port=port).stats()

    latencies = sorted(job[3] for job in jobs)
    cells = sum(len(job[4]["cells"]) for job in jobs)
    executed = {}
    dispatch = 0.0
    for _index, _spec, _resubmit, latency, snap in jobs:
        own = 0.0
        for label, cell in snap["cells"].items():
            if cell["source"] == "executed":
                executed[label] = cell["wall_s"]
                own += cell["wall_s"]
        dispatch += latency - own
    out = {
        "wall_s": wall,
        "cells": cells,
        "jobs": len(jobs),
        "jobs_failed": sum(1 for job in jobs if job[4]["status"] != "done"),
        "rejected": rejected[0],
        "latencies_s": latencies,
        "dispatch_s": dispatch,
        "cell_exec_s": sum(executed.values()),
        "counters": stats["counters"],
        "store": default_store().counters(),
        "failed_checks": list(errors),
        "_jobs": jobs,
        # Filled by _service_checks from the pinned cells.
        "digest": None,
        "simulated": _simulated([]),
        "sbar_ipc_gain_pct": 0.0,
    }
    if tracer is not None:
        out["trace"] = _trace_summary(tracer, config)
    return out


def _service_checks(config, out, warm_job, port, scale):
    """Output checks on the service run, plus its simulated results."""
    from repro.service.client import ServiceClient
    from repro.sim.options import RunOptions
    from repro.sim.runner import run_policy
    from repro.sim.store import result_digest

    failures = []
    jobs = out.pop("_jobs")
    digests = {}
    requested = 0
    for snap in [warm_job] + [job[4] for job in jobs]:
        if snap["status"] != "done":
            failures.append("job %s ended %s"
                            % (snap["job_id"], snap["status"]))
        for label, cell in snap["cells"].items():
            digests.setdefault(label, set()).add(cell["digest"])
            requested += 1
    split = sorted(label for label, seen in digests.items() if len(seen) > 1)
    if split:
        failures.append("tenants disagree on %d cells, e.g. %s"
                        % (len(split), split[0]))
    counters = out["counters"]
    unique = len(digests)
    if counters["cells_executed"] != unique:
        failures.append("cells_executed %d != %d unique cells"
                        % (counters["cells_executed"], unique))
    shared = counters["cells_deduped"] + counters["cells_store_hits"]
    if shared != requested - unique:
        failures.append("dedups + store hits %d != designed overlap %d"
                        % (shared, requested - unique))

    # A sample of cells, recomputed in-process without any cache.
    rng = random.Random(config["seed"])
    labels = sorted(digests)
    for label in rng.sample(labels, min(3, len(labels))):
        spec, policy = label.rsplit("/", 1)
        result = run_policy(spec, policy, scale=scale,
                            options=RunOptions(use_cache=False))
        if {result_digest(result.to_dict())} != digests[label]:
            failures.append("service digest of %s differs from in-process "
                            "run_policy" % label)

    # Full results of the pinned cells, re-served through the public
    # client: their digest, simulated counts and lru/sbar IPC pairs.
    pinned = ["/".join(cell) for cell in plan.service_pin_cells(
        config["seed"], config["pin_workloads"])]
    specs = {label.rsplit("/", 1)[0] for label in pinned}
    client = ServiceClient(port=port)
    payloads = {}
    for _index, spec, resubmit, _latency, snap in jobs:
        if spec in specs and not resubmit:
            payloads.update(
                client.result(snap["job_id"], include_results=True)
                ["results"]
            )
    missing = [label for label in pinned if label not in payloads]
    if missing:
        # Leaves the digest unset, which fails the digest check.
        failures.append("pinned cell not served: %s" % missing[0])
        return failures
    out["simulated"] = _simulated([payloads[label] for label in pinned])
    out["digest"] = _cells_digest(
        {label: sorted(digests[label])[0] for label in pinned}
    )
    out["sbar_ipc_gain_pct"] = _geomean_gain_pct([
        (_ipc(payloads[spec + "/sbar"]), _ipc(payloads[spec + "/lru"]))
        for spec in sorted(specs)
    ])
    return failures


def _cells_digest(cells) -> str:
    """Digest over ``{label: cell digest}`` (as a job digest is)."""
    import hashlib

    blob = json.dumps(cells, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def main() -> int:
    config = json.loads(sys.argv[1])
    _bootstrap(config)
    workload = plan.WORKLOADS[config["workload"]]
    traced = bool(config.get("traced"))
    if workload.name == plan.SERVICE_TENANTS.name:
        out = _run_service(config, traced)
    else:
        out = _run_suite(config, workload, traced)
    if config["mode"] == "setup":
        return 0
    out.setdefault("peak_rss_mb", _peak_rss_mb())
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
