"""End-to-end benchmark of the MLP-aware cache replacement reproduction.

Usage::

    python3 perfbench/run.py --workload suite-cold --seed 0 \
        --seconds 36 --trace 0

Run from the root of a source checkout.  The workloads, the reasons
they were chosen, and the map from each per-layer metric to the
end-to-end metric it should move are in ``perfbench/README.md`` and
``plan.py``.

What one run does:

1. Provision, outside any timing: build the C replay kernel from the
   checkout's ``src/repro/_native/replaykernel.c`` into
   ``.bench_build/perfbench/native-<hash>/`` (``build.py``; cached by
   source hash, and a failed build is an error, never a silent Python
   fallback), then byte-compile ``src`` once.
2. ``--trace 0``: take :data:`SETUP_SAMPLES` fresh-interpreter set-up
   samples, then run the workload in fresh interpreters (``child.py``,
   each with an empty result store) until ``--seconds`` is used, and
   report the end-to-end metrics: ``setup_s`` as a median over the
   samples, a suite's throughput and per-row latencies from each
   step's fastest slice over its passes (:func:`_fastest_steps`).
3. ``--trace 1``: run the workload once untraced and once with spans
   around the program's public entry points (``tracer.py``), check
   that both produce the same digest and kernel-rung counts, and
   report the per-layer metrics.

Every run checks outputs (``correct`` in the result line): digests
agree between samples and with the digest pinned in ``pins.json`` for
that seed and scale, and each workload's own checks pass (see
``child.py``).  The last stdout line is the JSON result; progress
goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import sysconfig
import threading
from time import perf_counter

import plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

#: Fresh-interpreter set-up samples taken before the timed samples
#: (each timed sample adds one more); ``setup_s`` is their median,
#: because one interpreter start plus imports varies by a third between
#: samples on a 2-vCPU host.
SETUP_SAMPLES = 5
#: Timed samples a suite run takes at least, so each step's fastest
#: slice is the best of three or more.
MIN_SUITE_REPS = 3
#: Wall-clock limit for one child process.
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run; no result line is printed."""


def log(message: str) -> None:
    sys.stderr.write("perfbench: %s\n" % message)
    sys.stderr.flush()


# -- provisioning ------------------------------------------------------------


def provision() -> str:
    """Build (or reuse) the native kernel; returns its build directory."""
    source = os.path.join(ROOT, "src", "repro", "_native", "replaykernel.c")
    if not os.path.isfile(source):
        raise BenchError(
            "no source checkout here: %s is missing (run from the root "
            "of a checkout)" % os.path.relpath(source, ROOT)
        )
    digest = hashlib.sha256()
    with open(source, "rb") as handle:
        digest.update(handle.read())
    digest.update(sys.version.encode())
    digest.update(str(sysconfig.get_config_var("EXT_SUFFIX")).encode())
    out_dir = os.path.join(WORK, "native-" + digest.hexdigest()[:16])
    marker = os.path.join(out_dir, "built")
    if not os.path.exists(marker):
        shutil.rmtree(out_dir, ignore_errors=True)
        log("building the native kernel into %s"
            % os.path.relpath(out_dir, ROOT))
        built = subprocess.run(
            [sys.executable, os.path.join(HERE, "build.py"), source, out_dir],
            stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT,
        )
        if built.returncode != 0:
            raise BenchError("the native kernel failed to build")
        with open(marker, "w") as handle:
            handle.write("ok\n")
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q",
         os.path.join(ROOT, "src")],
        stdout=sys.stderr, stderr=sys.stderr, check=True,
    )
    return out_dir


# -- child processes ---------------------------------------------------------


def _child_env(cache_dir: str) -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["REPRO_CACHE_DIR"] = cache_dir
    return env


def spawn(config: dict, serial: list):
    """Run ``child.py`` once; returns ``(setup seconds, result or None)``.

    The child gets a fresh, empty result store that is deleted after
    it exits, and its own process group, which is killed afterwards so
    nothing it started can outlive the sample.
    """
    serial[0] += 1
    cache_dir = os.path.join(WORK, "store-%d-%d" % (os.getpid(), serial[0]))
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(config)],
        stdout=subprocess.PIPE, env=_child_env(cache_dir), cwd=ROOT,
        text=True, start_new_session=True,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc,))
    timer.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = perf_counter() - start
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        _kill_group(proc)
        proc.stdout.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    if code != 0 or ready is None:
        raise BenchError("%s sample exited with code %s"
                         % (config["workload"], code))
    if config["mode"] == "setup":
        return ready, None
    return ready, json.loads(lines[-1])


def _kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# -- metrics -----------------------------------------------------------------


def _metric(metrics: dict, name: str, value, unit: str) -> None:
    metrics[name] = {"value": value, "unit": unit}


def _pinned(workload, seed: int, scale: float):
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        pins = json.load(handle)
    return pins.get(workload.name, {}).get(repr(scale), {}).get(str(seed))


def _digest_checks(workload, seed, scale, samples) -> list:
    failures = []
    digests = {sample.get("digest") for sample in samples}
    if len(digests) != 1 or None in digests:
        failures.append("samples disagree on the digest: %s"
                        % sorted(map(str, digests)))
        return failures
    pinned = _pinned(workload, seed, scale)
    if pinned is None:
        log("no digest pinned for %s seed %d scale %r; checked sample "
            "agreement only" % (workload.name, seed, scale))
    elif pinned != next(iter(digests)):
        failures.append("digest %s != pinned %s"
                        % (next(iter(digests)), pinned))
    return failures


def _failures(samples) -> tuple:
    """(attempted, failed operations, failed checks) over samples."""
    attempted = failed = 0
    checks = []
    for sample in samples:
        if "jobs" in sample:
            attempted += sample["jobs"] + sample["rejected"]
            failed += sample["jobs_failed"] + sample["rejected"]
        else:
            attempted += sample["cells"] + sample["cell_failures"]
            failed += sample["cell_failures"]
        checks.extend(sample["failed_checks"])
    return attempted, failed, checks


def _fastest_steps(samples) -> tuple:
    """Each step's fastest slice over a suite run's samples.

    Every sample replays the same cold suite in a fresh interpreter, so
    its steps (cells, OPT reports, tail; see ``child.py``) come in the
    same order.  The host's speed swings by a third within seconds, so
    the fastest of a step's slices is its cost to the program, as
    ``timeit`` takes the best of its repeats; their sum is one suite
    pass on an undisturbed host.
    """
    labels = [label for label, _ in samples[0]["steps_s"]]
    best = dict(samples[0]["steps_s"])
    checks = []
    for sample in samples[1:]:
        if [label for label, _ in sample["steps_s"]] != labels:
            checks.append("samples ran their steps in different orders")
            continue
        for label, seconds in sample["steps_s"]:
            best[label] = min(best[label], seconds)
    return best, checks


def _row_latencies(steps: dict) -> list:
    """Each benchmark row's time: the fastest slices of its cells plus
    (suite-oracle) its OPT report."""
    rows = {}
    for label, seconds in steps.items():
        if label != "tail":
            benchmark = label.rsplit("|", 1)[0]
            rows[benchmark] = rows.get(benchmark, 0.0) + seconds
    return list(rows.values())


def end_to_end(workload, seed, scale, seconds, config, serial) -> dict:
    setup = []
    for _ in range(config["setup_samples"]):
        setup.append(spawn(dict(config, mode="setup"), serial)[0])
    samples = []
    started = perf_counter()
    while True:
        ready, sample = spawn(dict(config, mode="run", baseline=(
            not samples and config["baseline"])), serial)
        setup.append(ready)
        samples.append(sample)
        if workload is plan.SERVICE_TENANTS:
            break
        elapsed = perf_counter() - started
        if (
            len(samples) >= config["min_reps"]
            and elapsed * (len(samples) + 1) / len(samples) > seconds
        ):
            break
    raw = os.path.join(WORK, "samples-%s-%d.json" % (workload.name, seed))
    with open(raw, "w", encoding="utf-8") as handle:
        json.dump({"setup_s": setup, "samples": samples}, handle)
    attempted, failed, checks = _failures(samples)
    checks.extend(_digest_checks(workload, seed, scale, samples))
    if workload is plan.SERVICE_TENANTS:
        latencies = sorted(samples[0]["latencies_s"])
        cells_per_s = samples[0]["cells"] / samples[0]["wall_s"]
    else:
        steps, step_checks = _fastest_steps(samples)
        checks.extend(step_checks)
        latencies = sorted(_row_latencies(steps))
        cells_per_s = samples[0]["cells"] / sum(steps.values())
    for check in checks:
        log("check failed: %s" % check)
    metrics = {}
    _metric(metrics, "setup_s", statistics.median(setup), "s")
    _metric(metrics, "cells_per_s", cells_per_s, "1/s")
    _metric(metrics, "job_latency_p50_s", statistics.median(latencies), "s")
    _metric(metrics, "job_latency_p90_s",
            statistics.quantiles(latencies, n=10)[-1], "s")
    _metric(metrics, "peak_rss_mb",
            max(s["peak_rss_mb"] for s in samples), "MB")
    failed += len(checks)
    attempted += len(checks)
    _metric(metrics, "ops_ok_frac", 1.0 - failed / attempted, "ratio")
    _metric(metrics, "sbar_ipc_gain_pct",
            samples[0]["sbar_ipc_gain_pct"], "%")
    log("%s: %d timed samples, %d set-up samples, %d latency samples"
        % (workload.name, len(samples), len(setup), len(latencies)))
    return {"correct": not checks, "attempted": attempted,
            "failed": failed, "metrics": metrics}


#: Kernel rungs as the per-layer metrics bucket them: the two fast
#: rungs by name, fused and generic together.
RUNGS = ("native", "batched", "other")


def _rung(kernel: str) -> str:
    return kernel if kernel in RUNGS[:2] else "other"


def per_layer(workload, seed, scale, config, serial) -> dict:
    # Two samples share the run's --seconds (the service loops for as
    # long as it is given; a suite sample is one pass regardless).
    config = dict(config, seconds=config["seconds"] / 2)
    _ready, plain = spawn(dict(config, mode="run"), serial)
    _ready, traced = spawn(dict(config, mode="run", traced=True,
                                ladder=workload is plan.SUITE_COLD,
                                spans_out=os.path.join(
                                    WORK, "spans-%s-%d.json"
                                    % (workload.name, seed))), serial)
    attempted, failed, checks = _failures([plain, traced])
    checks.extend(_digest_checks(workload, seed, scale, [plain, traced]))
    if plain.get("kernels") != traced.get("kernels"):
        checks.append("traced kernel rungs %s != untraced %s"
                      % (traced.get("kernels"), plain.get("kernels")))
    for check in checks:
        log("check failed: %s" % check)

    trace = traced["trace"]
    self_s = trace["self_s"]
    counters = traced.get("counters", {})
    replay = dict.fromkeys(RUNGS, 0.0)
    for span, seconds in self_s.items():
        if span.startswith("sim.replay."):
            replay[_rung(span[len("sim.replay."):])] += seconds
    cells = dict.fromkeys(RUNGS, 0)
    for kernel, count in traced.get("kernels", {}).items():
        cells[_rung(kernel)] += count
    replay_s = sum(replay.values())
    ladder = traced.get("ladder", {})
    metrics = {}
    seconds_of = [
        ("workloads.synth_s", "workloads.synth"),
        ("trace.pack_s", "trace.pack"),
        ("sim.runner_self_s", "sim.runner"),
        ("analysis.oracle_s", "analysis.oracle"),
        ("sim.store_read_s", "sim.store_read"),
        ("sim.store_write_s", "sim.store_write"),
        ("sim.parallel.journal_s", "sim.parallel.journal"),
        ("service.submit_rpc_s", "service.submit_rpc"),
        ("service.wait_rpc_s", "service.wait_rpc"),
        ("traced.unattributed_s", "bench.region"),
    ]
    for name, span in seconds_of:
        _metric(metrics, name, self_s.get(span, 0.0), "s")
    _metric(metrics, "workloads.builds", trace["builds"], "count")
    for rung in RUNGS:
        _metric(metrics, "sim.replay_%s_s" % rung, replay[rung], "s")
        _metric(metrics, "sim.cells_%s" % rung, cells[rung], "count")
    _metric(metrics, "sim.replay_maccess_per_s",
            trace["replayed_accesses"] / replay_s / 1e6 if replay_s
            else 0.0, "Macc/s")
    for rung in plan.LADDER_KERNELS:
        _metric(metrics, "sim.kernel_%s_s" % rung, ladder.get(rung, 0.0),
                "s")
    store = traced["store"]
    _metric(metrics, "sim.store_hits", store["store_hits"], "count")
    _metric(metrics, "sim.store_misses", store["store_misses"], "count")
    _metric(metrics, "sim.parallel.overhead_s",
            traced.get("parallel_overhead_s", 0.0), "s")
    _metric(metrics, "analysis.sbar_miss_regret_pct",
            traced.get("sbar_miss_regret_pct", 0.0), "%")
    _metric(metrics, "service.dispatch_s", traced.get("dispatch_s", 0.0),
            "s")
    _metric(metrics, "service.cell_exec_s",
            traced.get("cell_exec_s", 0.0), "s")
    for name in ("cells_executed", "cells_deduped", "cells_store_hits",
                 "cell_retries", "submissions_rejected"):
        _metric(metrics, "service." + name, counters.get(name, 0), "count")
    total = counters.get("cells_total", 0)
    _metric(metrics, "service.shared_frac",
            (counters.get("cells_deduped", 0)
             + counters.get("cells_store_hits", 0)) / total if total
            else 0.0, "ratio")
    for name, value in traced["simulated"].items():
        _metric(metrics, name, value,
                "cycles" if name.endswith("cycles") else "count")
    _metric(metrics, "traced.overhead_pct", 100.0 * (
        (plain["cells"] / plain["wall_s"])
        / (traced["cells"] / traced["wall_s"]) - 1.0), "%")
    failed += len(checks)
    attempted += len(checks)
    return {"correct": not checks, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(plan.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny scale and sample counts, for the smoke test only",
    )
    args = parser.parse_args(argv)
    workload = plan.WORKLOADS[args.workload]
    scale = 0.02 if args.smoke else workload.scale
    config = {
        "root": ROOT,
        "workload": workload.name,
        "seed": args.seed,
        "scale": scale,
        "seconds": args.seconds,
        "benchmarks": 2 if args.smoke else len(plan.BENCHMARKS),
        "setup_samples": 1 if args.smoke else SETUP_SAMPLES,
        "min_reps": 1 if args.smoke else MIN_SUITE_REPS,
        "min_jobs": 4 if args.smoke else plan.SERVICE_MIN_JOBS,
        "max_jobs": 5000,
        "pin_workloads": 1 if args.smoke else plan.SERVICE_PIN_WORKLOADS,
        "baseline": (workload is plan.SUITE_COLD and args.seed == 0
                and not args.smoke),
    }
    try:
        os.makedirs(WORK, exist_ok=True)
        config["native_dir"] = provision()
        serial = [0]
        if args.trace:
            result = per_layer(workload, args.seed, scale, config, serial)
        else:
            result = end_to_end(workload, args.seed, scale, args.seconds,
                                config, serial)
    except (BenchError, subprocess.CalledProcessError, OSError) as exc:
        log("error: %s" % exc)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
