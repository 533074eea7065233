"""Regenerate ``pins.json``: the digest each workload must reproduce.

Usage: ``python3 perfbench/pin.py FIRST_SEED LAST_SEED [WORKLOAD ...]``
(all workloads when none is named).

Computes every pin in one process through paths the benchmark itself
does not time: the suites through the serial ``run_suite`` path
(``RunOptions(workers=0)``, no result store) rather than ``run_grid``,
and the service cells through plain in-process ``run_policy`` calls.
Serial and engine paths are bit-identical by contract, so a pin that
disagrees with a benchmark run is a defect in one of them.  Existing
pins for other seeds are kept.
"""

from __future__ import annotations

import json
import os
import sys

import plan
from child import _bootstrap, _cells_digest
from run import HERE, ROOT, provision


def pins_for(seed: int, names) -> dict:
    from repro.api import RunOptions, run_suite
    from repro.sim.runner import clear_cache, run_policy
    from repro.sim.store import result_digest

    out = {}
    for workload in (plan.SUITE_COLD, plan.SUITE_ORACLE):
        if workload.name not in names:
            continue
        suite = run_suite(
            policies=list(workload.policies),
            benchmarks=plan.suite_benchmarks(seed),
            scale=workload.scale,
            options=RunOptions(workers=0),
            oracle=workload.oracle,
        )
        if suite.failures:
            raise RuntimeError("%s seed %d failed: %s"
                               % (workload.name, seed, suite.failures))
        out[workload.name] = suite.content_digest()
        clear_cache()
    if plan.SERVICE_TENANTS.name not in names:
        return out
    scale = plan.SERVICE_TENANTS.scale
    cells = {}
    for spec, policy in plan.service_pin_cells(seed,
                                               plan.SERVICE_PIN_WORKLOADS):
        result = run_policy(spec, policy, scale=scale)
        cells["%s/%s" % (spec, policy)] = result_digest(result.to_dict())
    out[plan.SERVICE_TENANTS.name] = _cells_digest(cells)
    clear_cache()
    return out


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    names = set(argv[2:]) or set(plan.WORKLOADS)
    os.environ["REPRO_NO_STORE"] = "1"
    _bootstrap({"root": ROOT, "native_dir": provision()})
    path = os.path.join(HERE, "pins.json")
    with open(path, encoding="utf-8") as handle:
        pins = json.load(handle)
    for seed in range(first, last + 1):
        for name, digest in pins_for(seed, names).items():
            scale = repr(plan.WORKLOADS[name].scale)
            pins.setdefault(name, {}).setdefault(scale, {})[str(seed)] = (
                digest
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(pins, handle, indent=1, sort_keys=True)
            handle.write("\n")
        sys.stderr.write("pinned seed %d\n" % seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
