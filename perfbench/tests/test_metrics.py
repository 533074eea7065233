"""How ``run.py`` turns a suite run's step slices into its metrics.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402


def _sample(*steps):
    return {"steps_s": [list(step) for step in steps]}


PASSES = [
    _sample(("mcf|lru", 0.3), ("mcf|sbar", 0.1), ("art|lru", 0.2),
            ("mcf|oracle", 0.5), ("tail", 0.01)),
    _sample(("mcf|lru", 0.2), ("mcf|sbar", 0.2), ("art|lru", 0.4),
            ("mcf|oracle", 0.4), ("tail", 0.02)),
]


def test_fastest_steps_keeps_each_steps_best_slice():
    best, checks = run._fastest_steps(PASSES)
    assert checks == []
    assert best == {"mcf|lru": 0.2, "mcf|sbar": 0.1, "art|lru": 0.2,
                    "mcf|oracle": 0.4, "tail": 0.01}


def test_fastest_steps_fails_a_check_when_passes_differ():
    other = _sample(("art|lru", 0.1), ("mcf|lru", 0.1), ("mcf|sbar", 0.1),
                    ("mcf|oracle", 0.1), ("tail", 0.1))
    best, checks = run._fastest_steps(PASSES[:1] + [other])
    assert checks == ["samples ran their steps in different orders"]
    assert best == dict(PASSES[0]["steps_s"])


def test_row_latencies_add_each_rows_fastest_steps():
    best, _ = run._fastest_steps(PASSES)
    latencies = sorted(round(t, 9) for t in run._row_latencies(best))
    # mcf: its cells plus its OPT report; art: its one cell; no tail.
    assert latencies == [0.2, 0.7]
