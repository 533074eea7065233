"""Shared fixtures: small machines and crafted traces.

Unit tests use deliberately tiny cache geometries so behaviors are
hand-checkable; integration tests use the experiment machine at small
trace scales.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.config import (
    CacheGeometry,
    MachineConfig,
    MemoryConfig,
    MSHRConfig,
    ProcessorConfig,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


#: Why the native rung is unavailable this session (None when the
#: extension loads); set by :func:`pytest_configure`.
NATIVE_UNAVAILABLE = None
_NATIVE_BUILD_DIR = None


def _provision_native_kernel():
    """Build the C replay kernel for this session when it is missing.

    A source checkout without ``make native`` has no compiled
    extension, so every ``native`` request would resolve to ``batched``
    and the native differential battery would compare batched with
    itself.  When a C compiler is present, build ``replaykernel.c``
    into a temp dir with stock setuptools (no best-effort wrapper: a
    failed build fails the run) and put it first on
    ``repro._native.__path__``.  Runs at configure time, before test
    modules import and probe the extension.  Returns None when the
    kernel is available, else the reason it is not.
    """
    global _NATIVE_BUILD_DIR
    import importlib.util
    import shutil
    import sysconfig
    import tempfile

    import repro._native

    if importlib.util.find_spec("repro._native.replaykernel") is not None:
        return None  # built in place by `make native`
    compiler = (
        os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    ).split()[0]
    if shutil.which(compiler) is None:
        return (
            "no C compiler (%s) on this host: the replay kernel is not "
            "built and native requests resolve to batched" % compiler
        )
    try:
        from setuptools import Distribution, Extension
    except ImportError:
        return (
            "setuptools is not installed: the replay kernel is not built "
            "and native requests resolve to batched"
        )

    source = (
        Path(__file__).resolve().parents[1]
        / "src" / "repro" / "_native" / "replaykernel.c"
    )
    out_dir = tempfile.mkdtemp(prefix="repro-native-")
    _NATIVE_BUILD_DIR = out_dir
    distribution = Distribution({
        "name": "repro-replaykernel",
        "ext_modules": [
            Extension("repro._native.replaykernel", sources=[str(source)])
        ],
    })
    distribution.verbose = 0
    command = distribution.get_command_obj("build_ext")
    command.build_lib = out_dir
    command.build_temp = os.path.join(out_dir, "tmp")
    command.ensure_finalized()
    try:
        command.run()
    except Exception as exc:
        shutil.rmtree(out_dir, ignore_errors=True)
        raise pytest.UsageError(
            "building the native replay kernel from %s failed: %s"
            % (source, exc)
        ) from exc
    repro._native.__path__.insert(0, os.path.join(out_dir, "repro", "_native"))
    return None


def pytest_configure(config):
    global NATIVE_UNAVAILABLE
    NATIVE_UNAVAILABLE = _provision_native_kernel()


def pytest_unconfigure(config):
    if _NATIVE_BUILD_DIR is not None:
        import shutil

        shutil.rmtree(_NATIVE_BUILD_DIR, ignore_errors=True)


def pytest_report_header(config):
    return "native replay kernel: %s" % (NATIVE_UNAVAILABLE or "available")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json snapshots from current outputs",
    )


def _assert_matches(actual, expected, path=""):
    """Recursive structural compare; floats via pytest.approx."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), "%s: expected dict" % path
        assert sorted(actual) == sorted(expected), (
            "%s: key mismatch %s != %s"
            % (path, sorted(actual), sorted(expected))
        )
        for key in expected:
            _assert_matches(actual[key], expected[key], "%s.%s" % (path, key))
    elif isinstance(expected, list):
        assert isinstance(actual, list), "%s: expected list" % path
        assert len(actual) == len(expected), "%s: length mismatch" % path
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, "%s[%d]" % (path, index))
    elif isinstance(expected, float) or isinstance(actual, float):
        assert actual == pytest.approx(expected, rel=1e-6), (
            "%s: %r != %r" % (path, actual, expected)
        )
    else:
        assert actual == expected, "%s: %r != %r" % (path, actual, expected)


@pytest.fixture
def golden_check(request):
    """Compare a JSON-safe payload against ``tests/golden/<name>.json``.

    ``pytest --update-golden`` rewrites the snapshot instead of
    comparing, so intentional behavior changes regenerate fixtures in
    one command.
    """

    def check(name: str, payload) -> None:
        path = GOLDEN_DIR / ("%s.json" % name)
        # Round-trip through JSON so the comparison sees exactly what a
        # fresh checkout would load (tuples -> lists, int keys -> str).
        payload = json.loads(json.dumps(payload, sort_keys=True))
        if request.config.getoption("--update-golden"):
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload, indent=2, sort_keys=True))
            pytest.skip("updated golden snapshot %s" % path.name)
        if not path.exists():
            pytest.fail(
                "missing golden snapshot %s — run pytest --update-golden"
                % path
            )
        expected = json.loads(path.read_text())
        _assert_matches(payload, expected)

    return check


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_store(tmp_path_factory):
    """Point the persistent result store at a session-scoped tmp dir.

    Keeps the suite hermetic (no reads from a developer's warm
    ~/.cache/repro) while still exercising store hits across tests
    within one session.
    """
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("repro-store")
    )
    yield
    os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture
def tiny_geometry() -> CacheGeometry:
    """4 sets x 2 ways of 64B lines."""
    return CacheGeometry(512, 64, 2, 1)


@pytest.fixture
def small_machine() -> MachineConfig:
    """A Table-2-shaped machine small enough for hand analysis.

    One-block L1s (pass-through except consecutive repeats), a 4-set
    4-way L2, the real memory system.
    """
    return MachineConfig(
        processor=ProcessorConfig(),
        l1i=CacheGeometry(64, 64, 1, 1),
        l1d=CacheGeometry(64, 64, 1, 1),
        l2=CacheGeometry(4 * 4 * 64, 64, 4, 15),
        mshr=MSHRConfig(n_entries=32),
        memory=MemoryConfig(),
    )
