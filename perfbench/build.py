"""Build the C replay kernel from the checked-out source, cached by hash.

Usage: ``python3 perfbench/build.py SOURCE_C OUT_DIR``

Compiles ``SOURCE_C`` as ``repro._native.replaykernel`` into
``OUT_DIR/repro/_native/`` with stock setuptools — the same
``Extension`` the repository's ``setup.py`` declares, but without its
best-effort wrapper: any compiler or toolchain failure is an error
here, because a benchmark that silently fell back to the Python ladder
would measure a different program.  ``run.py`` picks ``OUT_DIR`` from
a hash of the source and the interpreter, so an unchanged kernel is
built once per checkout.
"""

from __future__ import annotations

import sys


def build(source: str, out_dir: str) -> str:
    from setuptools import Distribution, Extension

    distribution = Distribution({
        "name": "repro-replaykernel",
        "ext_modules": [
            Extension("repro._native.replaykernel", sources=[source])
        ],
    })
    command = distribution.get_command_obj("build_ext")
    command.build_lib = out_dir
    command.build_temp = out_dir + "/tmp"
    command.ensure_finalized()
    command.run()
    (output,) = command.get_outputs()
    return output


if __name__ == "__main__":
    print(build(sys.argv[1], sys.argv[2]))
