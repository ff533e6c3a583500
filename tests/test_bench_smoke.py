"""The benchmark's smoke mode, run from the test suite.

`bench/tests` has its own conftest and is collected on its own; these tests
run `bench/run.py --smoke` in a scratch directory that links to the
checkout's `src` and `bench`, and check that every name the tracer patches
still exists, so the package names the benchmark calls (and patches when
tracing) stay guarded by the main suite.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_smoke_mode_is_correct(tmp_path, trace):
    for name in ("src", "bench"):
        (tmp_path / name).symlink_to(ROOT / name, target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--smoke",
         "--seconds", "1", "--seed", "1", "--trace", trace],
        cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] is True, proc.stdout[-4000:]
    assert final["failed"] == 0


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the tracer skips a missing name, so a rename would silently drop its span
    for module_name, attr, _ in load_tracing().PATCHES:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )
