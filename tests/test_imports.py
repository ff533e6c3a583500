import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gstbn
from gstbn.synth import generate_scenario

SRC = str(Path(gstbn.__file__).resolve().parents[1])

TASKS = "len(__import__('os').listdir('/proc/self/task'))"

needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count threads"
)


def run_python(code, **env):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": SRC, **env},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["gstbn", "gstbn.cli"])
def test_import_leaves_the_scenario_generator_unloaded(module):
    # only `gstbn synth` runs it, and every other command would pay its import
    assert run_python(f"import sys, {module}; print('gstbn.synth' in sys.modules)") == "False"


def test_star_import_binds_every_public_name():
    names = {}
    exec("from gstbn import *", names)
    assert set(gstbn.__all__) <= names.keys()


def test_import_loads_neither_scipy_nor_a_process_pool():
    # every CLI call pays the import, and scipy alone used to add about 0.4 s
    code = (
        "import sys, gstbn; "
        "print(sorted(m for m in ('scipy', 'concurrent.futures.process') if m in sys.modules))"
    )
    assert run_python(code) == "[]"


@needs_proc_tasks
def test_import_leaves_one_thread():
    # numpy's OpenBLAS would otherwise start a pool that only spins
    assert run_python(f"import gstbn; print({TASKS})") == "1"


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_an_explicit_thread_count_wins(var):
    code = "import os, gstbn; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_python(code, **{var: "2"}) == ("2" if var == "OPENBLAS_NUM_THREADS" else "None")


def test_a_process_that_loaded_numpy_first_is_left_alone():
    code = "import numpy, os, gstbn; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_python(code) == "None"


def score_argv(scenario, tmp_path):
    files = generate_scenario(scenario, tmp_path / "in")
    return [
        "score",
        "--sensors", str(files.catalog_path),
        "--grids", *map(str, files.grid_paths),
        "--out", str(tmp_path / "report.json"),
    ]


@needs_proc_tasks
def test_a_command_runs_on_one_thread(small_scenario, tmp_path):
    argv = score_argv(small_scenario, tmp_path)
    code = f"import gstbn.cli; code = gstbn.cli.main({argv!r}); print(code, {TASKS})"
    assert run_python(code) == "0 1"
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("call, frozen", [
    # `python -m gstbn.cli` and the `gstbn` script call main() with no argv
    ("sys.argv = ['gstbn', *{argv!r}]; code = gstbn.cli.main()", True),
    ("code = gstbn.cli.main({argv!r})", False),
], ids=["entry", "argv"])
def test_only_the_process_entry_freezes_the_import_heap(call, frozen, small_scenario, tmp_path):
    argv = score_argv(small_scenario, tmp_path)
    code = f"import gc, sys, gstbn.cli; {call.format(argv=argv)}; print(code, gc.get_freeze_count() > 0)"
    assert run_python(code) == f"0 {frozen}"
    assert (tmp_path / "report.json").exists()


@pytest.fixture
def bench_scenario(monkeypatch):
    """`bench/scenario.py`, which generates the benchmark's scenarios."""
    path = Path(__file__).resolve().parents[1] / "bench" / "scenario.py"
    spec = importlib.util.spec_from_file_location("bench_scenario", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", [
    ["score"],
    ["robustness", "--remove", "2"],
    ["optimize", "--trials", "20", "--trace", "trace.csv"],
])
def test_a_command_leaves_numpy_ma_unimported(command, bench_scenario, tmp_path):
    # numpy 2.x imports numpy.ma on the first hash-based np.unique, about 11 ms a
    # run, the scenario generator is only for `gstbn synth`, and the grid reads
    # run on a plain thread: concurrent.futures would bring logging, about 3 ms
    files = bench_scenario.generate(bench_scenario.load_spec("tiny"), 1, tmp_path / "in")
    argv = [
        *command,
        "--sensors", str(files.catalog),
        "--grids", *map(str, files.grids),
        "--out", str(tmp_path / "out" / "report.json"),
    ]
    unloaded = ("numpy.ma", "gstbn.synth", "concurrent.futures", "logging")
    code = (
        "import os, sys, gstbn.cli; "
        f"os.chdir({str(tmp_path)!r}); "
        f"code = gstbn.cli.main({argv!r}); "
        f"print(code, [m for m in {unloaded!r} if m in sys.modules])"
    )
    assert run_python(code) == "0 []"
