import subprocess
import sys
from pathlib import Path

import gstbn


def test_import_loads_neither_scipy_nor_a_process_pool():
    # every CLI call pays the import, and scipy alone used to add about 0.4 s
    src = str(Path(gstbn.__file__).resolve().parents[1])
    code = (
        "import sys, gstbn; "
        "print(sorted(m for m in ('scipy', 'concurrent.futures.process') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
