"""Entry point of the spiketrim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a spiketrim checkout. The benchmark itself runs in one
child process, perfbench/bench.py, whose environment pins BLAS and OpenMP to
one thread and imports spiketrim from this checkout's src/. This process only
checks the checkout, starts the child, waits for it and passes on its exit
code; the child prints the result line.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 170  # a run must end within 180 s

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": str(ROOT / "src"),
}


def main() -> int:
    if not (ROOT / "src" / "spiketrim" / "__init__.py").is_file():
        print(f"perfbench: no spiketrim sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    cmd = [sys.executable, str(ROOT / "perfbench" / "bench.py"), *sys.argv[1:]]
    child = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV})
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {TIMEOUT_S} s; stopped", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
