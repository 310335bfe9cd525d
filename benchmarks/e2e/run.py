"""Entry point of the end-to-end benchmark; see harmless_e2e/cli.py.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed N] [--passes P] [--trace] [--aa] [--profile]
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
# The driver's command cannot set PYTHONPATH, so find the program here.
sys.path[:0] = [str(HERE), str(HERE.parent.parent / "src")]

try:
    import repro  # noqa: F401
except ImportError:
    sys.exit("run.py: the program under test (src/repro) is not in this checkout")

from harmless_e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
