"""The harness's own self-test: a corrupted answer must fail the run.

``python3 benchmarks/omq/selftest.py`` runs every workload briefly with
every seventh observed answer damaged on its way into the correctness
gate (a Python-level switch of ``run_workload``: no flag, no
environment variable) and requires the gate to count failed operations
and the run to exit non-zero; then one clean run, which must pass.
Exits 0 when the gate behaved on all of them.
"""

from __future__ import annotations

import sys

from common import HERE
from run import WORKLOADS, run_workload

SECONDS = 1


def exit_code(result) -> int:
    return 0 if result["correct"] else 1  # as run.py's main() does


def main() -> int:
    out_dir = HERE / "out" / "selftest"
    wrong = 0
    for name in WORKLOADS:
        result = run_workload(name, 0, SECONDS, False, out_dir,
                              corrupt=True)
        caught = exit_code(result) != 0 and result["failed"] > 0
        print(f"{name:16} corrupted: failed {result['failed']} of "
              f"{result['attempted']}, exit code {exit_code(result)} "
              f"-> {'caught' if caught else 'MISSED'}")
        wrong += not caught
    clean = run_workload("eval-tables", 0, SECONDS, False, out_dir)
    print(f"{'eval-tables':16} clean: failed {clean['failed']} of "
          f"{clean['attempted']}, exit code {exit_code(clean)}")
    wrong += exit_code(clean) != 0
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
