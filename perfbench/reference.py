"""Re-measure the reference figures the baseline is compared with.

    python3 perfbench/reference.py

Prints one JSON object: the median wall time of the README's
`check-representable` command, `census(5, 8, 6)`, and a one-trial
`verify_subscheme` for the complete intersection a = (20, 20, 20),
b = (30, 30) at d = 30.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

from curvedet import decide, resolution, witness  # noqa: E402
from workloads import child_env  # noqa: E402

README_MATRIX = "[[0,1,10,11],[-1,0,9,10],[-5,-4,5,6],[-8,-7,2,3]]"


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    env = child_env(str(SRC))
    argv = [sys.executable, "-m", "curvedet.cli", "check-representable", "--matrix", README_MATRIX]
    subprocess.run(argv, env=env, check=True, capture_output=True)
    cli_s = _median_s(lambda: subprocess.run(argv, env=env, check=True, capture_output=True), 21)

    census = {}
    census_s = _median_s(lambda: census.update(decide.census(5, 8, 6)), 3)

    Q = resolution.BettiData((20, 20, 20), (30, 30)).to_dhb()
    reports = []
    witness_s = _median_s(lambda: reports.append(witness.verify_subscheme(Q, 30, trials=1, seed=0)), 3)
    if not all(r.ok for r in reports):
        raise SystemExit("the d = 30 witness reported a mismatch")

    print(json.dumps({
        "cli_check_representable_ms": cli_s * 1e3,
        "census_5_8_6_s": census_s,
        "census_5_8_6_total": census["total"],
        "verify_subscheme_d30_s": witness_s,
    }))


if __name__ == "__main__":
    main()
