"""The demos run and print exactly the text in tests/demo_output.

Each demo seeds its own random choices, so its stdout is fixed; it must
not depend on the string-hash seed either.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("hash_seed", ["1", "99"])
@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_output(demo, hash_seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_text()


def test_every_demo_is_pinned():
    pinned = sorted(path.stem for path in (ROOT / "tests" / "demo_output").glob("*.txt"))
    assert pinned == [demo.stem for demo in DEMOS]
