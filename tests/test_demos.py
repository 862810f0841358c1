import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("0*.py")), ids=lambda path: path.stem)
def test_demo_output_golden(demo):
    # Demos 02 and 05 print engine justifications, so their output also pins
    # chart order.  Demo 02 names the file it writes by its absolute path,
    # which the golden spells from the repository root.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, check=True
    )
    got = done.stdout.replace(f"{DEMOS}{os.sep}", "demos/")
    want = (GOLDEN / f"demo-{demo.name[:2]}.txt").read_text()
    assert got == want
