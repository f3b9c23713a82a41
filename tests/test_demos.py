"""Every demo script, and the README's library quick start, runs to
completion without leaking a RuntimeWarning."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          str(demo)], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_readme_quick_start_runs(tmp_path):
    # the README's one python block, run as printed, in a fresh directory
    # for the table it writes
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-c", blocks[0]], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == "26"    # N + 1 truth solves
    assert (tmp_path / "table_r1.csv").is_file()
