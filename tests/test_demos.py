"""The demos that reach ``certify`` or call a sweep run to the end as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_graphs_and_certificates.py", "03_condition_number_study.py",
                                  "04_solver_comparison.py", "05_theory_margins.py"])
def test_demo_exits_zero(demo, tmp_path):
    # the child finds detmc as the suite does, with src on PYTHONPATH
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
