"""Every demo script runs to completion, and a pinned one prints what it printed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqbench

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

# demos whose printed output is pinned byte for byte
EXPECTED_OUTPUT = {
    "03_autodiff.py": """\
loss = 0.2204915136324394
bias gradient, analytic : [-0.51652682  0.20692253]
bias gradient, numeric  : [-0.51652682  0.20692253]
max abs difference      : 5.00199881514618e-11

minimizing |theta|^2 from theta = (3, -2), 40 steps each:
  sgd       -> |theta| = 4.79e-04
  momentum  -> |theta| = 4.18e-01
  adagrad   -> |theta| = 4.63e-05
  adam      -> |theta| = 3.17e-01
""",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    src = str(Path(seqbench.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    if demo.name in EXPECTED_OUTPUT:
        assert done.stdout == EXPECTED_OUTPUT[demo.name]
