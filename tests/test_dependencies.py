"""The runtime needs numpy and PyYAML alone: scipy is a test-only dependency."""

import os
import subprocess
import sys
from pathlib import Path

import beliefnet

# Runs in a fresh interpreter, where any import of scipy fails: the CLI module,
# a bootstrap, a query and a Sobol index must not reach for it.
SCRIPT = r"""
import importlib.abc
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None


sys.meta_path.insert(0, NoScipy())

import numpy as np

import beliefnet.cli  # noqa: F401  (every command module, imported as the CLI does)
from beliefnet.analysis import sobol_first_order
from beliefnet.data import DataTable
from beliefnet.inference import fit_bayes, posterior
from beliefnet.learn import bootstrap_strengths
from beliefnet.model import CategoricalVariable, Dag

rng = np.random.default_rng(7)
a = rng.integers(0, 2, 120)
b = np.where(rng.random(120) < 0.2, 1 - a, a)
c = np.where(rng.random(120) < 0.3, rng.integers(0, 3, 120), b)
variables = [CategoricalVariable(n, ("l0", "l1", "l2")[:r])
             for n, r in (("A", 2), ("B", 2), ("C", 3))]
data = DataTable(variables, np.stack([a, b, c], axis=1).astype(np.int32))
assert bootstrap_strengths(data, b=2, seed=7).b == 2
net = fit_bayes(Dag(("A", "B", "C"), {"B": ("A",), "C": ("B",)}), data)
posterior(net, "C", {"A": "l1"})
sobol_first_order(net, "C", "A")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
print("ok")
"""


def test_pipeline_runs_without_scipy():
    src = str(Path(beliefnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
