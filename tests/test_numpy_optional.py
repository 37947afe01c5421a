"""numpy is a dependency of trace-driven workloads only.

Each scenario runs in a fresh interpreter: ``import repro``, one
Debit-Credit point, one 2-node cluster point and ``python -m repro
registry`` must neither load numpy nor need it, and the first use of a
trace without numpy must say what is missing.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Makes every ``import numpy`` raise ImportError, as if not installed.
BLOCK_NUMPY = 'import sys\nsys.modules["numpy"] = None\n'

#: Without numpy's help, a synthetic-workload process: the package, a
#: Debit-Credit point, a 2-node cluster point and the registry command.
SYNTHETIC_SCENARIO = """
import runpy

import repro
from repro.cluster import ShardedDebitCreditWorkload, cluster_config, node_scheme
from repro.core.model import TransactionSystem
from repro.experiments.defaults import debit_credit_config, disk_only
from repro.workload.debit_credit import DebitCreditWorkload

config = debit_credit_config(disk_only(), seed=1)
results = TransactionSystem(
    config, DebitCreditWorkload(arrival_rate=200)).run(warmup=0.5, duration=1)
assert results.committed > 0, results

config = cluster_config(node_scheme(log="nvem"), num_nodes=2, seed=1)
workload = ShardedDebitCreditWorkload.for_cluster(
    config, arrival_rate_per_node=50.0, distributed_fraction=0.3)
results = config.build_system(workload).run(warmup=0.5, duration=1)
assert results.committed > 0, results

sys.argv = ["repro", "registry"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
"""


def run_python(source: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", source], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("blocked", [False, True],
                         ids=["numpy-installed", "numpy-blocked"])
def test_synthetic_workloads_never_load_numpy(blocked):
    source = (BLOCK_NUMPY if blocked else "import sys\n") + SYNTHETIC_SCENARIO
    source += textwrap.dedent("""
        loaded = [name for name, module in sys.modules.items()
                  if name.partition(".")[0] == "numpy"
                  and module is not None]
        assert not loaded, loaded
        print("ok")
    """)
    done = run_python(source)
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip().endswith("ok")


def test_trace_without_numpy_names_the_missing_dependency():
    source = BLOCK_NUMPY + textwrap.dedent("""
        from repro.experiments import trace_setup

        try:
            trace_setup.trace_for(fast=True)
        except ImportError as exc:
            print(exc)
        else:
            raise SystemExit("a trace was built without numpy")
    """)
    done = run_python(source)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("trace-driven workloads need numpy")
