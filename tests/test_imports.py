"""What importing the package loads, and what a timed path loads.

The package namespaces are lazy (``repro._lazy``), so ``import repro``
compiles almost nothing; these checks keep it that way, keep the public
names unchanged, and keep every module a timed path needs imported
before that path's first call.  Each check runs in a fresh interpreter,
since this one has imported most of the package already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.sweeps import ENGINE_FACTORIES

SRC = str(Path(repro.__file__).resolve().parent.parent)
DATA = Path(__file__).parent / "data"

#: Modules that only linting, drills, checkpoints, trace diffs,
#: reports, verification or the service's sockets need.
DEFERRED = {
    "repro.lint", "repro.analysis.drill", "repro.machine.checkpoint",
    "repro.obs.diff", "repro.analysis.report", "repro.analysis.verify",
    "asyncio", "http.client", "ssl",
}


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed


@pytest.mark.parametrize("args", [
    ("-c", "import repro"),
    ("-c", "import repro.analysis.parallel"),
    ("-m", "repro", "--help"),
], ids=["import-repro", "import-parallel", "cli-help"])
def test_entry_points_load_no_deferred_module(args):
    # -S: no site-packages, whose .pth files may import anything.
    importtime = run_python("-S", "-X", "importtime", *args).stderr
    loaded = {line.rsplit("|", 1)[1].strip()
              for line in importtime.splitlines()
              if line.startswith("import time:")}
    assert "repro" in loaded
    assert not loaded & DEFERRED, sorted(loaded & DEFERRED)


PUBLIC_NAMES = """
import importlib, json, pickle, sys
pinned = json.loads(sys.argv[1])
found = {}
for package_name in pinned:
    package = importlib.import_module(package_name)
    for name in package.__all__:
        getattr(package, name)
    assert set(package.__all__) <= set(dir(package)), package_name
    namespace = {}
    exec(f"from {package_name} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(package.__all__)
    found[package_name] = sorted(package.__all__)
import repro
assert pickle.loads(pickle.dumps(repro.CRAY1_LIKE)) == repro.CRAY1_LIKE
print(json.dumps(found))
"""


def test_public_names_resolve_and_are_unchanged():
    """Every ``__all__`` name of every package resolves, ``import *``
    binds exactly ``__all__``, and the names are the pinned ones."""
    pinned = json.loads((DATA / "public_names.json").read_text())
    stdout = run_python("-c", PUBLIC_NAMES, json.dumps(pinned)).stdout
    assert json.loads(stdout) == pinned


FIRST_CALLS = """
import json, sys, tempfile
from repro.analysis.parallel import ParallelRunner, SimPoint
from repro.analysis.sweeps import ENGINE_FACTORIES
from repro.machine.config import CRAY1_LIKE
from repro.obs import TraceRecorder, attribute_cycles, chrome_trace, \\
    validate_chrome_trace
from repro.workloads.suites import livermore_suite

workload = livermore_suite("quick")[0]
found = {}

def first_call(label, call):
    before = set(sys.modules)
    call()
    found[label] = sorted(name for name in set(sys.modules) - before
                          if name.startswith("repro"))

def build(name):
    return ENGINE_FACTORIES[name](workload.program, CRAY1_LIKE,
                                  workload.make_memory())

for name in ENGINE_FACTORIES:
    first_call(name, lambda: build(name).run())
engine = build("ruu-bypass")
engine.recorder = recorder = TraceRecorder(detail=True)
result = engine.run()
first_call("trace export", lambda: (
    attribute_cycles(result, recorder),
    validate_chrome_trace(chrome_trace(recorder), cycles=result.cycles)))
with tempfile.TemporaryDirectory() as cache_dir:
    runner = ParallelRunner(jobs=1, cache_dir=cache_dir)
    points = [SimPoint("rstu", workload, CRAY1_LIKE)]
    first_call("cold run_points", lambda: runner.run_points(points))
    first_call("warm run_points", lambda: runner.run_points(points))
print(json.dumps(found))
"""


def test_first_timed_calls_load_no_new_module():
    """An engine run, a trace export and a cached sweep point load no
    ``repro`` module on their first call: its compile would land in
    the first timed interval."""
    found = json.loads(run_python("-c", FIRST_CALLS).stdout)
    assert set(found) == set(ENGINE_FACTORIES) | {
        "trace export", "cold run_points", "warm run_points"}
    assert {label: new for label, new in found.items() if new} == {}
