"""The names the benchmark harness hooks in swlme resolve.

benchmarks/child.py marks the end of set-up at the first call of each
workload's `first_work`, counts and times `solver.step` and `solver.run`,
and counts the calls of `diagnostics._Expansions`; a hook on a name that is
gone would read 0 without failing.  benchmarks/ is outside this suite, so
its workload table is loaded here from its file.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
HOOKED = ("solver.step", "solver.run", "solver.cfl_dt", "diagnostics._Expansions")


@pytest.fixture(scope="module")
def bench():
    """benchmarks/workloads.py, loaded as a module (its dataclass needs it in sys.modules)."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def first_work(bench, tmp_path_factory):
    """{(workload, tiny): its first_work name}."""
    names = {}
    for name in bench.NAMES:
        for tiny in (False, True):
            work_dir = tmp_path_factory.mktemp(f"{name}-{tiny}")
            names[name, tiny] = bench.make_inputs(name, 1, tiny, str(work_dir)).first_work
    return names


def resolve(dotted: str):
    module, name = dotted.split(".")
    return getattr(importlib.import_module(f"swlme.{module}"), name)


def test_every_workload_names_its_first_work(bench, first_work):
    assert {name for name, _ in first_work} == set(bench.NAMES)
    for key, dotted in first_work.items():
        assert callable(resolve(dotted)), key


@pytest.mark.parametrize("dotted", HOOKED)
def test_hooked_name_resolves(dotted):
    assert callable(resolve(dotted))
