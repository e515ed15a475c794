"""The library names that the benchmark in `perfbench/` relies on.

`perfbench/` is not changed along with the library, so a trimmed or renamed
name would only show up as a failed benchmark run.  These tests read the
benchmark's own sources and resolve every library name they use.
"""

import ast
import importlib
import os
import sys

import pytest

import dividend_opt

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(PERFBENCH)


def library_attributes(filename):
    """(module, attribute) for every `alias.attribute` in a perfbench source,
    where the alias is bound by `import dividend_opt [as alias]` or
    `from dividend_opt import module`."""
    with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name, a.name) for a in node.names
                           if a.name == "dividend_opt")
        elif isinstance(node, ast.ImportFrom) and node.module == "dividend_opt":
            aliases.update((a.asname or a.name, f"dividend_opt.{a.name}")
                           for a in node.names)
    return sorted({(aliases[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id in aliases})


def test_every_tracer_target_resolves(tracer):
    assert tracer.TARGETS
    for module_name, cls_name, attr, *_ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr)), (module_name, cls_name, attr)


@pytest.mark.parametrize("filename", ["workloads.py", "run.py"])
def test_every_library_name_exists(filename):
    used = library_attributes(filename)
    assert used
    missing = [f"{module}.{attr}" for module, attr in used
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_simulation_config_call_forms():
    # workloads.py passes paths, horizon and seed by position, the barrier by name
    config = dividend_opt.SimulationConfig(50, 250.0, 1, barrier=5.33)
    assert (config.paths, config.horizon, config.seed, config.barrier) == (50, 250.0, 1, 5.33)


def test_backend_name_is_python():
    assert dividend_opt.backend_name() == "python"
