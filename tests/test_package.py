import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import rpsets


def test_every_export_resolves():
    missing = [name for name in rpsets.__all__ if not hasattr(rpsets, name)]
    assert not missing


# perfbench/tracer.py times these by name and silently skips a name that no
# longer exists, so a rename would zero a per-layer metric.
TRACED = {
    "cli": ("render_records",),
    "bounds": (
        "check_f", "check_fk", "check_phi", "check_phik",
        "partition_sum_f", "partition_sum_fk", "partition_identity_f", "partition_identity_fk",
    ),
    "oracle": ("oracle_count",),
    "sieve": ("build_sieve", "divisors"),
    "exactmath": ("binomial",),
    "counting": ("f_interval", "fk_interval", "phi_interval", "phik_interval"),
}


@pytest.mark.parametrize("layer", sorted(TRACED))
def test_traced_names_are_functions_of_their_module(layer):
    module = importlib.import_module(f"rpsets.{layer}")
    for name in TRACED[layer]:
        obj = getattr(module, name, None)
        assert inspect.isfunction(obj), name
        assert obj.__module__ == module.__name__, name


def test_runtime_imports_are_stdlib_only():
    # no runtime dependencies: every absolute import in the package is a
    # standard library module, whatever else is installed
    modules = sorted(Path(rpsets.__file__).parent.glob("*.py"))
    seen = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                seen.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                seen.add((path.name, node.module))
    outside = [(name, module) for name, module in seen
               if module.partition(".")[0] not in sys.stdlib_module_names]
    assert len(modules) > 5 and seen
    assert not outside
