"""The mask-product kernels and the constants they read live in one module.

A module that re-binds a kernel name, as ``from ._kernel import
_PAIR_BLOCK`` would, takes a monkeypatch of that name with no effect on
the kernels, so the tests that shrink ``_PAIR_BLOCK`` or move a size
cutoff would stop reaching the paths they patch it for, and still pass.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import rigidcomm
from rigidcomm import _kernel

CONSTANTS = ("_PAIR_BLOCK", "_SCALAR_MEMBERS", "_DENSE_MAX_RANK", "_SCALAR_PAIRS", "_SCALAR_PRUNE")


def _modules():
    yield rigidcomm
    for info in pkgutil.iter_modules(rigidcomm.__path__):
        yield importlib.import_module(f"rigidcomm.{info.name}")


def test_each_kernel_and_cutoff_is_bound_in_one_module():
    kernels = [name for name, value in vars(_kernel).items()
               if callable(value) and getattr(value, "__module__", None) == _kernel.__name__]
    assert {"_witnesses", "_scan", "_uncovered", "_uncovered_ints", "_parked", "_close"} <= set(kernels)
    modules = list(_modules())
    for name in (*CONSTANTS, *kernels):
        assert [m.__name__ for m in modules if name in vars(m)] == ["rigidcomm._kernel"], name


def test_chain_and_cli_reach_no_private_name_of_saturated():
    src = Path(rigidcomm.__file__).parent
    for module in ("chain.py", "cli.py"):
        private = []
        for node in ast.walk(ast.parse((src / module).read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "saturated":
                private += [alias.name for alias in node.names if alias.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "saturated" and node.attr.startswith("_"):
                    private.append(node.attr)
        assert private == [], module
