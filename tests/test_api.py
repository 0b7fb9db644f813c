import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import asibench

MODULES = ["asibench"] + [
    f"asibench.{info.name}" for info in pkgutil.iter_modules(asibench.__path__) if not info.ispkg
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # `from module import *` raises on a name in __all__ that the module lacks
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def runtime_imports(source: str) -> set[str]:
    """Top-level names of the asibench modules that ``source`` imports when it runs.

    Imports under ``if TYPE_CHECKING:`` are left out: they run only for a type checker.
    """
    found = set()

    def visit(node):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            node = ast.Module(body=node.orelse, type_ignores=[])
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("asibench.") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("asibench").lstrip(".")
            found.update([module] if module else [a.name for a in node.names])
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return {name.split(".")[0] for name in found}


def test_runtime_imports_leaves_out_type_checking_blocks():
    source = (
        "from . import cli\n"
        "from asibench.metrics import asi\n"
        "if TYPE_CHECKING:\n"
        "    from .harness import AccuracySeries\n"
        "def f():\n"
        "    import asibench.registry\n"
    )
    assert runtime_imports(source) == {"cli", "metrics", "registry"}


@pytest.mark.parametrize("name", ["metrics", "surface"])
def test_pure_core_does_not_import_the_io_layers(name):
    # the arithmetic must stay usable without the adapters, the corpus files or the CLI
    source = (Path(asibench.__file__).parent / f"{name}.py").read_text(encoding="utf-8")
    assert runtime_imports(source) & {"harness", "registry", "cli"} == set()
