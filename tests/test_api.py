import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
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


@pytest.mark.parametrize("name", ["metrics", "surface", "tables"])
def test_pure_core_does_not_import_the_io_layers(name):
    # the arithmetic must stay usable without the adapters, the corpus files or the CLI
    source = (Path(asibench.__file__).parent / f"{name}.py").read_text(encoding="utf-8")
    assert runtime_imports(source) & {"harness", "registry", "cli"} == set()


def csv_readers(source: str) -> list[str]:
    """Each ``csv.reader`` or ``csv.DictReader`` that ``source`` uses or imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "csv" and node.attr in ("reader", "DictReader"):
                found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found += [a.name for a in node.names if a.name in ("reader", "DictReader")]
    return found


def test_only_the_table_reader_reads_csv():
    # every table goes through tables.rows, which holds the header, field-count and line rules
    package = Path(asibench.__file__).parent
    readers = {
        path.name: csv_readers(path.read_text(encoding="utf-8"))
        for path in package.glob("*.py")
    }
    assert readers.pop("tables.py") == ["reader"]
    assert {name: found for name, found in readers.items() if found} == {}


def thread_and_queue_constructions(source: str) -> list[str]:
    """Each ``threading.Thread`` and ``queue.Queue`` that ``source`` constructs or imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = ast.unparse(node.func)
            if name in ("threading.Thread", "queue.Queue"):
                found.append(name)
        elif isinstance(node, ast.ImportFrom) and node.module in ("threading", "queue"):
            found += [a.name for a in node.names if a.name in ("Thread", "Queue")]
    return found


def test_the_registry_has_one_background_stream():
    # perturb's writes and the toy's decoding share registry._behind: one thread, one queue
    source = (Path(asibench.__file__).parent / "registry.py").read_text(encoding="utf-8")
    assert sorted(thread_and_queue_constructions(source)) == ["queue.Queue", "threading.Thread"]


# Names the benchmark's tracer wraps although the program no longer has them; a span
# over one of them reads 0.
STALE_TRACED_NAMES = {
    ("harness", "read_netpbm"),
    ("cli", "read_netpbm"),
    ("registry", "verify_manifest"),
    ("harness", "verify_manifest"),
    ("harness", "load_accuracy_table"),
}


def test_every_name_the_benchmark_traces_resolves():
    """Each (owner, attr) that perfbench/tracing.py wraps exists, but for the known stale ones."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t for _, owners, _ in tracing.PATCHES for t in owners]
    targets.append(("harness.SubprocessAdapter", "_ensure"))  # the spawn counter
    missing = {(owner, attr) for owner, attr in targets
               if not callable(getattr(tracing._resolve(owner), attr, None))}
    assert missing - STALE_TRACED_NAMES == set()


# Runs in a fresh interpreter: what `import asibench.cli` and the light commands load,
# and what each public name of the package resolves to.
IMPORT_PROBE = """\
import contextlib, io, json, sys
HEAVY = ["numpy", "asibench.image", "asibench.perturb", "asibench.registry",
         "asibench.harness"]
loaded = lambda: [m for m in HEAVY if m in sys.modules]
import asibench.cli
after_import = loaded()
codes = []
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            asibench.cli.main(args, prog_name="asibench")
        except SystemExit as exc:
            codes.append(exc.code)
after_commands = loaded()
import asibench
star = {}
exec("from asibench import *", star)
misplaced = []
for name in asibench.__all__:
    obj = getattr(asibench, name)
    if getattr(sys.modules[obj.__module__], name) is not obj or star[name] is not obj:
        misplaced.append(name)
print(json.dumps({"after_import": after_import, "codes": codes,
                  "after_commands": after_commands, "misplaced": misplaced}))
"""


def test_the_cli_and_its_light_commands_load_no_numpy(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("classifier,cv,mean,asi\na,2.276,85.250,0.948\nb,3.000,80.000,0.900\n")
    table = tmp_path / "acc.csv"
    table.write_text("classifier,condition,accuracy\na,0,90.0\na,1,80.0\nb,0,70.0\n")
    commands = [
        ["--help"],
        ["report", "--scores", str(scores)],
        ["compare", "--reference", "R4", "R8"],
        ["compare", "--scores", str(scores), "a", "b"],
        ["score", "--table", str(table)],
        ["score", "--table", str(table), "--out", str(tmp_path / "out.csv")],
    ]
    src = str(Path(asibench.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "after_import": [], "codes": [0] * len(commands), "after_commands": [],
        "misplaced": [],
    }
