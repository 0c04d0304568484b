"""The import graph between the numerical modules of vpwave."""

import ast
from pathlib import Path

import vpwave

PACKAGE = Path(vpwave.__file__).parent
NUMERICAL = {"chebyshev", "functions", "filters", "bases", "operators", "mra"}


def _package_imports(path: Path) -> set:
    """The modules of the package that the source file imports relatively,
    counting ``from . import x`` as an import of x."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_module_layers():
    graph = {m: _package_imports(PACKAGE / f"{m}.py") for m in NUMERICAL}
    assert graph["chebyshev"] == set()
    assert graph["functions"] == set()
    assert graph["filters"] <= {"chebyshev"}
    assert graph["bases"] <= {"chebyshev", "filters"}
    for module in ("operators", "mra"):  # so neither imports the other
        assert graph[module] <= {"chebyshev", "filters", "bases"}, module


def test_import_reader_counts_every_relative_form(tmp_path):
    (tmp_path / "probe.py").write_text("from . import bases, filters as f\n"
                                       "from .chebyshev import dct\n"
                                       "from .mra.sub import x\n"
                                       "import numpy\nfrom numpy import pi\n")
    assert _package_imports(tmp_path / "probe.py") == {"bases", "filters", "chebyshev", "mra"}
