"""Import layering: ``repro.gda`` sits below the service and the tools.

``repro.runtime``, ``repro.tuner``, ``repro.experiments`` and
``repro.cli`` all build on the GDA engine, so ``repro.gda`` must import
none of them — not at module level, not inside a function, not under
``TYPE_CHECKING``.  Every ``import`` statement in ``src/repro/gda`` is
checked on the AST, relative imports resolved against their package.
The shared value checks (``repro.checks``) import nothing from the
package, and the config (``repro.pipeline.config``) nothing from the
runtime.  No module under ``src/`` imports scipy: numpy is the one
install requirement.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = ("repro.runtime", "repro.tuner", "repro.experiments", "repro.cli")


def imported_modules(source: str, package: str) -> list[str]:
    """Every module an ``import``/``from … import`` in ``source`` names.

    ``package`` is the dotted package the source lives in, for
    resolving relative imports.
    """
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            names.append(base)
            names.extend(f"{base}.{alias.name}" for alias in node.names)
    return names


def violations(source: str, package: str) -> list[str]:
    return [
        name
        for name in imported_modules(source, package)
        if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)
    ]


def gda_modules() -> list[Path]:
    return sorted((SRC / "repro" / "gda").rglob("*.py"))


def package_of(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts if path.name == "__init__.py" else parts[:-1])


def test_gda_modules_found():
    assert any(path.name == "engine.py" for path in gda_modules())


@pytest.mark.parametrize(
    "path", gda_modules(), ids=lambda p: str(p.relative_to(SRC))
)
def test_gda_imports_nothing_above_it(path):
    assert violations(path.read_text(), package_of(path)) == []


@pytest.mark.parametrize(
    "source",
    [
        "from repro.runtime.scheduler import JobScheduler",
        "import repro.cli",
        "def f():\n    from repro.experiments import common",
        "if TYPE_CHECKING:\n    from repro.tuner import Tuner",
        "from repro import runtime",
        "from ...runtime import service",
    ],
)
def test_checker_catches_upward_imports(source):
    assert violations(source, "repro.gda.engine") != []


def test_value_checks_are_a_leaf():
    # Every layer imports the shared value checks, so they import no
    # part of the package themselves.
    path = SRC / "repro" / "checks.py"
    assert not [
        name for name in imported_modules(path.read_text(), "repro")
        if name == "repro" or name.startswith("repro.")
    ]


def test_config_does_not_import_the_runtime():
    path = SRC / "repro" / "pipeline" / "config.py"
    assert not [
        name for name in imported_modules(path.read_text(), "repro.pipeline")
        if name == "repro.runtime" or name.startswith("repro.runtime.")
    ]


def test_no_module_imports_scipy():
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in imported_modules(path.read_text(), package_of(path))
        if name == "scipy" or name.startswith("scipy.")
    ]
    assert offenders == []


def test_checker_catches_scipy():
    source = "def f():\n    from scipy.optimize import linprog"
    assert "scipy.optimize" in imported_modules(source, "repro.gda.systems")


def test_checker_allows_lower_layers():
    source = (
        "from repro.net.matrix import BandwidthMatrix\n"
        "from repro.pipeline.deploy import Deployment\n"
        "from . import dag\n"
        "from ..systems import base\n"
    )
    assert violations(source, "repro.gda.engine") == []
