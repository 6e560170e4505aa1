"""Every module of the system is on a path something runs.

The entry points are what a user runs: the ``Platform`` facade, the
Section 5 use cases and the seven examples.  From them the walk follows
imported *names*, not modules: ``from repro.kafka import Producer``
reaches ``repro.kafka.producer`` through the package ``__init__`` that
re-exports it, and nothing else that ``__init__`` imports.  Imports
inside functions count, since the facade loads its chaos harness and
control plane that way.

A ``src/repro`` module the walk does not reach is dead to every user.
The ones that are known sit in :data:`UNREACHED`, each with the
ROADMAP item that decides it; the test fails when that list is not
exactly what the walk finds, so it can only shrink.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Modules nothing runs, and the ROADMAP item that joins them to a path
#: or deletes them.
UNREACHED = {
    "repro.flink.jobserver": "item 13",
    "repro.flink.watchdog": "item 13",
    "repro.kafka.dlq": "item 15",
    "repro.kafka.federation": "item 15",
    "repro.kafka.proxy": "item 15",
    "repro.kafka.admin": "item 15",
    "repro.kafka.consumer": "item 15",
    "repro.storage.hdfs": "item 15",
    "repro.allactive.offsetsync": "item 15",
    "repro.metadata.catalog": "item 15",
    "repro.metadata.registry": "item 15",
}


def _path(module: str) -> Path | None:
    base = SRC.joinpath(*module.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _imports(path: Path):
    """``(module, name)`` per imported name anywhere in the file;
    ``name`` is None for a plain ``import module``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                yield node.module, alias.name


class _Walk:
    def __init__(self) -> None:
        self.reached: set[str] = set()

    def module(self, module: str) -> None:
        """``module`` runs: so does every name it imports."""
        path = _path(module)
        if path is None or module in self.reached:
            return
        self.reached.add(module)
        for imported, name in _imports(path):
            self.name(imported, name)

    def name(self, module: str, name: str | None) -> None:
        """``from module import name``: reach what defines ``name``."""
        if module.split(".")[0] != "repro":
            return
        path = _path(module)
        if name is None or path is None or path.name != "__init__.py":
            self.module(module)
        elif _path(f"{module}.{name}") is not None:
            self.module(f"{module}.{name}")
        else:
            for imported, alias in _reexports(path):
                if alias == name:
                    self.name(*imported)
                    return
            self.module(module)  # bound in the __init__ itself: all of it runs


def _reexports(init: Path):
    """``((module, name), bound name)`` per top-level ``from`` import."""
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield (node.module, alias.name), alias.asname or alias.name


def _src_modules() -> dict[str, Path]:
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts): path
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
    }


def _unreached() -> dict[str, int]:
    walk = _Walk()
    walk.module("repro.platform")
    for module in _src_modules():
        if module.startswith("repro.usecases."):
            walk.module(module)
    examples = sorted((REPO / "examples").glob("*.py"))
    assert examples
    for example in examples:
        for module, name in _imports(example):
            walk.name(module, name)
    return {
        module: len(path.read_text().splitlines())
        for module, path in sorted(_src_modules().items())
        if module not in walk.reached
    }


def test_unreached_modules_are_exactly_the_allow_list():
    unreached = _unreached()
    listing = "\n".join(f"  {m} ({n} lines)" for m, n in unreached.items())
    summary = f"{len(unreached)} modules, {sum(unreached.values())} lines"
    assert set(unreached) == set(UNREACHED), (
        f"src/repro modules no entry point reaches ({summary}):\n{listing}\n"
        "a new one is dead code; one that left the list leaves UNREACHED"
    )


def test_the_system_imports_no_ruler_or_test():
    found = [
        f"{path.relative_to(REPO)}: {module}"
        for path in sorted(SRC.rglob("*.py"))
        for module, __ in _imports(path)
        if module.split(".")[0] in ("benchmarks", "tests")
    ]
    assert not found, found


def test_importing_the_package_loads_no_unreached_module():
    # A package ``__init__`` that re-exports an unreached module makes
    # every ``import repro`` pay for code no entry point runs.
    probe = (
        "import sys, repro; "
        f"print(sorted(m for m in {sorted(UNREACHED)!r} if m in sys.modules))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        check=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        text=True,
    ).stdout
    assert loaded == "[]\n"
