#!/usr/bin/env python
"""Docs CI: code blocks must import-and-run, links must resolve.

Checks, over README.md and every ``docs/*.md``:

1. **Python code blocks compile** — syntax rot in a fenced
   ```` ```python ```` block fails the job;
2. **imports execute** — every top-level ``import`` / ``from … import``
   line in a block actually runs (with ``src/`` on the path), so a
   renamed or removed public name breaks the build the moment a doc
   still mentions it;
3. **blocks marked ``# doctest: run`` execute fully** — for small
   self-contained examples we want exercised end to end;
4. **intra-repo links resolve** — every relative markdown link target
   (``[text](path)``, anchors stripped) must exist on disk;
5. **config coverage** — every field of ``PipelineConfig`` and
   ``ServiceConfig`` must appear (as `` `field_name` ``) in
   docs/OPERATIONS.md, and every row of its knob tables
   (``| field | default | consumed by | notes |``) must name a field,
   so the operator's guide cannot silently rot when a config knob is
   added or removed;
6. **metric coverage** — every ``ServiceSummary.to_row()`` name must
   appear (backticked) in docs/OPERATIONS.md, and every ``/metrics``
   family the hub renders must appear in a table row of
   docs/OBSERVABILITY.md.  Both lists come from the ``metric_field``
   declarations on ``ServiceSummary`` plus the hub's own families;
7. **dotted references resolve** — every backticked name that starts
   ``repro.`` (`` `repro.runtime.JobRun` ``) must import and resolve
   attribute by attribute, so a moved or deleted module cannot linger
   in prose.  A backticked `` `Class.attr` `` whose ``Class`` is a
   class defined under ``src/repro`` must name a method, a class or
   dataclass field, or a ``self.attr`` assigned in the class (or a
   base of it).  The "Removed legacy spellings" section is exempt: it
   lists names that are gone on purpose.

Shell blocks and absolute/external URLs are left alone.  Exit code 0
when everything passes; 1 with a findings list otherwise.

Run locally::

    python scripts/check_docs.py
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Documents the job guards.
DOCUMENTS = (
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/API.md",
    "docs/SCHEDULING.md",
    "docs/OPERATIONS.md",
    "docs/TUNING.md",
)

#: The operator's guide — must document every config field.
OPERATIONS = "docs/OPERATIONS.md"

#: Header row of the knob tables in docs/OPERATIONS.md.
KNOB_TABLE_HEADER = "| field | default | consumed by | notes |"

#: The backticked name in a table row's first cell.
FIRST_CELL = re.compile(r"^\|\s*`([^`]+)`\s*\|")

#: The observability guide — its family table lists every family.
OBSERVABILITY = "docs/OBSERVABILITY.md"

#: The hub module; every ``"wanify_…"`` literal in it is a family it
#: renders by hand.
HUB_SOURCE = "src/repro/runtime/observability/hub.py"

#: A quoted family name in the hub source.
FAMILY_LITERAL = re.compile(r'"(wanify_[a-z0-9_]+)"')

#: A backticked family in a doc table cell (``{labels}`` suffix allowed).
FAMILY_CELL = re.compile(r"`(wanify_[a-z0-9_]+)(?:\{[^}`]*\})?`")

#: ```python … ``` fenced blocks.
CODE_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)

#: [text](target) links, excluding images' inner half and bare URLs.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Marker that promotes a block from compile+imports to full execution.
RUN_MARKER = "# doctest: run"

#: Any fenced block (its lines are code, not headings or prose).
FENCED_BLOCK = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)

#: A markdown heading line.
HEADING = re.compile(r"^(#+)\s+(.*?)\s*$")

#: A backticked span opening with a dotted ``repro.…`` name.
DOTTED_REF = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[^`]*`")

#: A backticked span opening with ``Class.attr`` (capitalized class).
CLASS_ATTRIBUTE_REF = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)[^`]*`")

#: The package whose classes :data:`CLASS_ATTRIBUTE_REF` names are
#: checked against.
PACKAGE = REPO / "src" / "repro"

#: The section whose references name removed API on purpose.
REMOVED_SECTION = "Removed legacy spellings"


def display(path: Path) -> str:
    """Repo-relative spelling when possible (absolute otherwise)."""
    try:
        return str(path.relative_to(REPO))
    except ValueError:
        return str(path)


def iter_documents() -> list[Path]:
    """The markdown files under check (existing ones only)."""
    found = [REPO / name for name in DOCUMENTS if (REPO / name).exists()]
    for extra in sorted((REPO / "docs").glob("*.md")):
        if extra not in found:
            found.append(extra)
    return found


def import_statements(code: str) -> ast.Module:
    """The top-level import statements of a code block, as a module."""
    tree = ast.parse(code)
    imports = [
        node
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    return ast.Module(body=imports, type_ignores=[])


def check_code_blocks(path: Path, failures: list[str]) -> int:
    """Compile each block, execute its imports (or all of it)."""
    text = path.read_text()
    checked = 0
    for index, match in enumerate(CODE_BLOCK.finditer(text), start=1):
        code = match.group(1)
        label = f"{display(path)} block {index}"
        checked += 1
        try:
            compile(code, str(label), "exec")
        except SyntaxError as exc:
            failures.append(f"{label}: does not compile: {exc}")
            continue
        if RUN_MARKER in code:
            compiled = compile(code, str(label), "exec")
        else:
            module = import_statements(code)
            if not module.body:
                continue
            compiled = compile(
                ast.fix_missing_locations(module), str(label), "exec"
            )
        try:
            exec(compiled, {"__name__": "__docs__"})
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(f"{label}: imports failed: {exc!r}")
    return checked


def check_links(path: Path, failures: list[str]) -> int:
    """Every relative link target must exist on disk."""
    checked = 0
    for match in LINK.finditer(path.read_text()):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        checked += 1
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            failures.append(f"{display(path)}: broken link -> {target}")
    return checked


def prose_lines(text: str) -> list[str]:
    """The lines of ``text`` whose references are checked.

    Fenced blocks are skipped, and so is the :data:`REMOVED_SECTION`
    section up to the next heading of the same or a higher level.
    """
    lines: list[str] = []
    exempt_level = 0
    for line in FENCED_BLOCK.sub("", text).splitlines():
        heading = HEADING.match(line)
        if heading:
            level = len(heading.group(1))
            if exempt_level and level <= exempt_level:
                exempt_level = 0
            if heading.group(2) == REMOVED_SECTION:
                exempt_level = level
        elif not exempt_level:
            lines.append(line)
    return lines


def dotted_references(text: str) -> list[str]:
    """Backticked ``repro.…`` names in prose, in order of appearance."""
    return [name for line in prose_lines(text) for name in DOTTED_REF.findall(line)]


def class_attribute_references(text: str) -> list[tuple[str, str]]:
    """Backticked ``(Class, attr)`` pairs in prose, in order of
    appearance (any capitalized name; :func:`check_class_attributes`
    keeps those naming a ``repro`` class)."""
    return [pair for line in prose_lines(text) for pair in CLASS_ATTRIBUTE_REF.findall(line)]


def resolves(name: str) -> bool:
    """Whether ``name`` is an importable module, or an attribute chain
    under the longest importable module prefix of it."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name != module_name:
                return False  # the module exists but its imports fail
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_references(path: Path, failures: list[str]) -> int:
    """Every dotted ``repro.…`` reference must resolve.

    Requires ``src/`` on ``sys.path`` (``main`` arranges this).
    """
    references = dotted_references(path.read_text())
    for name in references:
        if not resolves(name):
            failures.append(
                f"{display(path)}: `{name}` does not resolve (moved or "
                f"removed? list it under \"{REMOVED_SECTION}\")"
            )
    return len(references)


def self_attributes(node: ast.ClassDef) -> set[str]:
    """Names assigned as ``self.name`` in the methods of ``node``."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, (ast.Assign, ast.AnnAssign)):
            targets = child.targets if isinstance(child, ast.Assign) else [child.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if (
                        isinstance(leaf, ast.Attribute)
                        and isinstance(leaf.value, ast.Name)
                        and leaf.value.id == "self"
                    ):
                        names.add(leaf.attr)
    return names


def repro_classes() -> dict[str, list[tuple[str, set[str]]]]:
    """Top-level classes defined under ``src/repro``, by name: each
    as ``(module, self_attributes)``, read from the source."""
    classes: dict[str, list[tuple[str, set[str]]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append((module, self_attributes(node)))
    return classes


def class_has(classes, module: str, name: str, attribute: str) -> bool:
    """Whether ``module.name`` resolves ``attribute``: as an attribute
    of the class (methods, properties, class-level fields, inherited
    ones too), a dataclass field, or a ``self.attribute`` assigned in
    the class or a ``repro`` base of it."""
    cls = getattr(importlib.import_module(module), name)
    if hasattr(cls, attribute) or attribute in getattr(cls, "__dataclass_fields__", {}):
        return True
    return any(
        attribute in assigned
        for base in cls.__mro__
        for base_module, assigned in classes.get(base.__name__, ())
        if base_module == base.__module__
    )


def check_class_attributes(path: Path, failures: list[str], classes=None) -> int:
    """Every backticked ``Class.attr`` naming a ``repro`` class must
    resolve on it (see :func:`class_has`).

    Requires ``src/`` on ``sys.path`` (``main`` arranges this);
    ``classes`` defaults to :func:`repro_classes`.
    """
    classes = classes if classes is not None else repro_classes()
    checked = 0
    for name, attribute in class_attribute_references(path.read_text()):
        if name not in classes:
            continue
        checked += 1
        if not any(class_has(classes, module, name, attribute) for module, _ in classes[name]):
            failures.append(
                f"{display(path)}: `{name}.{attribute}` names no attribute of "
                f"{name} (moved or removed? list it under \"{REMOVED_SECTION}\")"
            )
    return checked


def knob_rows(text: str) -> list[str]:
    """First-cell names of every knob-table row in ``text``."""
    names: list[str] = []
    in_table = False
    for line in text.splitlines():
        if line.strip() == KNOB_TABLE_HEADER:
            in_table = True
        elif not line.startswith("|"):
            in_table = False
        elif in_table and (match := FIRST_CELL.match(line)):
            names.append(match.group(1))
    return names


def check_config_coverage(failures: list[str]) -> int:
    """Every ``PipelineConfig``/``ServiceConfig`` field must appear in
    docs/OPERATIONS.md as a backticked name, and every knob-table row
    there must name one of those fields.

    Requires ``src/`` on ``sys.path`` (``main`` arranges this).  The
    config dataclasses are the source of truth: adding a field without
    documenting its default/spelling/consumer fails the docs job, and
    so does a row left behind for a field that is gone.
    """
    import dataclasses

    from repro.pipeline.config import PipelineConfig, ServiceConfig

    operations = REPO / OPERATIONS
    if not operations.exists():
        failures.append(f"{OPERATIONS}: missing (config fields undocumented)")
        return 0
    text = operations.read_text()
    checked = 0
    names: set[str] = set()
    for cls in (PipelineConfig, ServiceConfig):
        for field in dataclasses.fields(cls):
            names.add(field.name)
    for name in sorted(names):
        checked += 1
        if f"`{name}`" not in text:
            failures.append(
                f"{OPERATIONS}: config field `{name}` undocumented "
                f"(add it to the knob tables)"
            )
    for name in knob_rows(text):
        checked += 1
        if name not in names:
            failures.append(
                f"{OPERATIONS}: knob-table row `{name}` names no config field "
                f"(remove the stale row)"
            )
    return checked


def rendered_families(summary=None) -> set[str]:
    """Every family ``render_prometheus`` emits: those declared on
    ``ServiceSummary`` fields plus the hub's hand-rendered ones."""
    from repro.runtime.observability.hub import REQUIRED_METRIC_FAMILIES
    from repro.runtime.summary import ServiceSummary

    summary = summary if summary is not None else ServiceSummary()
    declared = {name for name, _, _ in summary.families()}
    spelled = set(FAMILY_LITERAL.findall((REPO / HUB_SOURCE).read_text()))
    return set(REQUIRED_METRIC_FAMILIES) | declared | spelled


def check_metric_coverage(failures: list[str], summary=None) -> int:
    """Every reported metric must be documented.

    ``summary.to_row()`` names must appear backticked in
    docs/OPERATIONS.md and every rendered family in a table row of
    docs/OBSERVABILITY.md.  Requires ``src/`` on ``sys.path``;
    ``summary`` defaults to an empty ``ServiceSummary``.
    """
    from repro.runtime.summary import ServiceSummary

    summary = summary if summary is not None else ServiceSummary()
    checked = 0
    operations = (REPO / OPERATIONS).read_text()
    for name in summary.to_row():
        checked += 1
        if f"`{name}`" not in operations:
            failures.append(
                f"{OPERATIONS}: summary metric `{name}` undocumented "
                f"(add it to \"Reading `ServiceSummary`\")"
            )
    table = {
        family
        for line in (REPO / OBSERVABILITY).read_text().splitlines()
        if line.startswith("|")
        for family in FAMILY_CELL.findall(line)
    }
    for family in sorted(rendered_families(summary)):
        checked += 1
        if family not in table:
            failures.append(
                f"{OBSERVABILITY}: metric family `{family}` missing from "
                f"the family table"
            )
    return checked


def main() -> int:
    """Run every check; print a summary; 0 iff clean."""
    sys.path.insert(0, str(REPO / "src"))
    failures: list[str] = []
    blocks = links = references = attributes = 0
    documents = iter_documents()
    classes = repro_classes()
    for path in documents:
        blocks += check_code_blocks(path, failures)
        links += check_links(path, failures)
        references += check_references(path, failures)
        attributes += check_class_attributes(path, failures, classes)
    fields = check_config_coverage(failures)
    metrics = check_metric_coverage(failures)
    print(
        f"checked {len(documents)} documents: {blocks} code blocks, "
        f"{links} intra-repo links, {references} dotted references, "
        f"{attributes} class attributes, {fields} config fields, "
        f"{metrics} metric names"
    )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
