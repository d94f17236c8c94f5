"""The docs checker (scripts/check_docs.py) as part of tier-1.

The CI docs job runs the same script; keeping it in the suite means a
doc-breaking rename fails locally before it fails in CI.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "scripts" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsHealth:
    def test_docs_exist_and_are_linked_from_readme(self):
        readme = (REPO / "README.md").read_text()
        assert (REPO / "docs" / "ARCHITECTURE.md").exists()
        assert (REPO / "docs" / "API.md").exists()
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/API.md" in readme

    def test_checker_passes(self, check_docs, capsys):
        assert check_docs.main() == 0
        out = capsys.readouterr().out
        assert "code blocks" in out
        assert "FAIL" not in out

    def test_checker_catches_broken_links(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [missing](does-not-exist.md)\n")
        failures: list[str] = []
        assert check_docs.check_links(page, failures) == 1
        assert failures and "does-not-exist.md" in failures[0]

    def test_checker_catches_bad_imports(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "```python\nfrom repro import DoesNotExistAnywhere\n```\n"
        )
        failures: list[str] = []
        sys.path.insert(0, str(REPO / "src"))
        try:
            assert check_docs.check_code_blocks(page, failures) == 1
        finally:
            sys.path.remove(str(REPO / "src"))
        assert failures and "imports failed" in failures[0]

    def test_checker_catches_syntax_rot(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("```python\ndef broken(:\n```\n")
        failures: list[str] = []
        check_docs.check_code_blocks(page, failures)
        assert failures and "does not compile" in failures[0]

    def test_checker_catches_stale_dotted_reference(
        self, check_docs, tmp_path
    ):
        """A table row naming a deleted module fails the job."""
        page = tmp_path / "page.md"
        page.write_text(
            "## Control\n\n"
            "| `repro.runtime.executor.JobCheckpoint` / `JobRun.pause()` "
            "| pause/resume |\n"
            "| `repro.gda.engine.engine.JobCheckpoint` | its home |\n"
            "| `repro.runtime.JobRun` | re-export |\n"
        )
        failures: list[str] = []
        sys.path.insert(0, str(REPO / "src"))
        try:
            assert check_docs.check_references(page, failures) == 3
        finally:
            sys.path.remove(str(REPO / "src"))
        assert len(failures) == 1
        assert "`repro.runtime.executor.JobCheckpoint`" in failures[0]

    def test_removed_spellings_section_is_exempt(self, check_docs, tmp_path):
        """Names listed as removed are gone on purpose; the exemption
        ends at the next heading."""
        page = tmp_path / "page.md"
        page.write_text(
            "## Removed legacy spellings\n\n"
            "| `repro.runtime.executor` (module) | `repro.gda.engine` |\n"
            "\n## Later\n\n"
            "`repro.core.interface` is gone.\n"
            "```python\n# not a heading\nimport repro\n```\n"
        )
        failures: list[str] = []
        sys.path.insert(0, str(REPO / "src"))
        try:
            assert check_docs.check_references(page, failures) == 1
        finally:
            sys.path.remove(str(REPO / "src"))
        assert len(failures) == 1
        assert "`repro.core.interface`" in failures[0]

    def test_checker_catches_stale_class_attribute(self, check_docs, tmp_path):
        """A backticked ``Class.attr`` naming a ``repro`` class must name
        a method, a field or a ``self`` attribute of it; other classes'
        names and the removed-spellings section are not checked."""
        page = tmp_path / "page.md"
        page.write_text(
            "`WanMonitor.latest()` and `WanMonitor.rate_percentile` read a\n"
            "monitor; `LinkSeries.times` is assigned in `__init__`,\n"
            "`Deployment.variant` is a field without a default and\n"
            "`JobScheduler.reallocator` a `self` attribute.  `Path.exists`\n"
            "is not ours.\n"
            "```python\nWanMonitor.samples\n```\n"
            "## Removed legacy spellings\n\n"
            "| `ServiceConfig.admit_batch` | `JobScheduler(admit_batch=...)` |\n"
        )
        failures: list[str] = []
        sys.path.insert(0, str(REPO / "src"))
        try:
            assert check_docs.check_class_attributes(page, failures) == 5
        finally:
            sys.path.remove(str(REPO / "src"))
        assert failures == [
            f"{page}: `WanMonitor.rate_percentile` names no attribute of WanMonitor "
            '(moved or removed? list it under "Removed legacy spellings")'
        ]

    def test_config_coverage_passes_on_shipped_operations_doc(
        self, check_docs
    ):
        failures: list[str] = []
        sys.path.insert(0, str(REPO / "src"))
        try:
            checked = check_docs.check_config_coverage(failures)
        finally:
            sys.path.remove(str(REPO / "src"))
        assert checked > 30  # PipelineConfig ∪ ServiceConfig fields
        assert failures == []

    def test_config_coverage_catches_undocumented_field(
        self, check_docs, monkeypatch
    ):
        """An OPERATIONS.md missing a config field fails the job."""
        operations = (REPO / "docs" / "OPERATIONS.md").read_text()
        assert "`drift_threshold`" in operations
        stripped = operations.replace("`drift_threshold`", "`gone`")
        sys.path.insert(0, str(REPO / "src"))
        try:
            import pathlib

            original = pathlib.Path.read_text

            def patched(self, *args, **kwargs):
                if self.name == "OPERATIONS.md":
                    return stripped
                return original(self, *args, **kwargs)

            monkeypatch.setattr(pathlib.Path, "read_text", patched)
            failures: list[str] = []
            check_docs.check_config_coverage(failures)
        finally:
            sys.path.remove(str(REPO / "src"))
        assert any("drift_threshold" in f for f in failures)

    def test_config_coverage_catches_stale_row(self, check_docs, monkeypatch):
        """A knob-table row naming no config field fails the job."""
        operations = (REPO / "docs" / "OPERATIONS.md").read_text()
        row = "| `drift_threshold` |"
        assert row in operations
        stale = operations.replace(row, "| `epoch_s` | 5.0 | agents | gone |\n" + row, 1)
        sys.path.insert(0, str(REPO / "src"))
        try:
            import pathlib

            original = pathlib.Path.read_text

            def patched(self, *args, **kwargs):
                if self.name == "OPERATIONS.md":
                    return stale
                return original(self, *args, **kwargs)

            monkeypatch.setattr(pathlib.Path, "read_text", patched)
            failures: list[str] = []
            check_docs.check_config_coverage(failures)
        finally:
            sys.path.remove(str(REPO / "src"))
        assert failures == [
            "docs/OPERATIONS.md: knob-table row `epoch_s` names no config field "
            "(remove the stale row)"
        ]

    def test_metric_coverage_passes_on_shipped_docs(self, check_docs):
        failures: list[str] = []
        sys.path.insert(0, str(REPO / "src"))
        try:
            checked = check_docs.check_metric_coverage(failures)
        finally:
            sys.path.remove(str(REPO / "src"))
        assert checked > 50  # row names + rendered families
        assert failures == []

    def test_metric_coverage_catches_undocumented_metric(self, check_docs):
        """A newly declared metric fails the job until both the row name
        and its family are documented."""
        sys.path.insert(0, str(REPO / "src"))
        try:
            from repro.runtime.summary import ServiceSummary

            class Extended(ServiceSummary):
                def to_row(self):
                    return {**super().to_row(), "brand_new_metric": 0.0}

                def families(self):
                    yield from super().families()
                    yield ("wanify_brand_new_total", "A new metric.", 0)

            failures: list[str] = []
            check_docs.check_metric_coverage(failures, Extended())
        finally:
            sys.path.remove(str(REPO / "src"))
        assert len(failures) == 2
        assert "`brand_new_metric`" in failures[0]
        assert "`wanify_brand_new_total`" in failures[1]


@pytest.fixture(scope="module")
def check_experiments():
    spec = importlib.util.spec_from_file_location(
        "check_experiments", REPO / "scripts" / "check_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExperimentRenderings:
    """``scripts/check_experiments.py --render DIR`` keeps each rendering
    for ``diff -r`` (run on two stand-in experiments, not the real 21)."""

    def test_render_writes_one_file_per_experiment(
        self, check_experiments, monkeypatch, tmp_path
    ):
        from types import SimpleNamespace

        import repro.experiments.report as report

        def experiment(text):
            return SimpleNamespace(run=lambda fast: text, render=lambda result: result)

        bodies = {"E-A": "figure a\n+1.0%", "E-B": "figure b ≥ 2"}
        monkeypatch.setattr(
            report, "EXPERIMENTS", [(key, key, experiment(b)) for key, b in bodies.items()]
        )
        digests = tmp_path / "digests.sha256"
        check_experiments.write_digests(
            digests, {key: check_experiments.digest(b) for key, b in bodies.items()}
        )
        monkeypatch.setattr(check_experiments, "REPO", tmp_path)
        monkeypatch.setattr(check_experiments, "DIGESTS", digests)
        out = tmp_path / "renderings"
        assert check_experiments.main(["--render", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["E-A.txt", "E-B.txt"]
        for key, body in bodies.items():
            assert (out / f"{key}.txt").read_text() == body
        # The comparison still runs: a moved figure fails it.
        report.EXPERIMENTS[1] = ("E-B", "E-B", experiment("figure b ≥ 3"))
        assert check_experiments.main(["--render", str(out)]) == 1
        assert (out / "E-B.txt").read_text() == "figure b ≥ 3"


@pytest.fixture(scope="module")
def check_service_pin():
    sys.path.insert(0, str(REPO / "scripts"))
    try:
        spec = importlib.util.spec_from_file_location(
            "check_service_pin", REPO / "scripts" / "check_service_pin.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(REPO / "scripts"))
    return module


class TestServicePin:
    """``scripts/check_service_pin.py`` compares what it measures with
    the pin file (run on stand-in values, not the real workloads)."""

    VALUES = {
        "serve-online 1 fingerprint": "ab12",
        "serve-online 1 jct_mean_s": repr(47.77278929302485),
        "serve-online 1 sim.events": "2919",
    }

    def _run(self, module, monkeypatch, tmp_path, values, problems=(), argv=()):
        monkeypatch.setattr(module, "measure", lambda: (dict(values), list(problems)))
        monkeypatch.setattr(module, "REPO", tmp_path)
        monkeypatch.setattr(module, "PIN", tmp_path / "pin.txt")
        return module.main(list(argv))

    def test_write_then_compare_round_trips(self, check_service_pin, monkeypatch, tmp_path):
        written = self._run(
            check_service_pin, monkeypatch, tmp_path, self.VALUES, argv=["--write"]
        )
        assert written == 0
        recorded, pinned = check_service_pin.read_pin(tmp_path / "pin.txt")
        assert pinned == self.VALUES
        assert recorded.startswith("python ") and " numpy " in recorded
        assert self._run(check_service_pin, monkeypatch, tmp_path, self.VALUES) == 0

    def test_a_moved_value_fails(self, check_service_pin, monkeypatch, tmp_path, capsys):
        check_service_pin.write_pin(tmp_path / "pin.txt", self.VALUES)
        moved = {**self.VALUES, "serve-online 1 jct_mean_s": repr(47.77278929302486)}
        assert self._run(check_service_pin, monkeypatch, tmp_path, moved) == 1
        out = capsys.readouterr().out
        assert "FAIL serve-online 1 jct_mean_s: 47.77278929302485 -> 47.77278929302486" in out
        missing = dict(list(self.VALUES.items())[:2])
        assert self._run(check_service_pin, monkeypatch, tmp_path, missing) == 1
        assert "serve-online 1 sim.events: no longer measured" in capsys.readouterr().out

    def test_a_failed_repetition_fails_and_is_not_written(
        self, check_service_pin, monkeypatch, tmp_path
    ):
        check_service_pin.write_pin(tmp_path / "pin.txt", self.VALUES)
        problems = ["serve-online 1: 1 of 6 failed"]
        assert self._run(check_service_pin, monkeypatch, tmp_path, self.VALUES, problems) == 1
        before = (tmp_path / "pin.txt").read_text()
        assert (
            self._run(check_service_pin, monkeypatch, tmp_path, self.VALUES, problems, ["--write"])
            == 1
        )
        assert (tmp_path / "pin.txt").read_text() == before
