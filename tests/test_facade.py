"""Tests for the lazy top-level facade (:mod:`repro.__init__`)."""

import importlib

import pytest

import repro


class TestLazyExports:
    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_thing

    def test_every_lazy_name_resolves(self):
        for name, module_path in repro._LAZY_EXPORTS.items():
            resolved = getattr(repro, name)
            assert resolved is getattr(
                importlib.import_module(module_path), name
            ), name

    def test_dir_lists_lazy_and_eager_names(self):
        listed = dir(repro)
        for name in repro._LAZY_EXPORTS:
            assert name in listed
        for name in ("Pipeline", "PipelineConfig", "Topology"):
            assert name in listed

    def test_retired_facade_names_are_gone(self):
        for name in ("WANify", "SCENARIOS"):
            assert name not in repro.__all__
            with pytest.raises(AttributeError, match="no attribute"):
                getattr(repro, name)

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_import_repro_stays_light(self):
        # The lazy layer exists so `import repro` does not pay for the
        # GDA engine or the runtime service.  Checked in a subprocess
        # because this test session imports everything.
        import subprocess
        import sys

        code = (
            "import sys; import repro; "
            "sys.exit(any(m.startswith(('repro.gda', 'repro.runtime')) "
            "for m in sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True
        )
        assert result.returncode == 0, result.stderr.decode()
