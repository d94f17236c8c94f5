"""The benchmark's tracer still finds every call it wraps.

``perfbench/tracer.py`` patches program functions and methods by
module path and attribute name while a traced repetition runs.  A
rename in ``src/`` would otherwise surface only when the benchmark runs
with ``--trace 1``; this test installs every site and uninstalls it
again, so such a rename fails here first.
"""

import importlib.util
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # Registered while it executes: its dataclasses look their module up.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_site_resolves_and_is_restored(monkeypatch):
    tracer_module = _load_tracer(monkeypatch)
    originals = {}
    for site in tracer_module.SITES:
        targets = tracer_module._targets(site)
        assert targets, f"site {site.key}: nothing defines {site.owner}.{site.attr}"
        for target in targets:
            originals[(id(target), site.attr)] = (target, vars(target)[site.attr])

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patched = {(id(target), attr) for target, attr, _ in tracer.originals()}
        assert patched == set(originals)
        for (_, attr), (target, original) in originals.items():
            assert vars(target)[attr] is not original, f"{target}.{attr} not wrapped"
    finally:
        tracer.uninstall()

    assert not tracer.installed
    for (_, attr), (target, original) in originals.items():
        assert vars(target)[attr] is original, f"{target}.{attr} not restored"
