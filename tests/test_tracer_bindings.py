"""The benchmark tracer's wrapped bindings still exist in setpart.

``bench/tracer.py`` replaces functions by (module, attribute) name for a
traced run; a binding deleted from setpart would only fail there.  This
loads the tracer by path and installs it once.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("setpart_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_binding_resolves_and_installs(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    missing = [
        f"{mod.__name__}.{attr}"
        for mod, attr, _name in tracer.WRAPPED
        if not callable(getattr(mod, attr, None))
    ]
    assert not missing
    originals = [getattr(mod, attr) for mod, attr, _name in tracer.WRAPPED]
    with tracer.Tracer().installed():
        for (mod, attr, _name), fn in zip(tracer.WRAPPED, originals):
            assert getattr(mod, attr).__wrapped__ is fn
    assert [getattr(mod, attr) for mod, attr, _name in tracer.WRAPPED] == originals
