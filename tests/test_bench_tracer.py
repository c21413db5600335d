"""The benchmark's layer tracer names only attributes that p3prime defines."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_attribute_resolves():
    # Tracer.installed looks each (module, attribute) up with a bare getattr,
    # so one that p3prime no longer defines would otherwise show only as a
    # traced benchmark run failing with AttributeError
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, (home, attr) in {**tracer.SPANS, **tracer.LEAVES}.items():
        assert callable(getattr(importlib.import_module(home), attr, None)), f"{name}: {home}.{attr} is missing"
    with tracer.Tracer().installed():
        pass
