"""The benchmark tracer wraps public names by string; they must all exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, names in tracer.TRACED.items():
        namespace = importlib.import_module(f"qrsgame.{module}")
        missing = [name for name in names if not callable(getattr(namespace, name, None))]
        assert not missing, f"qrsgame.{module} lacks traced names {missing}"
