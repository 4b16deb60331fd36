"""The traced benchmark wraps package attributes by name (bench/spans.py).

A refactor that unbinds one of those names would only show when the
benchmark runs; this check makes it fail the unit suite instead.
"""

import importlib.util
from pathlib import Path

from gt2cal import calibration, core, training

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_bound():
    targets = _load_spans().targets(core, training, calibration)
    assert targets
    for owner, attr, span_name, _ in targets:
        assert attr in vars(owner), (
            f"{owner.__name__}.{attr} (span {span_name}) is not bound")
