"""The benchmark's traced run wraps seqstate functions by the names callers
look up. A refactor that drops one of those names must fail here, not
only in the traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [target for target, _name in layers.SPAN_TARGETS]


def _resolves(target: str) -> bool:
    """The lookup bench/spans.py ``Tracer.patch`` makes: a module attribute,
    or a class attribute when the owner is a class in a module."""
    module_name, _, attr = target.rpartition(".")
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        mod, _, cls = module_name.rpartition(".")
        owner = getattr(importlib.import_module(mod), cls)
    return callable(owner.__dict__.get(attr))


def test_every_span_target_resolves():
    targets = _span_targets()
    assert targets
    assert [t for t in targets if not _resolves(t)] == []
