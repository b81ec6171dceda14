"""The benchmark's tracer patches methods by name: every (module, class,
method) in perfbench/tracer.py's METHODS must be defined on that class itself,
or `Tracer.install()` raises KeyError in every traced run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_methods_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import METHODS, PACKAGE

    for module, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(f"{PACKAGE}.{module}"), cls_name)
        assert method in cls.__dict__, f"{module}.{cls_name}.{method}"
