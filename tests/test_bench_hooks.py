"""The benchmark's tracer wraps fuzzyvault functions by name (``WRAPS`` in
``perfbench/spans.py``), so renaming or removing one breaks the traced runs.
This test installs every wrapper and takes them all off again."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def wrapped_attributes(wraps):
    """(owner, attribute, the object stored there) for every traced name,
    looked up as ``Tracer.install`` looks it up."""
    found = []
    for module, dotted, _, _ in wraps:
        owner = importlib.import_module(module)
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        found.append((owner, attr, raw))
    return found


def test_every_traced_name_is_wrapped_and_restored(spans):
    before = wrapped_attributes(spans.WRAPS)
    tracer = spans.Tracer()
    try:
        tracer.install()
        during = wrapped_attributes(spans.WRAPS)
    finally:
        tracer.uninstall()
    assert all(now is not raw for (_, _, raw), (_, _, now) in zip(before, during))
    after = wrapped_attributes(spans.WRAPS)
    assert all(now is raw for (_, _, raw), (_, _, now) in zip(before, after))
