"""The benchmark's tracer wraps fuzzyvault functions by name (``WRAPS`` in
``perfbench/spans.py``), so renaming or removing one breaks the traced runs,
and moving a call so that its caller looks the name up in another module
leaves that span empty.  These tests install every wrapper and take them
all off again, and run a traced flow through every layer."""

import importlib
from pathlib import Path

import pytest

import fuzzyvault
from conftest import desk_locking_set, desk_params

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


# the spans a desk lock, save, load and genuine unlock pass through; a
# caller that looked a traced name up elsewhere would leave its span empty
FLOW_SPANS = [
    "vault.fuzzy_lock", "field_poly.FieldParams", "field_poly.encode_key",
    "vault.lock_polynomial", "vault.generate_chaff", "vault.Vault.save", "vault.Vault.load",
    "vault.fuzzy_unlock", "vault.match_points", "multi_fuzzy_set.FamilyTemplate.instantiate",
    "vault.search_key", "field_poly.lagrange_interpolate", "field_poly.decode_key",
    "field_poly.crc16",
]


def test_traced_flow_reaches_every_layer(spans, field_mfs, tmp_path):
    key = bytes(range(12))
    locking = desk_locking_set(field_mfs, seed=3)
    tracer = spans.Tracer()
    try:
        tracer.install()
        vault, _ = fuzzyvault.fuzzy_lock(key, locking, field_mfs, desk_params(seed=3))
        vault.save(tmp_path / "vault.json")
        loaded = fuzzyvault.Vault.load(tmp_path / "vault.json")
        result = fuzzyvault.fuzzy_unlock(loaded, locking, 0, 0.25, len(key))
    finally:
        tracer.uninstall()
    assert result.key == key
    calls = tracer.summary(1)
    assert [name for name in FLOW_SPANS if not calls.get(f"{name}.calls")] == []
