"""Span recorder for the traced benchmark run.

Tracing happens entirely in the benchmark: ``Tracer.install`` replaces each
public fuzzyvault function with a wrapper, under the name its caller looks
it up by (``fuzzyvault.vault.lagrange_interpolate`` is what ``search_key``
calls, ``FuzzyNumber.from_dict`` is what ``VaultPoint.from_dict`` calls),
and ``uninstall`` puts the originals back.  Each call records one span:
name, start, end, parent span and op id.  Spans live in flat arrays until
the run ends; ``summary`` turns them into per-op means and ``save`` writes
them out.  Only the standard library is imported here, because the traced
``cli`` child loads this module before fuzzyvault.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import time
from contextlib import contextmanager


def _count_points(tracer, call, result):
    tracer.count("vault.generate_chaff.points", len(result))


def _count_matched(tracer, call, result):
    tracer.count("vault.match_points.matched", len(result))


def _count_search(tracer, call, result):
    tried = result.diagnostics.subsets_tried
    tracer.count("vault.search_key.searches", 1)
    tracer.count("vault.search_key.subsets_tried", tried)
    tracer.count("vault.search_key.keys_found", result.key is not None)
    tracer.count("vault.search_key.cap_hits",
                 result.key is None and tried >= call.arguments["effort_cap"])


# (module, attribute as the caller names it, span name, observer)
WRAPS = [
    ("fuzzyvault", "fuzzy_lock", "vault.fuzzy_lock", None),
    ("fuzzyvault", "fuzzy_unlock", "vault.fuzzy_unlock", None),
    ("fuzzyvault.cli", "fuzzy_unlock", "vault.fuzzy_unlock", None),
    ("fuzzyvault.vault", "FieldParams", "field_poly.FieldParams", None),
    ("fuzzyvault.vault", "encode_key", "field_poly.encode_key", None),
    ("fuzzyvault.vault", "lock_polynomial", "vault.lock_polynomial", None),
    ("fuzzyvault.vault", "generate_chaff", "vault.generate_chaff", _count_points),
    ("fuzzyvault.vault", "match_points", "vault.match_points", _count_matched),
    ("fuzzyvault.vault", "search_key", "vault.search_key", _count_search),
    ("fuzzyvault.vault", "lagrange_interpolate", "field_poly.lagrange_interpolate", None),
    ("fuzzyvault.vault", "decode_key", "field_poly.decode_key", None),
    ("fuzzyvault.vault", "distance", "fuzzy_number.distance", None),
    ("fuzzyvault.field_poly", "crc16", "field_poly.crc16", None),
    ("fuzzyvault.field_poly", "Polynomial.eval", "field_poly.Polynomial.eval", None),
    ("fuzzyvault.fuzzy_number", "FuzzyNumber.to_dict", "fuzzy_number.FuzzyNumber.to_dict", None),
    ("fuzzyvault.fuzzy_number", "FuzzyNumber.from_dict",
     "fuzzy_number.FuzzyNumber.from_dict", None),
    ("fuzzyvault.multi_fuzzy_set", "FamilyTemplate.instantiate",
     "multi_fuzzy_set.FamilyTemplate.instantiate", None),
    ("fuzzyvault.multi_fuzzy_set", "MultiFuzzySet.select_subset",
     "multi_fuzzy_set.MultiFuzzySet.select_subset", None),
    ("fuzzyvault.multi_fuzzy_set", "MultiFuzzySet.load",
     "multi_fuzzy_set.MultiFuzzySet.load", None),
    ("fuzzyvault.vault", "Vault.to_json", "vault.Vault.to_json", None),
    ("fuzzyvault.vault", "Vault.save", "vault.Vault.save", None),
    ("fuzzyvault.vault", "Vault.load", "vault.Vault.load", None),
    ("fuzzyvault.vault", "Vault.from_dict", "vault.Vault.from_dict", None),
]

OP = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[str, float] = {}
        self.current_op = -1
        self._stack = [-1]
        self._installed = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    @contextmanager
    def span(self, name: str):
        i = self._begin(self.name_id(name))
        try:
            yield i
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def _begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def wrap(self, fn, name: str, observe=None):
        nid = self.name_id(name)
        begin, end, stack, clock = self._begin, self.end, self._stack, time.perf_counter
        signature = inspect.signature(fn) if observe else None

        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                observe(self, call, result)
            return result

        return traced

    def install(self, wraps=WRAPS) -> None:
        for module, attr, name, observe in wraps:
            owner = importlib.import_module(module)
            *path, attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name, observe))
            else:
                new = self.wrap(raw, name, observe)
            setattr(owner, attr, new)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # the child process of the traced ``cli`` op hands its spans back

    def to_json(self) -> str:
        return json.dumps({
            "names": self.names, "name": self.name.tolist(),
            "parent": self.parent.tolist(), "start": self.start.tolist(),
            "end": self.end.tolist(), "counters": self.counters,
        })

    def absorb(self, doc: dict, root: int) -> None:
        """Add a child's top-level spans as children of span ``root``."""
        offset = len(self.start)
        ids = [self.name_id(n) for n in doc["names"]]
        self.name.extend(ids[n] for n in doc["name"])
        self.parent.extend(p + offset if p >= 0 else root for p in doc["parent"])
        self.op.extend(self.current_op for _ in doc["name"])
        self.start.extend(doc["start"])
        self.end.extend(doc["end"])
        for name, value in doc["counters"].items():
            self.count(name, value)

    # ------------------------------------------------------------------

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-op means: ``<span>.calls``, ``<span>.ms`` (inclusive) and
        ``<span>.self_ms`` (duration minus the time direct children cover),
        plus every counter."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        total = np.bincount(name, weights=dur, minlength=width)
        own = np.bincount(name, weights=dur - covered, minlength=width)
        out = {}
        for nid, n in enumerate(self.names):
            out[f"{n}.calls"] = calls[nid] / n_ops
            out[f"{n}.ms"] = total[nid] * 1e3 / n_ops
            out[f"{n}.self_ms"] = own[nid] * 1e3 / n_ops
        for n, value in self.counters.items():
            out[n] = value / n_ops
        return out

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            op=np.frombuffer(self.op, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
