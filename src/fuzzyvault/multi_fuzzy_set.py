"""Multi-fuzzy sets: partitions of crisp field elements bound to membership
family templates.

A template stores the *shape* of a membership family (spreads, widths); the
*location* comes from the field element being fuzzified.  A multi-fuzzy set
is a disjoint collection of element subsets, each carrying one template.
Three kinds exist: the fuzzified field itself (covering all of ``[0, q)``),
a locking set, and an unlocking set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .fuzzy_number import (
    CRISP,
    GAUSSIAN,
    SIGMOID,
    TRAPEZOIDAL,
    TRIANGULAR,
    FuzzyNumber,
    json_fields,
    json_int,
    json_ints,
    json_numbers,
)

FIELD = "field"
LOCKING = "locking"
UNLOCKING = "unlocking"

_TEMPLATE_ARITY = {
    TRIANGULAR: 2,   # (left_spread, right_spread)
    TRAPEZOIDAL: 3,  # (plateau_halfwidth, sigma, beta)
    GAUSSIAN: 2,     # (sigma_left, sigma_right)
    SIGMOID: 4,      # (left_width, right_width, omega, halfwidth)
    CRISP: 0,
}


@dataclass(frozen=True)
class FamilyTemplate:
    """Shape parameters of one membership family, minus the location."""

    family: str
    spread_params: tuple = ()

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in _TEMPLATE_ARITY:
            raise ValueError(f"unknown membership family: {self.family!r}")
        try:
            params = tuple(map(float, self.spread_params))
        except OverflowError:  # a JSON integer beyond the float range
            raise ValueError("template spreads must be finite") from None
        object.__setattr__(self, "spread_params", params)
        if len(params) != _TEMPLATE_ARITY[self.family]:
            raise ValueError(
                f"{self.family} template needs {_TEMPLATE_ARITY[self.family]} "
                f"parameters, got {len(params)}"
            )
        if not all(map(math.isfinite, params)):
            raise ValueError(f"template spreads must be finite: {params}")
        if self.family == TRAPEZOIDAL:
            if params[0] < 0:
                raise ValueError("trapezoidal plateau halfwidth must be nonnegative")
            strict = params[1:]
        elif self.family == SIGMOID:
            if not (0 < params[2] <= 1):
                raise ValueError("sigmoid peak grade must be in (0, 1]")
            strict = (params[0], params[1], params[3])
        else:
            strict = params
        if any(p <= 0 for p in strict):
            raise ValueError(f"template spreads must be strictly positive: {params}")

    def instantiate(self, core: float) -> FuzzyNumber:
        """Fuzzify a crisp location with this template; defuzzifies back to it.

        The template's own checks leave only finiteness to test: spreads are
        finite and positive (a plateau half-width nonnegative), and rounding
        is monotone, so finite ``core - spread <= core <= core + spread``.
        A non-finite parameter goes through the validated constructor and
        raises its ValueError.
        """
        p = self.spread_params
        family = self.family
        if family == TRIANGULAR:
            params = (core - p[0], core, core + p[1])
        elif family == TRAPEZOIDAL:
            h, sigma, beta = p
            params = (core - h, core + h, sigma, beta)
        elif family == GAUSSIAN:
            params = (core, p[0], p[1])
        elif family == SIGMOID:
            w1, w2, omega, halfwidth = p
            params = (core - w1, core, core + w2, omega, halfwidth)
        else:
            params = (core,)
        params = tuple(map(float, params))
        if all(map(math.isfinite, params)):
            return FuzzyNumber._trusted(family, params)
        return FuzzyNumber(family, params)

    def to_dict(self) -> dict:
        return {"family": self.family, "spreads": list(self.spread_params)}

    @classmethod
    def from_dict(cls, d: dict) -> "FamilyTemplate":
        """Parse ``to_dict`` output; raises ValueError on any malformed input."""
        (family,) = json_fields(d, "family")
        return cls(family, json_numbers(d.get("spreads", [])))


@dataclass(frozen=True)
class SubsetDescriptor:
    """One subset of field elements sharing a single membership template."""

    elements: tuple
    template: FamilyTemplate
    index: int

    def __post_init__(self):
        elems = tuple(int(e) for e in self.elements)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise ValueError(f"subset {self.index} is empty")
        if len(set(elems)) != len(elems):
            raise ValueError(f"subset {self.index} has repeated elements")

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class MultiFuzzySet:
    q: int
    subsets: tuple
    kind: str = FIELD
    _lookup: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (FIELD, LOCKING, UNLOCKING):
            raise ValueError(f"unknown multi-fuzzy set kind: {self.kind!r}")
        if self.q < 2:
            raise ValueError("field size must be at least 2")
        subsets = tuple(self.subsets)
        object.__setattr__(self, "subsets", subsets)
        if not subsets:
            raise ValueError("a multi-fuzzy set needs at least one subset")
        lookup = {}
        for s in subsets:
            for e in s.elements:
                if not (0 <= e < self.q):
                    raise ValueError(f"element {e} outside field [0, {self.q})")
                if e in lookup:
                    raise ValueError(f"element {e} appears in more than one subset")
                lookup[e] = s
        if self.kind == FIELD and len(lookup) != self.q:
            raise ValueError("field partition must cover every element of [0, q)")
        object.__setattr__(self, "_lookup", lookup)

    @property
    def subset_count(self) -> int:
        return len(self.subsets)

    @property
    def total_elements(self) -> int:
        return sum(len(s) for s in self.subsets)

    def subset_of(self, a: int) -> SubsetDescriptor:
        try:
            return self._lookup[a]
        except KeyError:
            raise ValueError(f"element {a} is not covered by this {self.kind} set")

    def fuzzify_element(self, a: int) -> FuzzyNumber:
        """Fuzzify a field element with its subset's template."""
        if not (0 <= a < self.q):
            raise ValueError(f"element {a} outside field [0, {self.q})")
        return self.subset_of(a).template.instantiate(float(a))

    def select_subset(self, k: int) -> list[FuzzyNumber]:
        """All fuzzified elements of subset ``k``, ascending by core."""
        if not (0 <= k < len(self.subsets)):
            raise ValueError(f"subset index {k} out of range")
        s = self.subsets[k]
        return [s.template.instantiate(float(e)) for e in sorted(s.elements)]

    def templates(self) -> list[FamilyTemplate]:
        return [s.template for s in self.subsets]

    # ------------------------------------------------------------------
    # serialization (the locking-set description file)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "kind": self.kind,
            "subsets": [
                {
                    "elements": list(s.elements),
                    "family": s.template.family,
                    "spreads": list(s.template.spread_params),
                }
                for s in self.subsets
            ],
        }

    @classmethod
    def from_dict(cls, d: dict, kind: str | None = None) -> "MultiFuzzySet":
        """Build from a description dict.

        Each subset entry carries ``family`` + ``spreads`` and either an
        explicit ``elements`` list or a ``size`` (contiguous elements picked
        up where the previous subset left off -- convenient for field
        partitions at large q).  Raises ValueError on any malformed input.
        """
        q, entries = json_fields(d, "q", "subsets")
        q = json_int(q)
        if type(entries) is not list:
            raise ValueError(f"subsets must be an array, got {type(entries).__name__}")
        subsets = []
        cursor = 0
        for i, entry in enumerate(entries):
            template = FamilyTemplate.from_dict(entry)
            if "elements" in entry:
                elements = json_ints(entry["elements"])
                if elements:
                    cursor = max(cursor, max(elements) + 1)
            else:
                (size,) = json_fields(entry, "size")
                size = json_int(size)
                # checked before range() is built: a huge size must not allocate
                if not 1 <= size <= q - cursor:
                    raise ValueError(
                        f"subset {i} size {size} outside [1, {q - cursor}]"
                    )
                elements = range(cursor, cursor + size)
                cursor += size
            subsets.append(SubsetDescriptor(tuple(elements), template, i))
        return cls(q, tuple(subsets), kind or d.get("kind", FIELD))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path, kind: str | None = None) -> "MultiFuzzySet":
        """Read a description file; OSError passes through, and a malformed
        document raises ValueError naming the file."""
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh), kind)
            except (ValueError, RecursionError) as e:  # deep nesting recurses
                raise ValueError(f"bad multi-fuzzy set file {path}: {e}") from e


def partition_field(q: int, sizes: list[int], templates: list[FamilyTemplate]) -> MultiFuzzySet:
    """Fuzzified field: contiguous ascending subsets of the given sizes."""
    if len(sizes) != len(templates) or not sizes:
        raise ValueError("need one template per subset size, at least one subset")
    if any(s <= 0 for s in sizes):
        raise ValueError("subset sizes must be positive")
    if sum(sizes) != q:
        raise ValueError(f"subset sizes sum to {sum(sizes)}, expected q = {q}")
    subsets = []
    start = 0
    for i, (size, template) in enumerate(zip(sizes, templates)):
        subsets.append(SubsetDescriptor(tuple(range(start, start + size)), template, i))
        start += size
    return MultiFuzzySet(q, tuple(subsets), FIELD)


def build_locking_set(
    field_mfs: MultiFuzzySet,
    groups: list[tuple],
    kind: str = LOCKING,
) -> MultiFuzzySet:
    """Locking (or unlocking) set from (elements, template) groups.

    Groups must be pairwise disjoint and drawn from ``[0, q)``; the total
    element count across groups is the set's t.
    """
    if not groups:
        raise ValueError("a locking set needs at least one group")
    subsets = [
        SubsetDescriptor(tuple(elements), template, i)
        for i, (elements, template) in enumerate(groups)
    ]
    return MultiFuzzySet(field_mfs.q, tuple(subsets), kind)
