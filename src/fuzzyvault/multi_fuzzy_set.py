"""Multi-fuzzy sets: partitions of crisp field elements bound to membership
family templates.

A template stores the *shape* of a membership family (spreads, widths); the
*location* comes from the field element being fuzzified.  A multi-fuzzy set
is a disjoint collection of element subsets, each carrying one template.
Three kinds exist: the fuzzified field itself (covering all of ``[0, q)``),
a locking set, and an unlocking set.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

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

# the parameters of a template's number at core c, in the family's order:
# None for c itself, (j, -1) for c - s[j], (j, 1) for c + s[j], and (j, 0)
# for the spread s[j] itself
_LAYOUT = {
    TRIANGULAR: ((0, -1), None, (1, 1)),  # spreads: left, right
    TRAPEZOIDAL: ((0, -1), (0, 1), (1, 0), (2, 0)),  # plateau half-width, sigma, beta
    GAUSSIAN: (None, (0, 0), (1, 0)),  # sigma left, sigma right
    SIGMOID: ((0, -1), None, (1, 1), (2, 0), (3, 0)),  # left, right width, omega, half-width
    CRISP: (None,),
}
_TEMPLATE_ARITY = {family: len({slot[0] for slot in layout if slot})
                   for family, layout in _LAYOUT.items()}


def _layout(family: str, c, s) -> tuple:
    """The parameters ``_LAYOUT`` gives for the core c and the spreads s."""
    return tuple(c if slot is None else s[slot[0]] if slot[1] == 0 else c + slot[1] * s[slot[0]]
                 for slot in _LAYOUT[family])


def _match_plan(probe: FamilyTemplate, point: FamilyTemplate) -> tuple:
    """``(const, offsets)`` for two templates of one family: the distance
    from ``probe.instantiate(a)`` to ``point.instantiate(x)`` is
    ``max(const, *[abs((a + p) - (x + t)) for p, t in offsets])``.

    ``const`` is the largest |P_j - T_j| over the (j, 0) slots, and
    ``offsets`` holds (0.0, 0.0) for the core slot and (±P_j, ±T_j) for a
    (j, ±1) slot.  These are the operations ``_layout`` and ``distance``
    run: an integer x plus a float rounds once, as ``float(x)`` and the sum
    would, ``c + (-1) * s`` is ``c - s``, and ``c + 0.0`` is c (or 0.0 for
    -0.0, which abs then reads alike), so the value is bit for bit the same.
    """
    const = 0.0
    offsets = []
    for slot in _LAYOUT[probe.family]:
        if slot is None:
            offsets.append((0.0, 0.0))
            continue
        j, sign = slot
        p, t = probe.spread_params[j], point.spread_params[j]
        if sign == 0:
            const = max(const, abs(p - t))
        else:
            offsets.append((sign * p, sign * t))
    return const, tuple(offsets)


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
        A non-finite parameter raises the constructor's ValueError.
        """
        family = self.family
        params = tuple(map(float, _layout(family, core, self.spread_params)))
        if not all(map(math.isfinite, params)):
            raise ValueError(f"{family} parameters must be finite: {params}")
        return FuzzyNumber._trusted(family, params)

    def to_dict(self) -> dict:
        return {"family": self.family, "spreads": list(self.spread_params)}

    @classmethod
    def from_dict(cls, d: dict) -> "FamilyTemplate":
        """Parse ``to_dict`` output; raises ValueError on any malformed input."""
        (family,) = json_fields(d, "family")
        return cls(family, json_numbers(d.get("spreads", [])))


def _core(element: int) -> float:
    """A field element as the float core a template fuzzifies."""
    try:
        return float(element)
    except OverflowError:  # a set file may declare a q beyond the float range
        raise ValueError("field element beyond the float range") from None


@dataclass(frozen=True)
class SubsetDescriptor:
    """One subset of field elements sharing a single membership template:
    consecutive ascending elements as a ``range`` of any length, others as
    a tuple, so an explicit list of consecutive elements equals its range."""

    elements: tuple | range
    template: FamilyTemplate
    index: int

    def __post_init__(self):
        elems = self.elements
        if type(elems) is not range or elems.step != 1:
            elems = tuple(int(e) for e in elems)
            if len(set(elems)) != len(elems):
                raise ValueError(f"subset {self.index} has repeated elements")
            if elems and all(b == a + 1 for a, b in itertools.pairwise(elems)):
                elems = range(elems[0], elems[-1] + 1)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise ValueError(f"subset {self.index} is empty")

    @property
    def size(self) -> int:  # a range's len() stops at 2**63 - 1
        e = self.elements
        return len(e) if type(e) is tuple else e.stop - e.start


@dataclass(frozen=True)
class MultiFuzzySet:
    """Disjoint subsets of [0, q), each with one template; a ``FIELD`` set
    covers [0, q).  The checks run over sorted runs: O(subsets) at any q."""

    q: int
    subsets: tuple
    kind: str = FIELD

    def __post_init__(self):
        if self.kind not in (FIELD, LOCKING, UNLOCKING):
            raise ValueError(f"unknown multi-fuzzy set kind: {self.kind!r}")
        if self.q < 2:
            raise ValueError("field size must be at least 2")
        subsets = tuple(self.subsets)
        object.__setattr__(self, "subsets", subsets)
        if not subsets:
            raise ValueError("a multi-fuzzy set needs at least one subset")
        # the runs [a, b) of consecutive elements, sorted: a range is one run
        # and a tuple element is one, and two runs overlap only if neighbours do
        runs = sorted(itertools.chain.from_iterable(
            [(e.start, e.stop)] if type(e) is range else [(x, x + 1) for x in e]
            for e in (s.elements for s in subsets)))
        for e in (runs[0][0], max(b for _, b in runs) - 1):
            if not (0 <= e < self.q):
                raise ValueError(f"element {e} outside field [0, {self.q})")
        for (_, end), (start, _) in itertools.pairwise(runs):
            if start < end:
                raise ValueError(f"element {start} appears in more than one subset")
        if self.kind == FIELD and sum(b - a for a, b in runs) != self.q:
            raise ValueError("field partition must cover every element of [0, q)")

    @property
    def subset_count(self) -> int:
        return len(self.subsets)

    @property
    def total_elements(self) -> int:
        return sum(s.size for s in self.subsets)

    def subset(self, k: int) -> SubsetDescriptor:
        """Subset ``k``; ValueError if there is none."""
        if not (0 <= k < len(self.subsets)):
            raise ValueError(f"subset index {k} out of range")
        return self.subsets[k]

    def select_subset(self, k: int) -> list[FuzzyNumber]:
        """All fuzzified elements of subset ``k``, ascending by core."""
        s = self.subset(k)
        return [s.template.instantiate(_core(e)) for e in sorted(s.elements)]

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
                if not 1 <= size <= q - cursor:
                    raise ValueError(
                        f"subset {i} size {size} outside [1, {q - cursor}]"
                    )
                elements = range(cursor, cursor + size)
                cursor += size
            subsets.append(SubsetDescriptor(elements, template, i))
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
        subsets.append(SubsetDescriptor(range(start, start + size), template, i))
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
        SubsetDescriptor(elements, template, i)
        for i, (elements, template) in enumerate(groups)
    ]
    return MultiFuzzySet(field_mfs.q, tuple(subsets), kind)
