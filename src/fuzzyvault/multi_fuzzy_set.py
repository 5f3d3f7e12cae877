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
from fractions import Fraction

import numpy as np

from .fuzzy_number import (
    CRISP,
    GAUSSIAN,
    PARAM_COUNT,
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

# floats are in the order of their bit patterns read as int64, from +0.0 to inf
_INF_BITS = int(np.array(math.inf).view(np.int64))


def _layout(family: str, c, s) -> tuple:
    """The parameters ``_LAYOUT`` gives for the core c and the spreads s;
    c is a float or a float64 column alike."""
    return tuple(c if slot is None else s[slot[0]] if slot[1] == 0 else c + slot[1] * s[slot[0]]
                 for slot in _LAYOUT[family])


def _least(holds, lo, hi):
    """Per element, the least int64 b in [lo, hi) for which ``holds(b)`` is
    true, or hi: a bisection, for a test that stays true from there on."""
    while (lo < hi).any():
        mid = lo + (hi - lo) // 2
        ok = holds(mid)
        lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)
    return lo


def _spread_intervals(family: str, cores, block):
    """Per spread j (row) and row i of a float64 parameter block (column),
    the least and the greatest float s >= 0 that, as spread j of a template
    of ``family`` at ``cores[i]``, gives every parameter of row i that
    spread j sets: two int64 blocks of bit patterns, the least above the
    greatest where no float does.

    A spread that is a parameter itself allows that float alone.  c - s and
    c + s are monotone in s, so their ends are bisections over the bit
    patterns, started from a bracket of a few ulps around the spread read
    off the parameter.
    """
    low = np.zeros((_TEMPLATE_ARITY[family], len(cores)), dtype=np.int64)
    high = np.full(low.shape, _INF_BITS)
    with np.errstate(over="ignore", invalid="ignore"):
        for p, slot in zip(block.T, _LAYOUT[family]):
            if slot is None:
                continue
            j, sign = slot
            # a spread that is a parameter allows that float only; a
            # negative float's bit pattern is a negative int64 and fits no row
            ends = p.view(np.int64), p.view(np.int64)
            if sign:
                read = sign * (p - cores)
                width = 4 * (np.spacing(np.abs(read)) + np.spacing(np.abs(p)))
                width[~np.isfinite(width)] = 0.0  # a read-off beyond the float range fits no row
                start, stop = (np.where(e > 0, e, 0.0).view(np.int64)
                               for e in (read - width, read + width))
                # sign * (c + sign * s) grows with s, and is sign * p where s fits
                first, past = (_least(lambda b: test(sign * (cores + sign * b.view(np.float64)),
                                                     sign * p), start, stop + 1)
                               for test in (np.greater_equal, np.greater))
                ends = first, past - 1
            low[j], high[j] = np.maximum(low[j], ends[0]), np.minimum(high[j], ends[1])
    return low, high


def _split(groups, lo, hi):
    """``groups`` (ids >= 0, -1 for no group) refined so that the intervals
    [lo, hi] of each new group share a point: a group's rows, taken by
    ascending lo, stay together until one starts above the least hi yet."""
    out = np.full(len(groups), -1, dtype=np.intp)
    order = np.lexsort((lo, groups))
    new, current, top = -1, -1, 0
    for i, group, low, high in zip(order.tolist(), groups[order].tolist(),
                                   lo[order].tolist(), hi[order].tolist()):
        if group < 0:
            continue
        if group != current or low > top:
            new, current, top = new + 1, group, high
        top = min(top, high)
        out[i] = new
    return out


def _least_denominator(a: Fraction, b: Fraction) -> Fraction:
    """The rational of least denominator in [a, b], for -1 < a <= b."""
    n = math.ceil(a)
    if n <= b:
        return Fraction(n)
    k = math.floor(a)
    return k + 1 / _least_denominator(1 / (b - k), 1 / (a - k))


def _simplest(lo: float, hi: float) -> float:
    """The float in [lo, hi], 0 <= lo <= hi, nearest the rational of least
    denominator that rounds into [lo, hi]: as repr picks the shortest
    decimal that rounds to a float, 0.1 and 1/3 come back as 0.1 and 1/3
    from any interval that holds them."""
    a = Fraction(lo) - Fraction(math.ulp(math.nextafter(lo, 0.0))) / 2
    b = Fraction(hi) + Fraction(math.ulp(hi)) / 2
    return min(max(float(_least_denominator(a, b)), lo), hi)


def fit_templates(family: str, x_cores, x_block, y_cores, y_block) -> tuple:
    """Templates of ``family`` that rebuild the rows of two float64
    parameter blocks at float64 core columns: a list of templates and, per
    row, the index of the template whose ``instantiate_column`` gives its x
    and its y row bit for bit, or -1 where no template does.

    Rows share a template while the floats that rebuild them share a value
    in every spread; that spread is then the ``_simplest`` float they share.
    """
    m = len(x_cores)
    cores, block = np.concatenate((x_cores, y_cores)), np.concatenate((x_block, y_block))
    low, high = _spread_intervals(family, cores, block)
    low, high = np.maximum(low[:, :m], low[:, m:]), np.minimum(high[:, :m], high[:, m:])
    groups = np.where((low <= high).all(axis=0), 0, -1)
    for lo, hi in zip(low, high):
        groups = _split(groups, lo, hi)
    templates, ids = [], np.full(m, -1, dtype=np.intp)
    # the rows of each group, 0 up, after those of no group
    order = np.argsort(groups, kind="stable")
    for rows in np.split(order, np.cumsum(np.bincount(groups + 1)))[1:-1]:
        lows = low[:, rows].max(axis=1).view(np.float64).tolist()
        highs = high[:, rows].min(axis=1).view(np.float64).tolist()
        spreads = list(map(_simplest, lows, highs))
        try:
            template = FamilyTemplate(family, spreads)
        except ValueError:  # 0 where the family needs a positive spread
            spreads = [_simplest(math.ulp(0.0), h) if s == 0 < h else s
                       for s, h in zip(spreads, highs)]
            try:
                template = FamilyTemplate(family, spreads)
            except ValueError:
                continue
        both = np.concatenate((rows, rows + m))  # the rows' x, then their y
        same = (template.instantiate_column(cores[both]).view(np.uint64)
                == block[both].view(np.uint64)).all(axis=1)
        ids[rows[same[:len(rows)] & same[len(rows):]]] = len(templates)
        templates.append(template)
    return templates, ids


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

    def instantiate_column(self, cores) -> np.ndarray:
        """``instantiate`` of every core of a float64 column at once.

        Row i of the float64 block returned holds the parameters of
        ``instantiate(cores[i])``: the same layout entry applied to the
        column, so the two agree bit for bit.  Raises ValueError where
        ``instantiate`` raises: when a parameter is not finite.
        """
        family = self.family
        cores = np.asarray(cores, dtype=np.float64)
        block = np.empty((len(cores), PARAM_COUNT[family]))
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for i, column in enumerate(_layout(family, cores, self.spread_params)):
                block[:, i] = column
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            bad = tuple(block[np.argmin(finite)].tolist())
            raise ValueError(f"{family} parameters must be finite: {bad}")
        return block

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

    def __post_init__(self):
        if self.kind not in (FIELD, LOCKING, UNLOCKING):
            raise ValueError(f"unknown multi-fuzzy set kind: {self.kind!r}")
        if self.q < 2:
            raise ValueError("field size must be at least 2")
        subsets = tuple(self.subsets)
        object.__setattr__(self, "subsets", subsets)
        if not subsets:
            raise ValueError("a multi-fuzzy set needs at least one subset")
        # a subset has no repeated element, so a repeat in the sorted list
        # is an element of two subsets
        elements = sorted(itertools.chain.from_iterable(s.elements for s in subsets))
        for e in (elements[0], elements[-1]):
            if not (0 <= e < self.q):
                raise ValueError(f"element {e} outside field [0, {self.q})")
        for a, b in itertools.pairwise(elements):
            if a == b:
                raise ValueError(f"element {a} appears in more than one subset")
        if self.kind == FIELD and len(elements) != self.q:
            raise ValueError("field partition must cover every element of [0, q)")

    @property
    def subset_count(self) -> int:
        return len(self.subsets)

    @property
    def total_elements(self) -> int:
        return sum(len(s) for s in self.subsets)

    def subset_of(self, a: int) -> SubsetDescriptor:
        """The subset holding element ``a``, found by scanning the subsets."""
        for s in self.subsets:
            if a in s.elements:
                return s
        raise ValueError(f"element {a} is not covered by this {self.kind} set")

    def fuzzify_element(self, a: int) -> FuzzyNumber:
        """Fuzzify a field element with its subset's template."""
        return self.subset_of(a).template.instantiate(_core(a))

    def select_subset(self, k: int) -> list[FuzzyNumber]:
        """All fuzzified elements of subset ``k``, ascending by core."""
        if not (0 <= k < len(self.subsets)):
            raise ValueError(f"subset index {k} out of range")
        s = self.subsets[k]
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
