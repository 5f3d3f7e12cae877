"""The fuzzy-fuzzy vault protocol: locking, chaff generation, fuzzy matching
and the combinatorial unlock search.

A vault hides a key-carrying polynomial among two kinds of chaff:

* type (i): off-polynomial points (random y-core, any family),
* type (ii): on-polynomial points fuzzified with a family other than the
  locking subset's.

Genuine points are exactly those carrying the locking family AND lying on
the polynomial; neither property alone identifies them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from .field_poly import (
    CRC_VARIANT,
    FieldParams,
    Polynomial,
    check_key_capacity,
    decode_key,
    encode_key,
    lagrange_interpolate,
)
from .fuzzy_number import (
    CORE,
    PARAM_COUNT,
    FuzzyNumber,
    distance,
    json_fields,
    json_int,
)
from .multi_fuzzy_set import (
    LOCKING,
    UNLOCKING,
    FamilyTemplate,
    MultiFuzzySet,
    fit_templates,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# k-subsets whose constant coefficient search_key computes in one numpy batch
_SUBSET_CHUNK = 4096

# SplitMix64 outputs computed in one numpy batch: what next_u64 caches, and
# the least generate_chaff reduces at a time (a few thousand, so its Python
# int lists stay small)
_DRAW_BLOCK = 2048

# k-subsets an unlock tries at most, unless its caller sets another cap
DEFAULT_EFFORT_CAP = 100_000


def _splitmix64_block(state: int, count: int):
    """The ``count`` SplitMix64 outputs after ``state``, as uint64.

    The state after i steps is state + i * gamma (mod 2**64), so a block of
    outputs is one uint64 expression; numpy wraps array arithmetic mod 2**64
    as the scalar algorithm's masks do.
    """
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z += np.uint64(state & _MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _rejection_limit(n: int) -> int:
    """The largest multiple of n up to 2**64: ``randbelow(n)`` takes an
    output below it mod n, and draws again otherwise.  Above 2**64 the limit
    would be 0 and every output rejected, so such an n raises ValueError."""
    if not 0 < n <= 1 << 64:
        raise ValueError(f"bound must lie in [1, 2**64], got {n}")
    return (1 << 64) - (1 << 64) % n


class SplitMix64:
    """Deterministic 64-bit generator; fixed so vaults reproduce per seed.

    ``next_u64`` reads a cached block of outputs.  The bulk draws of
    ``generate_chaff`` and ``scramble`` read a stretch of the stream ahead
    with ``_peek`` and then ``_skip`` the outputs they used, so they leave
    the stream where as many ``randbelow`` calls would.
    """

    def __init__(self, seed: int):
        # nothing is computed before the first draw: numpy's uint64 loops
        # cost memory at first use, which processes that never draw (unlock,
        # the CLI) should not pay
        self._state = seed & _MASK64  # the state before _cache[0]
        self._cache = []
        self._taken = 0  # outputs of _cache already taken

    def _peek(self, count: int):
        """The next ``count`` outputs as uint64, without taking them."""
        return _splitmix64_block(self._state + self._taken * _GAMMA, count)

    def _skip(self, count: int) -> None:
        """Take the next ``count`` outputs."""
        self._state = (self._state + (self._taken + count) * _GAMMA) & _MASK64
        self._cache, self._taken = [], 0

    def next_u64(self) -> int:
        taken = self._taken
        if taken == len(self._cache):
            self._skip(0)
            self._cache = self._peek(_DRAW_BLOCK).tolist()
            taken = 0
        self._taken = taken + 1
        return self._cache[taken]

    def randbelow(self, n: int) -> int:
        limit = _rejection_limit(n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n


def _reduced(block, n: int) -> list:
    """``randbelow(n)`` of each output of a uint64 block, as a list of ints
    with None where randbelow rejects the output and draws again."""
    ceiling = np.uint64(_rejection_limit(n) - 1)
    values = (block % np.uint64(n) if n <= _MASK64 else block).tolist()
    for at in np.flatnonzero(block > ceiling).tolist():
        values[at] = None
    return values


def _randbelow_each(rng: SplitMix64, bounds):
    """``[rng.randbelow(n) for n in bounds]`` for a uint64 array of bounds,
    as a uint64 array: one numpy expression over the next outputs, and one
    more from each output that a bound rejects; every bound is at least 1."""
    # the largest multiple of n up to 2**64, less one; 2**64 mod n is
    # (2**64 - n) mod n, which uint64 holds
    ceilings = np.uint64(_MASK64) - (np.uint64(_MASK64) - bounds + np.uint64(1)) % bounds
    parts = []
    while True:
        block = rng._peek(len(bounds))
        rejected = np.flatnonzero(block > ceilings)
        kept = int(rejected[0]) if len(rejected) else len(bounds)
        parts.append(block[:kept] % bounds[:kept])
        if kept == len(bounds):
            rng._skip(kept)
            return np.concatenate(parts)
        rng._skip(kept + 1)
        bounds, ceilings = bounds[kept:], ceilings[kept:]


def scramble(points: list, rng: "SplitMix64 | int") -> list:
    """Fisher-Yates permutation driven by a splitmix64 stream: for i from
    len - 1 down to 1, swap positions i and ``randbelow(i + 1)``.  All the
    draws are computed in numpy before the swaps."""
    if isinstance(rng, int):
        rng = SplitMix64(rng)
    out = list(points)
    n = len(out)
    draws = _randbelow_each(rng, np.arange(n, 1, -1).astype(np.uint64)).tolist()
    for i, j in zip(range(n - 1, 0, -1), draws):
        out[i], out[j] = out[j], out[i]
    return out


@dataclass(frozen=True)
class VaultPoint:
    x: FuzzyNumber
    y: FuzzyNumber

    def __post_init__(self):
        if self.x.family != self.y.family:
            raise ValueError("vault point coordinates must share a family")

    @property
    def x_core(self) -> int:
        return round(self.x.defuzzify())

    @property
    def y_core(self) -> int:
        return round(self.y.defuzzify())

    def to_dict(self) -> dict:
        return {"x": self.x.to_dict(), "y": self.y.to_dict()}


@dataclass(frozen=True)
class LockParams:
    t: int              # total genuine elements across the locking set
    k_subset: int       # index of the locking subset within the locking set
    t_mfk: int          # size of the locking subset
    r: int              # total vault points
    k: int              # coefficient count; polynomial degree n = k - 1
    rho: float = 0.2    # fraction of chaff that is on-polynomial wrong-family
    delta: float = 0.25  # matching tolerance, in core units
    seed: int = 0

    @property
    def n(self) -> int:
        return self.k - 1

    def validate(self, q: int) -> None:
        if not (0 < self.t_mfk <= self.t <= self.r <= q):
            raise ValueError(
                f"need 0 < t_mfk <= t <= r <= q, got "
                f"t_mfk={self.t_mfk}, t={self.t}, r={self.r}, q={q}"
            )
        if self.t_mfk < self.k:
            raise ValueError(
                f"locking subset too small to unlock: t_mfk={self.t_mfk} < k={self.k}"
            )
        if not (0.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if not 0 < self.delta < math.inf:
            raise ValueError(
                f"matching tolerance delta must be positive and finite: {self.delta}"
            )


# a vault point's family id is its family's position in FAMILIES
FAMILIES = tuple(PARAM_COUNT)
_FAMILY_ID = {family: i for i, family in enumerate(FAMILIES)}


def _defuzzify_rows(family: str, block):
    """``FuzzyNumber.defuzzify`` of every row of a parameter block."""
    with np.errstate(over="ignore"):  # beyond the float range: inf, as in Python
        return CORE[family](block.T)


def _fit(points: list) -> tuple:
    """The x-cores, y-cores, template ids and template table of ``points``:
    a point's cores are its rounded cores, and ``fit_templates`` finds the
    templates.  ValueError names a point that no template rebuilds bit for
    bit at its integer cores."""
    r = len(points)
    x_cores, y_cores = np.empty(r), np.empty(r)
    template_ids = np.empty(r, dtype=np.intp)
    table = []
    for family in FAMILIES:
        members = [i for i, point in enumerate(points) if point.x.family == family]
        if not members:
            continue
        x_block, y_block = (
            np.array([getattr(points[i], axis).params for i in members]).reshape(len(members), -1)
            for axis in "xy")
        # + 0.0: a file holds integers, which read back as +0.0, never -0.0
        x, y = (np.rint(_defuzzify_rows(family, block)) + 0.0 for block in (x_block, y_block))
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("vault cores must be finite")
        templates, ids = fit_templates(family, x, x_block, y, y_block)
        if (ids < 0).any():
            raise ValueError(f"vault point {members[np.argmax(ids < 0)]} is no {family} "
                             f"template's instance at integer cores")
        x_cores[members], y_cores[members] = x, y
        template_ids[members] = len(table) + ids
        table += templates
    return x_cores, y_cores, template_ids, table


def _members(template_ids, count: int) -> list:
    """Per template id below ``count``, the positions of its points."""
    order = np.argsort(template_ids, kind="stable")
    return np.split(order, np.cumsum(np.bincount(template_ids, minlength=count))[:-1])


def _int_column(values, r: int, name: str) -> list:
    """``values`` if it is a parsed JSON array of exactly r integers."""
    if type(values) is not list or len(values) != r:
        raise ValueError(f"{name} must be an array of r={r} integers")
    if not {int}.issuperset(map(type, values)):
        raise ValueError(f"{name} must hold integers only")
    return values


def _core_column(values, r: int, q: int, axis: str):
    """A v2 core column as float64, checked to hold r integers in [0, q)
    that float64 holds exactly."""
    values = _int_column(values, r, f"{axis}_cores")
    low, high = (min(values), max(values)) if values else (0, 0)
    if not (0 <= low and high < q):
        raise ValueError(f"vault {axis}-cores must lie in [0, q={q})")
    try:
        cores = np.array(values, dtype=np.float64)
    except OverflowError:  # beyond the float range
        cores = None
    # float64 holds every integer up to 2**53
    if cores is None or (high > 2**53 and list(map(int, cores.tolist())) != values):
        raise ValueError(f"vault {axis}-cores must be integers that float64 holds exactly")
    return cores


class Vault:
    """r fuzzy points over F_q, each an integer x-core and y-core plus a
    template: the point is that template instantiated at its two cores.

    ``templates`` is the template table, in canonical order: the templates
    some point uses, equal ones merged, families as in FAMILIES, then
    spreads ascending, so equal vaults write equal files.  Per point,
    ``template_ids`` (intp) holds its template's index in the table, and
    ``x_cores`` and ``y_cores`` its cores, as integral float64; all three
    are read-only.  ``family_ids`` derives each point's family from them.

    Every constructor builds through ``_from_cores``: the lock and the v2
    reader pass it the cores, ids and table they hold, while
    ``Vault(points, q, n, r)`` and the v1 reader first map each point to
    its rounded cores and a template with ``fit_templates``, refusing a
    point that no template rebuilds bit for bit.  So neither locking nor
    loading a v2 file builds an object per point.  ``points`` is the same
    vault as a tuple of ``VaultPoint`` s, built a template at a time on
    first use and kept.  Two vaults are equal when their header, table and
    columns are.
    """

    def __init__(self, points, q: int, n: int, r: int, crc_variant: str = CRC_VARIANT):
        vault = Vault._from_cores(*_fit(list(points)), q, n, r, crc_variant)
        vars(self).update(vars(vault))

    @classmethod
    def _from_cores(cls, x_cores, y_cores, template_ids, templates, q: int, n: int,
                    r: int, crc_variant: str) -> "Vault":
        """The vault whose point i is ``templates[template_ids[i]]``
        instantiated at ``x_cores[i]`` and ``y_cores[i]``, float64 columns
        of integers, with the table made canonical.  ValueError names a
        template under which a rounded core is not the integer core it was
        built from, as (x0 + y0) / 2 under a plateau of half-width 2**53."""
        if crc_variant != CRC_VARIANT:
            raise ValueError(
                f"unsupported CRC variant {crc_variant!r}, expected {CRC_VARIANT!r}"
            )
        if len(template_ids) != r:
            raise ValueError(f"vault holds {len(template_ids)} points, expected r={r}")
        if not 0 <= n < r:
            raise ValueError(f"polynomial degree n={n} outside [0, r={r})")
        x_sorted = np.sort(x_cores)
        if (x_sorted[1:] == x_sorted[:-1]).any():
            raise ValueError("vault x-cores must be pairwise distinct")
        for axis, cores in (("x", x_sorted), ("y", y_cores)):
            if not (0 <= cores.min() and int(cores.max()) < q):
                raise ValueError(f"vault {axis}-cores must lie in [0, q={q})")
        used = np.flatnonzero(np.bincount(template_ids, minlength=len(templates))).tolist()
        table = sorted({templates[i] for i in used},
                       key=lambda t: (_FAMILY_ID[t.family], t.spread_params))
        index = {template: i for i, template in enumerate(table)}
        template_ids = np.array([index.get(t, -1) for t in templates], dtype=np.intp)[template_ids]
        for template, members in zip(table, _members(template_ids, len(table))):
            for axis, cores in (("x", x_cores[members]), ("y", y_cores[members])):
                derived = np.rint(_defuzzify_rows(template.family,
                                                  template.instantiate_column(cores)))
                lost = derived != cores
                if lost.any():
                    i = np.argmax(lost)
                    raise ValueError(f"template {template} turns the {axis}-core "
                                     f"{int(cores[i])} into {derived[i]}")
        vault = object.__new__(cls)
        for name, value in (("q", q), ("n", n), ("r", r), ("crc_variant", crc_variant),
                            ("templates", tuple(table)), ("template_ids", template_ids),
                            ("x_cores", x_cores), ("y_cores", y_cores), ("_points", None)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(vault, name, value)
        return vault

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def family_ids(self):
        """Each point's family, as its position in FAMILIES (int8, read-only)."""
        families = np.array([_FAMILY_ID[t.family] for t in self.templates], dtype=np.int8)
        ids = families[self.template_ids]
        ids.flags.writeable = False
        return ids

    @property
    def points(self) -> tuple:
        """The vault as a tuple of ``VaultPoint`` s, built on first use."""
        if self._points is None:
            groups = _members(self.template_ids, len(self.templates))
            # each axis's numbers a template at a time, then in vault order
            rank = np.empty(self.r, dtype=np.intp)
            rank[np.concatenate(groups)] = np.arange(self.r)
            coords = []
            for cores in (self.x_cores, self.y_cores):
                numbers = []
                for template, members in zip(self.templates, groups):
                    rows = template.instantiate_column(cores[members]).tolist()
                    numbers += [FuzzyNumber._trusted(template.family, tuple(row)) for row in rows]
                coords.append(map(numbers.__getitem__, rank.tolist()))
            object.__setattr__(self, "_points", tuple(map(VaultPoint, *coords)))
        return self._points

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.q, self.n, self.r, self.crc_variant, self.templates)
            == (other.q, other.n, other.r, other.crc_variant, other.templates)
            and all(map(np.array_equal, (self.template_ids, self.x_cores, self.y_cores),
                        (other.template_ids, other.x_cores, other.y_cores)))
        )

    def __hash__(self):
        return hash((self.q, self.n, self.r, self.crc_variant, self.templates,
                     self.template_ids.tobytes()))

    def __repr__(self):
        return (f"Vault(points={self.points!r}, q={self.q!r}, n={self.n!r}, "
                f"r={self.r!r}, crc_variant={self.crc_variant!r})")

    def to_dict(self) -> dict:
        """The v2 document: the header, the template table, and per point
        its template id and integer x- and y-core."""
        return {
            "crc_variant": self.crc_variant,
            "format_version": 2,
            "n": self.n,
            "q": self.q,
            "r": self.r,
            "templates": [t.to_dict() for t in self.templates],
            "template_ids": self.template_ids.tolist(),
            "x_cores": list(map(int, self.x_cores.tolist())),
            "y_cores": list(map(int, self.y_cores.tolist())),
        }

    def to_json(self) -> str:
        """The v2 text, ``json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":")) + "\\n"``."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "Vault":
        """Parse a v1 or v2 document; raises ValueError on any malformed
        input, and on a v1 point that no template rebuilds at its integer
        cores."""
        (version,) = json_fields(d, "format_version")
        if type(version) is not int or version not in (1, 2):
            raise ValueError(f"unsupported vault format: {version!r}")
        if version == 2:
            return cls._from_v2(d)
        points, q, n, r, crc_variant = json_fields(
            d, "points", "q", "n", "r", "crc_variant"
        )
        if type(points) is not list:
            raise ValueError(f"points must be an array, got {type(points).__name__}")
        points = [VaultPoint(*map(FuzzyNumber.from_dict, json_fields(point, "x", "y")))
                  for point in points]
        return cls(points, json_int(q), json_int(n), json_int(r), crc_variant)

    @classmethod
    def _from_v2(cls, d: dict) -> "Vault":
        """Check a parsed v2 document and build its vault as the lock does."""
        q, n, r, crc_variant, templates, template_ids, x_cores, y_cores = json_fields(
            d, "q", "n", "r", "crc_variant", "templates", "template_ids", "x_cores", "y_cores")
        q, n, r = json_int(q), json_int(n), json_int(r)
        if type(templates) is not list:
            raise ValueError(f"templates must be an array, got {type(templates).__name__}")
        table = [FamilyTemplate.from_dict(t) for t in templates]
        ids = _int_column(template_ids, r, "template_ids")
        if ids and not (0 <= min(ids) and max(ids) < len(table)):
            raise ValueError(f"template ids must index the table of {len(table)} templates")
        return cls._from_cores(_core_column(x_cores, r, q, "x"), _core_column(y_cores, r, q, "y"),
                               np.array(ids, dtype=np.intp), table, q, n, r, crc_variant)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "Vault":
        """Read a vault file; OSError passes through, and a malformed
        document raises ValueError naming the file."""
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except (ValueError, RecursionError) as e:  # deep nesting recurses
                raise ValueError(f"bad vault file {path}: {e}") from e


@dataclass(frozen=True)
class LockTranscript:
    """Secret locking record, for tests and diagnostics only; never serialized
    into the vault file."""

    polynomial: Polynomial
    genuine_indices: tuple     # positions of genuine points after scrambling
    genuine_cores: tuple
    locking_family: FamilyTemplate
    t_mfk: int
    m_a: int


@dataclass
class UnlockDiagnostics:
    matched: int = 0
    subsets_tried: int = 0
    cap_hit: bool = False  # the effort cap stopped the search early


@dataclass(frozen=True)
class UnlockResult:
    key: bytes | None
    diagnostics: UnlockDiagnostics


def _field_dtype(q: int):
    """numpy int64 while a product of two residues fits (q < 2**31), else
    Python ints in an object array."""
    return np.int64 if q < 2**31 else object


def _eval_all(p: Polynomial, xs: list[int]):
    """[p.eval(x) for x in xs] as a uint64 array, in one numpy Horner pass;
    q is at most 2**64."""
    q = p.q
    if xs and not (0 <= min(xs) and max(xs) < q):
        raise ValueError(f"evaluation points must lie in [0, {q})")
    x = np.array(xs, dtype=_field_dtype(q))
    acc = np.zeros_like(x)
    for c in reversed(p.coefficients):
        acc = (acc * x + c) % q
    return acc.astype(np.uint64)


def generate_chaff(
    p: Polynomial,
    field_mfs: MultiFuzzySet,
    used_x_cores: set,
    count: int,
    rho: float,
    locking_template: FamilyTemplate,
    rng: SplitMix64,
):
    """Chaff points with fresh, pairwise distinct x-cores, as a (count, 3)
    uint64 array: each row holds a point's integer x-core, its integer
    y-core and the index of its template in ``field_mfs.templates()``; the
    point is that template's ``instantiate`` of each core.

    floor(rho * count) points are type (ii): on the polynomial but with a
    family other than the locking one.  The rest are type (i): off the
    polynomial, any family.

    The draws are those of ``rng.randbelow`` calls, in the order that fixes
    the vault bytes: per point a core in [0, q) until one is unused, then a
    decoy template for type (ii), or an offset in [0, q - 1) and a template
    for type (i).  They are read off blocks of SplitMix64 outputs reduced
    once per bound, with None for an output the bound rejects, at a position
    index: a redrawn core or a rejected output only moves that index.
    """
    q = field_mfs.q
    if count < 0 or count > q - len(used_x_cores):
        raise ValueError(
            f"cannot place {count} chaff points among {q - len(used_x_cores)} "
            f"free field elements"
        )
    templates = field_mfs.templates()
    decoys = [i for i, t in enumerate(templates) if t.family != locking_template.family]
    n_on_poly = int(rho * count)
    if n_on_poly > 0 and not decoys:
        raise ValueError("on-polynomial chaff needs at least one non-locking family")
    # the bounds of the core, decoy, offset and template draws; None for a
    # draw that no point makes
    off_poly = count > n_on_poly
    bounds = (q, len(decoys) if n_on_poly else None,
              q - 1 if off_poly else None, len(templates) if off_poly else None)
    used = set(used_x_cores)
    used.add(None)  # a rejected core draw is drawn again, as a used core is
    cores, picks, offsets = [], [], []
    xs = decoy_draws = offset_draws = template_draws = ()
    start = i = 0  # the first draw of the point being drawn, and the next draw
    while len(cores) < count:
        try:
            for _ in range(len(cores), n_on_poly):
                while (x := xs[i]) in used:
                    i += 1
                i += 1
                while (d := decoy_draws[i]) is None:
                    i += 1
                i += 1
                used.add(x)
                cores.append(x)
                picks.append(d)
                start = i
            for _ in range(len(cores), count):
                while (x := xs[i]) in used:
                    i += 1
                i += 1
                while (v := offset_draws[i]) is None:
                    i += 1
                i += 1
                while (t := template_draws[i]) is None:
                    i += 1
                i += 1
                used.add(x)
                cores.append(x)
                offsets.append(v)
                picks.append(t)
                start = i
        except IndexError:  # the block ended inside a point: draw it again from a new block
            rng._skip(start)
            block = rng._peek(max(_DRAW_BLOCK, 2 * (len(xs) - start)))
            xs, decoy_draws, offset_draws, template_draws = (
                None if n is None else _reduced(block, n) for n in bounds)
            start = i = 0
    rng._skip(i)
    ys = _eval_all(p, cores)
    # an offset v skips the value y on p: uniform over F_q minus y
    offsets = np.array(offsets, dtype=np.uint64)
    ys[n_on_poly:] = offsets + (offsets >= ys[n_on_poly:])
    picks = np.array(picks, dtype=np.intp)
    picks[:n_on_poly] = np.array(decoys, dtype=np.intp)[picks[:n_on_poly]]
    return np.stack((np.array(cores, dtype=np.uint64), ys, picks.astype(np.uint64)), axis=1)


def lock_polynomial(
    p: Polynomial,
    locking_set: MultiFuzzySet,
    field_mfs: MultiFuzzySet,
    params: LockParams,
) -> tuple[Vault, LockTranscript]:
    """Lock an already-encoded polynomial (the key-free core of fuzzy_lock).

    Every point is a pair of integer cores plus a template of the field:
    the genuine points are the locking subset's elements and their values
    on p, with the subset's template, and ``generate_chaff`` adds the rest.
    Both come as rows of x-core, y-core and template index; the rows are
    scrambled and become the vault's columns, so locking builds no object
    per point.
    """
    q = field_mfs.q
    if q > 2**53:
        raise ValueError(f"field size q={q} exceeds 2**53, beyond which float64 "
                         f"cores cannot hold every field element")
    params.validate(q)
    if locking_set.kind != LOCKING:
        raise ValueError(f"expected a locking set, got kind={locking_set.kind!r}")
    if locking_set.q != q:
        raise ValueError("locking set and field partition disagree on q")
    if locking_set.total_elements != params.t:
        raise ValueError(
            f"locking set holds {locking_set.total_elements} elements, "
            f"params.t = {params.t}"
        )
    if not (0 <= params.k_subset < locking_set.subset_count):
        raise ValueError(f"locking subset index {params.k_subset} out of range")
    subset = locking_set.subsets[params.k_subset]
    if len(subset) != params.t_mfk:
        raise ValueError(
            f"locking subset holds {len(subset)} elements, params.t_mfk = {params.t_mfk}"
        )
    if len(p.coefficients) != params.k:
        raise ValueError("polynomial length disagrees with params.k")

    template = subset.template
    if template not in field_mfs.templates():
        # chaff takes its templates from the field, so these points would
        # be the only ones of their shape: exactly the genuine ones
        raise ValueError(
            f"locking template {template} is not a template of the field partition"
        )
    rng = SplitMix64(params.seed)
    templates = field_mfs.templates()
    elements = sorted(subset.elements)
    genuine = np.empty((params.t_mfk, 3), dtype=np.uint64)
    genuine[:, 0] = elements
    genuine[:, 1] = _eval_all(p, elements)
    genuine[:, 2] = templates.index(template)
    chaff = generate_chaff(
        p, field_mfs, set(elements), params.r - params.t_mfk, params.rho, template, rng
    )
    # scrambling the positions draws what scrambling the points would
    order = np.array(scramble(range(params.r), rng))
    x_cores, y_cores, template_ids = np.concatenate((genuine, chaff))[order].T
    vault = Vault._from_cores(x_cores.astype(np.float64), y_cores.astype(np.float64),
                              template_ids.astype(np.intp), templates,
                              q, params.n, params.r, CRC_VARIANT)
    transcript = LockTranscript(
        p,
        tuple(np.flatnonzero(order < params.t_mfk).tolist()),
        tuple(elements),
        template,
        params.t_mfk,
        locking_set.subset_count,
    )
    return vault, transcript


def fuzzy_lock(
    key: bytes,
    locking_set: MultiFuzzySet,
    field_mfs: MultiFuzzySet,
    params: LockParams,
) -> tuple[Vault, LockTranscript]:
    """Lock a secret key: encode (with CRC-16), project the locking subset
    onto the polynomial, add chaff, scramble."""
    field = FieldParams(field_mfs.q)
    p = encode_key(key, field, params.k)
    return lock_polynomial(p, locking_set, field_mfs, params)


def match_points(
    vault: Vault,
    probes: list[FuzzyNumber],
    delta: float,
) -> list[tuple[int, int]]:
    """Nearest-neighbor fuzzy matching of probe abscissae against the vault.

    One-to-one: each vault point is claimed at most once, probes processed
    in ascending core order, ties broken toward the smaller x-core.  A probe
    matches only within distance delta (family mismatch is infinitely far).

    Only the vault points of the probes' family are indexed, sorted by
    their integer x-core, and a probe with core c tests those with an
    x-core in [c - w, c + w], where w = delta + 1 plus 2**-50 of |c| + delta.
    No match lies outside: the core of every family is a parameter, or for
    trapezoidal the mean of two, so two cores differ by at most their
    Chebyshev distance; a vault point's core rounds to its x-core; and the
    margin covers the float rounding of a probe's trapezoidal (x0 + y0) / 2
    at any magnitude.  A point's x is instantiated from its template only
    when it falls inside a probe's window, so matching costs a sort of the
    same-family cores plus O(log r) per probe, instead of O(probes * r)
    distance calls.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"matching tolerance must be positive and finite: {delta}")
    families = {p.family for p in probes}
    if len(families) > 1:
        raise ValueError("probes must share a single membership family")
    if not probes:
        return []
    (family,) = families
    members = np.flatnonzero(vault.family_ids == _FAMILY_ID[family])
    order = np.argsort(vault.x_cores[members])
    members = members[order].tolist()
    cores = vault.x_cores[members]
    probes = sorted(probes, key=lambda p: p.defuzzify())
    lows, highs = [], []
    for probe in probes:
        c = probe.defuzzify()
        if math.isfinite(c):
            w = delta + 1.0 + (abs(c) + delta) * 2**-50
            lows.append(c - w)
            highs.append(c + w)
        else:  # a trapezoidal (x0 + y0) / 2 overflowed and bounds nothing
            lows.append(-math.inf)
            highs.append(math.inf)
    starts = cores.searchsorted(lows, "left").tolist()
    ends = cores.searchsorted(highs, "right").tolist()
    built = {}  # window position -> the point's x, built once
    claimed = set()
    matched = []
    for probe, start, end in zip(probes, starts, ends):
        best = None
        best_dist = None
        for i in range(start, end):  # ascending cores, so a tie keeps the smaller x-core
            if i in claimed:
                continue
            x = built.get(i)
            if x is None:
                j = members[i]
                template = vault.templates[vault.template_ids[j]]
                x = built[i] = template.instantiate(float(vault.x_cores[j]))
            d = distance(x, probe)
            if d > delta:
                continue
            if best is None or d < best_dist:
                best, best_dist = i, d
        if best is not None:
            claimed.add(best)
            j = members[best]
            matched.append((int(vault.x_cores[j]), int(vault.y_cores[j])))
    return matched


def _basis_at_zero(xs: list[int], q: int) -> list[list[int]]:
    """w[a][b] = x_a / (x_a - x_b) mod q for a != b, 0 on the diagonal.

    The Lagrange basis polynomial of point b, evaluated at 0, is the product
    of w[a][b] over the other points a of the subset.  All m * (m - 1)
    differences share one modular inversion (Montgomery's batch trick).
    """
    m = len(xs)
    pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
    prefix = []
    acc = 1
    for a, b in pairs:
        prefix.append(acc)
        acc = acc * (xs[a] - xs[b]) % q
    inv = pow(acc, -1, q)
    w = [[0] * m for _ in range(m)]
    for (a, b), before in zip(reversed(pairs), reversed(prefix)):
        # inv is 1 / (product of the differences up to and including (a, b))
        w[a][b] = xs[a] * inv * before % q
        inv = inv * (xs[a] - xs[b]) % q
    return w


def _subsets_passing_a0(xs: list[int], ys: list[int], q: int, k: int,
                        reject: int, limit: int):
    """Yield (position, subset) for each of the first ``limit`` k-subsets of
    the points, in lexicographic order, whose interpolating polynomial has a
    constant term a_0 with ``a_0 & reject == 0``.

    a_0 = sum_j y_j prod_{i != j} w[i][j] is evaluated with numpy for
    _SUBSET_CHUNK subsets at a time.  Operands stay below q, so int64
    products stay below 2**62 while q < 2**31; larger fields use Python ints.
    """
    m = len(xs)
    dtype = _field_dtype(q)
    w = np.array(_basis_at_zero(xs, q), dtype=dtype).ravel()
    y = np.array(ys, dtype=dtype)
    subsets = itertools.islice(itertools.combinations(range(m), k), limit)
    start = 0
    while chunk := list(itertools.islice(subsets, _SUBSET_CHUNK)):
        # cols[j] holds the j-th point index of every subset in the chunk
        cols = np.fromiter(itertools.chain.from_iterable(chunk), dtype=np.intp,
                           count=len(chunk) * k).reshape(len(chunk), k).T.copy()
        rows = cols * m
        a0 = 0
        for j in range(k):
            term = y[cols[j]]
            for i in range(k):
                if i != j:
                    term *= w[rows[i] + cols[j]]
                    term %= q
            a0 = a0 + term  # k terms below q: no int64 overflow
        for s in np.flatnonzero(((a0 % q) & reject) == 0).tolist():
            yield start + s, chunk[s]
        start += len(chunk)


def search_key(
    matched: list[tuple[int, int]],
    q: int,
    k: int,
    key_len: int,
    effort_cap: int = DEFAULT_EFFORT_CAP,
) -> UnlockResult:
    """Search k-subsets of matched points in lexicographic order, accepting
    the first candidate polynomial whose decoded key passes the CRC check.

    Only the constant term a_0 of each candidate is computed at first.
    decode_key rejects every polynomial whose a_0 is at least 2**bits or
    has a set bit in the zero padding at the tail of the payload, so only
    the subsets whose a_0 passes that test are interpolated in full and
    decoded.  Matched points must have distinct x values mod q, and k
    coefficients of F_q must hold a key of ``key_len`` bytes plus its CRC
    (``check_key_capacity``): a key length that no search could find
    raises ValueError instead of reporting a search it did not run.
    """
    if effort_cap <= 0:
        raise ValueError("effort cap must be positive")
    if k < 1:
        raise ValueError("coefficient count must be at least 1")
    field = FieldParams(q)
    check_key_capacity(key_len, field, k)
    diagnostics = UnlockDiagnostics(matched=len(matched))
    if len(matched) < k:
        return UnlockResult(None, diagnostics)
    xs = [x % q for x, _ in matched]
    if len(set(xs)) != len(xs):
        raise ValueError("matched points must have distinct x values")
    total = math.comb(len(matched), k)
    limit = min(total, effort_cap)
    bits = field.bits_per_element
    pad = k * bits - (8 * key_len + 16)
    # a_0 < q < 2**(bits + 1), so a_0 >= 2**bits exactly when bit `bits` is
    # set; the low min(pad, bits) bits of a_0 end the zero padding
    reject = (1 << bits) | ((1 << min(pad, bits)) - 1)
    ys = [y % q for _, y in matched]
    for position, subset in _subsets_passing_a0(xs, ys, q, k, reject, limit):
        candidate = lagrange_interpolate([matched[i] for i in subset], field)
        material = decode_key(candidate, field, key_len)
        if material is not None:
            diagnostics.subsets_tried = position + 1
            return UnlockResult(material.key_bytes, diagnostics)
    diagnostics.subsets_tried = limit
    diagnostics.cap_hit = total > effort_cap
    return UnlockResult(None, diagnostics)


def fuzzy_unlock(
    vault: Vault,
    unlocking_set: MultiFuzzySet,
    k_subset: int,
    delta: float,
    key_len: int,
    effort_cap: int = DEFAULT_EFFORT_CAP,
) -> UnlockResult:
    """Attempt to recover the key from the vault with an unlocking set.

    Fuzzifies the chosen unlocking subset, matches against the vault, then
    runs the k-subset search over the matches.  An unlocking set whose q
    differs from the vault's raises ValueError.
    """
    if unlocking_set.kind not in (UNLOCKING, LOCKING):
        raise ValueError(f"expected an unlocking set, got kind={unlocking_set.kind!r}")
    if unlocking_set.q != vault.q:
        raise ValueError("unlocking set and vault disagree on q")
    probes = unlocking_set.select_subset(k_subset)
    matched = match_points(vault, probes, delta)
    return search_key(matched, vault.q, vault.n + 1, key_len, effort_cap)
