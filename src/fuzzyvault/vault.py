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

import base64
import bisect
import json
import math
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain, repeat
from random import SystemRandom

import numpy as np

from .field_poly import (
    CRC_VARIANT,
    FieldParams,
    Polynomial,
    _basis_at_zero,
    _check_field_size,
    _constant_terms,
    _eval_all,
    constant_term_mask,
    decode_key,
    encode_key,
    lagrange_interpolate,
)
from .fuzzy_number import (
    CORE,
    PARAM_COUNT,
    TRAPEZOIDAL,
    FuzzyNumber,
    distance,
    json_fields,
    json_int,
)
from .multi_fuzzy_set import (
    FIELD,
    LOCKING,
    UNLOCKING,
    FamilyTemplate,
    MultiFuzzySet,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# k-subsets whose constant coefficient search_key computes in one numpy batch
_SUBSET_CHUNK = 4096

# the most core draws generate_chaff reads off one block of SplitMix64
# outputs, unless one core search runs longer; the chaff of an r = 10 000
# desk lock takes about 30 000 outputs
_DRAW_BLOCK = 1 << 15

# k-subsets an unlock tries at most, unless its caller sets another cap
DEFAULT_EFFORT_CAP = 100_000


def _rejection_limit(n: int) -> int:
    """The largest multiple of n up to 2**64: a draw below n is the next
    output below it, mod n.  Above 2**64 the limit would be 0 and every
    output skipped, so such an n raises ValueError."""
    if not 0 < n <= 1 << 64:
        raise ValueError(f"bound must lie in [1, 2**64], got {n}")
    return (1 << 64) - (1 << 64) % n


class SplitMix64:
    """Deterministic 64-bit generator, its state alone; fixed so vaults
    reproduce per seed.  Its outputs are read in blocks: ``_peek`` at the
    stream ahead, then ``_skip`` the outputs used."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def _peek(self, count: int):
        """The next ``count`` outputs as uint64, without taking them.  The
        state after i steps is state + i * gamma (mod 2**64), so a block of
        outputs is one uint64 expression, which numpy wraps mod 2**64."""
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z += np.uint64(self._state)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def _skip(self, count: int) -> None:
        """Take the next ``count`` outputs."""
        self._state = (self._state + count * _GAMMA) & _MASK64


def _randbelow_each(rng: SplitMix64, bounds):
    """One draw below each of a uint64 array of bounds, each at least 1, in
    order, as a uint64 array: one numpy expression over the next outputs,
    and one more from each output that a bound rejects."""
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


def _permutation(n: int, rng: SplitMix64):
    """The order of a Fisher-Yates shuffle of range(n), which swaps
    positions i and a draw below i + 1 for i from n - 1 down to 1, as an
    intp array, with no Python pass per position.

    Step i of the loop swaps positions i and j_i <= i, and no
    later step touches position i, so it ends holding what position j_i
    held just before step i: what the last earlier step to write there
    moved in, or the item j_i itself if none did.  Steps run from n - 1
    down, so that writer is the least s > i with j_s = j_i, which moved in
    what position s held just before step s; in turn, that is what the
    least step t > s with j_t = s moved in, or the item s itself.  One
    stable sort of the steps by j lists, per position, the steps that swap
    with it in ascending order: the step after i in the list of j_i is the
    first link, and the head of the list of s the second.  That head is s
    itself when j_s = s, but then no other link leads to s, as j_i <= i < s
    for every step i < s.  Pointer jumping follows the second link to the
    end of each chain.
    """
    if n < 2:
        return np.arange(n, dtype=np.intp)
    j = np.zeros(n, dtype=np.intp)  # j[s]: the position step s swaps with s
    j[:0:-1] = _randbelow_each(rng, np.arange(n, 1, -1, dtype=np.uint64))
    # numpy radix-sorts keys of 16 bits or fewer
    steps = np.argsort(j[1:].astype(np.min_scalar_type(n - 1)), kind="stable") + 1
    key = j[steps]
    same = key[1:] == key[:-1]
    later = np.full(n, -1, dtype=np.intp)  # the next step with the same j, by step
    later[steps[:-1][same]] = steps[1:][same]
    first = np.full(n, -1, dtype=np.intp)  # the least step with j = s, by position s
    heads = np.flatnonzero(np.concatenate(([True], ~same)))
    first[key[heads]] = steps[heads]
    ends = np.where(first < 0, np.arange(n), first)
    while not np.array_equal(hop := ends[ends], ends):
        ends = hop
    order = np.where(later < 0, j, ends[later])
    order[0] = ends[0]  # what position 0 holds after the last step
    return order


@dataclass(frozen=True)
class VaultPoint:
    """One point of a vault: its template and its two integer cores; its
    fuzzy numbers are the template instantiated at each core."""

    template: FamilyTemplate
    x_core: int
    y_core: int

    @property
    def x(self) -> FuzzyNumber:
        return self.template.instantiate(self.x_core)

    @property
    def y(self) -> FuzzyNumber:
        return self.template.instantiate(self.y_core)

    def to_dict(self) -> dict:
        return {"x": self.x.to_dict(), "y": self.y.to_dict()}


def _check_tolerance(delta: float) -> None:
    """ValueError unless the matching tolerance is positive and finite."""
    if not 0 < delta < math.inf:
        raise ValueError(f"matching tolerance delta must be positive and finite: {delta}")


@dataclass(frozen=True)
class LockParams:
    t: int              # total genuine elements across the locking set
    k_subset: int       # index of the locking subset within the locking set
    t_mfk: int          # size of the locking subset
    r: int              # total vault points
    k: int              # coefficient count; polynomial degree n = k - 1
    rho: float = 0.2    # fraction of chaff that is on-polynomial wrong-family
    delta: float = 0.25  # matching tolerance, in core units
    seed: int | None = None  # None: each lock draws 64 bits from the OS

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
        _check_tolerance(self.delta)


# a vault point's family id is its family's position in FAMILIES
FAMILIES = tuple(PARAM_COUNT)
_FAMILY_ID = {family: i for i, family in enumerate(FAMILIES)}


def _keeps_cores(template: FamilyTemplate, cmax: float) -> bool:
    """Whether the trapezoidal template's plateau midpoint, ((c - s) + (c + s))
    / 2 in float64, is c at every integer core c in [0, cmax].  It is when
    c - s and c + s are exact.  They are when c and s are multiples of
    u = ulp(cmax + s), as every integer c is while u <= 1: both then lie
    below 2**53 u, where every multiple of u is a float."""
    plateau = template.spread_params[0]
    ulp = math.ulp(cmax + plateau)
    return ulp <= 1 and plateau % ulp == 0


def _check_cores(table: list, template_ids, x_cores, y_cores) -> None:
    """Check that each trapezoidal point's plateau midpoint rounds back to
    both of its int64 cores, in one pass over the points of the templates
    ``_keeps_cores`` does not clear.  Every other family holds the core c
    itself as a parameter, and no parameter, c, c - s, c + s or a spread s,
    overflows for c below 2**63.  ValueError names the first template in
    table order that fails, the x-axis before the y-axis, at its first
    point."""
    cmax = float(max(x_cores.max(), y_cores.max()))
    plateaus = [t.spread_params[0] if t.family == TRAPEZOIDAL and not _keeps_cores(t, cmax)
                else math.nan for t in table]
    if all(map(math.isnan, plateaus)):  # no template needs the check
        return
    plateaus = np.array(plateaus)[template_ids]
    members = np.flatnonzero(~np.isnan(plateaus))
    ids, s = template_ids[members], plateaus[members]
    cores = np.stack((x_cores[members], y_cores[members]))  # c - s and c + s are float64
    derived = np.rint(CORE[TRAPEZOIDAL]((cores - s, cores + s)))
    kept = derived == cores
    if not kept.all():
        failing = ids == ids[~kept.all(axis=0)].min()  # the first failing template's points
        axis = kept[:, failing].all(axis=1).argmin()
        i = np.argmin(kept[axis] | ~failing)
        raise ValueError(f"template {table[ids[i]]} turns the {'xy'[axis]}-core "
                         f"{cores[axis, i]} into {derived[axis, i]}")


def _int_column(values, r: int, name: str):
    """``values``, checked to be a parsed JSON array of exactly r integers
    that int64 holds, as an int64 array."""
    if type(values) is not list or len(values) != r:
        raise ValueError(f"{name} must be an array of r={r} integers")
    if not {int}.issuperset(map(type, values)):
        raise ValueError(f"{name} must hold integers only")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{name} must hold integers that int64 holds") from None


# the integer columns of a vault document, each an attribute of Vault
_COLUMNS = ("template_ids", "x_cores", "y_cores")


def _width(bound: int) -> int:
    """The bytes a v3 column gives each value below ``bound``: as many as
    bound - 1 takes, and at least 1."""
    return max(1, (max(bound - 1, 0).bit_length() + 7) // 8)


def _encode_column(column, bound: int) -> str:
    """A v3 column: each value, non-negative and below ``bound`` <= 2**56,
    as a little-endian unsigned integer of ``_width(bound)`` bytes, all of
    them in base64."""
    values = np.ascontiguousarray(column, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return base64.b64encode(values[:, :_width(bound)].tobytes()).decode("ascii")


def _decode_column(text, r: int, bound: int, name: str):
    """The inverse of ``_encode_column``: a v3 column of r values as an
    int64 array, for ``bound`` <= 2**56.  ValueError names the column
    unless it is a base64 string of exactly r values; its length is
    checked before the array is allocated, as r comes from the file.

    Value i is the little-endian int64 at byte i * width, masked to its
    width bytes: one strided read of the bytes, padded so that the last
    value's 8 bytes lie within them."""
    width = _width(bound)
    if type(text) is not str:
        raise ValueError(f"{name} must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as e:
        raise ValueError(f"{name} is not base64: {e}") from None
    if len(raw) != r * width:
        raise ValueError(f"{name} must hold r={r} values of {width} bytes, got {len(raw)} bytes")
    padded = np.frombuffer(raw + bytes(8 - width), dtype=np.uint8)
    values = np.ndarray((r,), dtype="<i8", buffer=padded, strides=(width,))
    return values & ((1 << 8 * width) - 1)


class Vault:
    """r fuzzy points over F_q, each an integer x-core and y-core plus a
    template: the point is that template instantiated at its two cores.

    ``templates`` is the template table, in canonical order: the templates
    some point uses, equal ones merged, families as in FAMILIES, then
    spreads ascending, so equal vaults write equal files.  Per point,
    ``template_ids`` (intp) holds its template's index in the table, and
    ``x_cores`` and ``y_cores`` (int64) its cores; all three are
    read-only.  ``family_ids`` derives each point's family from them.

    A vault is built one way, from those columns and a table: the lock
    and the reader hold them already, so neither builds an object per
    point.  ``points`` is the same vault as a tuple of ``VaultPoint`` s,
    each a template and two cores.  Two vaults are equal when their
    header, table and columns are.
    """

    def __init__(self, x_cores, y_cores, template_ids, templates, q: int, n: int):
        """The vault whose point i is ``templates[template_ids[i]]``
        instantiated at ``x_cores[i]`` and ``y_cores[i]``: three columns of
        one length r, each an integer array that int64 holds, kept
        read-only, the cores as int64 and the ids as intp, with the table
        made canonical; the CRC variant is ``CRC_VARIANT``.  ValueError
        names the fault: a column of floats, bools, strings or objects,
        columns of unequal length, a template id outside ``templates``, or
        a template under which a rounded core is not the integer core it
        was built from, as (x0 + y0) / 2 under a plateau of half-width
        2**53.  A field beyond 2**53 is checked last, so a vault refused
        for another fault keeps that fault's message."""
        template_ids, x_cores, y_cores = columns = [
            np.asarray(column) for column in (template_ids, x_cores, y_cores)]
        for name, column in zip(_COLUMNS, columns):
            if (column.ndim != 1 or column.dtype.kind not in "iu"
                    or not np.can_cast(column.dtype, np.int64)):
                raise ValueError(f"vault {name} must be a column of integers that int64 "
                                 f"holds, got {column.dtype} of shape {column.shape}")
        r = len(template_ids)
        if not len(x_cores) == len(y_cores) == r:
            raise ValueError(f"vault columns must be of one length, got {len(x_cores)} "
                             f"x-cores, {len(y_cores)} y-cores and {r} template ids")
        if r and not (0 <= template_ids.min() and template_ids.max() < len(templates)):
            raise ValueError(f"template ids must index the table of {len(templates)} templates")
        x_cores, y_cores = (cores.astype(np.int64, copy=False) for cores in (x_cores, y_cores))
        if not 0 <= n < r:
            raise ValueError(f"polynomial degree n={n} outside [0, r={r})")
        x_sorted = np.sort(x_cores)
        if (x_sorted[1:] == x_sorted[:-1]).any():
            raise ValueError("vault x-cores must be pairwise distinct")
        for axis, least, most in (("x", x_sorted[0], x_sorted[-1]),
                                  ("y", y_cores.min(), y_cores.max())):
            if not (0 <= least and int(most) < q):
                raise ValueError(f"vault {axis}-cores must lie in [0, q={q})")
        used = np.flatnonzero(np.bincount(template_ids, minlength=len(templates))).tolist()
        table = sorted({templates[i] for i in used},
                       key=lambda t: (_FAMILY_ID[t.family], t.spread_params))
        index = {template: i for i, template in enumerate(table)}
        template_ids = np.array([index.get(t, -1) for t in templates], dtype=np.intp)[template_ids]
        _check_cores(table, template_ids, x_cores, y_cores)
        _check_field_size(q)
        for name, value in (("q", q), ("n", n), ("r", r), ("crc_variant", CRC_VARIANT),
                            ("templates", tuple(table)), ("template_ids", template_ids),
                            ("x_cores", x_cores), ("y_cores", y_cores)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

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
        """The vault as a tuple of ``VaultPoint`` s, built on each access."""
        return tuple(map(VaultPoint, map(self.templates.__getitem__, self.template_ids.tolist()),
                         self.x_cores.tolist(), self.y_cores.tolist()))

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
        return (f"Vault(q={self.q!r}, n={self.n!r}, r={self.r!r}, "
                f"crc_variant={self.crc_variant!r}, templates={self.templates!r})")

    def to_dict(self) -> dict:
        """The v3 document: the header, the template table, and each
        integer column as ``_encode_column`` writes it, the template ids
        below the table's length and the cores below q."""
        bounds = {"template_ids": len(self.templates), "x_cores": self.q, "y_cores": self.q}
        return {
            "crc_variant": self.crc_variant,
            "format_version": 3,
            "n": self.n,
            "q": self.q,
            "r": self.r,
            "templates": [t.to_dict() for t in self.templates],
            **{name: _encode_column(getattr(self, name), bound) for name, bound in bounds.items()},
        }

    def to_json(self) -> str:
        """The v3 text: ``to_dict`` with sorted keys, no spaces and a newline."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Vault":
        """The vault of v3 or v2 text, the inverse of ``to_json``; a
        ValueError, or the RecursionError ``json.loads`` raises on deeply
        nested text, which ``load`` turns into a ValueError."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, d: dict) -> "Vault":
        """Check a parsed v3 or v2 document and build its vault as the lock
        does.  A v3 column is read by ``_decode_column``, after the field
        size is checked, and a v2 column, an array of JSON integers, by
        ``_int_column``.  ValueError on any malformed input, and on a v1
        document, which is no longer read."""
        (version,) = json_fields(d, "format_version")
        if type(version) is not int or version not in (1, 2, 3):
            raise ValueError(f"unsupported vault format: {version!r}")
        if version == 1:
            raise ValueError("vault format 1 is no longer read: "
                             "lock the key again to write a format 3 file")
        q, n, r, crc_variant, templates, *columns = json_fields(
            d, "q", "n", "r", "crc_variant", "templates", *_COLUMNS)
        q, n, r = json_int(q), json_int(n), json_int(r)
        if type(templates) is not list:
            raise ValueError(f"templates must be an array, got {type(templates).__name__}")
        table = [FamilyTemplate.from_dict(t) for t in templates]
        if version == 2:
            columns = [_int_column(values, r, name) for values, name in zip(columns, _COLUMNS)]
        else:
            _check_field_size(q)
            columns = [_decode_column(text, r, bound, name) for text, bound, name
                       in zip(columns, (len(table), q, q), _COLUMNS)]
        ids, x_cores, y_cores = columns
        if crc_variant != CRC_VARIANT:
            raise ValueError(f"unsupported CRC variant {crc_variant!r}, expected {CRC_VARIANT!r}")
        return cls(x_cores, y_cores, ids, table, q, n)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "Vault":
        """Read a vault file, as text in UTF-8 with universal newlines,
        through ``from_json``.  OSError passes through, and a malformed
        document raises ValueError naming the file."""
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_json(fh.read())
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


def _draws_after(outputs, at: int, bounds) -> tuple:
    """One draw below each bound in turn from the outputs after position
    ``at``, each the next output below its ``_rejection_limit``, mod the
    bound, after the position of the last output read; IndexError if the
    outputs end first."""
    values = []
    for n in bounds:
        at += 1
        while outputs[at] >= _rejection_limit(n):
            at += 1
        values.append(outputs[at] % n)
    return at, values


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
    polynomial, any family.  A field beyond 2**53 raises ValueError.

    A draw below n is the next output below ``_rejection_limit(n)``, mod n.
    The draws, in the order that fixes the vault bytes, are per point a core
    below q until one is unused, then a decoy template for type (ii), or an
    offset below q - 1 and a template for type (i).  They are read off
    blocks of SplitMix64 outputs, each planned for the points left, at most
    ``_DRAW_BLOCK`` long.  numpy reduces the block mod q, with q itself,
    which no core equals, for an output q rejects; a walk over them, read
    as Python ints, finds each point's core, and its other draws are the
    next one or two outputs.  Where numpy marked an output that a decoy,
    offset or template bound may reject, ``_draws_after`` steps past those
    that their bounds do reject.  A point that runs past the block's end is
    read again from its first output; a block that held no point is read
    again twice as long.
    """
    q = field_mfs.q
    _check_field_size(q)
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
    # per point type, as its draws after its core, their bounds; a field
    # with no decoy draws none
    after = {1: (len(decoys) or 1,), 2: (q - 1, len(templates))}
    if not count:
        return np.empty((0, 3), dtype=np.uint64)
    # a core draw keeps the outputs up to core_ceiling, a share kept of
    # them all; the bounds of the other draws keep those up to ceiling
    core_ceiling = np.uint64(_rejection_limit(q) - 1)
    ceiling = np.uint64(min(map(_rejection_limit, after[1] + after[2])) - 1)
    kept = _rejection_limit(q) / 2**64
    used = set(used_x_cores)
    used.add(q)  # a rejected core draw is drawn again, as a used core is
    cores = np.empty(count, dtype=np.uint64)
    # each point's draws after its core: a decoy, or an offset and a template
    draws = np.empty((2, count), dtype=np.uint64)
    drawn, size, fitted = 0, 0, True  # the points drawn, and the last block's length
    while drawn < count:
        # the type (ii) and all points left
        on_left, left = max(n_on_poly - drawn, 0), count - drawn
        # the outputs they use: one or two draws after each core, and core
        # draws until one is fresh, at most q / fresh of those a core draw
        # keeps on average, with fresh the cores still free for the last
        # point (used holds q as well)
        fresh = q + 2 - len(used) - left
        planned = min(_DRAW_BLOCK, math.ceil(left * q / fresh / kept) + 2 * left - on_left)
        size = planned if fitted else 2 * size  # a block that held no point, twice as long
        block = rng._peek(size)
        reduced = block % np.uint64(q)
        reduced[block > core_ceiling] = q
        xs, outputs = memoryview(reduced), memoryview(block)
        marks = [*np.flatnonzero(block > ceiling).tolist(), size]  # the marked, then the end
        stop = marks[0]
        # the core positions of the points drawn from the block, and the
        # other draws of those the walk stepped through, by point
        at, stepped = [], {}
        start = i = 0  # the next point's first output, and the core draw the walk is at
        # per point left, its draws after its core: 1 for type (ii), 2 for type (i)
        widths = chain(repeat(1, on_left), repeat(2, left - on_left))
        try:
            for width in widths:
                while (x := xs[i]) in used:
                    i += 1
                end = i + width  # the output of its last draw
                if end >= stop:  # a mark, or the block's end, among its draws
                    end, stepped[len(at)] = _draws_after(outputs, i, after[width])
                    stop = marks[bisect.bisect_right(marks, end)]
                used.add(x)
                at.append(i)
                i = start = end + 1
        except IndexError:  # the point ran past the block's end
            pass
        rng._skip(start)
        fitted = bool(at)
        at = np.array(at, dtype=np.intp)
        done = drawn + len(at)
        on = min(len(at), on_left)  # this block's type (ii) points
        cores[drawn:done] = reduced[at]
        draws[0, drawn:drawn + on] = block[at[:on] + 1] % np.uint64(len(decoys))
        draws[0, drawn + on:done] = block[at[on:] + 1] % np.uint64(q - 1)
        draws[1, drawn + on:done] = block[at[on:] + 2] % np.uint64(len(templates))
        for point, values in stepped.items():
            draws[:len(values), drawn + point] = values
        drawn = done
    ys = _eval_all(p, cores)
    # an offset v skips the value y on p: uniform over F_q minus y
    offsets = draws[0, n_on_poly:]
    ys[n_on_poly:] = offsets + (offsets >= ys[n_on_poly:])
    picks = np.concatenate((np.array(decoys, dtype=np.uint64)[draws[0, :n_on_poly]],
                            draws[1, n_on_poly:]))
    return np.stack((cores, ys, picks), axis=1)


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
    per point.  The chaff and the scramble draw from
    ``SplitMix64(params.seed)``, or, without a seed, from a fresh seed of
    64 bits from ``SystemRandom``, the OS source of ``secrets``: whoever
    guesses the seed replays the chaff.
    """
    q = field_mfs.q
    _check_field_size(q)
    params.validate(q)
    if field_mfs.kind != FIELD:
        raise ValueError(f"expected a field partition, got kind={field_mfs.kind!r}")
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
    if subset.size != params.t_mfk:
        raise ValueError(
            f"locking subset holds {subset.size} elements, params.t_mfk = {params.t_mfk}"
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
    rng = SplitMix64(SystemRandom().getrandbits(64) if params.seed is None else params.seed)
    templates = field_mfs.templates()
    elements = sorted(subset.elements)
    genuine = np.empty((params.t_mfk, 3), dtype=np.uint64)
    genuine[:, 0] = elements
    genuine[:, 1] = _eval_all(p, genuine[:, 0])
    genuine[:, 2] = templates.index(template)
    chaff = generate_chaff(
        p, field_mfs, set(elements), params.r - params.t_mfk, params.rho, template, rng
    )
    # scrambling the positions draws what scrambling the points would
    order = _permutation(params.r, rng)
    # x-cores, y-cores and template ids, each below q <= 2**53
    columns = np.concatenate((genuine, chaff))[order].T.astype(np.int64, order="C")
    vault = Vault(*columns, templates, q, params.n)
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
    template: FamilyTemplate,
    cores,
    delta: float,
) -> list[tuple[int, int]]:
    """Nearest-neighbor fuzzy matching of the probes
    ``template.instantiate(c)``, for each c in ``cores``, against the
    vault's abscissae; ``cores`` is a range, such as a subset's elements,
    or any collection of numbers.

    One-to-one: each vault point is claimed at most once, probes processed
    in ascending core order, ties broken toward the smaller x-core.  A probe
    matches only within distance delta (family mismatch is infinitely far).

    Only the vault points of the template's family are indexed, sorted by
    their integer x-core, and a probe with core c tests the unclaimed ones
    with an x-core in [c - W, c + W]: W = delta + 2 plus 2**-48 of
    delta + s, where s is a trapezoidal template's plateau half-width (0
    for the other families).  No match lies outside.  Take a = float(c),
    which the window is compared in too, and x an x-core, an integer below
    q <= 2**53.  Where the core is a parameter, |a - x| is at most the
    distance, which rounds down by at most 2**-52 of itself.  A trapezoidal
    probe has x0 = a - s and y0 = a + s, the point x - s' and x + s' with
    s' within about delta of s, each rounded by half an ulp at most; the
    two differences add up to 2(a - x) plus the four rounding errors.
    While s and delta stay below 2**51, x - s' lies within 2**53 of 0 and
    rounds by at most 1/2, and a - s, a + s and x + s' lie below 2**54 and
    round by at most 1, so |a - x| <= delta(1 + 2**-52) + 7/4.  Past that,
    each error is at most 2**-53 of a value below 2**53 + 2(delta + s),
    which 2 + 2**-48 (delta + s) covers.  When no unclaimed point lies
    within W of a probe, the walk bisects ``cores`` to the first probe that
    reaches the next unclaimed point, so a range is never walked.  The
    least and greatest core are instantiated first, so that a template
    that cannot fuzzify one raises as ``select_subset`` would.
    """
    if type(cores) is not range or cores.step < 0:
        cores = sorted(cores)
    ends = {c: template.instantiate(float(c)) for c in ((cores[0], cores[-1]) if cores else ())}
    _check_tolerance(delta)
    plateau = template.spread_params[0] if template.family == TRAPEZOIDAL else 0.0
    w = delta + 2.0 + (delta + plateau) * 2**-48
    members = np.flatnonzero(vault.family_ids == _FAMILY_ID[template.family])
    members = members[np.argsort(vault.x_cores[members])]
    xs = vault.x_cores[members].tolist()
    built = {}  # position -> the point's x, built once
    claimed = set()
    matched = []
    i = 0
    while i < len(cores):
        c = cores[i]
        j = bisect.bisect_left(xs, c - w)
        while j in claimed:
            j += 1
        if j == len(xs):
            break
        if xs[j] > c + w:  # on to the first probe within W of point j
            i = max(i + 1, bisect.bisect_left(cores, xs[j] - w))
            continue
        probe = ends[c] if c in ends else template.instantiate(float(c))
        best = None
        best_dist = None
        for j in range(j, bisect.bisect_right(xs, c + w)):  # a tie keeps the smaller x-core
            if j in claimed:
                continue
            x = built.get(j)
            if x is None:
                x = built[j] = vault.templates[vault.template_ids[members[j]]].instantiate(xs[j])
            d = distance(x, probe)
            if d > delta:
                continue
            if best is None or d < best_dist:
                best, best_dist = j, d
        if best is not None:
            claimed.add(best)
            matched.append(best)
        i += 1
    rows = members[matched]
    return list(zip(vault.x_cores[rows].tolist(), vault.y_cores[rows].tolist()))


def search_key(
    matched: list[tuple[int, int]],
    q: int,
    k: int,
    key_len: int,
    effort_cap: int = DEFAULT_EFFORT_CAP,
) -> UnlockResult:
    """Search k-subsets of matched points in lexicographic order, accepting
    the first candidate polynomial whose decoded key passes the CRC check.

    Only the constant term a_0 of each candidate is computed at first:
    decode_key rejects every polynomial whose a_0 has a bit of
    ``constant_term_mask`` set, so only the subsets whose a_0 has them
    clear are interpolated in full and decoded.  The first subset, which
    carries the key when the first k matches are genuine, is tried alone in
    Python ints from the basis factors among its own points; the factors
    of the other points are computed only if it fails, and the rest follow
    _SUBSET_CHUNK at a time (``_constant_terms``).  Matched points must
    have distinct x values mod q, and k coefficients of F_q must hold a key
    of ``key_len`` bytes plus its CRC (``check_key_capacity``): a key length
    that no search could find raises ValueError instead of reporting a
    search it did not run.
    """
    if effort_cap <= 0:
        raise ValueError("effort cap must be positive")
    if k < 1:
        raise ValueError("coefficient count must be at least 1")
    field = FieldParams(q)
    q = field.q
    reject = constant_term_mask(key_len, field, k)
    diagnostics = UnlockDiagnostics(matched=len(matched))
    if len(matched) < k:
        return UnlockResult(None, diagnostics)
    xs = [x % q for x, _ in matched]
    if len(set(xs)) != len(xs):
        raise ValueError("matched points must have distinct x values")
    total = math.comb(len(matched), k)
    limit = min(total, effort_cap)
    head = _basis_at_zero(xs[:k], q)
    ys = [y % q for _, y in matched]
    a0 = sum(ys[b] * math.prod(row[b] for row in head) for b in range(k)) % q
    if not a0 & reject:
        material = decode_key(lagrange_interpolate(matched[:k], field), field, key_len)
        if material is not None:
            diagnostics.subsets_tried = 1
            return UnlockResult(material.key_bytes, diagnostics)
    w = np.array(_basis_at_zero(xs, q, head), dtype=np.int64)
    y = np.array(ys, dtype=np.int64)
    for start in range(1, limit, _SUBSET_CHUNK):
        subsets, a0 = _constant_terms(w, y, q, k, start, min(start + _SUBSET_CHUNK, limit))
        for s in np.flatnonzero((a0 & reject) == 0).tolist():
            candidate = lagrange_interpolate([matched[i] for i in subsets[:, s].tolist()], field)
            material = decode_key(candidate, field, key_len)
            if material is not None:
                diagnostics.subsets_tried = start + s + 1
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

    Matches the chosen unlocking subset, as its template and elements,
    against the vault, then runs the k-subset search over the matches.  An
    unlocking set whose q differs from the vault's raises ValueError.
    """
    if unlocking_set.kind not in (UNLOCKING, LOCKING):
        raise ValueError(f"expected an unlocking set, got kind={unlocking_set.kind!r}")
    if unlocking_set.q != vault.q:
        raise ValueError("unlocking set and vault disagree on q")
    subset = unlocking_set.subset(k_subset)
    matched = match_points(vault, subset.template, subset.elements, delta)
    return search_key(matched, vault.q, vault.n + 1, key_len, effort_cap)
