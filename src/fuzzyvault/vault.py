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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .field_poly import (
    CRC_VARIANT,
    FieldParams,
    Polynomial,
    decode_key,
    encode_key,
    lagrange_interpolate,
)
from .fuzzy_number import FuzzyNumber, distance, json_fields, json_int
from .multi_fuzzy_set import LOCKING, UNLOCKING, FamilyTemplate, MultiFuzzySet

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# k-subsets whose constant coefficient search_key computes in one numpy batch
_SUBSET_CHUNK = 4096

# SplitMix64 outputs computed in one numpy batch
_DRAW_BLOCK = 1024


def _splitmix64_outputs(state: int):
    """The SplitMix64 stream after ``state``, computed a block at a time.

    The state after i steps is state + i * gamma (mod 2**64), so a block of
    outputs is one uint64 expression; numpy wraps it mod 2**64 as the
    scalar algorithm's masks do.
    """
    # built on the first draw: numpy's uint64 loops cost memory at first use,
    # which processes that never lock (unlock, the CLI) should not pay
    steps = np.arange(1, _DRAW_BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    while True:
        z = steps + np.uint64(state)
        state = (state + _DRAW_BLOCK * _GAMMA) & _MASK64
        z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
        yield from (z ^ (z >> 31)).tolist()


class SplitMix64:
    """Deterministic 64-bit generator; fixed so vaults reproduce per seed."""

    def __init__(self, seed: int):
        self._draw = _splitmix64_outputs(seed & _MASK64).__next__

    def next_u64(self) -> int:
        return self._draw()

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        draw = self._draw
        while True:
            r = draw()
            if r < limit:
                return r % n


def scramble(points: list, rng: "SplitMix64 | int") -> list:
    """Fisher-Yates permutation driven by a splitmix64 stream."""
    if isinstance(rng, int):
        rng = SplitMix64(rng)
    out = list(points)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randbelow(i + 1)
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

    @classmethod
    def from_dict(cls, d: dict) -> "VaultPoint":
        """Parse ``to_dict`` output; raises ValueError on any malformed input."""
        # checked inline rather than with json_fields: this runs once per point
        if type(d) is not dict or "x" not in d or "y" not in d:
            raise ValueError("a vault point is a JSON object with x and y")
        return cls(FuzzyNumber.from_dict(d["x"]), FuzzyNumber.from_dict(d["y"]))


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


@dataclass(frozen=True)
class Vault:
    points: tuple
    q: int
    n: int
    r: int
    crc_variant: str = CRC_VARIANT

    def __post_init__(self):
        if self.crc_variant != CRC_VARIANT:
            raise ValueError(
                f"unsupported CRC variant {self.crc_variant!r}, "
                f"expected {CRC_VARIANT!r}"
            )
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        if len(points) != self.r:
            raise ValueError(f"vault holds {len(points)} points, expected r={self.r}")
        if not 0 <= self.n < self.r:
            raise ValueError(f"polynomial degree n={self.n} outside [0, r={self.r})")
        try:
            cores = [p.x_core for p in points]
            y_cores = [p.y_core for p in points]
        except OverflowError:  # round() of a trapezoidal (x0 + y0) / 2 beyond floats
            raise ValueError("vault cores must be finite") from None
        if len(set(cores)) != len(cores):
            raise ValueError("vault x-cores must be pairwise distinct")
        # rounded cores only: a trapezoidal core (x0 + y0) / 2 may miss its
        # integer by an ulp in vaults fuzzy_lock itself writes
        for axis, axis_cores in (("x", cores), ("y", y_cores)):
            if not (0 <= min(axis_cores) and max(axis_cores) < self.q):
                raise ValueError(f"vault {axis}-cores must lie in [0, q={self.q})")

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "q": self.q,
            "n": self.n,
            "r": self.r,
            "crc_variant": self.crc_variant,
            "points": [p.to_dict() for p in self.points],
        }

    def to_json(self) -> str:
        """The v1 text, ``json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":")) + "\\n"``, written without building the dicts.

        Keys appear in sorted order, and every parameter is a finite float,
        which json writes with ``float.__repr__``.
        """
        dumps = json.dumps
        heads = {}  # '{"family":...,"params":[' per family
        parts = []
        for pt in self.points:
            x, y = pt.x, pt.y  # a vault point's coordinates share a family
            head = heads.get(x.family)
            if head is None:
                head = heads[x.family] = f'{{"family":{dumps(x.family)},"params":['
            parts.append(
                f'{{"x":{head}{",".join(map(float.__repr__, x.params))}]}},'
                f'"y":{head}{",".join(map(float.__repr__, y.params))}]}}}}'
            )
        return (
            f'{{"crc_variant":{dumps(self.crc_variant)},"format_version":1,'
            f'"n":{dumps(self.n)},"points":[{",".join(parts)}],'
            f'"q":{dumps(self.q)},"r":{dumps(self.r)}}}\n'
        )

    @classmethod
    def from_dict(cls, d: dict) -> "Vault":
        """Parse ``to_dict`` output; raises ValueError on any malformed input."""
        (version,) = json_fields(d, "format_version")
        if type(version) is not int or version != 1:
            raise ValueError(f"unsupported vault format: {version!r}")
        points, q, n, r, crc_variant = json_fields(
            d, "points", "q", "n", "r", "crc_variant"
        )
        if type(points) is not list:
            raise ValueError(f"points must be an array, got {type(points).__name__}")
        return cls(
            tuple(map(VaultPoint.from_dict, points)),
            json_int(q),
            json_int(n),
            json_int(r),
            crc_variant,
        )

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


def _eval_all(p: Polynomial, xs: list[int]) -> list[int]:
    """[p.eval(x) for x in xs], as one numpy Horner pass."""
    q = p.q
    if xs and not (0 <= min(xs) and max(xs) < q):
        raise ValueError(f"evaluation points must lie in [0, {q})")
    x = np.array(xs, dtype=_field_dtype(q))
    acc = np.zeros_like(x)
    for c in reversed(p.coefficients):
        acc = (acc * x + c) % q
    return acc.tolist()


def generate_chaff(
    p: Polynomial,
    field_mfs: MultiFuzzySet,
    used_x_cores: set,
    count: int,
    rho: float,
    locking_template: FamilyTemplate,
    rng: SplitMix64,
) -> list[VaultPoint]:
    """Chaff points with fresh, pairwise distinct x-cores.

    floor(rho * count) points are type (ii): on the polynomial but with a
    family other than the locking one.  The rest are type (i): off the
    polynomial, any family.
    """
    q = field_mfs.q
    if count < 0 or count > q - len(used_x_cores):
        raise ValueError(
            f"cannot place {count} chaff points among {q - len(used_x_cores)} "
            f"free field elements"
        )
    templates = field_mfs.templates()
    decoys = [t for t in templates if t.family != locking_template.family]
    n_on_poly = int(rho * count)
    if n_on_poly > 0 and not decoys:
        raise ValueError("on-polynomial chaff needs at least one non-locking family")

    used = set(used_x_cores)
    draw = rng.randbelow

    def fresh_core() -> int:
        while True:
            u = draw(q)
            if u not in used:
                used.add(u)
                return u

    # (core, off-polynomial value or None, template), drawn in the order that
    # fixes the vault bytes; p is evaluated once all cores are known
    drawn = []
    for _ in range(n_on_poly):
        u = fresh_core()
        drawn.append((u, None, decoys[draw(len(decoys))]))
    for _ in range(count - n_on_poly):
        u = fresh_core()
        v = draw(q - 1)
        drawn.append((u, v, templates[draw(len(templates))]))
    points = []
    for (u, v, template), y in zip(drawn, _eval_all(p, [u for u, _, _ in drawn])):
        if v is not None:
            y = v + 1 if v >= y else v  # uniform over F_q minus the value on p
        points.append(VaultPoint(template.instantiate(float(u)),
                                 template.instantiate(float(y))))
    return points


def lock_polynomial(
    p: Polynomial,
    locking_set: MultiFuzzySet,
    field_mfs: MultiFuzzySet,
    params: LockParams,
) -> tuple[Vault, LockTranscript]:
    """Lock an already-encoded polynomial (the key-free core of fuzzy_lock)."""
    q = field_mfs.q
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

    rng = SplitMix64(params.seed)
    template = subset.template
    elements = sorted(subset.elements)
    genuine = [
        VaultPoint(template.instantiate(float(a)), template.instantiate(float(y)))
        for a, y in zip(elements, _eval_all(p, elements))
    ]
    used = {pt.x_core for pt in genuine}
    chaff = generate_chaff(
        p, field_mfs, used, params.r - params.t_mfk, params.rho, template, rng
    )
    tagged = [(pt, i < len(genuine)) for i, pt in enumerate(genuine + chaff)]
    tagged = scramble(tagged, rng)
    points = tuple(pt for pt, _ in tagged)
    genuine_indices = tuple(i for i, (_, g) in enumerate(tagged) if g)
    vault = Vault(points, q, params.n, params.r)
    transcript = LockTranscript(
        p,
        genuine_indices,
        tuple(sorted(subset.elements)),
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

    Only the vault points of the probes' family are indexed, sorted by core,
    and a probe with core c tests those with a core in [c - w, c + w], where
    w = delta + 1 plus 2**-50 of |c| + delta.  No match lies outside: the
    core of every family is a parameter, or for trapezoidal the mean of two,
    so two cores differ by at most their Chebyshev distance; the margin
    covers the float rounding of a trapezoidal (x0 + y0) / 2 at any
    magnitude.  Matching costs a sort of the same-family points plus
    O(log r) per probe, instead of O(probes * r) distance calls.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"matching tolerance must be positive and finite: {delta}")
    families = {p.family for p in probes}
    if len(families) > 1:
        raise ValueError("probes must share a single membership family")
    index = sorted(
        ((pt.x.defuzzify(), pt) for pt in vault.points if pt.x.family in families),
        key=itemgetter(0),
    )
    cores = [core for core, _ in index]
    points = [pt for _, pt in index]
    claimed = set()
    matched = []
    for probe in sorted(probes, key=lambda f: f.defuzzify()):
        c = probe.defuzzify()
        if math.isfinite(c):
            w = delta + 1.0 + (abs(c) + delta) * 2**-50
            window = range(bisect_left(cores, c - w), bisect_right(cores, c + w))
        else:  # a trapezoidal (x0 + y0) / 2 overflowed and bounds nothing
            window = range(len(cores))
        best = None
        best_dist = None
        for i in window:  # ascending cores, so a tie keeps the smaller x-core
            if i in claimed:
                continue
            d = distance(points[i].x, probe)
            if d > delta:
                continue
            if best is None or d < best_dist:
                best, best_dist = i, d
        if best is not None:
            claimed.add(best)
            pt = points[best]
            matched.append((pt.x_core, pt.y_core))
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
    effort_cap: int = 100_000,
    diagnostics: UnlockDiagnostics | None = None,
) -> UnlockResult:
    """Search k-subsets of matched points in lexicographic order, accepting
    the first candidate polynomial whose decoded key passes the CRC check.

    Only the constant term a_0 of each candidate is computed at first.
    decode_key rejects every polynomial whose a_0 is at least 2**bits or
    has a set bit in the zero padding at the tail of the payload, so only
    the subsets whose a_0 passes that test are interpolated in full and
    decoded.  Matched points must have distinct x values mod q.
    """
    if effort_cap <= 0:
        raise ValueError("effort cap must be positive")
    if k < 1:
        raise ValueError("coefficient count must be at least 1")
    if diagnostics is None:
        diagnostics = UnlockDiagnostics(matched=len(matched))
    if len(matched) < k:
        return UnlockResult(None, diagnostics)
    field = FieldParams(q)
    xs = [x % q for x, _ in matched]
    if len(set(xs)) != len(xs):
        raise ValueError("matched points must have distinct x values")
    total = math.comb(len(matched), k)
    limit = min(total, effort_cap)
    bits = field.bits_per_element
    pad = k * bits - (8 * key_len + 16)
    if pad >= 0 and key_len >= 1:  # otherwise decode_key rejects everything
        # a_0 < q < 2**(bits + 1), so a_0 >= 2**bits exactly when bit `bits`
        # is set; the low min(pad, bits) bits of a_0 end the zero padding
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
    effort_cap: int = 100_000,
) -> UnlockResult:
    """Attempt to recover the key from the vault with an unlocking set.

    Fuzzifies the chosen unlocking subset, matches against the vault, then
    runs the k-subset search over the matches.
    """
    if unlocking_set.kind not in (UNLOCKING, LOCKING):
        raise ValueError(f"expected an unlocking set, got kind={unlocking_set.kind!r}")
    probes = unlocking_set.select_subset(k_subset)
    matched = match_points(vault, probes, delta)
    diagnostics = UnlockDiagnostics(matched=len(matched))
    return search_key(matched, vault.q, vault.n + 1, key_len, effort_cap, diagnostics)
