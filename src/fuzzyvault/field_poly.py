"""Exact prime-field arithmetic, key<->polynomial encoding with CRC-16, and
Lagrange interpolation -- both the exact modular version and a real-valued
fuzzy evaluator built on alpha-cut interval arithmetic.

Cryptographic math (evaluation, interpolation, CRC) is exact mod q, as
scalar Python and as batched numpy kernels over many points or subsets;
the fuzzy evaluator is a standalone real-valued realization for fuzzy
inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
import sympy

from .fuzzy_number import CRISP, TRIANGULAR, AlphaCut, FuzzyNumber

CRC_VARIANT = "CRC-16/ARC"


@functools.lru_cache(maxsize=16)
def _is_prime(q: int) -> bool:
    """``sympy.isprime``, tested once per q of the fields in use."""
    return sympy.isprime(q)


def _check_field_size(q: int) -> None:
    """ValueError if F_q holds an element that a float64 cannot: a fuzzy
    number's parameters are float64s, one of them its core, and
    ``_mulmod``'s float64 quotient is exact only up to 2**53."""
    if q > 2**53:
        raise ValueError(f"field size q={q} exceeds 2**53, beyond which float64 "
                         f"fuzzy parameters cannot hold every field element")


@dataclass(frozen=True)
class FieldParams:
    """A prime field F_q, q <= 2**53 kept as an int, checked at construction."""

    q: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "q", operator.index(self.q))
        except TypeError:
            raise ValueError(f"field modulus must be an integer, got {self.q!r}") from None
        _check_field_size(self.q)
        if self.q < 2 or not _is_prime(self.q):
            raise ValueError(f"field modulus must be prime, got {self.q}")

    @property
    def bits_per_element(self) -> int:
        return self.q.bit_length() - 1


@dataclass(frozen=True)
class Polynomial:
    """Coefficients (constant term first) over F_q."""

    coefficients: tuple
    q: int

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        if any(not (0 <= c < self.q) for c in coeffs):
            raise ValueError("coefficients must be reduced into [0, q)")

    def __len__(self) -> int:
        return len(self.coefficients)

    def eval(self, x: int) -> int:
        """Horner evaluation mod q."""
        if not (0 <= x < self.q):
            raise ValueError(f"evaluation point {x} outside field [0, {self.q})")
        acc = 0
        for c in reversed(self.coefficients):
            acc = (acc * x + c) % self.q
        return acc


@dataclass(frozen=True)
class KeyMaterial:
    key_bytes: bytes
    crc: int


def _crc16_table() -> tuple:
    """The CRC-16/ARC register after shifting out each byte value alone."""
    table = range(256)
    for _ in range(8):
        table = [(crc >> 1) ^ 0xA001 if crc & 1 else crc >> 1 for crc in table]
    return tuple(table)


_CRC16_TABLE = _crc16_table()


def crc16(data: bytes) -> int:
    """CRC-16/ARC: reflected polynomial 0x8005, zero init, no final xor;
    one table lookup per byte."""
    crc = 0x0000
    for byte in data:
        crc = (crc >> 8) ^ _CRC16_TABLE[(crc ^ byte) & 0xFF]
    return crc


def check_key_capacity(key_len: int, field: FieldParams, k: int) -> int:
    """Raise ValueError unless k coefficients of ``field`` hold a key of
    ``key_len`` bytes plus its CRC-16, the payload of :func:`encode_key`;
    return the number of zero bits that pad the payload at its tail."""
    if key_len < 1:
        raise ValueError(f"key length must be at least 1 byte, got {key_len}")
    bits = field.bits_per_element
    if k * bits < 8 * key_len + 16:
        raise ValueError(
            f"capacity exceeded: {k} chunks of {bits} bits cannot hold "
            f"{8 * key_len + 16} payload bits"
        )
    return k * bits - (8 * key_len + 16)


def encode_key(key: bytes, field: FieldParams, k: int) -> Polynomial:
    """Bind a key (plus its CRC-16) into the coefficients of a polynomial.

    The CRC is appended to the key; the result is treated as a big-endian
    bit string, split into k chunks of floor(log2 q) bits (zero-padded at
    the tail), highest coefficient first.  Inverted exactly by
    :func:`decode_key`.
    """
    if k < 1:
        raise ValueError("coefficient count must be at least 1")
    bits = field.bits_per_element
    if bits < 16:
        raise ValueError(
            f"field too small for key binding: chunks hold {bits} < 16 bits"
        )
    pad = check_key_capacity(len(key), field, k)
    payload = int.from_bytes(key + crc16(key).to_bytes(2, "big"), "big")
    payload <<= pad  # zero-pad at the tail
    mask = (1 << bits) - 1
    chunks = [(payload >> (bits * i)) & mask for i in reversed(range(k))]
    # first chunk is the highest coefficient
    return Polynomial(tuple(reversed(chunks)), field.q)


def decode_key(p: Polynomial, field: FieldParams, key_len: int) -> KeyMaterial | None:
    """Recover and verify a key from polynomial coefficients.

    Returns None on integrity failure (CRC mismatch or a coefficient that
    cannot have come from the chunking); the null result is a value, not an
    exception, because unlock treats it as "keep searching".
    """
    try:
        pad = check_key_capacity(key_len, field, len(p.coefficients))
    except ValueError:  # no key of this length fits: nothing to recover
        return None
    bits = field.bits_per_element
    payload = 0
    for c in reversed(p.coefficients):  # highest coefficient first
        if c >> bits:
            return None
        payload = (payload << bits) | c
    if payload & ((1 << pad) - 1):
        return None
    payload >>= pad
    raw = payload.to_bytes(key_len + 2, "big")
    key, crc = raw[:key_len], int.from_bytes(raw[key_len:], "big")
    if crc16(key) != crc:
        return None
    return KeyMaterial(key, crc)


def constant_term_mask(key_len: int, field: FieldParams, k: int) -> int:
    """The bits that the constant term a_0 of every polynomial that
    ``decode_key`` accepts for a key of ``key_len`` bytes has clear: bit
    ``bits``, as a chunk lies below 2**bits and a_0 < q < 2**(bits + 1),
    and the low min(pad, bits) bits, which end the zero padding at the
    tail of the payload.  ValueError as ``check_key_capacity``."""
    pad = check_key_capacity(key_len, field, k)
    bits = field.bits_per_element
    return (1 << bits) | ((1 << min(pad, bits)) - 1)


def lagrange_interpolate(points: list[tuple[int, int]], field: FieldParams) -> Polynomial:
    """Unique polynomial of degree < len(points) through the given points."""
    if not points:
        raise ValueError("interpolation needs at least one point")
    q = field.q
    xs = [x % q for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x values")
    n = len(points)
    master = [1]  # prod_j (x - x_j), low-order first
    for xj in xs:
        master = [(lo - xj * hi) % q for lo, hi in zip([0] + master, master + [0])]
    coeffs = [0] * n
    num = [0] * n
    for xj, (_, yj) in zip(xs, points):
        # synthetic division gives num = master / (x - x_j), highest
        # coefficient first, and Horner alongside gives num(x_j), which is
        # prod_{k != j} (x_j - x_k)
        acc = denom = 0
        for i in range(n, 0, -1):
            acc = (master[i] + xj * acc) % q
            num[i - 1] = acc
            denom = (denom * xj + acc) % q
        scale = yj * pow(denom, -1, q) % q
        for i, c in enumerate(num):
            coeffs[i] = (coeffs[i] + scale * c) % q
    return Polynomial(tuple(coeffs), q)


# ----------------------------------------------------------------------
# batched arithmetic over F_q in numpy


def _mod(a, q: int):
    """``a % q`` in place in an int64 array, by libdivide's floor division."""
    a -= a // q * q
    return a


def _mulmod(a, b, q: int, c=None):
    """(a * b + c) mod q for int64 arrays a and b of residues mod q <= 2**53,
    and c, if given, an int or int64 array in [0, 2**62).  Below 2**31 the sum
    fits int64; above, the float64 quotient lies within 2 of a * b / q, so
    r = a * b + c - floor(quotient) q, in int64 that wraps, is exact:
    -2q < r < 3q + c < 2**63."""
    r = a * b
    if c is not None:
        r += c
    if q >= 2**31:  # the quotient is not negative, so astype floors it
        r -= (a.astype(np.float64) * b / q).astype(np.int64) * q
    return _mod(r, q)


def _eval_all(p: Polynomial, xs):
    """[p.eval(x) for x in xs] as a uint64 array, in one numpy Horner pass;
    ``xs`` is an array of an integer dtype, and q is at most 2**53."""
    q = p.q
    if len(xs) and not (0 <= int(xs.min()) and int(xs.max()) < q):
        raise ValueError(f"evaluation points must lie in [0, {q})")
    x = xs.astype(np.int64)
    acc = np.zeros_like(x)
    for c in reversed(p.coefficients):
        acc = _mulmod(acc, x, q, c)
    return acc.astype(np.uint64)


def _basis_at_zero(xs: list[int], q: int, head: list[list[int]] = ()) -> list[list[int]]:
    """w[a][b] = x_a / (x_a - x_b) mod q for a != b, and 1 on the diagonal.

    The Lagrange basis polynomial of point b of a subset, evaluated at 0,
    is the product of w[a][b] over the points a of the subset, b included.
    ``head``, the table of the first len(head) points, is extended to all
    of ``xs`` without inverting its differences again.  The differences
    x_a - x_b with a < b left share one modular inversion (Montgomery's
    batch trick), and 1 / (x_b - x_a) = -1 / (x_a - x_b).
    """
    m, h = len(xs), len(head)
    pairs = [(a, b) for b in range(h, m) for a in range(b)]
    prefix = list(itertools.accumulate((xs[a] - xs[b] for a, b in pairs),
                                       lambda acc, d: acc * d % q, initial=1))
    inv = pow(prefix.pop(), -1, q)
    w = [row + [1] * (m - h) for row in head] + [[1] * m for _ in range(h, m)]
    for (a, b), before in zip(reversed(pairs), reversed(prefix)):
        # inv is 1 / (product of the differences up to and including (a, b))
        d = inv * before % q
        w[a][b], w[b][a] = xs[a] * d % q, -xs[b] * d % q
        inv = inv * (xs[a] - xs[b]) % q
    return w


def _unrank(rank: int, m: int, k: int) -> list[int]:
    """The k-subset of range(m) at ``rank`` in lexicographic order."""
    subset, e = [], 0
    for p in range(k):
        # C(m - e - 1, k - p - 1) subsets continue the prefix with e
        while rank >= (count := math.comb(m - e - 1, k - p - 1)):
            rank, e = rank - count, e + 1
        subset.append(e)
        e += 1
    return subset


# the most windows whose tables ``_walk_tables`` keeps, each under 1 MB
# for a window of 4 096 subsets at k <= 12 and m <= 30
_WALK_MEMO = 8


@functools.lru_cache(maxsize=_WALK_MEMO)
def _walk_tables(m: int, k: int, start: int, stop: int) -> tuple:
    """The index tables of ``_constant_terms``' walk over the k-subsets of
    range(m) at positions [start, stop), which depend on nothing else:
    ``levels``, the (parent, e) arrays that extend each prefix of fewer
    than k - 1 points by its next point e; ``members``, the points of the
    leaves' parents; ``parent`` and ``e`` of the leaves; the flat gather
    positions ``held_at`` (each parent's product at its own points),
    ``basis_at`` (w[e][b] for each leaf's e and parent point b) and
    ``own_at`` (each leaf's parent's product at e); and ``subsets``, the
    (k, stop - start) table of the leaves' points.  Every array is
    read-only, as the memo hands the same ones to every caller.
    """
    first, last = _unrank(start, m, k), _unrank(stop - 1, m, k)
    from_lo = ~np.tri(m + 1, m, -1, dtype=bool)  # row lo marks the points lo, lo + 1, ...
    # a level's nodes are the prefixes of the subsets, in order: members[j]
    # holds each one's j-th point, lo its least next point
    members, lo = np.empty((0, 1), dtype=np.intp), np.zeros(1, dtype=np.intp)
    levels = []
    for p in range(k):
        width = m - k + p + 1  # point m - k + p leaves room for the rest
        lo[0] = first[p]
        grid = from_lo[:, :width].take(lo, 0)
        grid[-1, last[p] + 1:] = False
        child = np.flatnonzero(grid)
        parent = child // width
        e = child - parent * width
        if p < k - 1:
            members = np.concatenate((members.take(parent, 1), e[None]))
            levels.append((parent, e))
            lo = e + 1
    offsets = np.arange(0, members.shape[1] * m, m)  # each parent's row in the products
    heads = members.take(parent, 1)
    tables = (members, parent, e, members + offsets, heads + e * m,
              offsets.take(parent) + e, np.concatenate((heads, e[None])))
    for table in itertools.chain(*levels, tables):
        table.flags.writeable = False
    return (tuple(levels), *tables)


def _constant_terms(w, y, q: int, k: int, start: int, stop: int) -> tuple:
    """The k-subsets of the points at positions [start, stop) in
    lexicographic order, as a read-only (k, stop - start) array of point
    indices, and the constant term a_0 = sum_{b in S} y_b prod_{a in S}
    w[a][b] of the polynomial through each, for int64 arrays w and y of
    residues mod q <= 2**53.

    The subsets are the leaves of a numpy walk down the lexicographic
    prefix tree, a level at a time, whose index tables ``_walk_tables``
    keeps per (m, k, start, stop).  A node holds the product of the rows
    w[a] over its points: a child multiplies its parent's by w[e] for its
    new point e, and a leaf's a_0 takes k more products.
    """
    levels, members, parent, e, held_at, basis_at, own_at, subsets = _walk_tables(
        len(y), k, start, stop)
    prods = np.ones((1, len(y)), dtype=np.int64)
    for above, point in levels:
        prods = _mulmod(prods.take(above, 0), w.take(point, 0), q)
    # a leaf is its parent's points and then e: its a_0 sums y_b times the
    # parent's product at b times w[e][b] over the parent's points b, and
    # y_e times the parent's product at e
    prods = prods.ravel()
    held = _mulmod(y.take(members), prods.take(held_at), q)
    terms = _mulmod(held.take(parent, 1), w.ravel().take(basis_at), q)
    step = 2**62 // q  # terms whose sum stays below 2**62: all k - 1 while q < 2**31
    a0 = _mulmod(y.take(e), prods.take(own_at), q, terms[:step].sum(0))
    for row in range(step, k - 1, step):
        a0 += terms[row:row + step].sum(0)
        _mod(a0, q)
    return subsets, a0


# ----------------------------------------------------------------------
# real-valued fuzzy Lagrange evaluation


def _interval_sub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def _interval_mul(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(p), max(p))


def _interval_scale(a, s):
    lo, hi = a[0] * s, a[1] * s
    return (lo, hi) if s >= 0 else (hi, lo)


@dataclass(frozen=True)
class FuzzyLagrangeResult:
    """Queryable fuzzy value: alpha-cut intervals on a fixed alpha grid."""

    alphas: tuple
    los: tuple
    his: tuple

    @property
    def core(self) -> float:
        return (self.los[-1] + self.his[-1]) / 2

    def alpha_cut(self, alpha: float) -> AlphaCut:
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        alphas = self.alphas
        for i in range(len(alphas) - 1):
            if alphas[i] <= alpha <= alphas[i + 1]:
                span = alphas[i + 1] - alphas[i]
                w = 0.0 if span == 0 else (alpha - alphas[i]) / span
                lo = self.los[i] + w * (self.los[i + 1] - self.los[i])
                hi = self.his[i] + w * (self.his[i + 1] - self.his[i])
                return AlphaCut(alpha, lo, hi)
        return AlphaCut(alpha, self.los[-1], self.his[-1])

    def membership(self, x: float) -> float:
        """Largest grid level whose cut contains x, linearly interpolated."""
        if x < self.los[0] or x > self.his[0]:
            return 0.0
        best = 0.0
        for i in range(len(self.alphas) - 1):
            a0, a1 = self.alphas[i], self.alphas[i + 1]
            if self.los[i + 1] <= x <= self.his[i + 1]:
                best = a1
                continue
            # x leaves the cut between levels i and i+1: interpolate the exit
            if x < self.los[i + 1]:
                run = self.los[i + 1] - self.los[i]
                w = 1.0 if run == 0 else (x - self.los[i]) / run
            else:
                run = self.his[i] - self.his[i + 1]
                w = 1.0 if run == 0 else (self.his[i] - x) / run
            return a0 + max(0.0, min(1.0, w)) * (a1 - a0)
        return best


def fuzzy_lagrange_real(
    points: list[tuple[FuzzyNumber, FuzzyNumber]],
    x: FuzzyNumber,
    levels: int = 33,
) -> FuzzyLagrangeResult:
    """Real-valued Lagrange evaluation of fuzzy points at a fuzzy abscissa.

    Numerator differences use alpha-cut interval arithmetic on a uniform
    alpha grid; basis-polynomial denominators are defuzzified to their cores
    before division (fuzzy-by-fuzzy division is left undefined).
    """
    if levels < 2:
        raise ValueError("alpha grid needs at least 2 levels")
    if not points:
        raise ValueError("need at least one interpolation point")
    for px, py in points:
        for f in (px, py):
            if f.family not in (TRIANGULAR, CRISP):
                raise ValueError(
                    f"fuzzy evaluation supports triangular/crisp inputs, got {f.family}"
                )
    if x.family not in (TRIANGULAR, CRISP):
        raise ValueError(f"query must be triangular/crisp, got {x.family}")
    cores = [px.defuzzify() for px, _ in points]
    for i in range(len(cores)):
        for j in range(i + 1, len(cores)):
            if cores[i] == cores[j]:
                raise ValueError("defuzzified abscissae must be distinct")

    alphas = [i / (levels - 1) for i in range(levels)]
    los, his = [], []
    for alpha in alphas:
        xcut = x.alpha_cut(alpha)
        xiv = (xcut.lo, xcut.hi)
        xcuts = []
        ycuts = []
        for px, py in points:
            c = px.alpha_cut(alpha)
            xcuts.append((c.lo, c.hi))
            c = py.alpha_cut(alpha)
            ycuts.append((c.lo, c.hi))
        total = (0.0, 0.0)
        for j in range(len(points)):
            term = ycuts[j]
            for k in range(len(points)):
                if k == j:
                    continue
                num = _interval_sub(xiv, xcuts[k])
                term = _interval_mul(term, _interval_scale(num, 1.0 / (cores[j] - cores[k])))
            total = (total[0] + term[0], total[1] + term[1])
        los.append(total[0])
        his.append(total[1])
    return FuzzyLagrangeResult(tuple(alphas), tuple(los), tuple(his))
