"""Exact prime-field arithmetic, key<->polynomial encoding with CRC-16, and
Lagrange interpolation -- both the exact modular version and a real-valued
fuzzy evaluator built on alpha-cut interval arithmetic.

Cryptographic math (evaluation, interpolation, CRC) is exact mod q; the
fuzzy evaluator is a standalone real-valued realization for fuzzy inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import sympy

from .fuzzy_number import CRISP, TRIANGULAR, AlphaCut, FuzzyNumber

CRC_VARIANT = "CRC-16/ARC"


@dataclass(frozen=True)
class FieldParams:
    """A prime field F_q; primality is verified at construction."""

    q: int

    def __post_init__(self):
        if self.q < 2 or not sympy.isprime(self.q):
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


def crc16(data: bytes) -> int:
    """CRC-16/ARC: reflected polynomial 0x8005, zero init, no final xor."""
    crc = 0x0000
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0xA001
            else:
                crc >>= 1
    return crc


def check_key_capacity(key_len: int, field: FieldParams, k: int) -> None:
    """Raise ValueError unless k coefficients of ``field`` hold a key of
    ``key_len`` bytes plus its CRC-16, the payload of :func:`encode_key`."""
    if key_len < 1:
        raise ValueError(f"key length must be at least 1 byte, got {key_len}")
    bits = field.bits_per_element
    if k * bits < 8 * key_len + 16:
        raise ValueError(
            f"capacity exceeded: {k} chunks of {bits} bits cannot hold "
            f"{8 * key_len + 16} payload bits"
        )


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
    check_key_capacity(len(key), field, k)
    total_bits = 8 * len(key) + 16
    payload = int.from_bytes(key + crc16(key).to_bytes(2, "big"), "big")
    payload <<= k * bits - total_bits  # zero-pad at the tail
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
    bits = field.bits_per_element
    k = len(p.coefficients)
    total_bits = 8 * key_len + 16
    if k * bits < total_bits or key_len < 1:
        return None
    payload = 0
    for c in reversed(p.coefficients):  # highest coefficient first
        if c >> bits:
            return None
        payload = (payload << bits) | c
    pad = k * bits - total_bits
    if payload & ((1 << pad) - 1):
        return None
    payload >>= pad
    raw = payload.to_bytes(key_len + 2, "big")
    key, crc = raw[:key_len], int.from_bytes(raw[key_len:], "big")
    if crc16(key) != crc:
        return None
    return KeyMaterial(key, crc)


def lagrange_interpolate(points: list[tuple[int, int]], field: FieldParams) -> Polynomial:
    """Unique polynomial of degree < len(points) through the given points."""
    if not points:
        raise ValueError("interpolation needs at least one point")
    q = field.q
    xs = [x % q for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x values")
    n = len(points)
    coeffs = [0] * n
    for j, (xj, yj) in enumerate(points):
        # numerator polynomial prod_{k != j} (x - x_k), low-order first
        num = [1]
        denom = 1
        for k, (xk, _) in enumerate(points):
            if k == j:
                continue
            num = [
                (num[i - 1] if i > 0 else 0) - (num[i] * xk if i < len(num) else 0)
                for i in range(len(num) + 1)
            ]
            denom = denom * (xj - xk) % q
        scale = yj * pow(denom, -1, q) % q
        for i, c in enumerate(num):
            coeffs[i] = (coeffs[i] + scale * c) % q
    return Polynomial(tuple(coeffs), q)


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
