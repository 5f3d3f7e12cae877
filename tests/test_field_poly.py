import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
import hypothesis.strategies as st

from fuzzyvault import (
    FieldParams,
    FuzzyNumber,
    Polynomial,
    crc16,
    decode_key,
    encode_key,
    fuzzy_lagrange_real,
    lagrange_interpolate,
)
from fuzzyvault import field_poly
from fuzzyvault.field_poly import constant_term_mask


def crc16_bitwise_oracle(data: bytes) -> int:
    """Independent MSB-first CRC-16/ARC: explicit reflection of input bytes
    and of the final register, polynomial 0x8005."""

    def reflect(value, width):
        out = 0
        for i in range(width):
            if value & (1 << i):
                out |= 1 << (width - 1 - i)
        return out

    crc = 0x0000
    for byte in data:
        crc ^= reflect(byte, 8) << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x8005) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return reflect(crc, 16)


def reference_crc16(data: bytes) -> int:
    """CRC-16/ARC a bit at a time: the reflected register shifts right and
    takes the reflected polynomial 0xA001 when a one falls out."""
    crc = 0x0000
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0xA001
            else:
                crc >>= 1
    return crc


class TestCrc16:
    def test_empty(self):
        assert crc16(b"") == 0x0000

    def test_check_string(self):
        assert crc16(b"123456789") == reference_crc16(b"123456789") == 0xBB3D

    def test_single_zero_byte(self):
        assert crc16(b"\x00") == 0x0000

    @given(st.binary(max_size=64))
    def test_matches_bitwise_oracle(self, data):
        assert crc16(data) == reference_crc16(data) == crc16_bitwise_oracle(data)

    def test_oracle_equivalence_bulk(self):
        rnd = random.Random(0xC0FFEE)
        for _ in range(2000):
            data = rnd.randbytes(rnd.randrange(0, 40))
            assert crc16(data) == crc16_bitwise_oracle(data)


class TestKeyCodec:
    FIELD = FieldParams(2**31 - 1)

    def test_round_trip_random_key(self):
        key = random.Random(1).randbytes(16)
        p = encode_key(key, self.FIELD, 9)
        material = decode_key(p, self.FIELD, 16)
        assert material is not None
        assert material.key_bytes == key
        assert material.crc == crc16(key)

    def test_capacity_error(self):
        field = FieldParams(2**17 + 29)
        with pytest.raises(ValueError):
            encode_key(bytes(100), field, 4)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            encode_key(b"", self.FIELD, 9)

    def test_all_zero_key_layout(self):
        key = bytes(4)
        p = encode_key(key, self.FIELD, 3)
        # 48 payload bits in 3 chunks of 30: the top chunk is zero
        assert p.coefficients[2] == 0
        payload = (key + crc16(key).to_bytes(2, "big")).hex()
        reassembled = sum(
            c << (30 * i) for i, c in enumerate(p.coefficients)
        ) >> (90 - 48)
        assert reassembled.to_bytes(6, "big").hex() == payload

    def test_wrong_length_polynomial_fails(self):
        key = b"secret!!"
        p = encode_key(key, self.FIELD, 5)
        truncated = Polynomial(p.coefficients[:4], p.q)
        assert decode_key(truncated, self.FIELD, len(key)) is None

    def test_single_bit_corruption_detected(self):
        rnd = random.Random(7)
        field = FieldParams(2**17 + 29)
        key = rnd.randbytes(6)
        p = encode_key(key, field, 5)
        bits = field.bits_per_element
        failures = 0
        trials = 10_000
        for _ in range(trials):
            i = rnd.randrange(len(p.coefficients))
            b = rnd.randrange(bits)
            coeffs = list(p.coefficients)
            coeffs[i] ^= 1 << b
            if coeffs[i] >= field.q:
                coeffs[i] = p.coefficients[i]  # not a representable corruption
            corrupted = Polynomial(tuple(coeffs), field.q)
            if decode_key(corrupted, field, len(key)) is None:
                failures += 1
            elif coeffs == list(p.coefficients):
                failures += 1  # skipped draw counts as detected
        assert failures >= 9990

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=100)
    def test_round_trip_any_length(self, key):
        field = FieldParams(2**31 - 1)
        k = (8 * len(key) + 16 + 29) // 30
        p = encode_key(key, field, k)
        material = decode_key(p, field, len(key))
        assert material is not None and material.key_bytes == key

    @given(key=st.binary(min_size=1, max_size=20),
           q=st.sampled_from([65537, 2**31 - 1, 2**53 - 111]), extra=st.integers(0, 3))
    @settings(max_examples=100)
    def test_constant_term_mask_clears_encoded_keys(self, key, q, extra):
        # the key search drops a subset whose a_0 has a masked bit set, so
        # every encoded key must have them clear
        field = FieldParams(q)
        k = -(-(8 * len(key) + 16) // field.bits_per_element) + extra
        mask = constant_term_mask(len(key), field, k)
        assert encode_key(key, field, k).coefficients[0] & mask == 0
        assert mask >> field.bits_per_element == 1

    @pytest.mark.parametrize("key_len, k, message", [
        (0, 8, "at least 1 byte"), (15, 8, "capacity exceeded")])
    def test_constant_term_mask_refuses_as_capacity_check(self, key_len, k, message):
        with pytest.raises(ValueError, match=message):
            constant_term_mask(key_len, FieldParams(65537), k)


class TestPolyEval:
    def test_constant(self):
        p = Polynomial((3,), 7)
        assert all(p.eval(x) == 3 for x in range(7))

    def test_linear(self):
        p = Polynomial((3, 2), 7)  # 2x + 3
        assert p.eval(5) == 6

    def test_square(self):
        p = Polynomial((0, 0, 1), 7)
        assert p.eval(3) == 2

    def test_point_out_of_field(self):
        with pytest.raises(ValueError):
            Polynomial((1,), 7).eval(7)


class TestInterpolation:
    def test_two_points(self):
        field = FieldParams(7)
        p = lagrange_interpolate([(0, 3), (1, 5)], field)
        assert p.coefficients == (3, 2)

    def test_duplicate_x(self):
        with pytest.raises(ValueError):
            lagrange_interpolate([(2, 1), (2, 3)], FieldParams(7))

    def test_recovers_random_degree_7(self):
        rnd = random.Random(3)
        field = FieldParams(131101)
        coeffs = tuple(rnd.randrange(field.q) for _ in range(8))
        p = Polynomial(coeffs, field.q)
        xs = rnd.sample(range(field.q), 8)
        recovered = lagrange_interpolate([(x, p.eval(x)) for x in xs], field)
        assert recovered.coefficients == coeffs

    def test_identity_over_random_primes(self):
        rnd = random.Random(11)
        for _ in range(100):
            q = sympy.randprime(2**17, 2**20)
            field = FieldParams(q)
            deg = rnd.randrange(1, 13)
            coeffs = tuple(rnd.randrange(q) for _ in range(deg + 1))
            p = Polynomial(coeffs, q)
            xs = rnd.sample(range(q), deg + 1)
            pts = [(x, p.eval(x)) for x in xs]
            recovered = lagrange_interpolate(pts, field)
            assert recovered.coefficients == coeffs
            assert all(recovered.eval(x) == y for x, y in pts)


class TestFuzzyLagrange:
    def test_crisp_inputs_reduce_to_exact(self):
        pts = [
            (FuzzyNumber.crisp(0), FuzzyNumber.crisp(3)),
            (FuzzyNumber.crisp(1), FuzzyNumber.crisp(5)),
            (FuzzyNumber.crisp(3), FuzzyNumber.crisp(9)),
        ]
        res = fuzzy_lagrange_real(pts, FuzzyNumber.crisp(2))
        assert res.core == pytest.approx(7.0)  # 2x + 3 at x = 2

    def test_single_point_returns_its_ordinate(self):
        y = FuzzyNumber.triangular(4, 5, 6)
        res = fuzzy_lagrange_real(
            [(FuzzyNumber.triangular(0, 1, 2), y)], FuzzyNumber.crisp(9)
        )
        cut = res.alpha_cut(0.5)
        ycut = y.alpha_cut(0.5)
        assert (cut.lo, cut.hi) == pytest.approx((ycut.lo, ycut.hi))

    def test_midpoint_of_symmetric_points(self):
        pts = [
            (FuzzyNumber.triangular(0, 1, 2), FuzzyNumber.triangular(9, 10, 11)),
            (FuzzyNumber.triangular(2, 3, 4), FuzzyNumber.triangular(19, 20, 21)),
        ]
        res = fuzzy_lagrange_real(pts, FuzzyNumber.crisp(2))
        assert res.core == pytest.approx(15.0)

    def test_core_matches_exact_lagrange(self):
        rnd = random.Random(5)
        xs = rnd.sample(range(20), 4)
        ys = [rnd.uniform(-5, 5) for _ in xs]
        pts = [
            (FuzzyNumber.triangular(x - 1, x, x + 1),
             FuzzyNumber.triangular(y - 0.5, y, y + 0.5))
            for x, y in zip(xs, ys)
        ]
        at = 2.5
        exact = sum(
            y * prod((at - xk) / (xj - xk) for xk in xs if xk != xj)
            for xj, y in zip(xs, ys)
        )
        res = fuzzy_lagrange_real(pts, FuzzyNumber.crisp(at))
        assert res.core == pytest.approx(exact, abs=1e-9)

    def test_coincident_cores_rejected(self):
        pts = [
            (FuzzyNumber.triangular(0, 1, 2), FuzzyNumber.crisp(0)),
            (FuzzyNumber.triangular(0.5, 1, 1.5), FuzzyNumber.crisp(1)),
        ]
        with pytest.raises(ValueError):
            fuzzy_lagrange_real(pts, FuzzyNumber.crisp(0))

    def test_small_grid_rejected(self):
        pts = [(FuzzyNumber.crisp(0), FuzzyNumber.crisp(1))]
        with pytest.raises(ValueError):
            fuzzy_lagrange_real(pts, FuzzyNumber.crisp(0), levels=1)

    def test_membership_peaks_at_core(self):
        pts = [
            (FuzzyNumber.triangular(0, 1, 2), FuzzyNumber.triangular(1, 2, 3)),
            (FuzzyNumber.triangular(3, 4, 5), FuzzyNumber.triangular(5, 6, 7)),
        ]
        res = fuzzy_lagrange_real(pts, FuzzyNumber.triangular(1.5, 2.5, 3.5))
        assert res.membership(res.core) == pytest.approx(1.0, abs=1e-6)
        lo_support, hi_support = res.los[0], res.his[0]
        assert res.membership(lo_support - 1) == 0.0
        assert res.membership(hi_support + 1) == 0.0


class TestFieldParams:
    def test_rejects_composite(self, monkeypatch):
        # each modulus is tested once, and a cached verdict raises as the
        # first did
        calls, isprime = [], sympy.isprime
        monkeypatch.setattr(sympy, "isprime", lambda q: calls.append(q) or isprime(q))
        field_poly._is_prime.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError, match="must be prime, got 65536$"):
                FieldParams(65536)
            with pytest.raises(ValueError, match="must be prime, got 1$"):
                FieldParams(1)
            assert FieldParams(65537).q == 65537
        assert calls == [65536, 65537]

    def test_bits_per_element(self):
        assert FieldParams(65537).bits_per_element == 16
        assert FieldParams(7).bits_per_element == 2

    def test_any_integer_type_and_only_integers(self):
        field = FieldParams(np.int64(65537))
        assert type(field.q) is int and field == FieldParams(65537)
        assert field.bits_per_element == 16
        for q in (65537.0, "65537", None):
            with pytest.raises(ValueError, match="must be an integer, got "):
                FieldParams(q)
        # a bool is an int, and True is 1, which is not prime
        with pytest.raises(ValueError, match="must be prime, got 1$"):
            FieldParams(True)


def prod(items):
    out = 1.0
    for v in items:
        out *= v
    return out
