import math
import random

import pytest

from fuzzyvault import (
    FamilyTemplate,
    FieldParams,
    LockParams,
    MultiFuzzySet,
    SplitMix64,
    SubsetDescriptor,
    Vault,
    VaultPoint,
    build_locking_set,
    encode_key,
    fuzzy_lock,
    fuzzy_unlock,
    generate_chaff,
    lock_polynomial,
    match_points,
    partition_field,
    scramble,
)
from conftest import ALL_TEMPLATES, GAU, TRI, desk_field, desk_locking_set, desk_params

KEY = bytes.fromhex("000102030405060708090a0b0c0d")


class TestScramble:
    def test_deterministic(self):
        items = list(range(50))
        assert scramble(items, 9) == scramble(items, 9)

    def test_multiset_preserved(self):
        items = list(range(50))
        assert sorted(scramble(items, 3)) == items

    def test_single_item_unchanged(self):
        assert scramble([42], 0) == [42]

    def test_destroys_sortedness(self):
        # sorted-prefix statistic stays tiny across seeds
        stuck = 0
        for seed in range(100):
            out = scramble(list(range(20)), seed)
            prefix = 0
            while prefix < 19 and out[prefix] < out[prefix + 1]:
                prefix += 1
            if prefix >= 10:
                stuck += 1
        assert stuck == 0

    def test_splitmix_randbelow_in_range(self):
        rng = SplitMix64(1)
        draws = [rng.randbelow(17) for _ in range(1000)]
        assert set(draws) <= set(range(17))
        assert len(set(draws)) == 17


class TestChaff:
    Q = 101

    def setup_method(self):
        self.field = partition_field(self.Q, [50, 51], [TRI, GAU])
        self.poly = encode_poly = None
        coeffs = (5, 17, 3)
        from fuzzyvault import Polynomial

        self.poly = Polynomial(coeffs, self.Q)

    def test_rho_zero_all_off_polynomial(self):
        pts = generate_chaff(self.poly, self.field, {1, 2}, 40, 0.0, TRI, SplitMix64(4))
        assert len(pts) == 40
        assert all(p.y_core != self.poly.eval(p.x_core) for p in pts)

    def test_rho_one_all_on_polynomial_wrong_family(self):
        pts = generate_chaff(self.poly, self.field, {1, 2}, 40, 1.0, TRI, SplitMix64(4))
        assert all(p.y_core == self.poly.eval(p.x_core) for p in pts)
        assert all(p.x.family != "triangular" for p in pts)

    def test_exhausts_field(self):
        used = set(range(12))
        pts = generate_chaff(self.poly, self.field, used, self.Q - 12, 0.2, TRI,
                             SplitMix64(0))
        cores = {p.x_core for p in pts}
        assert cores == set(range(self.Q)) - used

    def test_too_many_chaff_rejected(self):
        with pytest.raises(ValueError):
            generate_chaff(self.poly, self.field, set(), self.Q + 1, 0.0, TRI,
                           SplitMix64(0))

    def test_on_polynomial_needs_decoy_family(self):
        mono = partition_field(self.Q, [self.Q], [TRI])
        with pytest.raises(ValueError):
            generate_chaff(self.poly, mono, set(), 10, 0.5, TRI, SplitMix64(0))


class TestLock:
    def test_vault_shape_and_transcript(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=1)
        vault, transcript = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=1))
        assert vault.r == len(vault.points) == 300
        assert len(transcript.genuine_indices) == 12
        for i in transcript.genuine_indices:
            pt = vault.points[i]
            assert pt.x.family == "triangular"
            assert pt.y_core == transcript.polynomial.eval(pt.x_core)

    def test_hiding_soundness(self, field_mfs):
        # genuine points are exactly family-MF_k AND on-polynomial
        locking = desk_locking_set(field_mfs, seed=2)
        vault, transcript = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=2))
        p = transcript.polynomial
        marked = {
            i
            for i, pt in enumerate(vault.points)
            if pt.x.family == "triangular" and pt.y_core == p.eval(pt.x_core)
            and pt.x.params == TRI.instantiate(pt.x_core).params
        }
        assert marked == set(transcript.genuine_indices)

    def test_chaff_validity(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=3)
        vault, transcript = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=3))
        p = transcript.polynomial
        genuine = set(transcript.genuine_indices)
        for i, pt in enumerate(vault.points):
            if i in genuine:
                continue
            on_poly = pt.y_core == p.eval(pt.x_core)
            if on_poly:
                assert pt.x.family != "triangular"

    def test_x_cores_unique(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=4)
        vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=4))
        cores = [pt.x_core for pt in vault.points]
        assert len(set(cores)) == len(cores)

    def test_no_chaff_boundary(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=5, extra=())
        params = desk_params(seed=5, t=12, r=12)
        vault, transcript = fuzzy_lock(KEY, locking, field_mfs, params)
        assert set(transcript.genuine_indices) == set(range(12))

    def test_r_exceeding_q_rejected(self):
        q = 131101
        field = partition_field(q, [q], [TRI])
        locking = build_locking_set(field, [(tuple(range(12)), TRI)])
        params = LockParams(t=12, k_subset=0, t_mfk=12, r=q + 1, k=8, seed=0)
        with pytest.raises(ValueError):
            fuzzy_lock(KEY, locking, field, params)

    def test_subset_smaller_than_k_rejected(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=6, t_mfk=4, extra=(6, 6))
        params = desk_params(seed=6, t=16, t_mfk=4)
        with pytest.raises(ValueError):
            fuzzy_lock(KEY, locking, field_mfs, params)


class TestMatch:
    def test_exact_probes_match_all_genuine(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=7)
        vault, transcript = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=7))
        probes = locking.select_subset(0)
        matched = match_points(vault, probes, 0.25)
        assert sorted(x for x, _ in matched) == list(transcript.genuine_cores)

    def test_wrong_family_matches_nothing(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=8)
        vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=8))
        wrong = [GAU.instantiate(f.defuzzify()) for f in locking.select_subset(0)]
        assert match_points(vault, wrong, 0.25) == []

    def test_offset_beyond_delta_unmatched(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=9)
        vault, transcript = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=9))
        probes = [TRI.instantiate(c + 0.3) for c in transcript.genuine_cores]
        assert match_points(vault, probes, 0.25) == []

    def test_offset_within_delta_matched(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=10)
        vault, transcript = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=10))
        probes = [TRI.instantiate(c + 0.2) for c in transcript.genuine_cores]
        matched = match_points(vault, probes, 0.25)
        assert sorted(x for x, _ in matched) == list(transcript.genuine_cores)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, field_mfs, delta):
        # a NaN or infinite tolerance would match across families
        locking = desk_locking_set(field_mfs, seed=15)
        vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=15))
        with pytest.raises(ValueError):
            match_points(vault, locking.select_subset(0), delta)

    def test_mixed_family_probes_rejected(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=11)
        vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=11))
        probes = [TRI.instantiate(1.0), GAU.instantiate(2.0)]
        with pytest.raises(ValueError):
            match_points(vault, probes, 0.25)


class TestUnlock:
    def test_round_trip(self, field_mfs):
        for seed in range(10):
            locking = desk_locking_set(field_mfs, seed=seed)
            vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=seed))
            result = fuzzy_unlock(vault, locking, 0, 0.25, len(KEY))
            assert result.key == KEY
            assert result.diagnostics.matched == 12

    def test_disjoint_unlocking_set(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=20)
        vault, transcript = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=20))
        rnd = random.Random(99)
        used = set(transcript.genuine_cores) | {p.x_core for p in vault.points}
        other = [e for e in rnd.sample(range(field_mfs.q), 200) if e not in used][:12]
        probe_set = build_locking_set(field_mfs, [(tuple(other), TRI)],
                                      kind="unlocking")
        result = fuzzy_unlock(vault, probe_set, 0, 0.25, len(KEY))
        assert result.key is None
        assert result.diagnostics.matched == 0

    def test_wrong_family_template_yields_null(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=21)
        vault, transcript = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=21))
        wrong = build_locking_set(
            field_mfs, [(transcript.genuine_cores, GAU)], kind="unlocking"
        )
        result = fuzzy_unlock(vault, wrong, 0, 0.25, len(KEY))
        assert result.key is None

    def test_wrong_subset_yields_null(self, field_mfs):
        # probing with the gaussian decoy subset: those elements were never
        # projected onto the polynomial
        locking = desk_locking_set(field_mfs, seed=22)
        vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=22))
        result = fuzzy_unlock(vault, locking, 1, 0.25, len(KEY))
        assert result.key is None

    def test_effort_cap_validated(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=23)
        vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=23))
        with pytest.raises(ValueError):
            fuzzy_unlock(vault, locking, 0, 0.25, len(KEY), effort_cap=0)

    def test_bad_subset_index(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=24)
        vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=24))
        with pytest.raises(ValueError):
            fuzzy_unlock(vault, locking, 9, 0.25, len(KEY))


class TestSerialization:
    def test_deterministic_bytes(self, field_mfs, tmp_path):
        locking = desk_locking_set(field_mfs, seed=30)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=30))
            vault.save(path)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_and_reunlock(self, field_mfs, tmp_path):
        locking = desk_locking_set(field_mfs, seed=31)
        vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=31))
        path = tmp_path / "vault.json"
        vault.save(path)
        loaded = Vault.load(path)
        assert loaded == vault
        assert fuzzy_unlock(loaded, locking, 0, 0.25, len(KEY)).key == KEY

    def test_transcript_never_serialized(self, field_mfs, tmp_path):
        locking = desk_locking_set(field_mfs, seed=32)
        vault, transcript = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=32))
        path = tmp_path / "vault.json"
        vault.save(path)
        text = path.read_text()
        assert "genuine" not in text
        assert KEY.hex() not in text
        for c in transcript.polynomial.coefficients:
            assert f'"{c}"' not in text

    def test_bad_format_version(self):
        with pytest.raises(ValueError):
            Vault.from_dict({"format_version": 2, "points": [], "q": 7, "n": 1, "r": 0})

    @pytest.mark.parametrize("edit", [
        {"format_version": True},
        {"q": "11"},
        {"r": 1.0},
        {"n": 1},
        {"n": -1},
        {"crc_variant": "CRC-16/XMODEM"},
        {"points": {}},
    ])
    def test_from_dict_rejects_malformed(self, edit):
        point = VaultPoint(TRI.instantiate(3.0), TRI.instantiate(5.0))
        doc = dict(Vault((point,), 11, 0, 1).to_dict(), **edit)
        with pytest.raises(ValueError):
            Vault.from_dict(doc)

    def test_missing_crc_variant_rejected(self):
        point = VaultPoint(TRI.instantiate(3.0), TRI.instantiate(5.0))
        doc = Vault((point,), 11, 0, 1).to_dict()
        del doc["crc_variant"]
        with pytest.raises(ValueError):
            Vault.from_dict(doc)

    def test_core_an_ulp_off_its_integer_loads(self):
        # for this plateau half-width (x0 + y0) / 2 misses the core 7 by an
        # ulp; cores are range-checked after rounding, so the vault loads
        trap = FamilyTemplate("trapezoidal", (9.128388452964652, 1.0, 1.0))
        x = trap.instantiate(7.0)
        assert x.defuzzify() != 7.0
        vault = Vault((VaultPoint(x, trap.instantiate(3.0)),), 11, 0, 1)
        assert Vault.from_dict(vault.to_dict()) == vault


class TestVaultPoint:
    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VaultPoint(TRI.instantiate(1.0), GAU.instantiate(2.0))

    def test_duplicate_cores_rejected(self):
        pts = (
            VaultPoint(TRI.instantiate(1.0), TRI.instantiate(2.0)),
            VaultPoint(TRI.instantiate(1.0), TRI.instantiate(3.0)),
        )
        with pytest.raises(ValueError):
            Vault(pts, 7, 1, 2)
