import copy
import hashlib
import itertools
import json
import math
import random
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import fuzzyvault.vault as vault_module
from fuzzyvault import (
    FamilyTemplate,
    FieldParams,
    FuzzyNumber,
    LockParams,
    MultiFuzzySet,
    SplitMix64,
    SubsetDescriptor,
    UnlockResult,
    Vault,
    VaultPoint,
    build_locking_set,
    decode_key,
    distance,
    encode_key,
    fuzzy_lock,
    fuzzy_unlock,
    generate_chaff,
    lagrange_interpolate,
    lock_polynomial,
    match_points,
    partition_field,
    scramble,
    search_key,
)
from fuzzyvault.field_poly import CRC_VARIANT
from fuzzyvault.fuzzy_number import PARAM_COUNT, json_fields, json_int
from fuzzyvault.vault import UnlockDiagnostics
from conftest import (
    ALL_TEMPLATES,
    GAU,
    SIG,
    TRAP,
    TRI,
    desk_field,
    desk_locking_set,
    desk_params,
)

KEY = bytes.fromhex("000102030405060708090a0b0c0d")
P31 = 2147483659  # the smallest prime above 2**31, where int64 would overflow


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


# SplitMix64 and generate_chaff as they were before the numpy batches, kept
# as the oracles: one pure-Python step, one Horner evaluation and one
# fuzzification per draw
def reference_splitmix64(seed: int):
    """The SplitMix64 output stream of ``seed``, one step at a time."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def reference_randbelow(outputs, n: int) -> int:
    limit = 2**64 - 2**64 % n
    while True:
        r = next(outputs)
        if r < limit:
            return r % n


def reference_generate_chaff(p, field_mfs, used_x_cores, count, rho,
                             locking_template, rng):
    q = field_mfs.q
    templates = field_mfs.templates()
    decoys = [t for t in templates if t.family != locking_template.family]
    n_on_poly = int(rho * count)
    used = set(used_x_cores)
    points = []

    def fresh_core() -> int:
        while True:
            u = rng.randbelow(q)
            if u not in used:
                used.add(u)
                return u

    for _ in range(n_on_poly):
        u = fresh_core()
        template = decoys[rng.randbelow(len(decoys))]
        points.append(VaultPoint(template.instantiate(float(u)),
                                 template.instantiate(float(p.eval(u)))))
    for _ in range(count - n_on_poly):
        u = fresh_core()
        v = rng.randbelow(q - 1)
        if v >= p.eval(u):
            v += 1
        template = templates[rng.randbelow(len(templates))]
        points.append(VaultPoint(template.instantiate(float(u)),
                                 template.instantiate(float(v))))
    return points


RNG_SEEDS = [0, 2**64 - 1, 0x243F6A8885A308D3, 0x13198A2E03707344]


class TestBatchedLock:
    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_block_stream_matches_reference(self, seed):
        n = 3 * vault_module._DRAW_BLOCK + 5
        rng, ref = SplitMix64(seed), reference_splitmix64(seed)
        assert [rng.next_u64() for _ in range(n)] == [next(ref) for _ in range(n)]

    def test_published_seed_zero_outputs(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_randbelow_matches_reference(self, seed):
        # 2**63 + 1 rejects almost half the draws, so blocks end mid-search
        bounds = [1, 2, 17, 65537, P31, 2**63 + 1, 2**64] * 500
        rng, ref = SplitMix64(seed), reference_splitmix64(seed)
        assert ([rng.randbelow(n) for n in bounds]
                == [reference_randbelow(ref, n) for n in bounds])

    @pytest.mark.parametrize("q", [65537, P31])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_generate_chaff_matches_reference(self, field_mfs, q, rho):
        # generate_chaff reads only q and the templates of the field; a
        # partition of 2**31 elements would not fit in memory
        field = field_mfs if q == field_mfs.q else SimpleNamespace(
            q=q, templates=lambda: list(ALL_TEMPLATES))
        poly = encode_key(bytes(range(12)), FieldParams(q), 8)
        used = set(random.Random(q).sample(range(q), 12))
        args = (poly, field, used, 2000, rho, TRI)
        got = generate_chaff(*args, SplitMix64(q + 1))
        want = reference_generate_chaff(*args, SplitMix64(q + 1))
        assert repr(got) == repr(want)  # repr also tells -0.0 from 0.0

    def test_desk_vault_golden_bytes(self, field_mfs):
        # the vault file format is fixed per seed across versions
        vault, _ = fuzzy_lock(bytes(range(12)), desk_locking_set(field_mfs, seed=7),
                              field_mfs, desk_params(seed=7))
        text = vault.to_json().encode()
        assert len(text) == 37521
        assert hashlib.sha256(text).hexdigest() == (
            "f8b7276de8ee6f4b2ecf9edf3a413b38d24e0e826008be2ddfb6bef98d196bb0")


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

    def test_locking_template_missing_from_field_rejected(self, field_mfs):
        # chaff takes its templates from the field, so the 12 points of this
        # shape would be exactly the genuine ones
        odd = FamilyTemplate("triangular", (1.0, 2.0))
        locking = desk_locking_set(field_mfs, seed=12, k_template=odd)
        with pytest.raises(ValueError, match="not a template of the field"):
            fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=12))

    def test_subset_smaller_than_k_rejected(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=6, t_mfk=4, extra=(6, 6))
        params = desk_params(seed=6, t=16, t_mfk=4)
        with pytest.raises(ValueError):
            fuzzy_lock(KEY, locking, field_mfs, params)


# match_points as it was before the core index, kept as the oracle: every
# probe is compared with every vault point
def reference_match_points(
    vault: Vault,
    probes: list,
    delta: float,
) -> list[tuple[int, int]]:
    """Nearest-neighbor fuzzy matching of probe abscissae against the vault.

    One-to-one: each vault point is claimed at most once, probes processed
    in ascending core order, ties broken toward the smaller x-core.  A probe
    matches only within distance delta (family mismatch is infinitely far).
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"matching tolerance must be positive and finite: {delta}")
    families = {p.family for p in probes}
    if len(families) > 1:
        raise ValueError("probes must share a single membership family")
    claimed = set()
    matched = []
    for probe in sorted(probes, key=lambda f: f.defuzzify()):
        best = None
        best_dist = None
        for idx, pt in enumerate(vault.points):
            if idx in claimed:
                continue
            d = distance(pt.x, probe)
            if d > delta:
                continue
            if best is None or d < best_dist or (
                d == best_dist and pt.x_core < vault.points[best].x_core
            ):
                best, best_dist = idx, d
        if best is not None:
            claimed.add(best)
            pt = vault.points[best]
            matched.append((pt.x_core, pt.y_core))
    return matched


# two shapes per family, so that distances also differ away from the core
MATCH_TEMPLATES = {
    "triangular": [TRI, FamilyTemplate("triangular", (0.5, 2.0))],
    "trapezoidal": [TRAP, FamilyTemplate("trapezoidal", (0.0, 0.5, 2.0))],
    "gaussian": [GAU, FamilyTemplate("gaussian", (1.0, 0.25))],
    "sigmoid": [SIG, FamilyTemplate("sigmoid", (0.5, 2.0, 1.0, 3.0))],
    "crisp": [FamilyTemplate("crisp")],
}
MATCH_Q = 64


@st.composite
def match_cases(draw):
    """A vault of all families on a dense core range, probes of one family
    jittered around its cores or around the midpoint of two neighbours, and
    a tolerance.  Probes often share a target, so later ones fall through
    to their second-best point, and a midpoint ties the distances to two
    points of the same shape."""
    families = sorted(MATCH_TEMPLATES)
    family = draw(st.sampled_from(families))
    # the first shape of a family is the common one, so ties are common
    shapes = {f: st.sampled_from(t[:1] * 3 + t[1:]) for f, t in MATCH_TEMPLATES.items()}
    xs = sorted(draw(st.lists(st.integers(0, MATCH_Q - 1), min_size=1, max_size=40,
                              unique=True)))
    # most points carry the probes' family; some sit off their integer core
    point_family = st.sampled_from([family] * 12 + families)
    shift = st.sampled_from([0.0, 0.25, -0.375] if draw(st.booleans()) else [0.0])
    points = []
    for x in xs:
        template = draw(shapes[draw(point_family)])
        y = draw(st.integers(0, MATCH_Q - 1))
        points.append(VaultPoint(template.instantiate(x + draw(shift)),
                                 template.instantiate(y)))
    delta = draw(st.sampled_from([0.01, 0.25, 0.5, 1.0, 3.0, 50.0])
                 | st.floats(0.01, 50.0))
    jitter = (st.just(0.0) | st.sampled_from([0.5, -0.5, delta, -delta])
              | st.floats(-2 * delta, 2 * delta))
    probes = []
    for _ in range(draw(st.integers(0, 12))):
        i = draw(st.integers(0, len(xs) - 1))
        centre = xs[i] if draw(st.booleans()) else (xs[i] + xs[i - 1]) / 2
        probes.append(draw(shapes[family]).instantiate(centre + draw(jitter)))
    return Vault(tuple(points), MATCH_Q, 0, len(points)), probes, delta


def tri_vault(*cores):
    return Vault(tuple(VaultPoint(TRI.instantiate(float(c)), TRI.instantiate(0.0))
                       for c in cores), 100, 0, len(cores))


class NoPoints:
    """A vault stand-in that fails the test if matching reads its points."""

    @property
    def points(self):
        raise AssertionError("the vault was read before the arguments were checked")


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

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_lock_params_tolerance_must_be_positive_and_finite(self, delta):
        params = desk_params(seed=0, delta=delta)
        with pytest.raises(ValueError, match="delta"):
            params.validate(65537)

    @settings(max_examples=300, deadline=None)
    @given(case=match_cases())
    def test_matches_reference_matching(self, case):
        vault, probes, delta = case
        assert match_points(vault, probes, delta) == reference_match_points(
            vault, probes, delta)

    def test_contended_point_falls_to_second_best(self):
        vault = tri_vault(13, 11, 10)
        probes = [TRI.instantiate(10.4), TRI.instantiate(10.2)]
        # 10.2 comes first and claims 10; 10.4 then takes 11, at 0.6
        assert match_points(vault, probes, 1.0) == [(10, 0), (11, 0)]
        assert reference_match_points(vault, probes, 1.0) == [(10, 0), (11, 0)]

    def test_distance_tie_goes_to_smaller_core(self):
        vault = tri_vault(11, 10)
        probes = [TRI.instantiate(10.5)]
        assert match_points(vault, probes, 1.0) == [(10, 0)]
        assert match_points(vault, probes * 2, 1.0) == [(10, 0), (11, 0)]

    def test_no_probes_match_nothing(self):
        assert match_points(tri_vault(1, 2, 3), [], 0.25) == []

    def test_family_absent_from_vault_matches_nothing(self):
        probes = [GAU.instantiate(float(c)) for c in (1, 2, 3)]
        assert match_points(tri_vault(1, 2, 3), probes, 50.0) == []

    def test_trapezoid_exactly_delta_away_matched(self):
        x = TRAP.instantiate(10.0)
        vault = Vault((VaultPoint(x, TRAP.instantiate(4.0)),), 100, 0, 1)
        probe = TRAP.instantiate(10.25)
        assert distance(x, probe) == 0.25
        assert match_points(vault, [probe], 0.25) == [(10, 4)]

    @pytest.mark.parametrize("probes, delta", [
        ([TRI.instantiate(1.0), GAU.instantiate(2.0)], 0.25),
        ([TRI.instantiate(1.0)], math.nan),
        ([TRI.instantiate(1.0)], math.inf),
    ], ids=["mixed-families", "nan", "inf"])
    def test_bad_arguments_rejected_before_indexing(self, probes, delta):
        with pytest.raises(ValueError):
            match_points(NoPoints(), probes, delta)

    def test_window_covers_rounding_at_large_cores(self):
        # x0 + y0 rounds to even at 2**61: the cores are 512 apart while the
        # Chebyshev distance is 256, more than one unit beyond delta
        q, big = 2**62, 2.0**60
        x = FuzzyNumber.trapezoidal(big, big + 256, 1.0, 1.0)
        probe = FuzzyNumber.trapezoidal(big + 256, big + 512, 1.0, 1.0)
        assert probe.defuzzify() - x.defuzzify() == 512
        vault = Vault((VaultPoint(x, TRAP.instantiate(3.0)),), q, 0, 1)
        assert reference_match_points(vault, [probe], 256.0) == [(2**60, 3)]
        assert match_points(vault, [probe], 256.0) == [(2**60, 3)]

    def test_probe_core_beyond_float_range(self):
        # (x0 + y0) / 2 overflows to inf, yet the probe is 1e308 from (0, 0)
        probe = FuzzyNumber.trapezoidal(1e308, 1e308, 1.0, 1.0)
        assert probe.defuzzify() == math.inf
        vault = Vault((VaultPoint(FuzzyNumber.trapezoidal(0.0, 0.0, 1.0, 1.0),
                                  TRAP.instantiate(3.0)),), 11, 0, 1)
        assert reference_match_points(vault, [probe], 1.5e308) == [(0, 3)]
        assert match_points(vault, [probe], 1.5e308) == [(0, 3)]


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


# search_key as it was before the constant-term filter, kept as the oracle:
# one full interpolation and decode per subset
def reference_search_key(
    matched: list[tuple[int, int]],
    q: int,
    k: int,
    key_len: int,
    effort_cap: int = 100_000,
    diagnostics: UnlockDiagnostics | None = None,
) -> UnlockResult:
    """Search k-subsets of matched points in lexicographic order, accepting
    the first candidate polynomial whose decoded key passes the CRC check."""
    if effort_cap <= 0:
        raise ValueError("effort cap must be positive")
    if diagnostics is None:
        diagnostics = UnlockDiagnostics(matched=len(matched))
    if len(matched) < k:
        return UnlockResult(None, diagnostics)
    field = FieldParams(q)
    for combo in itertools.combinations(matched, k):
        if diagnostics.subsets_tried >= effort_cap:
            break
        diagnostics.subsets_tried += 1
        candidate = lagrange_interpolate(list(combo), field)
        material = decode_key(candidate, field, key_len)
        if material is not None:
            return UnlockResult(material.key_bytes, diagnostics)
    return UnlockResult(None, diagnostics)


def outcome(result):
    d = result.diagnostics
    return result.key, d.matched, d.subsets_tried


def pad_bits(q, k, key_len):
    return k * (q.bit_length() - 1) - (8 * key_len + 16)


# (q, k, key_len) with pad < 0, pad = 0, 0 < pad < bits, pad = bits
# (q = 65537 only) and pad > bits, for fields on both sides of 2**31
SEARCH_CASES = [
    *[(65537, 3, n) for n in (5, 4, 3, 2, 1)],
    *[(2**31 - 1, 4, n) for n in (14, 13, 12, 8)],
    *[(P31, 8, n) for n in (30, 29, 28, 24)],
    *[(2**61 - 1, 4, n) for n in (29, 28, 27, 20)],
]


@st.composite
def matched_sets(draw, q, k, key_len):
    """Points with distinct x: each lies on the polynomial of a random key
    or carries a random y, in random order."""
    bits = q.bit_length() - 1
    key_bytes = min(key_len, (k * bits - 16) // 8)  # encode_key must fit it
    key = draw(st.binary(min_size=key_bytes, max_size=key_bytes))
    poly = encode_key(key, FieldParams(q), k)
    xs = draw(st.lists(st.integers(0, q - 1), max_size=k + 3, unique=True))
    return [
        (x, poly.eval(x) if draw(st.booleans()) else draw(st.integers(0, q - 1)))
        for x in xs
    ]


def chaff_matches(count, seed, q=65537):
    """Random points with distinct x >= 16; smaller x are left for genuine ones."""
    rnd = random.Random(seed)
    return [(x, rnd.randrange(q)) for x in rnd.sample(range(16, q), count)]


class TestSearchKey:
    @pytest.mark.parametrize(
        "q, k, key_len", SEARCH_CASES,
        ids=[f"q{q}-k{k}-pad{pad_bits(q, k, n)}" for q, k, n in SEARCH_CASES],
    )
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_reference_search(self, q, k, key_len, data):
        matched = data.draw(matched_sets(q, k, key_len))
        cap = data.draw(st.sampled_from([1, 100_000]) | st.integers(2, 40))
        got = search_key(matched, q, k, key_len, cap)
        want = reference_search_key(matched, q, k, key_len, cap)
        assert outcome(got) == outcome(want)
        assert got.diagnostics.cap_hit == (
            got.key is None and math.comb(len(matched), k) > cap
        )

    @pytest.mark.parametrize("chunk", [1, 3, 7, 4096])
    def test_key_found_past_chunk_boundaries(self, monkeypatch, chunk):
        # the genuine points come last, so the key is the last of
        # C(31, 3) = 4495 subsets, beyond the first chunk of every size
        monkeypatch.setattr(vault_module, "_SUBSET_CHUNK", chunk)
        q, key = 65537, b"\x5a\xa5"
        poly = encode_key(key, FieldParams(q), 3)
        matched = chaff_matches(28, seed=chunk) + [(x, poly.eval(x)) for x in (1, 2, 3)]
        got = search_key(matched, q, 3, len(key))
        assert outcome(got) == outcome(reference_search_key(matched, q, 3, len(key)))
        assert outcome(got) == (key, 31, 4495)
        for cap in (4494, 500):
            got = search_key(matched, q, 3, len(key), cap)
            assert (*outcome(got), got.diagnostics.cap_hit) == (None, 31, cap, True)

    @pytest.mark.parametrize("repeat", [1, 1 + 65537])
    def test_repeated_x_rejected_up_front(self, repeat):
        # the points sharing an x (mod q) meet in no subset the cap reaches,
        # so the reference search never noticed them
        matched = [(1, 5), (2, 7), (3, 9), (repeat, 11)]
        assert reference_search_key(matched, 65537, 2, 1, effort_cap=1).key is None
        with pytest.raises(ValueError, match="distinct x"):
            search_key(matched, 65537, 2, 1, effort_cap=1)

    def test_twenty_chaff_matches_run_to_the_cap(self, field_mfs):
        key = bytes(range(12))
        locking = desk_locking_set(field_mfs, seed=40)
        vault, transcript = fuzzy_lock(key, locking, field_mfs, desk_params(seed=40))
        genuine = set(transcript.genuine_indices)
        chaff = [(p.x_core, p.y_core) for i, p in enumerate(vault.points)
                 if i not in genuine][:20]
        result = search_key(chaff, vault.q, vault.n + 1, len(key))
        d = result.diagnostics
        assert result.key is None
        assert (d.matched, d.subsets_tried, d.cap_hit) == (20, 100_000, True)

    def test_cap_hit_only_with_subsets_left(self):
        chaff = chaff_matches(10, seed=4)  # C(10, 8) = 45 subsets
        for cap, tried, hit in ((44, 44, True), (45, 45, False), (46, 45, False)):
            d = search_key(chaff, 65537, 8, 12, cap).diagnostics
            assert (d.subsets_tried, d.cap_hit) == (tried, hit)

    def test_cap_hit_false_when_key_found_at_the_cap(self):
        q, key = 65537, bytes(range(12))
        poly = encode_key(key, FieldParams(q), 8)
        matched = chaff_matches(1, seed=5) + [(x, poly.eval(x)) for x in range(1, 9)]
        # subsets holding the chaff point come first: C(8, 7) = 8 of them
        result = search_key(matched, q, 8, len(key), effort_cap=9)
        assert result.key == key
        assert (result.diagnostics.subsets_tried, result.diagnostics.cap_hit) == (9, False)


# floats whose JSON text is easy to get wrong: signed zero, the smallest
# subnormal, integral values in and beyond exponent notation, and 0.1
AWKWARD = [-0.0, 0.0, 5e-324, 0.1, 1.0, 7.0, 1e16, 1e22, 123456789.0]
CORES = st.sampled_from(AWKWARD) | st.integers(0, 10**6).map(float) | st.floats(0, 1e22)
SPREADS = (st.sampled_from([5e-324, 0.1, 0.5, 1.0, 3.0, 1e16, 1e22])
           | st.floats(5e-324, 1e22))
GRADES = st.sampled_from([5e-324, 0.1, 0.5, 1.0]) | st.floats(5e-324, 1.0)


@st.composite
def fuzzy_numbers(draw, family, core):
    """A valid fuzzy number of ``family`` at ``core``, spreads drawn freely."""
    if family == "triangular":
        params = (core - draw(SPREADS), core, core + draw(SPREADS))
    elif family == "trapezoidal":
        params = (core, core + draw(SPREADS | st.just(0.0)), draw(SPREADS), draw(SPREADS))
    elif family == "gaussian":
        params = (core, draw(SPREADS), draw(SPREADS))
    elif family == "sigmoid":
        params = (core - draw(SPREADS), core, core + draw(SPREADS), draw(GRADES),
                  draw(SPREADS))
    else:
        params = (core,)
    return FuzzyNumber(family, params)


@st.composite
def serialisable_vaults(draw):
    """Vaults of one to eight points of any families, with awkward floats."""
    points = {}
    for _ in range(draw(st.integers(1, 8))):
        family = draw(st.sampled_from(sorted(MATCH_TEMPLATES)))
        point = VaultPoint(draw(fuzzy_numbers(family, draw(CORES))),
                           draw(fuzzy_numbers(family, draw(CORES))))
        points.setdefault(point.x_core, point)  # x-cores must be distinct
    q = 1 + max(max(p.x_core, p.y_core) for p in points.values())
    return Vault(tuple(points.values()), q, draw(st.integers(0, len(points) - 1)),
                 len(points))


# Vault.from_dict as it was before the columns, kept as the oracle: a
# VaultPoint and two FuzzyNumbers per point, then the checks the vault made
# on them one point at a time
def reference_vault_from_dict(d: dict) -> Vault:
    (version,) = json_fields(d, "format_version")
    if type(version) is not int or version != 1:
        raise ValueError(f"unsupported vault format: {version!r}")
    points, q, n, r, crc_variant = json_fields(
        d, "points", "q", "n", "r", "crc_variant"
    )
    if type(points) is not list:
        raise ValueError(f"points must be an array, got {type(points).__name__}")
    points = tuple(map(VaultPoint.from_dict, points))
    q, n, r = json_int(q), json_int(n), json_int(r)
    if crc_variant != CRC_VARIANT:
        raise ValueError(f"unsupported CRC variant {crc_variant!r}")
    if len(points) != r:
        raise ValueError(f"vault holds {len(points)} points, expected r={r}")
    if not 0 <= n < r:
        raise ValueError(f"polynomial degree n={n} outside [0, r={r})")
    try:
        cores = [p.x_core for p in points]
        y_cores = [p.y_core for p in points]
    except OverflowError:
        raise ValueError("vault cores must be finite") from None
    if len(set(cores)) != len(cores):
        raise ValueError("vault x-cores must be pairwise distinct")
    for axis_cores in (cores, y_cores):
        if not (0 <= min(axis_cores) and max(axis_cores) < q):
            raise ValueError("vault cores must lie in [0, q)")
    return Vault(points, q, n, r, crc_variant)


def json_nodes(node, path=()):
    """(path, node) for ``node`` and every node below it."""
    yield path, node
    items = node.items() if type(node) is dict else (
        enumerate(node) if type(node) is list else ())
    for key, child in items:
        yield from json_nodes(child, path + (key,))


# values a mutation puts in place of a node: the edges of the parameter
# rules, and JSON values of the wrong type or beyond the float range
EDGES = [-1.0, -5e-324, -0.0, 0, 0.0, 5e-324, 0.5, 1, 1.0, 1.5, 2, 1e308,
         10**400, math.inf, math.nan]
ODD_JSON = [True, False, None, "1", [], {}, [1.0], "triangular"]


@st.composite
def vault_documents(draw):
    """Parsed v1 documents: a valid vault's, with some integral parameters
    written as JSON ints, and mostly one or two mutations."""
    vault = draw(serialisable_vaults())
    doc = vault.to_dict()
    for point in doc["points"]:
        for axis in ("x", "y"):
            params = point[axis]["params"]
            for i, v in enumerate(params):
                if v == int(v) and draw(st.booleans()):
                    params[i] = int(v)
    points = doc["points"]
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        where = draw(st.sampled_from(["param"] * 4 + ["family", "header", "point", "node"]))
        if where == "param":
            params = draw(st.sampled_from(points))[draw(st.sampled_from("xy"))].get("params")
            if type(params) is not list or not params:
                continue
            i = draw(st.integers(0, len(params) - 1))
            row = st.sampled_from([v for v in params if type(v) in (int, float)] or [0.0])
            params[i] = draw(st.one_of(
                st.sampled_from(EDGES), st.sampled_from(ODD_JSON), st.floats(),
                row,  # ties with a neighbour, or the same value as an int
                st.tuples(row, st.sampled_from([-math.inf, math.inf])).map(
                    lambda a: math.nextafter(*a)),
            ))
        elif where == "family":
            coord = draw(st.sampled_from(points))[draw(st.sampled_from("xy"))]
            coord["family"] = draw(st.sampled_from([*MATCH_TEMPLATES, "Crisp", 3]))
            if draw(st.booleans()):  # a parameter count that fits the new family
                arity = PARAM_COUNT.get(coord["family"], 1)
                params = coord.get("params")
                coord["params"] = ((params if type(params) is list else [0.0]) * 5)[:arity]
        elif where == "header":
            top = max(int(vault.x_cores.max()), int(vault.y_cores.max()))
            key = draw(st.sampled_from(["q", "n", "r", "format_version", "crc_variant"]))
            doc[key] = draw(st.sampled_from(
                [top, top + 1, vault.r - 1, vault.r, vault.r + 1, -1, 0, 1, 2, 1.0,
                 True, "CRC-16/ARC", "CRC-32", 10**400]))
        elif where == "point":  # another point's x: its x-core twice
            a, b = draw(st.sampled_from(points)), draw(st.sampled_from(points))
            b["x"] = copy.deepcopy(a["x"])
        else:
            nodes = list(json_nodes(doc))[1:]
            path = draw(st.sampled_from(nodes))[0]
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(st.sampled_from(EDGES + ODD_JSON)
                                        | st.sampled_from(nodes).map(lambda n: copy.deepcopy(n[1])))
        if type(doc.get("points")) is not list or not doc["points"] or not all(
                type(p) is dict and type(p.get("x")) is dict and type(p.get("y")) is dict
                for p in doc["points"]):
            break  # later mutations expect the points intact
        points = doc["points"]
    return doc


def assert_parses_like_reference(doc: dict) -> None:
    """Vault.from_dict rejects ``doc`` where the oracle does, and otherwise
    returns the oracle's vault, bytes and cores."""
    try:
        want = reference_vault_from_dict(copy.deepcopy(doc))
    except ValueError:
        with pytest.raises(ValueError):
            Vault.from_dict(doc)
        return
    got = Vault.from_dict(doc)
    assert got == want
    assert got.to_json() == want.to_json() == json.dumps(
        want.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    assert repr(got.points) == repr(want.points)  # repr tells -0.0 from 0.0
    assert got.x_cores.tolist() == [p.x_core for p in want.points]
    assert got.y_cores.tolist() == [p.y_core for p in want.points]


class TestSerialization:
    @settings(max_examples=400, deadline=None)
    @given(doc=vault_documents())
    def test_from_dict_matches_reference_parser(self, doc):
        assert_parses_like_reference(doc)

    @pytest.mark.parametrize("family", sorted(MATCH_TEMPLATES))
    def test_from_dict_matches_reference_at_parameter_edges(self, family):
        # every parameter of a one-point vault set to each edge of the
        # family's rules: a neighbour's value, one ulp either side of it,
        # a half-integer core, signed zeros, subnormals, 1 and values of
        # the wrong type
        template = MATCH_TEMPLATES[family][0]
        point = VaultPoint(template.instantiate(3.0), template.instantiate(5.0))
        base = Vault((point,), 11, 0, 1).to_dict()
        for axis in ("x", "y"):
            row = base["points"][0][axis]["params"]
            edges = [-5e-324, -0.0, 0, 5e-324, 1, 1.0, math.nextafter(1.0, 2.0), -1.0,
                     2.5, 3.5, 5.5, 10**400, math.inf, math.nan, True, None, "1"]
            for v in row:
                edges += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
            for i, value in itertools.product(range(len(row)), edges):
                doc = copy.deepcopy(base)
                doc["points"][0][axis]["params"][i] = value
                assert_parses_like_reference(doc)

    def test_from_dict_matches_reference_at_header_edges(self):
        points = (VaultPoint(TRI.instantiate(3.0), TRI.instantiate(5.0)),
                  VaultPoint(GAU.instantiate(7.0), GAU.instantiate(0.0)))
        base = Vault(points, 8, 1, 2).to_dict()
        for key, values in {
            "q": [0, 5, 6, 7, 8, 2**64, 10**400, 8.0, True, None],
            "n": [-1, 0, 1, 2, 1.0, False],
            "r": [0, 1, 2, 3, 2.0],
            "format_version": [0, 1, 2, 1.0, True, "1"],
            "crc_variant": [CRC_VARIANT, CRC_VARIANT.lower(), None, 0],
        }.items():
            for value in values:
                assert_parses_like_reference(dict(base, **{key: value}))

    def test_huge_integer_parameter_rejected(self):
        point = VaultPoint(GAU.instantiate(3.0), GAU.instantiate(5.0))
        doc = Vault((point,), 11, 0, 1).to_dict()
        doc["points"][0]["x"]["params"][1] = 10**400
        for parse in (Vault.from_dict, reference_vault_from_dict):
            with pytest.raises(ValueError, match="finite"):
                parse(doc)

    def test_load_and_unlock_build_no_point_objects(self, field_mfs, tmp_path,
                                                    monkeypatch):
        locking = desk_locking_set(field_mfs, seed=33)
        locked = []  # the points lock_polynomial builds the vault from
        monkeypatch.setattr(vault_module, "Vault", lambda points, *args: (
            locked.append(points) or Vault(points, *args)))
        vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=33, r=3000))
        monkeypatch.undo()
        path = tmp_path / "vault.json"
        vault.save(path)
        built = []

        def counting(build):
            def wrapper(*args):
                built.append(args)
                return build(*args)
            return wrapper

        monkeypatch.setattr(FuzzyNumber, "__post_init__",
                            counting(FuzzyNumber.__post_init__))
        monkeypatch.setattr(FuzzyNumber, "_trusted",
                            classmethod(counting(FuzzyNumber._trusted.__func__)))
        loaded = Vault.load(path)
        result = fuzzy_unlock(loaded, locking, 0, 0.25, len(KEY))
        monkeypatch.undo()
        assert result.key == KEY
        probes = locking.select_subset(0)
        # the points match_points may test: same family, core within its window
        window = {
            i for i, pt in enumerate(loaded.points)
            if pt.x.family == TRI.family and any(
                abs(pt.x.defuzzify() - c) <= 1.25 + (abs(c) + 0.25) * 2**-50
                for c in (p.defuzzify() for p in probes))
        }
        assert len(window) < 3 * len(probes)
        assert len(built) <= len(probes) + len(window)
        # the points rebuilt from the columns are the ones the lock made
        assert loaded.points is loaded.points
        for rebuilt in (vault.points, loaded.points):
            assert rebuilt == locked[0]
            assert repr(rebuilt) == repr(locked[0])


    @settings(max_examples=200, deadline=None)
    @given(vault=serialisable_vaults())
    @example(vault=Vault((VaultPoint(FuzzyNumber.crisp(-0.0), FuzzyNumber.crisp(0.0)),),
                         1, 0, 1))
    def test_to_json_matches_json_dumps(self, vault):
        # to_dict is kept as the oracle of the text to_json writes directly
        assert vault.to_json() == json.dumps(
            vault.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

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

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_core_beyond_float_range_rejected(self, axis):
        # (x0 + y0) / 2 overflows to inf, which round() cannot convert
        point = VaultPoint(TRAP.instantiate(3.0), TRAP.instantiate(5.0))
        doc = Vault((point,), 11, 0, 1).to_dict()
        doc["points"][0][axis]["params"] = [1e308, 1.5e308, 1.0, 1.0]
        with pytest.raises(ValueError, match="finite"):
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
