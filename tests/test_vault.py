import collections
import copy
import gc
import hashlib
import itertools
import json
import math
import random
import re
import struct
from fractions import Fraction
from operator import itemgetter
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

import fuzzyvault.vault as vault_module
from fuzzyvault import (
    FamilyTemplate,
    FieldParams,
    FuzzyNumber,
    LockParams,
    MultiFuzzySet,
    Polynomial,
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
from fuzzyvault.fuzzy_number import PARAM_COUNT, json_fields, json_int, json_numbers
from fuzzyvault.vault import LockTranscript, UnlockDiagnostics
from conftest import (
    ALL_TEMPLATES,
    GAU,
    SIG,
    TRAP,
    TRI,
    desk_field,
    desk_locking_set,
    desk_params,
    reference_core,
    reference_v1_document,
    reference_v1_json,
    reference_validate,
)

KEY = bytes.fromhex("000102030405060708090a0b0c0d")
SMALL_FIELD = desk_field(401)
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
        assert pts.shape == (40, 3) and pts.dtype == np.uint64
        assert all(y != self.poly.eval(x) for x, y, _ in pts.tolist())

    def test_rho_one_all_on_polynomial_wrong_family(self):
        pts = generate_chaff(self.poly, self.field, {1, 2}, 40, 1.0, TRI, SplitMix64(4))
        templates = self.field.templates()
        assert all(y == self.poly.eval(x) for x, y, _ in pts.tolist())
        assert all(templates[t].family != "triangular" for _, _, t in pts.tolist())

    def test_exhausts_field(self):
        used = set(range(12))
        pts = generate_chaff(self.poly, self.field, used, self.Q - 12, 0.2, TRI,
                             SplitMix64(0))
        cores = set(pts[:, 0].tolist())
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
                             locking_template, rng, cores=None):
    """The chaff points; ``cores``, if given, receives each point's
    (x, y) cores as drawn."""
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
        if cores is not None:
            cores.append((u, p.eval(u)))
    for _ in range(count - n_on_poly):
        u = fresh_core()
        v = rng.randbelow(q - 1)
        if v >= p.eval(u):
            v += 1
        template = templates[rng.randbelow(len(templates))]
        points.append(VaultPoint(template.instantiate(float(u)),
                                 template.instantiate(float(v))))
        if cores is not None:
            cores.append((u, v))
    return points


# lock_polynomial as it was before it built the vault's columns from core
# triples, kept as the oracle for valid inputs: two fuzzy numbers and a
# VaultPoint per point, scrambled as (point, source index) pairs
def reference_lock_points(p, locking_set, field_mfs, params, cores=None):
    """The scrambled points and the transcript of the old lock; ``cores``,
    if given, receives each point's (x, y) cores as drawn, in vault order."""
    subset = locking_set.subsets[params.k_subset]
    template = subset.template
    rng = SplitMix64(params.seed)
    elements = sorted(subset.elements)
    genuine = [VaultPoint(template.instantiate(float(a)), template.instantiate(float(p.eval(a))))
               for a in elements]
    drawn = [(a, p.eval(a)) for a in elements]
    chaff = reference_generate_chaff(p, field_mfs, set(elements), params.r - params.t_mfk,
                                     params.rho, template, rng, drawn)
    tagged = scramble([(pt, i) for i, pt in enumerate(genuine + chaff)], rng)
    genuine_indices = tuple(at for at, (_, i) in enumerate(tagged) if i < len(genuine))
    transcript = LockTranscript(p, genuine_indices, tuple(elements), template, params.t_mfk,
                                locking_set.subset_count)
    if cores is not None:
        cores.extend(drawn[i] for _, i in tagged)
    return tuple(pt for pt, _ in tagged), transcript


def reference_lock_polynomial(p, locking_set, field_mfs, params, cores=None):
    points, transcript = reference_lock_points(p, locking_set, field_mfs, params, cores)
    return Vault(points, field_mfs.q, params.n, params.r), transcript


RNG_SEEDS = [0, 2**64 - 1, 0x243F6A8885A308D3, 0x13198A2E03707344]
HALF_REJECTED = 2**63 + 29  # a prime: randbelow rejects almost half of all outputs


def assert_chaff_matches_reference(poly, field, used, count, rho, seed):
    """generate_chaff gives the oracle's cores and points, and leaves the
    stream where the oracle's randbelow calls leave it."""
    rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
    got = generate_chaff(poly, field, used, count, rho, TRI, rng)
    cores = []
    want = reference_generate_chaff(poly, field, used, count, rho, TRI, ref_rng, cores)
    assert got.dtype == np.uint64 and got.shape == (count, 3)
    rows = got.tolist()
    assert [(x, y) for x, y, _ in rows] == cores
    templates = field.templates()
    points = [VaultPoint(templates[t].instantiate(float(x)), templates[t].instantiate(float(y)))
              for x, y, t in rows]
    assert repr(points) == repr(want)  # repr also tells -0.0 from 0.0
    assert rng.next_u64() == ref_rng.next_u64()


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

    @pytest.mark.parametrize("q", [65537, P31, HALF_REJECTED])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_generate_chaff_matches_reference(self, field_mfs, q, rho):
        # generate_chaff reads only q and the templates of the field; a
        # partition of 2**31 elements would not fit in memory
        field = field_mfs if q == field_mfs.q else SimpleNamespace(
            q=q, templates=lambda: list(ALL_TEMPLATES))
        poly = encode_key(bytes(range(12)), FieldParams(q), 8)
        # the len() of a range must fit in an ssize_t
        used = set(random.Random(q).sample(range(min(q, 2**62)), 12))
        assert_chaff_matches_reference(poly, field, used, 2000, rho, q + 1)

    @pytest.mark.parametrize("block", [2, 7, 2048])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_chaff_filling_the_field_matches_reference(self, monkeypatch, block, rho):
        # most core draws collide, and near the end a redraw runs longer
        # than a block of outputs
        monkeypatch.setattr(vault_module, "_DRAW_BLOCK", block)
        field = desk_field(257)
        poly = Polynomial((5, 17, 3, 200, 1, 256), 257)
        used = set(random.Random(5).sample(range(257), 12))
        assert_chaff_matches_reference(poly, field, used, 257 - len(used), rho, 9)

    @pytest.mark.parametrize("block", [3, 64])
    def test_blocks_ending_in_rejection_runs_match_reference(self, monkeypatch, block):
        # half of the outputs are rejected under 2**63 + 29, so small blocks
        # end inside runs of rejected core and offset draws
        monkeypatch.setattr(vault_module, "_DRAW_BLOCK", block)
        field = SimpleNamespace(q=HALF_REJECTED, templates=lambda: list(ALL_TEMPLATES))
        poly = encode_key(bytes(range(12)), FieldParams(HALF_REJECTED), 8)
        assert_chaff_matches_reference(poly, field, {5, 6}, 300, 0.3, 17)

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_randbelow_each_matches_reference(self, seed):
        # scramble's bulk draws: a rejected output shifts every later draw
        bounds = [1, 2, 3, HALF_REJECTED, 17, 65537, P31, 2**64 - 1, HALF_REJECTED] * 40
        rng, ref = SplitMix64(seed), reference_splitmix64(seed)
        got = vault_module._randbelow_each(rng, np.array(bounds, dtype=np.uint64))
        assert got.tolist() == [reference_randbelow(ref, n) for n in bounds]
        assert rng.next_u64() == next(ref)

    def test_scramble_matches_reference(self):
        def reference_scramble(items, seed):
            out, ref = list(items), reference_splitmix64(seed)
            for i in range(len(out) - 1, 0, -1):
                j = reference_randbelow(ref, i + 1)
                out[i], out[j] = out[j], out[i]
            return out

        for n, seed in [(0, 1), (1, 2), (2, 3), (5000, 2**64 - 1)]:
            assert scramble(range(n), seed) == reference_scramble(range(n), seed)

    def test_bound_beyond_2_64_raises(self, monkeypatch):
        # above 2**64 the rejection limit is 0: without the check every
        # output would be rejected, so a stream that runs out fails instead
        calls, peek_ahead = itertools.count(), SplitMix64._peek

        def peek(rng, count):
            assert next(calls) < 10, "the draw did not stop"
            return peek_ahead(rng, count)

        monkeypatch.setattr(SplitMix64, "_peek", peek)
        for n in (2**64 + 1, 2**65, 0, -3):
            with pytest.raises(ValueError, match=r"bound must lie in \[1, 2\*\*64\]"):
                SplitMix64(1).randbelow(n)
        q = 2**64 + 13  # the smallest prime above 2**64
        field = SimpleNamespace(q=q, templates=lambda: list(ALL_TEMPLATES))
        poly = Polynomial((1, 2, 3), q)
        with pytest.raises(ValueError, match=r"bound must lie in \[1, 2\*\*64\]"):
            generate_chaff(poly, field, {1}, 5, 0.5, TRI, SplitMix64(1))

    def test_desk_vault_golden_bytes(self, field_mfs):
        # the locked vault is fixed per seed across versions: its v1 text,
        # written by the oracle, keeps the digest the v1 writer gave it
        vault, _ = fuzzy_lock(bytes(range(12)), desk_locking_set(field_mfs, seed=7),
                              field_mfs, desk_params(seed=7))
        text = reference_v1_json(vault).encode()
        assert len(text) == 37521
        assert hashlib.sha256(text).hexdigest() == (
            "f8b7276de8ee6f4b2ecf9edf3a413b38d24e0e826008be2ddfb6bef98d196bb0")
        text = vault.to_json().encode()
        assert len(text) == 4412
        assert hashlib.sha256(text).hexdigest() == (
            "4dd5e8156d99767ef3adfbf81d74b1d3d2b7c96d7e95021858306bc1aea52a61")


class TestLock:
    def test_lock_builds_no_point_objects(self, field_mfs, monkeypatch):
        locking = desk_locking_set(field_mfs, seed=34)
        params = desk_params(seed=34, r=3000)
        built = collections.Counter()

        def counting(name, build):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return build(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(FuzzyNumber, "__init__",
                            counting("FuzzyNumber", FuzzyNumber.__init__))
        monkeypatch.setattr(FuzzyNumber, "_trusted", classmethod(
            counting("FuzzyNumber._trusted", FuzzyNumber._trusted.__func__)))
        monkeypatch.setattr(FamilyTemplate, "instantiate",
                            counting("instantiate", FamilyTemplate.instantiate))
        monkeypatch.setattr(VaultPoint, "__init__",
                            counting("VaultPoint", VaultPoint.__init__))
        vault, transcript = fuzzy_lock(KEY, locking, field_mfs, params)
        monkeypatch.undo()
        assert built == {}
        points, want = reference_lock_points(
            encode_key(KEY, FieldParams(field_mfs.q), params.k), locking, field_mfs, params)
        assert transcript == want
        assert vault.points == points
        assert repr(vault.points) == repr(points)  # repr tells -0.0 from 0.0

    @pytest.mark.parametrize("halfwidth, elements", [
        (2.0**53, range(101, 322, 20)),  # stored as 100, 120, ...: a vault its set cannot open
        (1e16, range(1, 13)),  # cores 1-8 round to 0, 2, 4, 4, 4, 6, 8, 8
    ])
    def test_plateau_too_wide_for_its_cores_rejected(self, halfwidth, elements):
        q = 65537
        wide = FamilyTemplate("trapezoidal", (halfwidth, 1.0, 1.0))
        field = partition_field(q, [q // 2, q - q // 2], [wide, GAU])
        locking = build_locking_set(field, [(tuple(elements), wide)])
        params = LockParams(t=12, k_subset=0, t_mfk=12, r=60, k=8, seed=7)
        with pytest.raises(ValueError, match=re.escape(f"template {wide} turns the ")):
            fuzzy_lock(KEY, locking, field, params)

    @pytest.mark.parametrize("q", [2**53 + 1, 2**61 - 1])
    def test_field_beyond_float_cores_rejected(self, q, monkeypatch):
        # float64 cores hold every integer only up to 2**53; a partition of
        # such a field cannot be built, so the field is a stand-in
        field = SimpleNamespace(q=q, templates=lambda: [TRI, GAU])
        elements = range(q // 2 + 1, q // 2 + 24, 2)
        locking = build_locking_set(field, [(tuple(elements), TRI)])
        poly = Polynomial(tuple(range(1, 9)), q)
        params = LockParams(t=12, k_subset=0, t_mfk=12, r=60, k=8, seed=7)
        monkeypatch.setattr(vault_module, "SplitMix64", None)  # nothing is drawn
        with pytest.raises(ValueError, match=re.escape(f"q={q} exceeds 2**53")) as e:
            lock_polynomial(poly, locking, field, params)
        assert "template" not in str(e.value)

    def test_field_at_float_bound_locks(self):
        q = 2**53
        field = SimpleNamespace(q=q, templates=lambda: [TRI, GAU])
        elements = range(q - 24, q, 2)
        locking = build_locking_set(field, [(tuple(elements), TRI)])
        poly = Polynomial((q - 1, 2**52 + 3, 5), q)
        params = LockParams(t=12, k_subset=0, t_mfk=12, r=60, k=3, seed=7)
        vault, transcript = lock_polynomial(poly, locking, field, params)
        genuine = sorted((int(vault.x_cores[i]), int(vault.y_cores[i]))
                         for i in transcript.genuine_indices)
        assert genuine == [(a, poly.eval(a)) for a in elements]

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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, 8), data=st.data())
    def test_matches_reference_points_in_a_small_field(self, seed, k, data):
        # at q = 401 a vault of up to 400 points fills the field, so most
        # late core draws collide
        r = data.draw(st.integers(k, 400), label="r")
        rho = data.draw(st.floats(0.0, 1.0), label="rho")
        elements = random.Random(seed).sample(range(SMALL_FIELD.q), k)
        locking = build_locking_set(SMALL_FIELD, [(tuple(elements), TRI)])
        params = LockParams(t=k, k_subset=0, t_mfk=k, r=r, k=k, rho=rho, seed=seed)
        poly = Polynomial(tuple(random.Random(~seed).randrange(401) for _ in range(k)), 401)
        vault, transcript = lock_polynomial(poly, locking, SMALL_FIELD, params)
        points, want = reference_lock_points(poly, locking, SMALL_FIELD, params)
        assert transcript == want
        assert repr(vault.points) == repr(points)  # repr tells -0.0 from 0.0

    def test_lock_runs_no_full_collection(self, field_mfs):
        # the lock holds its points in uint64 columns, not 30 000 tracked
        # tuples that would pile up in the oldest generation: a lock that
        # kept such tuples ran 3 full collections in these five locks
        locking = desk_locking_set(field_mfs, seed=40)
        params = desk_params(seed=40, r=30000)
        full = []

        def count_full(phase, info):
            if phase == "start" and info["generation"] == 2:
                full.append(info)

        gc.collect()
        gc.callbacks.append(count_full)
        try:
            for _ in range(5):
                fuzzy_lock(KEY, locking, field_mfs, params)
        finally:
            gc.callbacks.remove(count_full)
        assert full == []

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
    # most points carry the probes' family
    point_family = st.sampled_from([family] * 12 + families)
    points = []
    for x in xs:
        template = draw(shapes[draw(point_family)])
        y = draw(st.integers(0, MATCH_Q - 1))
        points.append(VaultPoint(template.instantiate(x), template.instantiate(y)))
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
        # the probe's x0 + y0 = 2**61 - 384 rounds to even, 2**61 - 512: its
        # core is 256 from the vault point's x-core 2**60 while the
        # Chebyshev distance is 128, more than one unit beyond delta
        q, big = 2**62, 2.0**60
        wide = FamilyTemplate("trapezoidal", (100.0, 1.0, 1.0))
        x = wide.instantiate(big)
        assert x.params == (big - 128, big, 1.0, 1.0)
        probe = FuzzyNumber.trapezoidal(big - 256, big - 128, 1.0, 1.0)
        assert big - probe.defuzzify() == 256 and distance(x, probe) == 128
        vault = Vault((VaultPoint(x, wide.instantiate(3.0)),), q, 0, 1)
        assert reference_match_points(vault, [probe], 128.0) == [(2**60, 3)]
        assert match_points(vault, [probe], 128.0) == [(2**60, 3)]

    def test_probe_core_beyond_float_range(self):
        # (x0 + y0) / 2 overflows to inf, yet the probe is 1e308 from (0, 0)
        probe = FuzzyNumber.trapezoidal(1e308, 1e308, 1.0, 1.0)
        assert probe.defuzzify() == math.inf
        flat = FamilyTemplate("trapezoidal", (0.0, 1.0, 1.0))
        vault = Vault((VaultPoint(flat.instantiate(0.0), flat.instantiate(3.0)),), 11, 0, 1)
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

    def test_unlocking_set_of_another_field_rejected(self, field_mfs):
        # the elements all lie below 65537, so nothing else stopped this set
        locking = desk_locking_set(field_mfs, seed=13)
        vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=13))
        probe = MultiFuzzySet(70001, locking.subsets, "unlocking")
        with pytest.raises(ValueError, match="disagree on q"):
            fuzzy_unlock(vault, probe, 0, 0.25, len(KEY))

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
        if pad_bits(q, k, key_len) < 0:  # a key no search could find
            with pytest.raises(ValueError, match="capacity exceeded"):
                search_key(matched, q, k, key_len, cap)
            return
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

    @pytest.mark.parametrize("key_len, message", [
        (0, "at least 1 byte"), (-3, "at least 1 byte"),
        (15, "capacity exceeded"), (20, "capacity exceeded"),
    ])
    def test_key_length_no_search_finds_rejected(self, field_mfs, key_len, message):
        # k = 8 chunks of 16 bits hold at most 14 key bytes plus the CRC
        locking = desk_locking_set(field_mfs, seed=41)
        vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=41))
        with pytest.raises(ValueError, match=message):
            fuzzy_unlock(vault, locking, 0, 0.25, key_len)
        for matched in ([], chaff_matches(10, seed=6)):
            with pytest.raises(ValueError, match=message):
                search_key(matched, 65537, 8, key_len)

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


# numbers whose JSON text is easy to get wrong: integral cores in and beyond
# exponent notation, and spreads such as the smallest subnormal and 0.1
CORES = (st.sampled_from([0, 1, 7, 10**16, 10**22, 123456789]) | st.integers(0, 10**6)
         | st.floats(0, 1e22).map(round))
SPREADS = (st.sampled_from([5e-324, 0.1, 0.5, 1.0, 3.0, 1e16, 1e22])
           | st.floats(5e-324, 1e22))
GRADES = st.sampled_from([5e-324, 0.1, 0.5, 1.0]) | st.floats(5e-324, 1.0)


@st.composite
def serialisable_vaults(draw):
    """Vaults of one to eight points of any families, each a template's
    instance at integer cores, with awkward spreads and cores."""
    points = {}
    for _ in range(draw(st.integers(1, 8))):
        template = draw(ANY_TEMPLATE)
        cores = draw(CORES), draw(CORES)
        point = VaultPoint(*(template.instantiate(float(c)) for c in cores))
        if (point.x_core, point.y_core) != cores:  # a plateau too wide for its cores
            continue
        points.setdefault(point.x_core, point)  # x-cores must be distinct
    assume(points)
    q = 1 + max(max(p.x_core, p.y_core) for p in points.values())
    return Vault(tuple(points.values()), q, draw(st.integers(0, len(points) - 1)),
                 len(points))


def reference_fuzzy_number(d: dict) -> FuzzyNumber:
    """``FuzzyNumber.from_dict``, checked by ``reference_validate``."""
    family, params = json_fields(d, "family", "params")
    return FuzzyNumber._trusted(family, reference_validate(family, json_numbers(params)))


def reference_rounds_to(p: float):
    """(low, high, closed): the reals x that round to ``p`` bit for bit, for
    x a sum of an integral core and a signed spread, or None if none does.
    A tie goes to the even significand; an exact zero sum is +0.0, and no
    such sum rounds to -0.0."""
    if p == 0:
        return (Fraction(0), Fraction(math.ulp(0.0)) / 2, True) if str(p) == "0.0" else None
    inward = Fraction(math.ulp(math.nextafter(p, 0.0))) / 2  # half the gap toward zero
    outward = Fraction(math.ulp(p)) / 2
    low, high = (Fraction(p) - inward, Fraction(p) + outward) if p > 0 else (
        Fraction(p) - outward, Fraction(p) + inward)
    return low, high, struct.unpack("<q", struct.pack("<d", p))[0] % 2 == 0


# per family, the parameter that is the core (None for trapezoidal, whose
# core is the rounded plateau midpoint), and per spread the parameters it
# sets, as (index, sign): core + sign * spread, or the spread itself for 0
REFERENCE_SLOTS = {
    "triangular": (1, [[(0, -1)], [(2, 1)]]),
    "trapezoidal": (None, [[(0, -1), (1, 1)], [(2, 0)], [(3, 0)]]),
    "gaussian": (0, [[(1, 0)], [(2, 0)]]),
    "sigmoid": (1, [[(0, -1)], [(2, 1)], [(3, 0)], [(4, 0)]]),
    "crisp": (0, []),
}


def reference_is_instance(family, x_core: int, x: tuple, y_core: int, y: tuple) -> bool:
    """Whether one template of ``family`` gives the parameters ``x`` at the
    integer core ``x_core`` and ``y`` at ``y_core`` bit for bit, worked out
    in exact rationals: per spread, the reals that give every parameter it
    sets, intersected over both points, must hold a float."""
    at, spreads = REFERENCE_SLOTS[family]
    if at is not None and (str(x[at]), str(y[at])) != (str(float(x_core)), str(float(y_core))):
        return False
    for j, slots in enumerate(spreads):
        # (low, low closed, high, high closed); only a plateau may be 0 wide
        low, low_closed, high, high_closed = (0, family == "trapezoidal" and j == 0,
                                              Fraction(2) ** 1100, True)
        for core, params in ((x_core, x), (y_core, y)):
            for k, sign in slots:
                if sign == 0:
                    ends = (Fraction(params[k]), True, Fraction(params[k]), True)
                else:
                    rounds = reference_rounds_to(params[k])
                    if rounds is None:
                        return False
                    a, b, closed = rounds
                    ends = (a - core, closed, b - core, closed) if sign > 0 else (
                        core - b, closed, core - a, closed)
                # the larger low and the smaller high, the open one on a tie
                low, low_open = max((low, not low_closed), (ends[0], not ends[1]))
                low_closed = not low_open
                high, high_closed = min((high, high_closed), (ends[2], ends[3]))
        try:
            s = float(low)
        except OverflowError:
            return False
        if Fraction(s) < low or (Fraction(s) == low and not low_closed):
            s = math.nextafter(s, math.inf)
        if not math.isfinite(s) or Fraction(s) > high or (Fraction(s) == high and not high_closed):
            return False
    return True


# Vault.from_dict as it was before the columns, kept as the oracle: a
# VaultPoint and two FuzzyNumbers per point, checked by the reference
# family rules, then the checks the vault made on them one point at a time,
# and that each point is a template's instance at its integer cores
def reference_vault_from_dict(d: dict) -> Vault:
    (version,) = json_fields(d, "format_version")
    if type(version) is not int or version != 1:
        raise ValueError(f"unsupported vault format: {version!r}")
    points, q, n, r, crc_variant = json_fields(
        d, "points", "q", "n", "r", "crc_variant"
    )
    if type(points) is not list:
        raise ValueError(f"points must be an array, got {type(points).__name__}")
    points = tuple(VaultPoint(*map(reference_fuzzy_number, json_fields(pt, "x", "y")))
                   for pt in points)
    q, n, r = json_int(q), json_int(n), json_int(r)
    if crc_variant != CRC_VARIANT:
        raise ValueError(f"unsupported CRC variant {crc_variant!r}")
    if len(points) != r:
        raise ValueError(f"vault holds {len(points)} points, expected r={r}")
    if not 0 <= n < r:
        raise ValueError(f"polynomial degree n={n} outside [0, r={r})")
    try:
        cores = [round(reference_core(p.x.family, p.x.params)) for p in points]
        y_cores = [round(reference_core(p.y.family, p.y.params)) for p in points]
    except OverflowError:
        raise ValueError("vault cores must be finite") from None
    if len(set(cores)) != len(cores):
        raise ValueError("vault x-cores must be pairwise distinct")
    for axis_cores in (cores, y_cores):
        if not (0 <= min(axis_cores) and max(axis_cores) < q):
            raise ValueError("vault cores must lie in [0, q)")
    for i, (p, x_core, y_core) in enumerate(zip(points, cores, y_cores)):
        if not reference_is_instance(p.x.family, x_core, p.x.params, y_core, p.y.params):
            raise ValueError(f"vault point {i} is no template's instance at integer cores")
    try:
        return Vault(points, q, n, r, crc_variant)
    except ValueError as e:  # a library check stricter than the ones above
        raise AssertionError(f"Vault rejects what the reference accepts: {e}") from e


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
    doc = reference_v1_document(vault)
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
            # an earlier mutation may have put an int beyond the float range here
            row = st.sampled_from([v for v in params if type(v) is float
                                   or (type(v) is int and abs(v) <= 1e308)] or [0.0])
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
    assert reference_v1_json(got) == reference_v1_json(want)
    assert repr(got.points) == repr(want.points)  # repr tells -0.0 from 0.0
    for axis, cores in (("x", got.x_cores), ("y", got.y_cores)):
        coords = [getattr(p, axis) for p in want.points]
        assert cores.tolist() == [round(reference_core(c.family, c.params)) for c in coords]


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
        base = reference_v1_document(Vault((point,), 11, 0, 1))
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
        base = reference_v1_document(Vault(points, 8, 1, 2))
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
        doc = reference_v1_document(Vault((point,), 11, 0, 1))
        doc["points"][0]["x"]["params"][1] = 10**400
        for parse in (Vault.from_dict, reference_vault_from_dict):
            with pytest.raises(ValueError, match="finite"):
                parse(doc)

    def test_load_and_unlock_build_no_point_objects(self, field_mfs, tmp_path,
                                                    monkeypatch):
        locking = desk_locking_set(field_mfs, seed=33)
        params = desk_params(seed=33, r=3000)
        vault, _ = fuzzy_lock(KEY, locking, field_mfs, params)
        # the points the per-point lock builds
        locked = reference_lock_points(encode_key(KEY, FieldParams(field_mfs.q), params.k),
                                       locking, field_mfs, params)
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
    def test_to_json_matches_json_dumps(self, vault):
        # the v1 text of awkward floats reads back bit for bit
        loaded = Vault.from_dict(json.loads(reference_v1_json(vault)))
        assert loaded == vault
        assert repr(loaded.points) == repr(vault.points)  # repr tells -0.0 from 0.0
        text = vault.to_json()
        assert text == json.dumps(vault.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("x, y", [
        (FuzzyNumber.crisp(-0.0), FuzzyNumber.crisp(0.0)),  # a file holds the core as 0
        (TRI.instantiate(100.3), TRI.instantiate(4.0)),  # off its integer core
        (TRI.instantiate(5.0), FamilyTemplate("triangular", (0.5, 2.0)).instantiate(4.0)),
        (FuzzyNumber.triangular(0.0, 0.0, 1.0), TRI.instantiate(4.0)),  # no positive spread
    ], ids=["negative-zero", "off-core", "two-shapes", "zero-spread"])
    def test_point_no_template_rebuilds_refused(self, x, y):
        points = (VaultPoint(TRI.instantiate(2.0), TRI.instantiate(3.0)), VaultPoint(x, y))
        doc = reference_v1_document(SimpleNamespace(q=200, n=0, r=2, crc_variant=CRC_VARIANT,
                                                    points=points))
        for build in (lambda: Vault(points, 200, 0, 2), lambda: Vault.from_dict(doc)):
            with pytest.raises(ValueError, match=r"vault point 1 is no \w+ template's instance"):
                build()
        with pytest.raises(ValueError, match="vault point 1 is no template's instance"):
            reference_vault_from_dict(doc)

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
            Vault.from_dict({"format_version": 3, "points": [], "q": 7, "n": 1, "r": 0})

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
        doc = dict(reference_v1_document(Vault((point,), 11, 0, 1)), **edit)
        with pytest.raises(ValueError):
            Vault.from_dict(doc)

    def test_missing_crc_variant_rejected(self):
        point = VaultPoint(TRI.instantiate(3.0), TRI.instantiate(5.0))
        vault = Vault((point,), 11, 0, 1)
        for doc in (reference_v1_document(vault), vault.to_dict()):
            del doc["crc_variant"]
            with pytest.raises(ValueError):
                Vault.from_dict(doc)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_core_beyond_float_range_rejected(self, axis):
        # (x0 + y0) / 2 overflows to inf, which round() cannot convert
        point = VaultPoint(TRAP.instantiate(3.0), TRAP.instantiate(5.0))
        doc = reference_v1_document(Vault((point,), 11, 0, 1))
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
        assert Vault.from_dict(reference_v1_document(vault)) == vault
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


SMALL_PRIME = 2003
LOST_CORE = re.compile(r"template FamilyTemplate\(family='trapezoidal'.* turns the [xy]-core ")
TEMPLATE_SPREADS = {
    "triangular": st.tuples(SPREADS, SPREADS),
    "trapezoidal": st.tuples(st.just(0.0) | SPREADS, SPREADS, SPREADS),
    "gaussian": st.tuples(SPREADS, SPREADS),
    "sigmoid": st.tuples(SPREADS, SPREADS, GRADES, SPREADS),
    "crisp": st.just(()),
}
ANY_TEMPLATE = st.sampled_from(sorted(TEMPLATE_SPREADS)).flatmap(
    lambda family: TEMPLATE_SPREADS[family].map(lambda p: FamilyTemplate(family, p)))


@st.composite
def lock_cases(draw):
    """Valid lock_polynomial arguments: a field of every family, some
    templates twice, at q = 65537, a small prime or P31."""
    q = draw(st.sampled_from([65537, SMALL_PRIME, P31]))
    templates = [FamilyTemplate(family, draw(spreads))
                 for family, spreads in TEMPLATE_SPREADS.items()]
    templates = draw(st.permutations(templates + draw(st.lists(ANY_TEMPLATE, max_size=3))))
    # lock_polynomial reads only q and the templates of the field
    field = SimpleNamespace(q=q, templates=lambda: list(templates))
    k = draw(st.integers(1, 8))
    t_mfk = draw(st.integers(k, 16))
    extra = draw(st.lists(st.integers(1, 6), max_size=2))
    t = t_mfk + sum(extra)
    r = draw(st.integers(t, min(q, 2000)))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    elements = rnd.sample(range(q), t)
    locking_template = draw(st.sampled_from(templates))
    if draw(st.booleans()):  # equal to a field template, but another object
        locking_template = FamilyTemplate(locking_template.family,
                                          locking_template.spread_params)
    groups = [(elements[:t_mfk], locking_template)]
    start = t_mfk
    for size in extra:
        groups.append((elements[start:start + size], draw(st.sampled_from(templates))))
        start += size
    locking = build_locking_set(field, groups)
    poly = Polynomial(tuple(rnd.randrange(q) for _ in range(k)), q)
    params = LockParams(t=t, k_subset=0, t_mfk=t_mfk, r=r, k=k,
                        rho=draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 2**64 - 1)))
    return poly, locking, field, params


class TestColumnarLock:
    @settings(max_examples=80, deadline=None)
    @given(case=lock_cases())
    def test_matches_reference_lock(self, case):
        # a trapezoidal plateau of half-width 2**53 or more loses cores in
        # (x0 + y0) / 2: the old lock then raised, or stored other cores
        # than it drew, where the lock refuses the template
        drawn = []
        try:
            want, want_transcript = reference_lock_polynomial(*case, drawn)
        except ValueError as e:  # cores that collide after rounding
            with pytest.raises(ValueError) as got:
                lock_polynomial(*case)
            if not LOST_CORE.search(str(got.value)):
                assert str(e) in str(got.value)
            return
        try:
            vault, transcript = lock_polynomial(*case)
        except ValueError as e:
            assert LOST_CORE.search(str(e))
            stored = list(zip(want.x_cores.tolist(), want.y_cores.tolist()))
            assert stored != drawn
            return
        assert list(zip(vault.x_cores.tolist(), vault.y_cores.tolist())) == drawn
        # the same points: want fits its own table to them, which may pick
        # other floats for spreads that no point pins down
        assert reference_v1_json(vault) == reference_v1_json(want)
        assert transcript == want_transcript
        # whatever its templates, a locked vault saves and loads back, and
        # so does one read from its v1 file
        for locked in (vault, want):
            text = locked.to_json()
            loaded = Vault.from_dict(json.loads(text))
            assert loaded == locked
            assert loaded.to_json() == text


# spreads a field may well use, 0.1, 0.3 and 1/3 among them
SIMPLE_SPREADS = (st.sampled_from([0.1, 0.3, 1 / 3, 0.5, 1.0, 2.5])
                  | st.fractions(Fraction(1, 12), 20, max_denominator=12).map(float))


def v2_document(**edits) -> dict:
    """A valid two-point v2 document with ``edits`` applied to its fields."""
    doc = {
        "crc_variant": CRC_VARIANT, "format_version": 2, "n": 1, "q": 11, "r": 2,
        "templates": [TRI.to_dict(), GAU.to_dict()],
        "template_ids": [0, 1], "x_cores": [3, 7], "y_cores": [5, 0],
    }
    return dict(doc, **edits)


class TestFormatV2:
    @pytest.mark.parametrize("r, seeds", [(300, range(50, 54)), (3000, range(60, 62))])
    def test_v1_and_v2_files_load_and_unlock_alike(self, field_mfs, tmp_path, r, seeds):
        for seed in seeds:
            locking = desk_locking_set(field_mfs, seed=seed)
            vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=seed, r=r))
            v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
            v1.write_text(reference_v1_json(vault))
            vault.save(v2)
            from_v1, from_v2 = Vault.load(v1), Vault.load(v2)
            assert from_v1 == from_v2 == vault
            # the table fitted to the v1 points is the one the lock kept
            assert from_v1.to_json() == from_v2.to_json() == v2.read_text()
            assert len(v2.read_bytes()) * 5 < len(v1.read_bytes())
            # the locking subset and a decoy one: key, matches, subsets, cap
            for subset, key in ((0, KEY), (1, None)):
                got = [fuzzy_unlock(v, locking, subset, 0.25, len(KEY))
                       for v in (from_v1, from_v2)]
                assert got[0] == got[1]
                assert got[0].key == key

    @settings(max_examples=200, deadline=None)
    @given(vault=serialisable_vaults() | match_cases().map(itemgetter(0)))
    def test_save_round_trips_or_refuses(self, vault, tmp_path_factory):
        # every vault saves: one whose points no template table expresses
        # cannot be built
        path = tmp_path_factory.mktemp("save") / "vault.json"
        vault.save(path)
        loaded = Vault.load(path)
        assert loaded == vault
        assert repr(loaded.points) == repr(vault.points)  # repr tells -0.0 from 0.0
        assert loaded.to_json() == path.read_text()

    def test_spreads_no_core_offset_holds_exactly(self):
        # c - 0.1 rounds differently at every core, so the spreads read off
        # the parameters differ between points; the floats that rebuild
        # every point of the template share 0.1, the simplest of them
        q = 65537
        tenth = FamilyTemplate("triangular", (0.1, 0.1))
        field = partition_field(q, [q // 2, q - q // 2], [tenth, GAU])
        locking = build_locking_set(field, [(tuple(range(1000, 1012)), tenth)])
        params = LockParams(t=12, k_subset=0, t_mfk=12, r=300, k=8, seed=7)
        vault, _ = fuzzy_lock(KEY, locking, field, params)
        doc = vault.to_dict()
        assert doc["templates"] == [tenth.to_dict(), GAU.to_dict()]
        assert Vault.from_dict(doc) == vault
        assert Vault(vault.points, vault.q, vault.n, vault.r).to_json() == vault.to_json()
        assert Vault.from_dict(reference_v1_document(vault)) == vault

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lock_v1_files_save_as_the_lock_table(self, data):
        # spreads such as 0.1, 0.3 and 1/3 are no exact offsets at most
        # cores, yet the table fitted to a v1 file is the one the lock used
        pair = st.tuples(SIMPLE_SPREADS, SIMPLE_SPREADS)
        omega = st.sampled_from([0.3, 1 / 3, 1.0])
        templates = [
            FamilyTemplate("triangular", data.draw(pair)),
            FamilyTemplate("gaussian", data.draw(pair)),
            FamilyTemplate("sigmoid", (*data.draw(pair), data.draw(omega),
                                       data.draw(SIMPLE_SPREADS))),
            FamilyTemplate("trapezoidal", (data.draw(st.just(0.0) | SIMPLE_SPREADS),
                                           *data.draw(pair))),
        ]
        q = 65537
        field = partition_field(q, [q // 4] * 3 + [q - 3 * (q // 4)], templates)
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        locking = desk_locking_set(field, seed, k_template=data.draw(st.sampled_from(templates)))
        params = desk_params(seed, r=data.draw(st.integers(24, 400), label="r"))
        vault, _ = fuzzy_lock(KEY, locking, field, params)
        loaded = Vault.from_dict(reference_v1_document(vault))
        assert loaded.to_json() == vault.to_json()
        assert loaded == vault

    def test_table_is_canonical(self):
        wide = FamilyTemplate("gaussian", (2.0, 0.5))
        narrow = FamilyTemplate("gaussian", (0.5, 3.0))
        crisp = FamilyTemplate("crisp")
        table = [crisp, wide, TRI, narrow, SIG, FamilyTemplate("gaussian", (2.0, 0.5))]
        doc = v2_document(q=100, n=0, r=6, templates=[t.to_dict() for t in table],
                          template_ids=[0, 1, 2, 3, 4, 5], x_cores=[1, 2, 3, 4, 5, 6],
                          y_cores=[9, 8, 7, 6, 5, 4])
        vault = Vault.from_dict(doc)
        saved = vault.to_dict()
        # families in FAMILIES order, spreads ascending, equal ones merged
        assert saved["templates"] == [t.to_dict() for t in (TRI, narrow, wide, SIG, crisp)]
        assert saved["template_ids"] == [4, 2, 0, 1, 3, 2]
        assert Vault(vault.points, 100, 0, 6).to_dict() == saved

    def test_field_beyond_int64_products_round_trips(self):
        # q = 2**31 + 11: a stand-in field, as a partition would not fit
        field = SimpleNamespace(q=P31, templates=lambda: list(ALL_TEMPLATES))
        elements = range(P31 - 40, P31, 2)
        locking = build_locking_set(field, [(tuple(elements), TRI)])
        params = LockParams(t=20, k_subset=0, t_mfk=20, r=500, k=8, seed=3)
        poly = encode_key(KEY, FieldParams(P31), 8)
        vault, _ = lock_polynomial(poly, locking, field, params)
        loaded = Vault.from_dict(json.loads(vault.to_json()))
        assert loaded == vault
        assert Vault.from_dict(reference_v1_document(vault)) == vault
        results = [fuzzy_unlock(v, locking, 0, 0.25, len(KEY)) for v in (vault, loaded)]
        assert results[0] == results[1] and results[0].key == KEY

    def test_core_above_float_integers(self):
        # float64 holds 2**60 exactly, but not 2**53 + 1
        q, big = 2**62, 2**60
        vault = Vault.from_dict(v2_document(q=q, x_cores=[3, big], y_cores=[big + 2**10, 0]))
        assert vault.x_cores.tolist() == [3, big]
        doc = vault.to_dict()
        assert doc["x_cores"] == [3, big] and doc["y_cores"] == [big + 2**10, 0]
        assert Vault.from_dict(doc) == vault
        with pytest.raises(ValueError, match="float64 holds exactly"):
            Vault.from_dict(v2_document(q=q, x_cores=[3, 2**53 + 1]))

    @pytest.mark.parametrize("edits, message", [
        ({"template_ids": [0, 2]}, "index the table"),
        ({"template_ids": [-1, 0]}, "index the table"),
        ({"template_ids": [0]}, "r=2 integers"),
        ({"x_cores": [3, True]}, "integers only"),
        ({"x_cores": [3, 7.0]}, "integers only"),
        ({"x_cores": [3, 11]}, r"x-cores must lie in \[0, q=11\)"),
        ({"y_cores": [5, -1]}, r"y-cores must lie in \[0, q=11\)"),
        ({"x_cores": [3, 10**400], "q": 10**401}, "float64 holds exactly"),
        ({"x_cores": [3, 3]}, "pairwise distinct"),
        ({"templates": {}}, "templates must be an array"),
        ({"templates": [TRI.to_dict(), {"family": "gaussian", "spreads": [0, 1]}]},
         "strictly positive"),
        ({"x_cores": [3, 2**1023], "q": 2**1024,
          "templates": [TRI.to_dict(), {"family": "triangular", "spreads": [1.0, 2.0**1023]}]},
         "must be finite"),
        ({"templates": [{"family": "trapezoidal", "spreads": [1e16, 1.0, 1.0]},
                        GAU.to_dict()], "x_cores": [3, 7]}, "turns the x-core 3 into "),
        ({"crc_variant": "CRC-32"}, "CRC variant"),
        ({"n": 2}, "outside"),
    ])
    def test_malformed_v2_rejected(self, edits, message):
        with pytest.raises(ValueError, match=message):
            Vault.from_dict(v2_document(**edits))
