import base64
import collections
import copy
import functools
import gc
import hashlib
import itertools
import json
import math
import random
import re
import warnings
from dataclasses import FrozenInstanceError
from operator import itemgetter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

import fuzzyvault.field_poly as field_poly
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
    search_key,
)
from fuzzyvault.field_poly import CRC_VARIANT
from fuzzyvault.vault import LockTranscript, UnlockDiagnostics
from conftest import (
    ALL_TEMPLATES,
    Q_DESK,
    GAU,
    SIG,
    TRAP,
    TRI,
    desk_field,
    desk_locking_set,
    desk_params,
    REFERENCE_ARITY,
    reference_core,
    reference_v1_json,
    reference_v2_document,
    reference_v2_json,
    reference_validate,
    split_field,
    vault_of,
)

KEY = bytes.fromhex("000102030405060708090a0b0c0d")
SMALL_FIELD = desk_field(401)
P31 = 2147483659  # the smallest prime above 2**31, where int64 would overflow


def point_numbers(vault) -> tuple:
    """Each point's (x, y) fuzzy numbers, in vault order: what the oracles
    below build."""
    return tuple((p.x, p.y) for p in vault.points)


def scrambled(n: int, seed: int) -> list:
    """The order in which the lock scrambles n points, for ``seed``."""
    return vault_module._permutation(n, SplitMix64(seed)).tolist()


class TestScramble:
    def test_deterministic(self):
        assert scrambled(50, 9) == scrambled(50, 9)

    def test_multiset_preserved(self):
        assert sorted(scrambled(50, 3)) == list(range(50))

    def test_single_item_unchanged(self):
        assert scrambled(1, 0) == [0]

    def test_destroys_sortedness(self):
        # sorted-prefix statistic stays tiny across seeds
        stuck = 0
        for seed in range(100):
            out = scrambled(20, seed)
            prefix = 0
            while prefix < 19 and out[prefix] < out[prefix + 1]:
                prefix += 1
            if prefix >= 10:
                stuck += 1
        assert stuck == 0

    def test_splitmix_randbelow_in_range(self):
        # the chaff walk's draws past a mark
        outputs = memoryview(SplitMix64(1)._peek(1100))
        _, draws = vault_module._draws_after(outputs, -1, [17] * 1000)
        assert set(draws) == set(range(17))


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


def reference_scramble(items, randbelow) -> list:
    """Fisher-Yates over ``items``, for i from len - 1 down to 1 swapping
    positions i and ``randbelow(i + 1)``."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = randbelow(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def reference_generate_chaff(p, field_mfs, used_x_cores, count, rho,
                             locking_template, randbelow, cores=None):
    """The chaff points, each as its (x, y) fuzzy numbers, drawn by
    ``randbelow(n)``; ``cores``, if given, receives each point's (x, y)
    cores as drawn."""
    q = field_mfs.q
    templates = field_mfs.templates()
    decoys = [t for t in templates if t.family != locking_template.family]
    n_on_poly = int(rho * count)
    used = set(used_x_cores)
    points = []

    def fresh_core() -> int:
        while True:
            u = randbelow(q)
            if u not in used:
                used.add(u)
                return u

    for _ in range(n_on_poly):
        u = fresh_core()
        template = decoys[randbelow(len(decoys))]
        points.append((template.instantiate(float(u)), template.instantiate(float(p.eval(u)))))
        if cores is not None:
            cores.append((u, p.eval(u)))
    for _ in range(count - n_on_poly):
        u = fresh_core()
        v = randbelow(q - 1)
        if v >= p.eval(u):
            v += 1
        template = templates[randbelow(len(templates))]
        points.append((template.instantiate(float(u)), template.instantiate(float(v))))
        if cores is not None:
            cores.append((u, v))
    return points


# lock_polynomial as it was before it built the vault's columns from core
# triples, kept as the oracle for valid inputs: two fuzzy numbers per
# point, scrambled as (point, source index) pairs
def reference_lock_points(p, locking_set, field_mfs, params, cores=None):
    """The scrambled points, each as its (x, y) fuzzy numbers, and the
    transcript of the old lock; ``cores``,
    if given, receives each point's (x, y) cores as drawn, in vault order."""
    subset = locking_set.subsets[params.k_subset]
    template = subset.template
    randbelow = functools.partial(reference_randbelow, reference_splitmix64(params.seed))
    elements = sorted(subset.elements)
    genuine = [(template.instantiate(float(a)), template.instantiate(float(p.eval(a))))
               for a in elements]
    drawn = [(a, p.eval(a)) for a in elements]
    chaff = reference_generate_chaff(p, field_mfs, set(elements), params.r - params.t_mfk,
                                     params.rho, template, randbelow, drawn)
    tagged = reference_scramble([(pt, i) for i, pt in enumerate(genuine + chaff)], randbelow)
    genuine_indices = tuple(at for at, (_, i) in enumerate(tagged) if i < len(genuine))
    transcript = LockTranscript(p, genuine_indices, tuple(elements), template, params.t_mfk,
                                locking_set.subset_count)
    if cores is not None:
        cores.extend(drawn[i] for _, i in tagged)
    return tuple(pt for pt, _ in tagged), transcript


# the digit counts the column writer must get right, up to the largest
# float64 in int64, and 2**63, the first value past it; 2**53 - 1 is the
# largest core a vault holds, so no vault column reaches 2**63
DIGIT_EDGES = [0, 9, 10, 99, 100, 10**15, 2**53 - 1, 2**53, 2**63 - 1024, 2**63]
# the largest value a v3 column holds in w bytes, 2**(8w) - 1, and the
# smallest that takes one more, for widths 1 to 7
WIDTH_EDGES = [2**(8 * w) + d for w in range(1, 8) for d in (-1, 0)][:-1]


RNG_SEEDS = [0, 2**64 - 1, 0x243F6A8885A308D3, 0x13198A2E03707344]
HALF_REJECTED = 2**63 + 29  # a prime: randbelow rejects almost half of all outputs
# the least prime above 2**64 / 2049 but one, below 2**53: randbelow(q) and
# randbelow(q - 1) each reject almost 1 in 2049 outputs, the most a field
# that a vault holds rejects
Q_REJECTS = 9002803354665481
# an output that randbelow rejects under Q_REJECTS, Q_REJECTS - 1 and
# 2**53 - 111, and keeps under the template and decoy bounds 4 and 3
REJECTED_OUTPUT = 2**64 - 2


def count_calls(patch, module, name) -> list:
    """The arguments of every call of ``module.name`` from here on."""
    calls, function = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    patch.setattr(module, name, counted)
    return calls


class CraftedStream(SplitMix64):
    """The outputs of ``SplitMix64(seed)``, but REJECTED_OUTPUT at each
    position in ``rejected``.  ``events`` records each ``_peek`` as
    (position, count)."""

    def __init__(self, seed: int, rejected=()):
        super().__init__(seed)
        self._outputs = {at: REJECTED_OUTPUT for at in rejected}
        self._at = 0
        self.events = []

    def _peek(self, count):
        self.events.append((self._at, count))
        block = super()._peek(count)
        for at, output in self._outputs.items():
            if 0 <= at - self._at < count:
                block[at - self._at] = output
        return block

    def _skip(self, count):
        super()._skip(count)
        self._at += count


class ReferenceStream:
    """The outputs of ``reference_splitmix64(seed)``, but REJECTED_OUTPUT
    at each position in ``rejected``, as CraftedStream gives them, drawn
    one at a time by ``reference_randbelow``.  ``draws`` records each draw
    as (n, the outputs it took)."""

    def __init__(self, seed: int, rejected=()):
        self._outputs = reference_splitmix64(seed)
        self._rejected = set(rejected)
        self._at = 0
        self.draws = []

    def __iter__(self):
        return self

    def __next__(self):
        self._at += 1
        output = next(self._outputs)
        return REJECTED_OUTPUT if self._at - 1 in self._rejected else output

    def randbelow(self, n: int) -> int:
        at = self._at
        value = reference_randbelow(self, n)
        self.draws.append((n, self._at - at))
        return value


def walk_paths(walk: CraftedStream, reference: ReferenceStream, q: int) -> set:
    """Which of the chaff walk's slow paths ran, from the blocks it read
    and the oracle's draws: "rejected core" (a core draw of the oracle took
    more than one output), "skipped draw" (so did a decoy, offset or
    template draw, which the walk steps past in its block) and "redraw" (a
    point ran past a block's end, and the next block starts inside that
    one, at the point's first output)."""
    paths = set()
    if any(n == q and taken > 1 for n, taken in reference.draws):
        paths.add("rejected core")
    if any(n != q and taken > 1 for n, taken in reference.draws):
        paths.add("skipped draw")
    blocks = zip(walk.events, walk.events[1:])
    if any(next_at < at + count for (at, count), (next_at, _) in blocks):
        paths.add("redraw")
    return paths


def assert_chaff_matches_reference(poly, field, used, count, rho, seed, rejected=()):
    """generate_chaff gives the oracle's cores and points, and leaves the
    stream where the oracle's draws leave it; the streams are
    ``CraftedStream(seed, rejected)`` and ``ReferenceStream(seed,
    rejected)``, and returned, the walk's first."""
    rng, ref_rng = CraftedStream(seed, rejected), ReferenceStream(seed, rejected)
    got = generate_chaff(poly, field, used, count, rho, TRI, rng)
    cores = []
    want = reference_generate_chaff(poly, field, used, count, rho, TRI, ref_rng.randbelow,
                                    cores)
    assert got.dtype == np.uint64 and got.shape == (count, 3)
    rows = got.tolist()
    assert [(x, y) for x, y, _ in rows] == cores
    templates = field.templates()
    points = [(templates[t].instantiate(float(x)), templates[t].instantiate(float(y)))
              for x, y, t in rows]
    assert repr(points) == repr(want)  # repr also tells -0.0 from 0.0
    assert int(rng._peek(1)[0]) == next(ref_rng)
    return rng, ref_rng


class TestBatchedLock:
    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_block_stream_matches_reference(self, seed):
        # blocks read one after another, past the length of a chaff block
        rng, ref = SplitMix64(seed), reference_splitmix64(seed)
        for n in (1, vault_module._DRAW_BLOCK, 2 * vault_module._DRAW_BLOCK + 4):
            assert rng._peek(n).tolist() == [next(ref) for _ in range(n)]
            rng._skip(n)
        assert int(rng._peek(1)[0]) == next(ref)

    def test_published_seed_zero_outputs(self):
        assert SplitMix64(0)._peek(3).tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_randbelow_matches_reference(self, seed):
        # the draws the chaff walk steps through: 2**63 + 1 rejects almost
        # half the outputs, and 2**64 none
        bounds = [1, 2, 17, 65537, P31, 2**63 + 1, 2**64] * 500
        outputs, ref = SplitMix64(seed)._peek(8000), reference_splitmix64(seed)
        end, draws = vault_module._draws_after(memoryview(outputs), -1, bounds)
        assert draws == [reference_randbelow(ref, n) for n in bounds]
        assert int(outputs[end + 1]) == next(ref)

    @pytest.mark.parametrize("q", [65537, P31, Q_REJECTS])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_generate_chaff_matches_reference(self, q, rho):
        field = desk_field(q)
        poly = encode_key(bytes(range(12)), FieldParams(q), 8)
        used = set(random.Random(q).sample(range(q), 12))
        walk, reference = assert_chaff_matches_reference(poly, field, used, 2000, rho, q + 1)
        # the stream of seed q + 1 holds core or offset draws that Q_REJECTS rejects
        if q == Q_REJECTS:
            assert walk_paths(walk, reference, q) & {"rejected core", "skipped draw"}

    @pytest.mark.parametrize("block", [2, 7, 2048])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_chaff_filling_the_field_matches_reference(self, monkeypatch, block, rho):
        # most core draws collide, and near the end a redraw runs longer
        # than a block of outputs
        monkeypatch.setattr(vault_module, "_DRAW_BLOCK", block)
        field = desk_field(257)
        poly = Polynomial((5, 17, 3, 200, 1, 256), 257)
        used = set(random.Random(5).sample(range(257), 12))
        walk, _ = assert_chaff_matches_reference(poly, field, used, 257 - len(used), rho, 9)
        # a block holds at most ``block`` points, so the small ones take turns
        assert len(walk.events) > 1 or block == 2048

    @pytest.mark.parametrize("block", [3, 64])
    def test_blocks_ending_in_rejection_runs_match_reference(self, monkeypatch, block):
        # half of the outputs rejected, so small blocks end inside runs of
        # rejected core and offset draws
        monkeypatch.setattr(vault_module, "_DRAW_BLOCK", block)
        field = desk_field(Q_REJECTS)
        poly = encode_key(bytes(range(12)), FieldParams(Q_REJECTS), 8)
        rejected = random.Random(block).sample(range(2000), 1000)
        walk, reference = assert_chaff_matches_reference(poly, field, {5, 6}, 300, 0.3, 17,
                                                         rejected)
        assert walk_paths(walk, reference, Q_REJECTS) == {"rejected core", "skipped draw",
                                                          "redraw"}

    def test_walk_matches_reference(self):
        # the walk's fast steps, its steps past rejected draws and the ends
        # of its blocks, from an empty chaff to a field filled up; a share
        # of the outputs is REJECTED_OUTPUT, which every field here but
        # 257 and 65537 rejects
        paths = set()

        @settings(max_examples=60, deadline=None)
        @given(seed=st.integers(0, 2**64 - 1),
               q=st.sampled_from([257, 401, 65537, P31, Q_REJECTS, 2**53 - 111]),
               rho=st.floats(0, 1), block=st.sampled_from([2, 7, 2048]),
               share=st.sampled_from([0.0, 2**-6, 0.5]), data=st.data())
        def walk_matches(seed, q, rho, block, share, data):
            coefficients = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=8))
            used = data.draw(st.sets(st.integers(0, q - 1), max_size=12))
            count = data.draw(st.integers(0, min(q - len(used), 600)))
            rejected = random.Random(seed).sample(range(4 * count), int(share * 4 * count))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(vault_module, "_DRAW_BLOCK", block)
                walk, reference = assert_chaff_matches_reference(
                    Polynomial(tuple(coefficients), q), desk_field(q), used, count, rho, seed,
                    rejected)
            # a block holds at most ``block`` points, so more take more blocks
            assert len(walk.events) > 1 or count <= block
            paths.update(walk_paths(walk, reference, q))

        walk_matches()
        # the examples ran each slow path of the walk
        assert paths == {"rejected core", "skipped draw", "redraw"}

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_randbelow_each_matches_reference(self, seed):
        # scramble's bulk draws: a rejected output shifts every later draw
        bounds = [1, 2, 3, HALF_REJECTED, 17, 65537, P31, 2**64 - 1, HALF_REJECTED] * 40
        rng, ref = SplitMix64(seed), reference_splitmix64(seed)
        got = vault_module._randbelow_each(rng, np.array(bounds, dtype=np.uint64))
        assert got.tolist() == [reference_randbelow(ref, n) for n in bounds]
        assert int(rng._peek(1)[0]) == next(ref)

    def test_scramble_matches_reference(self):
        # every length up to 64, and lengths around a 16-bit sort key's last
        for n in [*range(65), 2999, 5000, 65535, 65536, 65537]:
            for seed in RNG_SEEDS:
                randbelow = functools.partial(reference_randbelow, reference_splitmix64(seed))
                assert scrambled(n, seed) == reference_scramble(range(n), randbelow)

    def test_bound_beyond_2_64_raises(self):
        # above 2**64 the rejection limit is 0: without the check every
        # output would be rejected, and a walk stepping past them would run
        # to the end of its block
        outputs = memoryview(SplitMix64(1)._peek(8))
        for n in (2**64 + 1, 2**65, 0, -3):
            with pytest.raises(ValueError, match=r"bound must lie in \[1, 2\*\*64\]"):
                vault_module._draws_after(outputs, -1, [n])
        # the chaff of such a field is refused before a draw, as that of
        # every field beyond 2**53
        q = 2**64 + 13  # the smallest prime above 2**64
        field = desk_field(q)
        poly = Polynomial((1, 2, 3), q)
        with pytest.raises(ValueError, match=re.escape(f"q={q} exceeds 2**53")):
            generate_chaff(poly, field, {1}, 5, 0.5, TRI, SplitMix64(1))

    def test_desk_vault_golden_bytes(self, field_mfs):
        # the locked vault is fixed per seed across versions: its v1 and v2
        # texts, written by the oracles, keep the digests the v1 and v2
        # writers gave them, and to_json writes the v3 text
        vault, _ = fuzzy_lock(bytes(range(12)), desk_locking_set(field_mfs, seed=7),
                              field_mfs, desk_params(seed=7))
        text = reference_v1_json(vault).encode()
        assert len(text) == 37521
        assert hashlib.sha256(text).hexdigest() == (
            "f8b7276de8ee6f4b2ecf9edf3a413b38d24e0e826008be2ddfb6bef98d196bb0")
        text = reference_v2_json(vault).encode()
        assert len(text) == 4412
        assert hashlib.sha256(text).hexdigest() == (
            "4dd5e8156d99767ef3adfbf81d74b1d3d2b7c96d7e95021858306bc1aea52a61")
        text = vault.to_json().encode()
        assert len(text) == 3114
        assert hashlib.sha256(text).hexdigest() == (
            "2f757cd4446e10bcc60ec260fc5b4964bfc1ef55872f3aaec6318dd96572a66f")
        # and at r = 10 000, as the benchmark locks, where the chaff takes
        # about 30 000 outputs
        vault, _ = fuzzy_lock(bytes(range(12)), desk_locking_set(field_mfs, seed=7),
                              field_mfs, desk_params(seed=7, r=10_000))
        text = reference_v2_json(vault).encode()
        assert len(text) == 136944
        assert hashlib.sha256(text).hexdigest() == (
            "89e6ccf59eafbffbeeee01c224d1b4f6ec4e28c77401572c2a69fc80368a4e24")
        text = vault.to_json().encode()
        assert len(text) == 93652
        assert hashlib.sha256(text).hexdigest() == (
            "da8a1f42164706032577b61aa7a03046126d539ef6f87fae0b987d789797eebb")
        # and at q = 2**53 - 111, the largest prime a vault holds, where the
        # values on the polynomial take _mulmod's float64 quotient and a
        # v3 core takes 7 bytes
        field = desk_field(2**53 - 111)
        vault, _ = fuzzy_lock(bytes(range(12)), desk_locking_set(field, seed=7),
                              field, desk_params(seed=7))
        text = reference_v2_json(vault).encode()
        assert len(text) == 11037
        assert hashlib.sha256(text).hexdigest() == (
            "2fe61b5c48b5c25ba85acbec5c877fdb180310c13967421e6392ec183e95da06")
        text = vault.to_json().encode()
        assert len(text) == 6325
        assert hashlib.sha256(text).hexdigest() == (
            "284379a73825a9f479436da0b4935974ea6303e29e63df0213ac0b0ce8c0240f")


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
        assert point_numbers(vault) == points
        assert repr(point_numbers(vault)) == repr(points)  # repr tells -0.0 from 0.0

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
        # float64 fuzzy parameters hold every integer only up to 2**53
        field = split_field(q, [TRI, GAU])
        elements = range(q // 2 + 1, q // 2 + 24, 2)
        locking = build_locking_set(field, [(tuple(elements), TRI)])
        poly = Polynomial(tuple(range(1, 9)), q)
        params = LockParams(t=12, k_subset=0, t_mfk=12, r=60, k=8, seed=7)
        monkeypatch.setattr(vault_module, "SplitMix64", None)  # nothing is drawn
        with pytest.raises(ValueError, match=re.escape(f"q={q} exceeds 2**53")) as e:
            lock_polynomial(poly, locking, field, params)
        assert "template" not in str(e.value)

    @pytest.mark.parametrize("q", [2**53 + 1, 2**61 - 1])
    def test_every_entry_refuses_a_field_beyond_2_53(self, q):
        # one bound and one message for every entry that works in F_q, ahead
        # of the primality test, which 2**53 + 1 fails
        field = split_field(q, [TRI, GAU])
        locking = build_locking_set(field, [(tuple(range(1, 25, 2)), TRI)])
        params = LockParams(t=12, k_subset=0, t_mfk=12, r=60, k=8, seed=7)
        entries = [
            lambda: FieldParams(q),
            lambda: encode_key(KEY, FieldParams(q), 8),
            lambda: search_key([(1, 2), (3, 4)], q, 1, 1),
            lambda: generate_chaff(Polynomial((1, 2, 3), q), field, {1}, 5, 0.5, TRI,
                                   SplitMix64(1)),
            lambda: fuzzy_lock(KEY, locking, field, params),
            lambda: vault_of([(TRI, 1, 2), (TRI, 3, 4)], q),
        ]
        for entry in entries:
            with pytest.raises(ValueError, match=re.escape(f"q={q} exceeds 2**53")):
                entry()

    def test_field_at_float_bound_locks(self):
        q = 2**53
        field = split_field(q, [TRI, GAU])
        elements = range(q - 24, q, 2)
        locking = build_locking_set(field, [(tuple(elements), TRI)])
        poly = Polynomial((q - 1, 2**52 + 3, 5), q)
        params = LockParams(t=12, k_subset=0, t_mfk=12, r=60, k=3, seed=7)
        vault, transcript = lock_polynomial(poly, locking, field, params)
        genuine = sorted((int(vault.x_cores[i]), int(vault.y_cores[i]))
                         for i in transcript.genuine_indices)
        assert genuine == [(a, poly.eval(a)) for a in elements]

    @pytest.mark.parametrize("kind", ["locking", "unlocking"])
    def test_field_of_another_kind_rejected(self, field_mfs, kind):
        # a set of another kind need not cover [0, q)
        field = build_locking_set(field_mfs, [(range(41), TRI), (range(41, 82), GAU)], kind)
        with pytest.raises(ValueError, match=f"expected a field partition, got kind='{kind}'"):
            fuzzy_lock(KEY, desk_locking_set(field_mfs, seed=1), field, desk_params(seed=1))

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
        assert repr(point_numbers(vault)) == repr(points)  # repr tells -0.0 from 0.0

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

    def test_unseeded_lock_draws_a_fresh_seed(self, field_mfs, monkeypatch):
        locking = desk_locking_set(field_mfs, seed=35)
        texts = {fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=None))[0].to_json()
                 for _ in range(2)}
        assert len(texts) == 2
        # the seed is 64 bits from the OS source
        monkeypatch.setattr(vault_module.SystemRandom, "getrandbits", lambda self, bits: bits + 5)
        assert (fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=None))[0]
                == fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=69))[0])

    def test_no_small_seed_replays_an_unseeded_lock(self, field_mfs):
        # the replay that opened every vault locked at the old default seed
        # 0: lock the same inputs at each guessed seed and compare the bytes
        locking = desk_locking_set(field_mfs, seed=36)
        poly = encode_key(KEY, FieldParams(field_mfs.q), 8)
        text = lock_polynomial(poly, locking, field_mfs, desk_params(seed=None))[0].to_json()
        for guess in range(1024):
            assert lock_polynomial(poly, locking, field_mfs,
                                   desk_params(seed=guess))[0].to_json() != text


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


# a plateau so wide that a probe's core (x0 + y0) / 2 rounds off its element
WIDE_TRAP = FamilyTemplate("trapezoidal", (1e17, 1.0, 1.0))


@st.composite
def match_cases(draw):
    """A vault of all families on a dense core range, a probe template, its
    cores as a range, a tuple of elements, or floats jittered around the
    vault's cores or around the midpoint of two neighbours, and a
    tolerance.  Probes often share a target, so later ones fall through to
    their second-best point, and a midpoint ties the distances to two
    points of the same shape."""
    families = sorted(MATCH_TEMPLATES)
    family = draw(st.sampled_from(families))
    # the first shape of a family is the common one, so ties are common
    shapes = {f: st.sampled_from(t[:1] * 3 + t[1:]) for f, t in MATCH_TEMPLATES.items()}
    template = draw(shapes[family] | st.just(WIDE_TRAP) if family == TRAP.family
                    else shapes[family])
    xs = sorted(draw(st.lists(st.integers(0, MATCH_Q - 1), min_size=1, max_size=40,
                              unique=True)))
    # most points carry the probes' family
    point_family = st.sampled_from([family] * 12 + families)
    rows = [(draw(shapes[draw(point_family)]), x, draw(st.integers(0, MATCH_Q - 1)))
            for x in xs]
    delta = draw(st.sampled_from([0.01, 0.25, 0.5, 1.0, 3.0, 50.0])
                 | st.floats(0.01, 50.0))
    jitter = (st.just(0.0) | st.sampled_from([0.5, -0.5, delta, -delta])
              | st.floats(-2 * delta, 2 * delta))
    jittered = []
    for _ in range(draw(st.integers(0, 12))):
        i = draw(st.integers(0, len(xs) - 1))
        centre = xs[i] if draw(st.booleans()) else (xs[i] + xs[i - 1]) / 2
        jittered.append(centre + draw(jitter))
    cores = draw(st.just(jittered) | runs(MATCH_Q, st.integers(0, MATCH_Q - 1), MATCH_Q)
                 | st.lists(st.integers(0, MATCH_Q - 1), max_size=40).map(tuple))
    return vault_of(rows, MATCH_Q), template, cores, delta


def fuzzified(template, cores) -> list:
    """The probes of ``cores`` under ``template``, by ascending core."""
    return [template.instantiate(float(c)) for c in sorted(cores)]


def columnar_match_points(vault: Vault, probes: list, delta: float) -> list[tuple[int, int]]:
    """``reference_match_points`` for probes of one family, each probe's
    distances to every vault point of that family taken at once in numpy,
    so that a subset of thousands of elements takes seconds, not hours."""
    family = {p.family for p in probes}
    points = sorted((pt for pt in vault.points if {pt.x.family} == family),
                    key=lambda pt: pt.x_core)
    if not points:
        return []
    params = np.array([pt.x.params for pt in points])
    free = np.ones(len(points), dtype=bool)
    matched = []
    for probe in sorted(probes, key=lambda f: f.defuzzify()):
        dists = np.abs(params - probe.params).max(axis=1)
        near = np.flatnonzero(free & (dists <= delta))
        if len(near):  # argmin takes the first least distance: the smaller x-core
            best = near[np.argmin(dists[near])]
            free[best] = False
            matched.append((points[best].x_core, points[best].y_core))
    return matched


def tri_vault(*cores):
    return vault_of([(TRI, c, 0) for c in cores], 100)


# probe templates of every family, most often the first triangular one
PROBE_TEMPLATES = st.sampled_from(
    [TRI] * 4 + [t for shapes in MATCH_TEMPLATES.values() for t in shapes] + [WIDE_TRAP])


def runs(q, starts, longest):
    """Runs of up to ``longest`` consecutive elements of [0, q) from ``starts``."""
    return st.tuples(starts, st.integers(1, longest)).map(
        lambda run: range(run[0], min(q, run[0] + run[1])))


def probe_subsets(elements):
    """Subsets of the drawn elements, a run held as its range, each with
    one of the ``PROBE_TEMPLATES``."""
    return st.builds(
        lambda chosen, template: SubsetDescriptor(
            chosen if type(chosen) is range else tuple(dict.fromkeys(chosen)), template, 0),
        elements, PROBE_TEMPLATES)


class NoPoints:
    """A vault stand-in that fails the test if matching reads any of it."""

    def __getattr__(self, name):
        raise AssertionError(f"the vault's {name} was read before the arguments were checked")


class TestMatch:
    def test_exact_probes_match_all_genuine(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=7)
        vault, transcript = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=7))
        subset = locking.subset(0)
        matched = match_points(vault, subset.template, subset.elements, 0.25)
        assert sorted(x for x, _ in matched) == list(transcript.genuine_cores)

    def test_wrong_family_matches_nothing(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=8)
        vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=8))
        assert match_points(vault, GAU, locking.subset(0).elements, 0.25) == []

    def test_offset_beyond_delta_unmatched(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=9)
        vault, transcript = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=9))
        cores = [c + 0.3 for c in transcript.genuine_cores]
        assert match_points(vault, TRI, cores, 0.25) == []

    def test_offset_within_delta_matched(self, field_mfs):
        locking = desk_locking_set(field_mfs, seed=10)
        vault, transcript = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=10))
        cores = [c + 0.2 for c in transcript.genuine_cores]
        matched = match_points(vault, TRI, cores, 0.25)
        assert sorted(x for x, _ in matched) == list(transcript.genuine_cores)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, field_mfs, delta):
        # a NaN or infinite tolerance would match across families
        locking = desk_locking_set(field_mfs, seed=15)
        vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=15))
        subset = locking.subset(0)
        with pytest.raises(ValueError, match="delta"):
            match_points(vault, subset.template, subset.elements, delta)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_lock_params_tolerance_must_be_positive_and_finite(self, delta):
        params = desk_params(seed=0, delta=delta)
        with pytest.raises(ValueError, match="delta"):
            params.validate(65537)

    @settings(max_examples=300, deadline=None)
    @given(case=match_cases())
    def test_matches_reference_matching(self, case):
        vault, template, cores, delta = case
        probes = fuzzified(template, cores)
        want = reference_match_points(vault, probes, delta)
        assert match_points(vault, template, cores, delta) == want
        assert columnar_match_points(vault, probes, delta) == want

    def test_contended_point_falls_to_second_best(self):
        vault = tri_vault(13, 11, 10)
        # 10.2 comes first and claims 10; 10.4 then takes 11, at 0.6
        assert match_points(vault, TRI, [10.4, 10.2], 1.0) == [(10, 0), (11, 0)]
        assert reference_match_points(vault, fuzzified(TRI, [10.4, 10.2]), 1.0) == [
            (10, 0), (11, 0)]

    def test_distance_tie_goes_to_smaller_core(self):
        vault = tri_vault(11, 10)
        assert match_points(vault, TRI, [10.5], 1.0) == [(10, 0)]
        assert match_points(vault, TRI, [10.5] * 2, 1.0) == [(10, 0), (11, 0)]

    def test_no_probes_match_nothing(self):
        assert match_points(tri_vault(1, 2, 3), TRI, [], 0.25) == []

    def test_family_absent_from_vault_matches_nothing(self):
        assert match_points(tri_vault(1, 2, 3), GAU, (1, 2, 3), 50.0) == []

    def test_trapezoid_exactly_delta_away_matched(self):
        x = TRAP.instantiate(10.0)
        vault = vault_of([(TRAP, 10, 4)], 100)
        probe = TRAP.instantiate(10.25)
        assert distance(x, probe) == 0.25
        assert match_points(vault, TRAP, [10.25], 0.25) == [(10, 4)]

    @pytest.mark.parametrize("delta", [math.nan, math.inf], ids=["nan", "inf"])
    def test_bad_arguments_rejected_before_indexing(self, delta):
        with pytest.raises(ValueError):
            match_points(NoPoints(), TRI, [1.0], delta)

    def test_window_covers_rounding_at_large_cores(self):
        # the probe's core c = 2**60 + 256 lies 2**60 + 56 from the vault
        # point's x-core 200, but their distance rounds to 2**60, the
        # tolerance: c - (delta + 2) rounds to 256, so a window of delta + 2
        # alone would miss the point
        big = 2.0**60
        flat = FamilyTemplate("trapezoidal", (0.0, 1.0, 1.0))
        probe = FuzzyNumber.trapezoidal(big + 256, big + 256, 1.0, 1.0)
        assert flat.instantiate(big + 256) == probe
        assert distance(flat.instantiate(200.0), probe) == big
        assert probe.defuzzify() - (big + 2.0) > 200
        vault = vault_of([(flat, 200, 3)], 2**53)
        assert reference_match_points(vault, [probe], big) == [(200, 3)]
        assert match_points(vault, flat, [big + 256], big) == [(200, 3)]

    @pytest.mark.parametrize("plateau", [0.0, 0.3, 0.5, 1.5, 2.0, 3.0, 7.7])
    def test_window_holds_every_match_below_2_53(self, plateau):
        # W has no term in the probe's core: the x-cores lie below
        # q <= 2**53, where rounding puts a match at most delta + 7/4 from
        # the probe's core.  Points about 2**52 and 2**53, where the float
        # spacing grows to 1 and to 2, probed on and off that grid, each
        # probe at delta its distance to the one point, all match it; the
        # point 2**52 - 1 of plateau 2.5 lies at distance 0 from the probe
        # of plateau 3 at c = x + 0.5, so a window without the 2 misses it
        probe_t = FamilyTemplate("trapezoidal", (plateau, 1.0, 1.0))
        for top, spread in ((2**52, 2.5), (2**53, 0.0), (2**53, 1.0)):
            vault_t = FamilyTemplate("trapezoidal", (spread, 1.0, 1.0))
            for x in range(top - 4, min(top + 4, 2**53)):
                vault = vault_of([(vault_t, x, 5)], 2**53)
                for c in [x + d / 4 for d in range(-48, 48)] + list(range(2**53, 2**53 + 12)):
                    delta = max(distance(vault_t.instantiate(float(x)),
                                         probe_t.instantiate(float(c))), 2.0**-60)
                    assert match_points(vault, probe_t, [c], delta) == [(x, 5)]

    def test_probe_core_beyond_float_range(self):
        # (x0 + y0) / 2 overflows to inf, yet the probe is 1e308 from (0, 0)
        probe = FuzzyNumber.trapezoidal(1e308, 1e308, 1.0, 1.0)
        assert probe.defuzzify() == math.inf
        flat = FamilyTemplate("trapezoidal", (0.0, 1.0, 1.0))
        assert flat.instantiate(1e308) == probe
        vault = vault_of([(flat, 0, 3)], 11)
        assert reference_match_points(vault, [probe], 1.5e308) == [(0, 3)]
        assert match_points(vault, flat, [1e308], 1.5e308) == [(0, 3)]


class TestUnlock:
    def test_round_trip(self, field_mfs, monkeypatch):
        # the first k of the 12 genuine matches carry the key, so the
        # search decides it without the batched walk, from the basis
        # factors among those k alone
        batches = count_calls(monkeypatch, vault_module, "_constant_terms")
        bases = count_calls(monkeypatch, vault_module, "_basis_at_zero")
        for seed in range(10):
            locking = desk_locking_set(field_mfs, seed=seed)
            vault, _ = fuzzy_lock(KEY, locking, field_mfs, desk_params(seed=seed))
            result = fuzzy_unlock(vault, locking, 0, 0.25, len(KEY))
            assert result.key == KEY
            assert (result.diagnostics.matched, result.diagnostics.subsets_tried) == (12, 1)
        assert batches == []
        assert [len(xs) for xs, _ in bases] == [8] * 10

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

    @settings(max_examples=300, deadline=None)
    @given(case=match_cases(), subset=probe_subsets(
        runs(MATCH_Q, st.integers(0, MATCH_Q - 1), MATCH_Q)
        | st.lists(st.integers(0, MATCH_Q - 1), min_size=1, max_size=40)))
    def test_probes_match_as_the_whole_subset(self, case, subset):
        # a subset's range or tuple matches as all of its elements fuzzified
        vault, _, _, delta = case
        whole = reference_match_points(vault, fuzzified(subset.template, subset.elements), delta)
        assert match_points(vault, subset.template, subset.elements, delta) == whole

    def test_probe_core_rounded_off_its_element_matches(self):
        # under a plateau of half-width 1e17, x0 and y0 round to multiples
        # of 16, so the elements 4 to 7 all have the core 0
        vault = vault_of([(WIDE_TRAP, 0, 0)], MATCH_Q)
        probe_set = build_locking_set(desk_field(MATCH_Q), [(range(4, 8), WIDE_TRAP)], "unlocking")
        assert {p.defuzzify() for p in probe_set.select_subset(0)} == {0.0}
        assert match_points(vault, WIDE_TRAP, probe_set.subset(0).elements, 0.25) == [(0, 0)]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), data=st.data())
    def test_unlock_matches_the_whole_subset(self, field_mfs, seed, data):
        # the genuine elements among others, runs of elements around one of
        # them, or any elements of the field
        key, q = bytes(range(12)), field_mfs.q
        locking = desk_locking_set(field_mfs, seed=seed)
        vault, transcript = fuzzy_lock(key, locking, field_mfs, desk_params(seed=seed, r=3000))
        near = st.tuples(st.sampled_from(transcript.genuine_cores), st.integers(-50, 50)).map(
            lambda at: min(max(at[0] + at[1], 0), q - 1))
        subset = data.draw(probe_subsets(
            st.lists(st.integers(0, q - 1), max_size=20).map(
                lambda extra: transcript.genuine_cores + tuple(extra))
            | runs(q, near, 3000) | st.lists(st.integers(0, q - 1), min_size=1, max_size=40)))
        probe_set = MultiFuzzySet(q, (subset,), "unlocking")
        delta = data.draw(st.sampled_from([0.25, 0.5, 1.0, 3.0]) | st.floats(0.01, 50.0))
        matched = columnar_match_points(vault, probe_set.select_subset(0), delta)
        want = search_key(matched, vault.q, vault.n + 1, len(key), 200)
        assert fuzzy_unlock(vault, probe_set, 0, delta, len(key), 200) == want
        assert match_points(vault, subset.template, subset.elements, delta) == matched


def reference_lagrange(points: list[tuple[int, int]], field: FieldParams) -> Polynomial:
    """The polynomial through ``points``, rebuilding each numerator
    product prod_{k != j} (x - x_k) in O(k**2), so O(k**3) in all."""
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
        candidate = reference_lagrange(list(combo), field)
        material = decode_key(candidate, field, key_len)
        if material is not None:
            return UnlockResult(material.key_bytes, diagnostics)
    return UnlockResult(None, diagnostics)


def outcome(result):
    d = result.diagnostics
    return result.key, d.matched, d.subsets_tried


def pad_bits(q, k, key_len):
    return k * (q.bit_length() - 1) - (8 * key_len + 16)


# fields on both sides of 2**31, where _mulmod leaves the int64 product
# for the float64 quotient, up to the largest prime a vault holds
WALK_FIELDS = [257, 65537, 2**31 - 1, P31, 2**53 - 111]


# (q, k, key_len) with pad < 0, pad = 0, 0 < pad < bits, pad = bits
# (q = 65537 only) and pad > bits, for fields on both sides of 2**31
SEARCH_CASES = [
    *[(65537, 3, n) for n in (5, 4, 3, 2, 1)],
    *[(2**31 - 1, 4, n) for n in (14, 13, 12, 8)],
    *[(P31, 8, n) for n in (30, 29, 28, 24)],
    *[(2**53 - 111, 4, n) for n in (25, 24, 23, 17)],
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
        chaff, genuine = chaff_matches(28, seed=chunk), [(x, poly.eval(x)) for x in (1, 2, 3)]
        matched = chaff + genuine
        got = search_key(matched, q, 3, len(key))
        assert outcome(got) == outcome(reference_search_key(matched, q, 3, len(key)))
        assert outcome(got) == (key, 31, 4495)
        for cap in (4494, 500, 1):
            got = search_key(matched, q, 3, len(key), cap)
            assert (*outcome(got), got.diagnostics.cap_hit) == (None, 31, cap, True)
        # genuine points first: the key is subset 0, at any cap
        for cap in (100_000, 1):
            got = search_key(genuine + chaff, q, 3, len(key), cap)
            assert (*outcome(got), got.diagnostics.cap_hit) == (key, 31, 1, False)

    def test_first_subset_failing_the_crc_is_tried_once(self, monkeypatch):
        # a 14-byte key fills k = 8 coefficients (pad = 0): subset 0, the
        # chaff point and 7 genuine ones, passes the a_0 filter and fails
        # the CRC; the key is the ninth subset, after the C(8, 7) = 8 that
        # hold the chaff point
        q, k = 65537, 8
        poly = encode_key(KEY, FieldParams(q), k)
        matched = chaff_matches(1, seed=5) + [(x, poly.eval(x)) for x in range(1, 9)]
        reject = field_poly.constant_term_mask(len(KEY), FieldParams(q), k)
        firsts = list(itertools.islice(itertools.combinations(matched, k), 9))
        assert reference_a0(firsts[0], q) & reject == 0
        decodes = count_calls(monkeypatch, vault_module, "decode_key")
        got = search_key(matched, q, k, len(KEY))
        assert outcome(got) == outcome(reference_search_key(matched, q, k, len(KEY)))
        assert outcome(got) == (KEY, 9, 9)
        assert len(decodes) == sum(reference_a0(s, q) & reject == 0 for s in firsts)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), q=st.sampled_from(WALK_FIELDS))
    def test_interpolation_matches_reference(self, data, q):
        # x and y beyond q, which both reduce mod q
        n = data.draw(st.integers(1, 14))
        xs = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n, unique=True))
        wraps = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        ys = data.draw(st.lists(st.integers(0, 3 * q), min_size=n, max_size=n))
        points = [(x + wrap * q, y) for x, wrap, y in zip(xs, wraps, ys)]
        field = FieldParams(q)
        assert lagrange_interpolate(points, field) == reference_lagrange(points, field)

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
        # 25 windows of walk tables, of which the memo keeps at most its bound
        memo = field_poly._walk_tables.cache_info()
        assert memo.currsize <= memo.maxsize == field_poly._WALK_MEMO < 25

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

    def test_field_of_a_numpy_integer(self):
        # the search reduces mod FieldParams' q, an int whatever q's type
        chaff = chaff_matches(10, seed=4)
        got = search_key(chaff, np.int64(65537), 8, 12)
        assert outcome(got) == outcome(search_key(chaff, 65537, 8, 12)) == (None, 10, 45)

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


def reference_a0(points, q):
    """The constant term of the polynomial through ``points``, in Python
    ints: sum_j y_j prod_{i != j} x_i / (x_i - x_j)."""
    total = 0
    for j, (xj, yj) in enumerate(points):
        for i, (xi, _) in enumerate(points):
            if i != j:
                yj = yj * xi * pow(xi - xj, -1, q) % q
        total += yj
    return total % q


@st.composite
def walk_points(draw, q):
    """m <= 14 points with distinct x, a coefficient count k <= m and a
    range [start, stop) of at most 300 k-subset positions."""
    m = draw(st.integers(1, 14))
    k = draw(st.integers(1, m))
    start = draw(st.integers(0, math.comb(m, k) - 1))
    stop = draw(st.integers(start + 1, min(start + 300, math.comb(m, k))))
    xs = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m, unique=True))
    ys = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
    return xs, ys, k, start, stop


class TestPrefixWalk:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), q=st.sampled_from(WALK_FIELDS))
    def test_leaves_match_combinations(self, data, q):
        # the window again with fresh points, whose walk tables are the
        # memo's, in either product as WALK_FIELDS crosses 2**31
        xs, ys, k, start, stop = data.draw(walk_points(q))
        m = len(xs)
        want = list(itertools.islice(itertools.combinations(range(m), k), start, stop))
        for _ in range(2):
            w = np.array(field_poly._basis_at_zero(xs, q), dtype=np.int64)
            subsets, a0 = field_poly._constant_terms(w, np.array(ys, dtype=np.int64), q, k,
                                                     start, stop)
            assert list(map(tuple, subsets.T.tolist())) == want
            assert list(map(int, a0.tolist())) == [
                reference_a0([(xs[i], ys[i]) for i in s], q) for s in want]
            with pytest.raises(ValueError, match="read-only"):
                subsets[0, 0] = 0
            xs = data.draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m, unique=True))
            ys = data.draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))

    def test_basis_extends_a_head(self):
        # the first k points' table, extended, is the table of all points
        q = 65537
        xs = [x for x, _ in chaff_matches(16, seed=8)]
        for h in (0, 1, 8, 16):
            head = field_poly._basis_at_zero(xs[:h], q)
            assert field_poly._basis_at_zero(xs, q, head) == field_poly._basis_at_zero(xs, q)

    def test_repeated_search_shape_builds_no_tables(self, monkeypatch):
        # the shape of a rejected probe, 16 chaff matches at cap 2 000:
        # once its window is walked, a search of fresh points of the same
        # shape takes its tables from the memo
        q = 65537
        search_key(chaff_matches(16, seed=10), q, 8, 12, 2000)
        hits = field_poly._walk_tables.cache_info().hits
        unranks = count_calls(monkeypatch, field_poly, "_unrank")
        d = search_key(chaff_matches(16, seed=11), q, 8, 12, 2000).diagnostics
        assert (d.subsets_tried, d.cap_hit) == (2000, True)
        assert unranks == []
        assert field_poly._walk_tables.cache_info().hits == hits + 1

    def test_terms_past_one_int64_sum(self):
        # at q = 2**53 - 111, from 2**63 / q = 1024 terms below q a leaf's
        # sum overflows int64: ys that make each term of the first subset,
        # range(k), q - 1 give it a_0 = k (q - 1) = -k mod q
        q, k = 2**53 - 111, 1030
        xs = random.Random(12).sample(range(1, q), k + 1)
        w = field_poly._basis_at_zero(xs, q)
        # the Lagrange basis polynomial of each point of the subset at 0
        basis = [functools.reduce(lambda acc, row: acc * row[b] % q, w[:k], 1) for b in range(k)]
        ys = [(q - 1) * pow(c, -1, q) % q for c in basis] + [0]
        _, a0 = field_poly._constant_terms(np.array(w, dtype=np.int64),
                                           np.array(ys, dtype=np.int64), q, k, 0, 1)
        assert a0.tolist() == [-k % q]

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), q=st.sampled_from(WALK_FIELDS))
    def test_runs_join_into_the_lexicographic_order(self, chunk, data, q):
        xs, ys, k, _, stop = data.draw(walk_points(q))
        w = np.array(field_poly._basis_at_zero(xs, q), dtype=np.int64)
        runs = [field_poly._constant_terms(w, np.array(ys, dtype=np.int64), q, k,
                                           start, min(start + chunk, stop))
                for start in range(0, stop, chunk)]
        want = list(itertools.islice(itertools.combinations(range(len(xs)), k), stop))
        assert [tuple(s) for subsets, _ in runs for s in subsets.T.tolist()] == want
        assert [int(v) for _, a0 in runs for v in a0.tolist()] == [
            reference_a0([(xs[i], ys[i]) for i in s], q) for s in want]

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), q=st.sampled_from(WALK_FIELDS[1:]), k=st.integers(2, 6))
    def test_chunked_search_matches_reference(self, chunk, data, q, k):
        # q = 257 is too small to bind a key; one key byte fits two elements
        # of the others
        matched = data.draw(matched_sets(q, k, 1))
        cap = data.draw(st.integers(1, 100))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vault_module, "_SUBSET_CHUNK", chunk)
            got = search_key(matched, q, k, 1, cap)
        assert outcome(got) == outcome(reference_search_key(matched, q, k, 1, cap))

    @pytest.mark.parametrize("q", [65537, 2**53 - 111])
    def test_subset_counts_beyond_int64(self, q):
        # C(70, 35) ~ 1.1e20 subsets: the walk's positions are Python ints
        matched = chaff_matches(70, seed=9, q=q)
        got = search_key(matched, q, 35, 12, effort_cap=50)
        assert outcome(got) == outcome(reference_search_key(matched, q, 35, 12, 50))
        assert got.diagnostics.cap_hit

    @pytest.mark.parametrize("q", [2, 65537, 2**31 - 1])
    def test_floor_division_reduction_matches_mod(self, q):
        values = np.array([0, 1, q - 1, (q - 1) ** 2, 2**62 - 1], dtype=np.int64)
        want = [v % q for v in values.tolist()]
        assert (values % q).tolist() == want
        assert field_poly._mod(values.copy(), q).tolist() == want

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), q=st.sampled_from([2**31 - 1, 2**31 + 11, 2**40 + 15, 2**53 - 111]))
    def test_mulmod_matches_python_ints(self, data, q):
        # residues a and b, among them the edges 0, 1, q - 1 and q // 2, and
        # no addend, one addend for all or one each, up to 2**62 - 1
        edges = [0, 1, q - 1, q // 2]
        n = data.draw(st.integers(1, 40))
        a, b = (data.draw(st.lists(st.sampled_from(edges) | st.integers(0, q - 1),
                                   min_size=n, max_size=n)) for _ in range(2))
        addend = st.sampled_from([0, q - 1, 2**62 - 1]) | st.integers(0, 2**62 - 1)
        c = data.draw(st.none() | addend | st.lists(addend, min_size=n, max_size=n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = field_poly._mulmod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), q,
                                     np.array(c, dtype=np.int64) if type(c) is list else c)
        assert got.dtype == np.int64
        cs = c if type(c) is list else [c or 0] * n
        assert got.tolist() == [(x * y + z) % q for x, y, z in zip(a, b, cs)]


# numbers whose JSON text is easy to get wrong: integral cores up to the
# largest a vault holds, 2**53 - 1, and spreads such as the smallest
# subnormal, 0.1 and values in exponent notation
CORES = (st.sampled_from([0, 1, 7, 10**15, 2**53 - 1, 123456789]) | st.integers(0, 10**6)
         | st.integers(0, 2**53 - 1))
SPREADS = (st.sampled_from([5e-324, 0.1, 0.5, 1.0, 3.0, 1e16, 1e22])
           | st.floats(5e-324, 1e22))
GRADES = st.sampled_from([5e-324, 0.1, 0.5, 1.0]) | st.floats(5e-324, 1.0)


@st.composite
def serialisable_vaults(draw):
    """Vaults of one to eight points of any families, each a template's
    instance at integer cores, with awkward spreads and cores."""
    rows = {}
    for _ in range(draw(st.integers(1, 8))):
        template = draw(ANY_TEMPLATE)
        cores = draw(CORES), draw(CORES)
        if any(round(template.instantiate(float(c)).defuzzify()) != c for c in cores):
            continue  # a plateau too wide for its cores
        rows.setdefault(cores[0], (template, *cores))  # x-cores must be distinct
    assume(rows)
    q = 1 + max(max(x, y) for _, x, y in rows.values())
    return vault_of(list(rows.values()), q, draw(st.integers(0, len(rows) - 1)))


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


def reference_template(entry) -> tuple:
    """(family, spreads) of a template table entry, or ValueError: every
    spread finite and positive, but a plateau half-width that may be 0 and
    a sigmoid peak grade (its third spread) at most 1."""
    if type(entry) is not dict or "family" not in entry:
        raise ValueError("a template is an object with a family")
    family, spreads = entry["family"], entry.get("spreads", [])
    if type(family) is not str or family not in REFERENCE_SLOTS:
        raise ValueError(f"unknown family {family!r}")
    if type(spreads) is not list or not all(type(s) in (int, float) for s in spreads):
        raise ValueError("spreads are an array of numbers")
    if len(spreads) != len(REFERENCE_SLOTS[family][1]):
        raise ValueError("wrong spread count")
    try:
        spreads = [float(s) for s in spreads]
    except OverflowError:
        raise ValueError("template spreads must be finite") from None
    if not all(map(math.isfinite, spreads)):
        raise ValueError("template spreads must be finite")
    for j, s in enumerate(spreads):
        if s < 0 or (s == 0 and (family, j) != ("trapezoidal", 0)):
            raise ValueError("template spreads must be positive")
    if family == "sigmoid" and spreads[2] > 1:
        raise ValueError("sigmoid peak grade above 1")
    return family, spreads


def reference_instance(family: str, spreads: list, core: int) -> FuzzyNumber:
    """The template's number at an integer core, or ValueError if a
    parameter is not finite or the number's core does not round to it."""
    at, slots = REFERENCE_SLOTS[family]
    params = [0.0] * REFERENCE_ARITY[family]
    if at is not None:
        params[at] = float(core)
    for s, targets in zip(spreads, slots):
        for k, sign in targets:
            params[k] = s if sign == 0 else float(core) + sign * s
    p = reference_validate(family, params)
    c = reference_core(family, p)
    if not math.isfinite(c) or round(c) != core:
        raise ValueError(f"core {core} comes back as {c}")
    return FuzzyNumber._trusted(family, p)


# Vault.from_dict of a v2 document written out point by point in plain
# Python, kept as the oracle of the reader's checks: the JSON types, the
# template rules, and per point the parameters its template gives at its
# integer cores, which must be finite and round back to them
V2_KEYS = ("crc_variant", "format_version", "n", "q", "r", "templates", "template_ids",
           "x_cores", "y_cores")


def reference_vault_from_v2(d) -> tuple:
    """(q, n, r, points) of a v2 document, or ValueError."""
    if type(d) is not dict or not all(key in d for key in V2_KEYS):
        raise ValueError("not a v2 document")
    if type(d["format_version"]) is not int or d["format_version"] != 2:
        raise ValueError("not format 2")
    q, n, r = d["q"], d["n"], d["r"]
    if not all(type(v) is int for v in (q, n, r)):
        raise ValueError("q, n and r are integers")
    if d["crc_variant"] != CRC_VARIANT or type(d["templates"]) is not list:
        raise ValueError("bad CRC variant or template table")
    table = [reference_template(t) for t in d["templates"]]
    columns = ids, xs, ys = [d[key] for key in ("template_ids", "x_cores", "y_cores")]
    if not all(type(c) is list and len(c) == r and all(type(v) is int for v in c)
               for c in columns):
        raise ValueError("columns are arrays of r integers")
    if not all(0 <= i < len(table) for i in ids):
        raise ValueError("an id outside the table")
    if not 0 <= n < r or len(set(xs)) != r or not all(0 <= v < q for v in xs + ys):
        raise ValueError("bad degree, repeated x-cores or cores outside [0, q)")
    points = tuple(tuple(reference_instance(*table[i], core) for core in (x, y))
                   for i, x, y in zip(ids, xs, ys))
    if q > 2**53:
        raise ValueError("a field beyond 2**53")
    return q, n, r, points


def json_nodes(node, path=()):
    """(path, node) for ``node`` and every node below it."""
    yield path, node
    items = node.items() if type(node) is dict else (
        enumerate(node) if type(node) is list else ())
    for key, child in items:
        yield from json_nodes(child, path + (key,))


# values a mutation puts in place of a node: the edges of the spread rules,
# and JSON values of the wrong type or beyond the float range
EDGES = [-1.0, -5e-324, -0.0, 0, 0.0, 5e-324, 0.5, 1, 1.0, 1.5, 2, 1e308,
         10**400, math.inf, math.nan]
ODD_JSON = [True, False, None, "1", [], {}, [1.0], "triangular"]


def _intact(doc) -> bool:
    """Whether the mutations below still find their targets in ``doc``."""
    return (type(doc.get("templates")) is list and bool(doc["templates"])
            and all(type(t) is dict and type(t.get("spreads")) is list for t in doc["templates"])
            and all(type(doc.get(key)) is list and doc[key]
                    for key in ("template_ids", "x_cores", "y_cores")))


@st.composite
def vault_documents(draw):
    """Parsed v2 documents: a valid vault's, with some integral spreads
    written as JSON ints, and mostly one or two mutations."""
    vault = draw(serialisable_vaults())
    doc = reference_v2_document(vault)
    for template in doc["templates"]:
        spreads = template["spreads"]
        for i, v in enumerate(spreads):
            if v == int(v) and draw(st.booleans()):
                spreads[i] = int(v)
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        where = draw(st.sampled_from(["spread"] * 3 + ["core"] * 2
                                     + ["family", "id", "header", "node"]))
        templates = doc["templates"]
        if where == "spread":
            spreads = draw(st.sampled_from(templates))["spreads"]
            if not spreads:
                continue
            i = draw(st.integers(0, len(spreads) - 1))
            # an earlier mutation may have put an int beyond the float range here
            row = st.sampled_from([v for v in spreads if type(v) is float
                                   or (type(v) is int and abs(v) <= 1e308)] or [0.0])
            spreads[i] = draw(st.one_of(
                st.sampled_from(EDGES), st.sampled_from(ODD_JSON), st.floats(),
                row,  # ties with a neighbour, or the same value as an int
                st.tuples(row, st.sampled_from([-math.inf, math.inf])).map(
                    lambda a: math.nextafter(*a)),
            ))
        elif where == "core":
            column = doc[draw(st.sampled_from(["x_cores", "y_cores"]))]
            top = max(int(vault.x_cores.max()), int(vault.y_cores.max()))
            column[draw(st.integers(0, len(column) - 1))] = draw(st.sampled_from(
                [-1, 0, top, top + 1, vault.q, 2**53 - 1, 2**53, 2**53 + 1, 10**400, 3.0,
                 *ODD_JSON, *doc["x_cores"]]))  # an x-core twice
        elif where == "family":
            template = draw(st.sampled_from(templates))
            template["family"] = draw(st.sampled_from([*MATCH_TEMPLATES, "Crisp", 3]))
            if draw(st.booleans()):  # a spread count that fits the new family
                slots = REFERENCE_SLOTS.get(template["family"], (None, [()]))[1]
                template["spreads"] = (template["spreads"] * 4 + [1.0] * 4)[:len(slots)]
        elif where == "id":
            ids = doc["template_ids"]
            ids[draw(st.integers(0, len(ids) - 1))] = draw(st.sampled_from(
                [-1, 0, len(templates) - 1, len(templates), 2**70, 1.0, True]))
        elif where == "header":
            top = max(int(vault.x_cores.max()), int(vault.y_cores.max()))
            key = draw(st.sampled_from(["q", "n", "r", "format_version", "crc_variant"]))
            doc[key] = draw(st.sampled_from(
                [top, top + 1, vault.r - 1, vault.r, vault.r + 1, -1, 0, 1, 2, 1.0,
                 True, "CRC-16/ARC", "CRC-32", 2**53, 2**53 + 1, 10**400]))
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
        if not _intact(doc):
            break  # later mutations expect the table and the columns intact
    return doc


def assert_parses_like_reference(doc: dict) -> None:
    """Vault.from_dict rejects ``doc`` where the oracle does, and otherwise
    returns the oracle's header, points and cores."""
    try:
        q, n, r, points = reference_vault_from_v2(copy.deepcopy(doc))
    except ValueError:
        with pytest.raises(ValueError):
            Vault.from_dict(doc)
        return
    got = Vault.from_dict(doc)
    assert (got.q, got.n, got.r, got.crc_variant) == (q, n, r, CRC_VARIANT)
    assert repr(point_numbers(got)) == repr(points)  # repr tells -0.0 from 0.0
    assert got.x_cores.tolist() == doc["x_cores"] and got.y_cores.tolist() == doc["y_cores"]


class TestSerialization:
    @settings(max_examples=400, deadline=None)
    @given(doc=vault_documents())
    def test_from_dict_matches_reference_parser(self, doc):
        assert_parses_like_reference(doc)

    @pytest.mark.parametrize("family", sorted(MATCH_TEMPLATES))
    def test_from_dict_matches_reference_at_parameter_edges(self, family):
        # every spread of a one-point vault's template set to each edge of
        # the family's rules: a neighbour's value, one ulp either side of
        # it, signed zeros, subnormals, 1 and values of the wrong type; and
        # each core set to the edges of [0, q) and of the float integers
        template = MATCH_TEMPLATES[family][0]
        base = reference_v2_document(vault_of([(template, 3, 5)], 11))
        spreads = base["templates"][0]["spreads"]
        edges = [-5e-324, -0.0, 0, 5e-324, 1, 1.0, math.nextafter(1.0, 2.0), -1.0,
                 2.5, 3.5, 5.5, 10**400, math.inf, math.nan, True, None, "1"]
        for v in spreads:
            edges += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
        for i, value in itertools.product(range(len(spreads)), edges):
            doc = copy.deepcopy(base)
            doc["templates"][0]["spreads"][i] = value
            assert_parses_like_reference(doc)
        for axis, value in itertools.product(("x_cores", "y_cores"), [
                -1, 0, 10, 11, 2**53 - 1, 2**53, 2**53 + 1, 10**400, 3.0, True, None, "3"]):
            doc = copy.deepcopy(base)
            doc[axis][0] = value
            assert_parses_like_reference(doc)

    def test_from_dict_matches_reference_at_header_edges(self):
        base = reference_v2_document(vault_of([(TRI, 3, 5), (GAU, 7, 0)], 8, 1))
        for key, values in {
            "q": [0, 5, 6, 7, 8, 2**53, 2**53 + 1, 2**64, 10**400, 8.0, True, None],
            "n": [-1, 0, 1, 2, 1.0, False],
            "r": [0, 1, 2, 3, 2.0],
            "format_version": [0, 1, 2, 1.0, True, "1"],
            "crc_variant": [CRC_VARIANT, CRC_VARIANT.lower(), None, 0],
        }.items():
            for value in values:
                assert_parses_like_reference(dict(base, **{key: value}))

    def test_huge_integer_parameter_rejected(self):
        doc = reference_v2_document(vault_of([(GAU, 3, 5)], 11))
        doc["templates"][0]["spreads"][1] = 10**400
        for parse in (Vault.from_dict, reference_vault_from_v2):
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
        text = repr(loaded)
        monkeypatch.undo()
        assert result.key == KEY
        assert text == (f"Vault(q=65537, n=7, r=3000, crc_variant='CRC-16/ARC', "
                        f"templates={loaded.templates!r})")
        probes = locking.subset(0).elements
        # the points match_points may test: same family, x-core within W of
        # a probe's core
        w = 0.25 + 2 + 0.25 * 2**-48
        window = {
            i for i, pt in enumerate(loaded.points)
            if pt.x.family == TRI.family and any(abs(pt.x_core - c) <= w for c in probes)
        }
        assert len(window) < 3 * len(probes)
        assert len(built) <= len(probes) + len(window)
        # the points rebuilt from the columns are the ones the lock made
        for rebuilt in (vault, loaded):
            assert point_numbers(rebuilt) == locked[0]
            assert repr(point_numbers(rebuilt)) == repr(locked[0])

    @settings(max_examples=200, deadline=None)
    @given(vault=serialisable_vaults())
    def test_to_json_matches_json_dumps(self, vault):
        # the v3 text of awkward spreads and cores reads back bit for bit
        text = vault.to_json()
        assert text == json.dumps(vault.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        loaded = Vault.from_dict(json.loads(text))
        assert loaded == vault
        assert repr(point_numbers(loaded)) == repr(point_numbers(vault))  # tells -0.0 from 0.0

    # a template id indexes a table of at most r templates, so its edges
    # stop at 256, the first id that takes two bytes; each edge sits in the
    # first row, and, where a vault holds it, in the last, whose value is
    # read up to the column's end
    @pytest.mark.parametrize("column, value, last", [
        pytest.param(column, value, last, id=f"{column}-{value}{'-last' * last}")
        for column in vault_module._COLUMNS for value in DIGIT_EDGES + WIDTH_EDGES
        for last in (False, True)
        if (value <= 256 or column != "template_ids") and (not last or value < 2**53)
    ])
    def test_to_json_digit_edges(self, column, value, last):
        # each column holds the edge value among smaller values, and the
        # column's bound, q or the table's length, is one past its largest
        # value: the v3 column gives every value the bytes that bound - 1
        # takes, little-endian; a core of 2**53 or more needs a field that
        # no vault holds, and a core of 2**63 a column that int64 does not
        # hold
        if column == "template_ids":
            templates = [FamilyTemplate("triangular", (1.0, 1.0 + i)) for i in range(value + 1)]
            ids = np.arange(value + 1, dtype=np.intp)[::1 if last else -1].copy()
            x_cores = np.arange(value + 1, dtype=np.int64)
            y_cores = x_cores[::-1].copy()
        else:
            templates, ids = [TRI], np.zeros(4, dtype=np.intp)
            cores = np.array([value, 1, 12345, 0 if value else 2][::-1 if last else 1],
                             dtype=np.uint64 if value >= 2**63 else np.int64)
            x_cores, y_cores = (cores, np.full(4, 7, dtype=np.int64)) if column == "x_cores" else (
                np.arange(4, dtype=np.int64), cores)
        q = int(max(x_cores.max(), y_cores.max())) + 1
        if value >= 2**63:
            with pytest.raises(ValueError, match=re.escape(
                    f"vault {column} must be a column of integers that int64 holds, got uint64")):
                Vault(x_cores, y_cores, ids, templates, q, 0)
            return
        if q > 2**53:
            with pytest.raises(ValueError, match=re.escape(f"field size q={q} exceeds 2**53")):
                Vault(x_cores, y_cores, ids, templates, q, 0)
            return
        vault = Vault(x_cores, y_cores, ids, templates, q, 0)
        text = vault.to_json()
        assert text == json.dumps(vault.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        bound = len(templates) if column == "template_ids" else q
        width = max(1, ((bound - 1).bit_length() + 7) // 8)
        assert base64.b64decode(json.loads(text)[column]) == b"".join(
            v.to_bytes(width, "little") for v in getattr(vault, column).tolist())
        assert Vault.from_json(text) == vault

    # a v2 column of JSON integers reads back exact at every digit edge
    # that int64 holds, and the same values as JSON floats are refused
    @pytest.mark.parametrize("dtype, value", [
        *[(np.intp, value) for value in DIGIT_EDGES if value < 2**63],
        *[(np.float64, value) for value in DIGIT_EDGES if value < 2**63],
    ])
    def test_json_ints_digit_edges(self, dtype, value):
        column = np.array([value, 0, 9, value, 10], dtype=dtype).tolist()
        if dtype is np.float64:
            with pytest.raises(ValueError, match="x_cores must hold integers only"):
                vault_module._int_column(column, 5, "x_cores")
            return
        got = vault_module._int_column(column, 5, "x_cores")
        assert got.dtype == np.int64 and got.tolist() == [value, 0, 9, value, 10]

    @pytest.mark.parametrize("q, xs", [
        (65537, np.array([3, 65537])),
        (65537, np.array([-1, 3])),
        (P31, np.array([3, P31], dtype=object)),
        (P31, np.array([-1, 3], dtype=object)),
    ], ids=["int64-q", "int64-negative", "object-q", "object-negative"])
    def test_eval_all_refuses_points_outside_the_field(self, q, xs):
        with pytest.raises(ValueError, match=re.escape(f"evaluation points must lie in [0, {q})")):
            field_poly._eval_all(Polynomial((1, 2, 3), q), xs)

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

    def test_bad_format_version(self, field_mfs):
        for version in (0, 4, 2.0, True, "2", "3"):
            with pytest.raises(ValueError, match="unsupported vault format"):
                Vault.from_dict(v2_document(format_version=version))
        # the v1 text of a locked vault, one object per coordinate
        vault, _ = fuzzy_lock(KEY, desk_locking_set(field_mfs, seed=7), field_mfs,
                              desk_params(seed=7))
        with pytest.raises(ValueError, match="vault format 1 is no longer read: lock the key"):
            Vault.from_dict(json.loads(reference_v1_json(vault)))

    @pytest.mark.parametrize("edit", [
        {"format_version": True},
        {"q": "11"},
        {"r": 1.0},
        {"n": 2},
        {"n": -1},
        {"crc_variant": "CRC-16/XMODEM"},
        {"x_cores": {}},
    ])
    def test_from_dict_rejects_malformed(self, edit):
        with pytest.raises(ValueError):
            Vault.from_dict(v2_document(**edit))

    def test_missing_crc_variant_rejected(self):
        doc = v2_document()
        del doc["crc_variant"]
        with pytest.raises(ValueError, match="missing key 'crc_variant'"):
            Vault.from_dict(doc)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_core_beyond_float_range_rejected(self, axis):
        # a core of 1e308 under a plateau of half-width 2**52 would give a
        # plateau midpoint (x0 + y0) / 2 of inf; int64 does not hold such a
        # core, so the reader refuses its column before any template sees it
        big = int(1e308)
        wide = FamilyTemplate("trapezoidal", (2.0**52, 1.0, 1.0))
        doc = v2_document(q=2**1024, templates=[wide.to_dict(), GAU.to_dict()],
                          **{f"{axis}_cores": [big, 7 if axis == "x" else 0]})
        with pytest.raises(ValueError, match=re.escape(
                f"{axis}_cores must hold integers that int64 holds")):
            Vault.from_dict(doc)

    def test_core_an_ulp_off_its_integer_loads(self):
        # for this plateau half-width (x0 + y0) / 2 misses the core 7 by an
        # ulp; the core check rounds it first, so the vault loads
        trap = FamilyTemplate("trapezoidal", (9.128388452964652, 1.0, 1.0))
        vault = vault_of([(trap, 7, 3)], 11)
        assert vault.points[0].x.defuzzify() != 7.0
        assert Vault.from_dict(vault.to_dict()) == vault


def assert_numbers_keep_cores(vault) -> None:
    """Every point's fuzzy numbers defuzzify back to its integer cores."""
    for p in vault.points:
        assert (round(p.x.defuzzify()), round(p.y.defuzzify())) == (p.x_core, p.y_core)


class TestVaultPoint:
    def test_duplicate_cores_rejected(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            vault_of([(TRI, 1, 2), (TRI, 1, 3)], 7, 1)

    def test_point_is_its_template_at_its_cores(self):
        vault = vault_of([(TRAP, 10, 4), (GAU, 3, 5)], 11, 1)
        assert vault.points == (VaultPoint(TRAP, 10, 4), VaultPoint(GAU, 3, 5))
        assert [type(c) for p in vault.points for c in (p.x_core, p.y_core)] == [int] * 4
        assert (vault.points[0].x, vault.points[0].y) == (TRAP.instantiate(10.0),
                                                          TRAP.instantiate(4.0))

    # a point's cores are the vault's columns, not derived from its numbers:
    # the core check is what keeps them equal
    @settings(max_examples=200, deadline=None)
    @given(vault=serialisable_vaults(), doc=vault_documents())
    def test_numbers_defuzzify_to_cores(self, vault, doc):
        assert_numbers_keep_cores(vault)
        try:
            loaded = Vault.from_dict(doc)
        except ValueError:
            return
        assert_numbers_keep_cores(loaded)

    @pytest.mark.parametrize("plateau", [0.5, 0.1, 2.0**-60, 2.0**52, 1e16])
    def test_numbers_defuzzify_to_cores_at_the_largest_field(self, plateau):
        # near 2**53 the core check tests a trapezoidal plateau midpoint point
        # by point: the lock keeps every core or refuses the template
        trap = FamilyTemplate("trapezoidal", (plateau, 1.0, 1.0))
        field = split_field(2**53 - 111, [TRI, GAU, SIG, trap])
        assert not vault_module._keeps_cores(trap, 2.0**53)
        try:
            vault, _ = fuzzy_lock(bytes(range(12)), desk_locking_set(field, 7, k_template=trap),
                                  field, desk_params(seed=7))
        except ValueError as e:
            assert LOST_CORE.search(str(e)) and plateau >= 2**52
            return
        assert_numbers_keep_cores(vault)


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
    field = split_field(q, templates)
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
        # (x0 + y0) / 2: the old lock then stored other cores than it drew,
        # where the lock refuses the template
        drawn = []
        points, want_transcript = reference_lock_points(*case, drawn)
        try:
            vault, transcript = lock_polynomial(*case)
        except ValueError as e:
            assert LOST_CORE.search(str(e))
            assert [(round(x.defuzzify()), round(y.defuzzify())) for x, y in points] != drawn
            return
        assert list(zip(vault.x_cores.tolist(), vault.y_cores.tolist())) == drawn
        assert repr(point_numbers(vault)) == repr(points)  # repr tells -0.0 from 0.0
        assert transcript == want_transcript
        # whatever its templates, a locked vault saves and loads back
        text = vault.to_json()
        loaded = Vault.from_dict(json.loads(text))
        assert loaded == vault
        assert loaded.to_json() == text


def v2_document(**edits) -> dict:
    """A valid two-point v2 document with ``edits`` applied to its fields."""
    doc = {
        "crc_variant": CRC_VARIANT, "format_version": 2, "n": 1, "q": 11, "r": 2,
        "templates": [TRI.to_dict(), GAU.to_dict()],
        "template_ids": [0, 1], "x_cores": [3, 7], "y_cores": [5, 0],
    }
    return dict(doc, **edits)


# cores a vault holds, many of them just below 2**53, the largest field
EXACT_CORES = st.integers(0, 2**53 - 1) | st.integers(2**53 - 4096, 2**53 - 1)
# integers beyond 2**53 that float64 holds exactly, many of them next to
# 2**53 and 2**63, where the spacing of floats grows to 2 and 2048
BEYOND_CORES = st.one_of(
    st.integers(2**53, 2**66),
    st.sampled_from([2**53, 2**63]).flatmap(lambda edge: st.integers(edge, edge + 4096)),
).map(lambda v: int(float(v)))


# templates for tables of up to 14, whose template ids then reach two digits
TABLE_TEMPLATES = st.sampled_from(ALL_TEMPLATES + [FamilyTemplate("crisp")]) | st.builds(
    lambda left, right: FamilyTemplate("triangular", (left, right)),
    st.integers(1, 4).map(float), st.integers(1, 4).map(float))


@st.composite
def v2_documents(draw) -> dict:
    """Valid v2 documents: a canonical table of templates that every point
    uses, pairwise distinct x-cores and cores in [0, q), q at most 2**53.
    Tables of up to 14 templates and, in some documents, cores below 10
    give columns of one digit per field and columns of longer fields, and
    v3 cores of every width."""
    one_digit = draw(st.booleans())
    size = draw(st.integers(1, 10 if one_digit else 14))
    table = draw(st.lists(TABLE_TEMPLATES, min_size=size, max_size=size, unique=True))
    table.sort(key=lambda t: (vault_module.FAMILIES.index(t.family), t.spread_params))
    cores = st.integers(0, 9) if one_digit else EXACT_CORES
    x_cores = draw(st.lists(cores, min_size=len(table), max_size=40, unique=True))
    r = len(x_cores)
    y_cores = draw(st.lists(cores, min_size=r, max_size=r))
    spare = draw(st.lists(st.integers(0, len(table) - 1), min_size=r - len(table),
                          max_size=r - len(table)))
    return {
        "crc_variant": CRC_VARIANT, "format_version": 2, "n": draw(st.integers(0, r - 1)),
        "q": draw(st.integers(max(x_cores + y_cores) + 1, 2**53)), "r": r,
        "templates": [t.to_dict() for t in table],
        "template_ids": draw(st.permutations(list(range(len(table))) + spare)),
        "x_cores": x_cores, "y_cores": y_cores,
    }


def reference_check_cores(table, template_ids, x_cores, y_cores) -> None:
    """The core check as it ran a template at a time: each template in
    table order, its x-cores and then its y-cores, one point at a time,
    raising at the first point it fails.  A derived core is compared with
    the core as a float64, as numpy compares a float64 with an int64."""
    for t, template in enumerate(table):
        members = np.flatnonzero(template_ids == t)
        for axis, cores in (("x", x_cores[members]), ("y", y_cores[members])):
            for core in cores.tolist():
                derived = float(np.rint(reference_core(template.family,
                                                       template.instantiate(core).params)))
                if derived != float(core):
                    raise ValueError(f"template {template} turns the {axis}-core "
                                     f"{core} into {derived}")


# templates with spreads near the float range, whose parameters stay
# finite at every int64 core, and some that lose an integer core:
# trapezoidal plateaus on the grid of ulp(c + plateau) below 2**52 (0, 0.5),
# off it (0.1, and 2**-60 unless every core is 0) or so wide that the grid
# reaches 1, or 2 and more (2**52, 1e16)
CHECKED_TEMPLATES = ALL_TEMPLATES + [
    FamilyTemplate("crisp"),
    FamilyTemplate("triangular", (3.0, 2.0**1023)),
    FamilyTemplate("triangular", (1e300, 0.25)),
    FamilyTemplate("gaussian", (2.0**1023, 1.0)),
    FamilyTemplate("trapezoidal", (0.0, 1.0, 1.0)),
    FamilyTemplate("trapezoidal", (0.1, 1.0, 1.0)),
    FamilyTemplate("trapezoidal", (2.0**-60, 1.0, 1.0)),
    FamilyTemplate("trapezoidal", (2.0**52, 1.0, 1.0)),
    FamilyTemplate("trapezoidal", (1e16, 1.0, 1.0)),
    FamilyTemplate("trapezoidal", (2.0**53, 2.0, 1.0)),
    FamilyTemplate("sigmoid", (2.0**1023, 1.0, 0.9, 4.0)),
    FamilyTemplate("sigmoid", (1.0, 1e308, 1.0, 4.0)),
]

# cores that are not integers: 2**52 + 0.5 rounds to 2**52, and 2**52 - 0.5
# is the largest float that is not an integer
FRACTIONAL_CORES = [2.5, 2.0**52 - 0.5]

# int64 cores about 2**52 and 2**53, where ulp(c + 0.5) reaches 1 and then
# 2, and 2**60, far past every field a vault holds
EDGE_CORES = [2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53, 2**60]


@st.composite
def core_checks(draw) -> tuple:
    """A canonical table, per point a template id and two int64 cores,
    small ones or some at the edges of ``_keeps_cores``: about 2**52 and
    2**53, and 2**60."""
    table = draw(st.lists(st.sampled_from(CHECKED_TEMPLATES), min_size=1, unique=True))
    table.sort(key=lambda t: (vault_module.FAMILIES.index(t.family), t.spread_params))
    r = draw(st.integers(len(table), len(table) + 8))
    ids = draw(st.permutations(list(range(len(table)))
                               + draw(st.lists(st.integers(0, len(table) - 1),
                                               min_size=r - len(table), max_size=r - len(table)))))
    cores = st.integers(0, 40) | st.sampled_from(EDGE_CORES)
    x, y = (draw(st.lists(cores, min_size=r, max_size=r)) for _ in "xy")
    return table, np.array(ids, dtype=np.intp), np.array(x, dtype=np.int64), np.array(
        y, dtype=np.int64)


class TestFormatV2:
    @settings(max_examples=200, deadline=None)
    @given(vault=serialisable_vaults() | match_cases().map(itemgetter(0)))
    def test_save_round_trips_or_refuses(self, vault, tmp_path_factory):
        # every vault saves: one whose points no template table expresses
        # cannot be built
        path = tmp_path_factory.mktemp("save") / "vault.json"
        vault.save(path)
        loaded = Vault.load(path)
        assert loaded == vault
        assert repr(point_numbers(loaded)) == repr(point_numbers(vault))  # tells -0.0 from 0.0
        assert loaded.to_json() == path.read_text()

    def test_spreads_no_core_offset_holds_exactly(self):
        # c - 0.1 rounds differently at every core, so the parameters give
        # no spread back exactly; the vault keeps the field's template
        q = 65537
        tenth = FamilyTemplate("triangular", (0.1, 0.1))
        field = partition_field(q, [q // 2, q - q // 2], [tenth, GAU])
        locking = build_locking_set(field, [(tuple(range(1000, 1012)), tenth)])
        params = LockParams(t=12, k_subset=0, t_mfk=12, r=300, k=8, seed=7)
        vault, _ = fuzzy_lock(KEY, locking, field, params)
        doc = vault.to_dict()
        assert doc["templates"] == [tenth.to_dict(), GAU.to_dict()]
        assert Vault.from_dict(doc) == vault

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
        assert vault.template_ids.tolist() == [4, 2, 0, 1, 3, 2]
        assert vault_of(list(zip(table, range(1, 7), range(9, 3, -1))), 100).to_dict() == saved

    def test_field_beyond_int64_products_round_trips(self):
        field = desk_field(P31)
        elements = range(P31 - 40, P31, 2)
        locking = build_locking_set(field, [(tuple(elements), TRI)])
        params = LockParams(t=20, k_subset=0, t_mfk=20, r=500, k=8, seed=3)
        poly = encode_key(KEY, FieldParams(P31), 8)
        vault, _ = lock_polynomial(poly, locking, field, params)
        loaded = Vault.from_dict(json.loads(vault.to_json()))
        assert loaded == vault
        results = [fuzzy_unlock(v, locking, 0, 0.25, len(KEY)) for v in (vault, loaded)]
        assert results[0] == results[1] and results[0].key == KEY

    def test_core_above_float_integers(self):
        # float64 holds every integer up to 2**53, the largest field
        top = 2**53 - 1
        vault = Vault.from_dict(v2_document(q=2**53, x_cores=[3, top], y_cores=[top - 1, 0]))
        assert vault.x_cores.tolist() == [3, top]
        doc = reference_v2_document(vault)
        assert doc["x_cores"] == [3, top] and doc["y_cores"] == [top - 1, 0]
        assert Vault.from_dict(doc) == vault == Vault.from_json(vault.to_json())
        # int64 holds 2**53 + 1 and 2**53 + 2, which no field that a vault
        # holds reaches: the field-size check, last, refuses both
        with pytest.raises(ValueError, match=re.escape("q=4611686018427387904 exceeds 2**53")):
            Vault.from_dict(v2_document(q=2**62, x_cores=[3, 2**53 + 1]))
        with pytest.raises(ValueError, match=re.escape("q=4611686018427387904 exceeds 2**53")):
            Vault.from_dict(v2_document(q=2**62, x_cores=[3, 2**53 + 2]))

    def test_field_beyond_float_cores_refused(self, field_mfs):
        # float64 fuzzy parameters cannot hold every element of such a field, which
        # no lock writes
        vault, _ = fuzzy_lock(bytes(range(12)), desk_locking_set(field_mfs, seed=7),
                              field_mfs, desk_params(seed=7))
        for q, doc in itertools.product((2**53 + 1, 2**61 - 1, 2**65),
                                        (vault.to_dict(), reference_v2_document(vault))):
            with pytest.raises(ValueError, match=re.escape(f"field size q={q} exceeds 2**53")):
                Vault.from_dict(dict(doc, q=q))
        # int64 does not hold 2**63 or 2**64 + 4096: the reader refuses the
        # column by its name, ahead of the field
        cores = [2**63, 2**64 + 4096]
        with pytest.raises(ValueError, match=re.escape(
                "x_cores must hold integers that int64 holds")):
            Vault.from_dict(v2_document(q=2**65, x_cores=cores, y_cores=cores[::-1]))
        assert Vault.from_dict(dict(reference_v2_document(vault), q=2**53)).q == 2**53

    @settings(max_examples=150, deadline=None)
    @given(doc=v2_documents(), data=st.data())
    def test_v2_documents_round_trip(self, doc, data):
        assert reference_v2_document(Vault.from_dict(doc)) == doc
        # one past a float core beyond 2**53, in a field that holds it: the
        # field-size check refuses the field, and the reader a core past int64
        big = data.draw(BEYOND_CORES, label="big")
        axis = data.draw(st.sampled_from(["x_cores", "y_cores"]), label="axis")
        cores = list(doc[axis])
        cores[data.draw(st.integers(0, doc["r"] - 1), label="i")] = big + 1
        q = max(doc["q"], big + 2)
        message = (f"{axis} must hold integers that int64 holds" if big + 1 >= 2**63
                   else f"field size q={q} exceeds 2**53")
        with pytest.raises(ValueError, match=re.escape(message)):
            Vault.from_dict(dict(doc, q=q, **{axis: cores}))

    @settings(max_examples=150, deadline=None)
    @given(doc=v2_documents())
    def test_v2_documents_read_back_from_v3(self, doc):
        vault = Vault.from_dict(doc)
        assert Vault.from_json(vault.to_json()) == vault

    @pytest.mark.parametrize("column", vault_module._COLUMNS)
    @pytest.mark.parametrize("value", [2**53 - 1, 2**53, 2**63, 10**20])
    def test_canonical_columns_past_2_53_read_as_json(self, column, value):
        # v2 text as the v2 writer wrote it, a column holding a value at or
        # past 2**53: int64 refuses one past its range by the column's name,
        # and the vault refuses every template id past its table, every
        # core of q or more and, last, a field past 2**53; a core of
        # 2**53 - 1 loads in a field that holds it
        for q in (11, 2**53, value + 1):
            doc = v2_document(q=q)
            doc[column] = [doc[column][0], value]
            text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            if value >= 2**63:
                message = f"{column} must hold integers that int64 holds"
            elif column == "template_ids":
                message = "template ids must index the table of 2 templates"
            elif value >= q:
                message = f"vault {column[0]}-cores must lie in [0, q={q})"
            elif q > 2**53:
                message = f"field size q={q} exceeds 2**53"
            else:
                assert getattr(Vault.from_json(text), column).tolist() == doc[column]
                continue
            with pytest.raises(ValueError, match=re.escape(message)):
                Vault.from_json(text)

    @pytest.mark.parametrize("edits, message", [
        ({"template_ids": [0, 2]}, "index the table"),
        ({"template_ids": [-1, 0]}, "index the table"),
        ({"template_ids": [0]}, "r=2 integers"),
        ({"x_cores": [3, True]}, "integers only"),
        ({"x_cores": [3, 7.0]}, "integers only"),
        ({"x_cores": [3, 11]}, r"x-cores must lie in \[0, q=11\)"),
        ({"y_cores": [5, -1]}, r"y-cores must lie in \[0, q=11\)"),
        ({"x_cores": [3, 10**400], "q": 10**401}, "x_cores must hold integers that int64 holds"),
        ({"x_cores": [3, 3]}, "pairwise distinct"),
        ({"templates": {}}, "templates must be an array"),
        ({"templates": [TRI.to_dict(), {"family": "gaussian", "spreads": [0, 1]}]},
         "strictly positive"),
        ({"x_cores": [3, 2**1023], "q": 2**1024,
          "templates": [TRI.to_dict(), {"family": "triangular", "spreads": [1.0, 2.0**1023]}]},
         "x_cores must hold integers that int64 holds"),
        ({"templates": [{"family": "trapezoidal", "spreads": [1e16, 1.0, 1.0]},
                        GAU.to_dict()], "x_cores": [3, 7]}, "turns the x-core 3 into "),
        ({"crc_variant": "CRC-32"}, "CRC variant"),
        ({"n": 2}, "outside"),
        ({"template_ids": [0, 2**70]}, "template_ids must hold integers that int64 holds"),
        ({"q": 2**61 - 1}, re.escape("field size q=2305843009213693951 exceeds 2**53")),
    ])
    def test_malformed_v2_rejected(self, edits, message):
        with pytest.raises(ValueError, match=message):
            Vault.from_dict(v2_document(**edits))

    @settings(max_examples=300, deadline=None)
    @given(case=core_checks())
    def test_core_check_fails_as_a_template_at_a_time(self, case):
        errors = []
        for check in (vault_module._check_cores, reference_check_cores):
            try:
                check(*case)
                errors.append(None)
            except ValueError as e:
                errors.append(str(e))
        assert errors[0] == errors[1]

    def test_core_check_runs_once_per_family(self, monkeypatch):
        # plateaus off the grid of ulp(c + plateau), so each template is
        # checked point by point, all in one pass that instantiates none;
        # the gaussian one holds its cores as parameters and is not checked
        asked = count_calls(monkeypatch, vault_module, "_keeps_cores")
        monkeypatch.setattr(FamilyTemplate, "instantiate", None)
        spreads = [{"family": "trapezoidal", "spreads": [0.1 + i / 16, 1.0, 1.0]}
                   for i in range(300)]
        doc = v2_document(r=301, templates=[GAU.to_dict()] + spreads,
                          template_ids=list(range(301)), x_cores=list(range(301)),
                          y_cores=[7 * i % 401 for i in range(301)], q=401)
        assert len(Vault.from_dict(doc).templates) == 301
        assert [template.family for template, _ in asked] == ["trapezoidal"] * 300

    def test_desk_load_instantiates_no_core(self, field_mfs, tmp_path, monkeypatch):
        # the desk's triangular and gaussian templates hold each core as a
        # parameter, and _keeps_cores clears its trapezoidal one, so loading
        # the vault checks no point and builds none
        vault, _ = fuzzy_lock(bytes(range(12)), desk_locking_set(field_mfs, seed=1), field_mfs,
                              desk_params(seed=1, r=10_000))
        path = tmp_path / "vault.json"
        vault.save(path)
        keeps = vault_module._keeps_cores
        asked = count_calls(monkeypatch, vault_module, "_keeps_cores")
        monkeypatch.setattr(FamilyTemplate, "instantiate", None)
        assert Vault.load(path) == vault
        assert [template.family for template, _ in asked] == ["trapezoidal"]
        assert keeps(*asked[0])

    @pytest.mark.parametrize("core", FRACTIONAL_CORES)
    def test_fractional_core_refused(self, core):
        # the constructor takes integer columns: a float64 one, which could
        # hold a core that is not an integer, is refused by its name
        x_cores, y_cores = np.array([3.0, core]), np.array([1, 2])
        for axis, (x, y) in (("x", (x_cores, y_cores)), ("y", (y_cores, x_cores))):
            with pytest.raises(ValueError, match=re.escape(
                    f"vault {axis}_cores must be a column of integers that int64 holds, "
                    f"got float64 of shape (2,)")):
                Vault(x, y, np.array([0, 0], dtype=np.intp), [TRI], 2**53, 0)

    @pytest.mark.parametrize("column, values, message", [
        ("x_cores", np.array([3.0, 7.0]), "vault x_cores must be a column of integers that "
                                          "int64 holds, got float64 of shape (2,)"),
        ("y_cores", np.array([True, False]), "vault y_cores must be a column of integers that "
                                             "int64 holds, got bool of shape (2,)"),
        ("x_cores", np.array(["3", "7"]), "got <U1 of shape (2,)"),
        ("y_cores", np.array([5, 0], dtype=object), "got object of shape (2,)"),
        ("x_cores", np.array([3, 2**63], dtype=np.uint64), "got uint64 of shape (2,)"),
        ("x_cores", np.array([[3, 7]]), "got int64 of shape (1, 2)"),
        ("template_ids", np.array([0.0, 1.0]), "vault template_ids must be a column of "
                                               "integers that int64 holds, got float64"),
        ("y_cores", np.array([5]), "vault columns must be of one length, got 2 x-cores, "
                                   "1 y-cores and 2 template ids"),
        ("template_ids", np.array([0, 1, 1]), "vault columns must be of one length, got 2 "
                                              "x-cores, 2 y-cores and 3 template ids"),
        ("template_ids", np.array([0, 2]), "template ids must index the table of 2 templates"),
        ("template_ids", np.array([-1, 0]), "template ids must index the table of 2 templates"),
    ], ids=["float-cores", "bool-cores", "string-cores", "object-cores", "uint64-cores",
            "2d-cores", "float-ids", "short-cores", "long-ids", "id-past-table", "id-negative"])
    def test_constructor_refuses_columns_it_cannot_hold(self, column, values, message):
        columns = {"x_cores": np.array([3, 7]), "y_cores": np.array([5, 0]),
                   "template_ids": np.array([0, 1]), column: values}
        with pytest.raises(ValueError, match=re.escape(message)):
            Vault(**columns, templates=[TRI, GAU], q=11, n=1)

    def test_constructor_keeps_int64_cores_and_intp_ids(self):
        # whatever integer type its caller holds them in
        vault = Vault(np.array([3, 7], dtype=np.uint32), np.array([5, 0], dtype=np.int8),
                      np.array([1, 0], dtype=np.uint8), [TRI, GAU], 11, 1)
        assert [c.dtype for c in (vault.x_cores, vault.y_cores, vault.template_ids)] == [
            np.dtype(np.int64), np.dtype(np.int64), np.dtype(np.intp)]
        assert not any(c.flags.writeable
                       for c in (vault.x_cores, vault.y_cores, vault.template_ids))
        assert vault == vault_of([(GAU, 3, 5), (TRI, 7, 0)], 11, 1)

    @settings(max_examples=300, deadline=None)
    @given(template=st.sampled_from(CHECKED_TEMPLATES) | st.builds(
               lambda plateau: FamilyTemplate("trapezoidal", (plateau, 1.0, 1.0)),
               st.floats(0, 2.0**60) | st.sampled_from([0.5, 0.1, 2.0**-60, 2.0**52, 1e16])),
           cmax=st.integers(0, 2**54) | st.sampled_from(EDGE_CORES), data=st.data())
    def test_cleared_templates_keep_every_core(self, template, cmax, data):
        # a template the core check skips, of a family other than
        # trapezoidal or with a plateau that _keeps_cores clears, passes the
        # point-by-point check at every int64 core up to cmax
        assume(template.family != "trapezoidal"
               or vault_module._keeps_cores(template, float(cmax)))
        cores = [cmax, data.draw(st.integers(0, cmax), label="core")]
        reference_check_cores([template], np.zeros(2, dtype=np.intp),
                              np.array(cores, dtype=np.int64),
                              np.array(cores[::-1], dtype=np.int64))


def v3_document(**edits) -> dict:
    """``v2_document()`` 's vault as a v3 document, with ``edits`` applied."""
    return dict(Vault.from_dict(v2_document()).to_dict(), **edits)


def b64(*values, width=1) -> str:
    """A v3 column of ``values``, each ``width`` bytes wide."""
    return base64.b64encode(b"".join(v.to_bytes(width, "little") for v in values)).decode()


class TestFormatV3:
    @pytest.mark.parametrize("edits, message", [
        ({"x_cores": [3, 7]}, "x_cores must be a base64 string, got list"),
        ({"y_cores": None}, "y_cores must be a base64 string, got NoneType"),
        ({"x_cores": "Awc"}, "x_cores is not base64: Incorrect padding"),
        ({"x_cores": "A!c="}, "x_cores is not base64"),
        ({"y_cores": "BQA=\n"}, "y_cores is not base64"),
        ({"template_ids": b64(0)}, "template_ids must hold r=2 values of 1 bytes, got 1 bytes"),
        ({"x_cores": b64(3, 7, 1)}, "x_cores must hold r=2 values of 1 bytes, got 3 bytes"),
        # the header's q sets the width: 257 takes 2 bytes per core
        ({"q": 257}, "x_cores must hold r=2 values of 2 bytes, got 2 bytes"),
        ({"x_cores": b64(3, 11)}, "vault x-cores must lie in [0, q=11)"),
        ({"y_cores": b64(5, 255)}, "vault y-cores must lie in [0, q=11)"),
        ({"template_ids": b64(0, 2)}, "template ids must index the table of 2 templates"),
        ({"x_cores": b64(3, 3)}, "vault x-cores must be pairwise distinct"),
        ({"q": 2**53 + 1}, "field size q=9007199254740993 exceeds 2**53"),
        ({"q": 10**400}, "exceeds 2**53"),
        ({"q": -5}, "vault x-cores must lie in [0, q=-5)"),
        ({"format_version": 4}, "unsupported vault format: 4"),
        # r comes from the file: the column's length is checked before
        # an array of r values is allocated
        ({"r": 2**40}, "template_ids must hold r=1099511627776 values of 1 bytes, got 2 bytes"),
        ({"r": -1}, "template_ids must hold r=-1 values"),
    ], ids=["cores-list", "cores-null", "unpadded", "bad-character", "newline", "ids-short",
            "cores-long", "width-of-q", "core-q", "core-past-q", "id-past-table", "x-repeated",
            "q-past-2-53", "q-huge", "q-negative", "format-4", "r-2e40", "r-negative"])
    def test_malformed_v3_rejected(self, edits, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Vault.from_dict(v3_document(**edits))


def lock_case(**edits):
    """The desk lock of a 12-byte key at r = 300, as lock_polynomial's
    arguments, each of them replaced where ``edits`` names it."""
    field = desk_field()
    case = {"p": encode_key(bytes(range(12)), FieldParams(field.q), 8),
            "locking_set": desk_locking_set(field, seed=3), "field_mfs": field,
            "params": desk_params(seed=3)}
    return {**case, **edits}


class TestRefusals:
    @pytest.mark.parametrize("edits, message", [
        ({"locking_set": MultiFuzzySet(Q_DESK, desk_locking_set(desk_field(), seed=3).subsets,
                                       "unlocking")},
         "expected a locking set, got kind='unlocking'"),
        ({"locking_set": build_locking_set(SMALL_FIELD, [(tuple(range(12)), TRI)])},
         "locking set and field partition disagree on q"),
        ({"params": desk_params(seed=3, t=25)}, "locking set holds 24 elements, params.t = 25"),
        ({"params": LockParams(t=24, k_subset=3, t_mfk=12, r=300, k=8, seed=3)},
         "locking subset index 3 out of range"),
        ({"params": desk_params(seed=3, t_mfk=11)},
         "locking subset holds 12 elements, params.t_mfk = 11"),
        ({"p": Polynomial(tuple(range(7)), Q_DESK)}, "polynomial length disagrees with params.k"),
    ], ids=["unlocking-set", "other-q", "t", "subset-index", "t-mfk", "poly-length"])
    def test_lock_polynomial_refuses(self, edits, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            lock_polynomial(**lock_case(**edits))

    def test_fuzzy_unlock_refuses_a_field_partition(self):
        vault, _ = lock_polynomial(**lock_case())
        message = "expected an unlocking set, got kind='field'"
        with pytest.raises(ValueError, match=re.escape(message)):
            fuzzy_unlock(vault, desk_field(), 0, 0.25, 12)

    @pytest.mark.parametrize("k", [0, -1])
    def test_search_key_refuses_k_below_1(self, k):
        with pytest.raises(ValueError, match="coefficient count must be at least 1"):
            search_key([(1, 2), (3, 4)], Q_DESK, k, 12)

    @pytest.mark.parametrize("rho", [-0.1, 1.5, math.nan])
    def test_lock_params_refuse_rho_outside_unit(self, rho):
        with pytest.raises(ValueError, match=re.escape(f"rho must lie in [0, 1], got {rho}")):
            desk_params(seed=3, rho=rho).validate(Q_DESK)

    @pytest.mark.parametrize("change, message", [
        (lambda vault: setattr(vault, "q", 7), "cannot assign to field 'q'"),
        (lambda vault: setattr(vault, "extra", 1), "cannot assign to field 'extra'"),
        (lambda vault: delattr(vault, "x_cores"), "cannot delete field 'x_cores'"),
    ], ids=["assign", "add", "delete"])
    def test_vault_is_frozen(self, change, message):
        vault, _ = lock_polynomial(**lock_case())
        with pytest.raises(FrozenInstanceError, match=re.escape(message)):
            change(vault)
        assert vault == Vault.from_json(vault.to_json())

    def test_equal_vaults_hash_equal(self):
        vault, _ = lock_polynomial(**lock_case())
        other, _ = lock_polynomial(**lock_case(params=desk_params(seed=4)))
        assert hash(vault) == hash(Vault.from_json(vault.to_json()))
        assert len({vault, Vault.from_json(vault.to_json()), other}) == 2
