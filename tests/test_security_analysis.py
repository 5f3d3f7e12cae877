import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fuzzyvault import (
    ScenarioParams,
    attacker_success_prob,
    attacker_success_prob_product_form,
    conditional_membership_prob,
    empirical_spurious_census,
    family_spurious_log2,
    fuzzy_lock,
    scenario_report,
    spurious_polynomials_log2,
)
from fuzzyvault.security_analysis import (
    family_spurious_exact,
    log2_fraction,
    spurious_polynomials_exact,
)
from conftest import GAU, TRI, desk_params
from fuzzyvault import LockParams, build_locking_set, partition_field
from fuzzyvault.vault import FAMILIES


def small_params(**overrides):
    base = dict(q=7, k=1, r=3, t=1, t_mfj=1, m_a=1, m_f=1, n=0)
    base.update(overrides)
    return ScenarioParams(**base)


class TestSpuriousCount:
    def test_small_exact_value(self):
        p = small_params()
        assert spurious_polynomials_exact(p) == Fraction(108, 7)
        assert spurious_polynomials_log2(p) == pytest.approx(
            math.log2(108 / 7), abs=1e-12
        )

    def test_degenerate_reduces_to_qk(self):
        p = ScenarioParams(q=11, k=4, r=4, t=4, t_mfj=4, m_a=2, m_f=3, n=3)
        assert spurious_polynomials_log2(p) == pytest.approx(4 * math.log2(11))

    def test_full_membership_zero_count(self):
        p = ScenarioParams(q=7, k=1, r=3, t=1, t_mfj=1, m_a=7, m_f=7, n=0)
        assert spurious_polynomials_log2(p) == -math.inf

    def test_log_gamma_vs_exact_random_tuples(self):
        rnd = random.Random(17)
        for _ in range(1000):
            q = rnd.randrange(5, 200)
            r = rnd.randrange(2, min(q, 60) + 1)
            t_mfj = rnd.randrange(1, r + 1)
            t = rnd.randrange(t_mfj, r + 1)
            k = rnd.randrange(1, 20)
            m_a = rnd.randrange(1, q)
            p = ScenarioParams(q=q, k=k, r=r, t=t, t_mfj=t_mfj,
                               m_a=m_a, m_f=m_a, n=max(k - 1, 0))
            exact = spurious_polynomials_exact(p)
            assert spurious_polynomials_log2(p) == pytest.approx(
                log2_fraction(exact), abs=1e-9
            )

    def test_monotone_in_k(self):
        for m_a in (1, 3):
            prev = None
            for k in range(1, 12):
                p = ScenarioParams(q=101, k=k, r=30, t=10, t_mfj=6,
                                   m_a=m_a, m_f=4 if m_a == 3 else 1, n=k - 1)
                val = spurious_polynomials_log2(p)
                if prev is not None:
                    if m_a > 1:
                        assert val > prev
                    else:
                        assert val >= prev - 1e-9
                prev = val


class TestConditionalProb:
    def test_half(self):
        assert conditional_membership_prob(10, 5) == Fraction(1, 2)

    def test_full(self):
        assert conditional_membership_prob(9, 9) == 1

    def test_degenerate(self):
        assert conditional_membership_prob(1, 1) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            conditional_membership_prob(5, 6)

    def test_scenario_refuses_more_locking_families_than_field_elements(self):
        # as conditional_membership_prob does: the count took log2 of 1 - m_a / q
        with pytest.raises(ValueError, match="need m_a <= q, got m_a=9, q=7"):
            small_params(m_a=9, m_f=9)
        assert small_params(m_a=7, m_f=9).m_a == 7


class TestFamilyBound:
    def test_unit_binomial_ratio(self):
        p = ScenarioParams(q=9, k=4, r=9, t=4, t_mfj=4, m_a=2, m_f=2, n=3,
                           mu=0.5, family_cardinality=1)
        # r = q makes the binomial ratio C(r,t)/C(q,t) equal 1
        expected = math.log2(0.5) + spurious_polynomials_log2(p) \
            - math.log2(math.comb(9, 4))
        assert family_spurious_log2(p) == pytest.approx(expected)
        assert math.comb(p.r, p.t_mfj) == math.comb(p.q, p.t_mfj)

    def test_small_case_matches_plain_count(self):
        # with r = q the binomial ratio is 1, leaving mu * base / C(q, t)
        p = ScenarioParams(q=7, k=1, r=7, t=1, t_mfj=1, m_a=1, m_f=1, n=0,
                           mu=0.5, family_cardinality=1)
        assert family_spurious_log2(p) == pytest.approx(
            math.log2(0.5) + spurious_polynomials_log2(p) - math.log2(7)
        )

    def test_mu_half_costs_one_bit(self):
        hi = ScenarioParams(q=101, k=5, r=30, t=10, t_mfj=6, m_a=2, m_f=3,
                            n=4, mu=0.8)
        lo = ScenarioParams(q=101, k=5, r=30, t=10, t_mfj=6, m_a=2, m_f=3,
                            n=4, mu=0.4)
        assert family_spurious_log2(hi) - family_spurious_log2(lo) == pytest.approx(1.0)

    def test_log_gamma_vs_exact(self):
        rnd = random.Random(23)
        for _ in range(300):
            q = rnd.randrange(5, 120)
            r = rnd.randrange(2, min(q, 40) + 1)
            t_mfj = rnd.randrange(1, r + 1)
            p = ScenarioParams(q=q, k=rnd.randrange(1, 12), r=r,
                               t=t_mfj, t_mfj=t_mfj,
                               m_a=rnd.randrange(1, q), m_f=q, n=0,
                               mu=0.5, family_cardinality=rnd.randrange(1, 4))
            assert family_spurious_log2(p) == pytest.approx(
                log2_fraction(family_spurious_exact(p)), abs=1e-9
            )


class TestAttackerProb:
    def test_certainty(self):
        p = ScenarioParams(q=100, k=5, r=10, t=10, t_mfj=10, m_a=4, m_f=4, n=3)
        assert attacker_success_prob(p) == 1.0

    def test_empty_product(self):
        p = ScenarioParams(q=100, k=5, r=10, t=10, t_mfj=5, m_a=2, m_f=4, n=0)
        assert attacker_success_prob(p) == 1.0

    def test_small_closed_form(self):
        p = ScenarioParams(q=1000, k=3, r=100, t=10, t_mfj=10, m_a=5, m_f=10, n=2)
        assert attacker_success_prob(p) == pytest.approx(0.0025)

    def test_bounds_and_monotone_in_n(self):
        vals = []
        for n in range(6):
            p = ScenarioParams(q=1000, k=3, r=100, t=10, t_mfj=10,
                               m_a=5, m_f=10, n=n)
            v = attacker_success_prob(p)
            assert 0.0 <= v <= 1.0
            vals.append(v)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_product_form_exponent(self):
        p = ScenarioParams(q=1000, k=3, r=100, t=10, t_mfj=10, m_a=5, m_f=10, n=3)
        base = 0.5 * 0.1
        assert attacker_success_prob_product_form(p) == pytest.approx(base ** 3)
        assert attacker_success_prob(p) == pytest.approx(base ** 3)
        p4 = ScenarioParams(q=1000, k=3, r=100, t=10, t_mfj=10, m_a=5, m_f=10, n=4)
        assert attacker_success_prob_product_form(p4) == pytest.approx(base ** 6)


class TestScenarioReport:
    def test_preset_one_claims(self):
        rep = scenario_report("movie-k16-t20")
        assert rep.reported_claims == {
            "classical_log2_count": 106,
            "classical_security_bits": 53,
            "fuzzy_log2_count": 249,
            "fuzzy_security_bits": 125,
        }
        assert rep.discrepancy_flag

    def test_preset_two_claims(self):
        rep = scenario_report("movie-k18-t22")
        assert rep.reported_claims["fuzzy_log2_count"] == 276
        assert rep.reported_claims["fuzzy_security_bits"] == 138

    def test_explicit_params_match_preset(self):
        from fuzzyvault.security_analysis import PRESETS

        params, _ = PRESETS["movie-k16-t20"]
        explicit = scenario_report(params)
        preset = scenario_report("movie-k16-t20")
        assert explicit.log2_spurious == preset.log2_spurious
        assert explicit.log2_family_bound == preset.log2_family_bound
        assert explicit.reported_claims is None

    def test_stable_across_runs(self):
        a = scenario_report("movie-k16-t20")
        b = scenario_report("movie-k16-t20")
        assert a.log2_spurious == b.log2_spurious
        assert a.log2_family_bound == b.log2_family_bound

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            scenario_report("movie-k99")


def census_vault(seed, q=97, k_lock=3, r=30, t_mfj=6, rho=0.2):
    field = partition_field(q, [q // 2, q - q // 2], [TRI, GAU])
    rnd = random.Random(seed)
    elems = rnd.sample(range(q), t_mfj)
    locking = build_locking_set(field, [(tuple(elems), TRI)])
    from fuzzyvault import Polynomial, lock_polynomial

    coeffs = tuple(rnd.randrange(q) for _ in range(k_lock))
    poly = Polynomial(coeffs, q)
    params = LockParams(t=t_mfj, k_subset=0, t_mfk=t_mfj, r=r, k=k_lock,
                        rho=rho, seed=seed)
    return lock_polynomial(poly, locking, field, params)


# empirical_spurious_census's counter as it was before the last coefficient
# was vectorised, kept as the oracle: one bincount per choice of every
# higher coefficient
def reference_census_count(xs_sel, ys_sel, q, k, target):
    if len(xs_sel) < target:
        return 0
    total = 0
    powers = []
    acc_pow = np.mod(xs_sel, q)
    for _ in range(1, k):
        powers.append(acc_pow)
        acc_pow = np.mod(acc_pow * xs_sel, q)

    def recurse(j, acc):
        nonlocal total
        if j == len(powers):
            counts = np.bincount(np.mod(ys_sel - acc, q), minlength=q)
            total += int(np.count_nonzero(counts == target))
            return
        for b in range(q):
            recurse(j + 1, acc + b * powers[j])

    recurse(0, np.zeros(len(xs_sel), dtype=np.int64))
    return total


def reference_census(vault, transcript, k):
    """(family_blind, family_aware) as the recursive counter finds them."""
    xs = vault.x_cores.astype(np.int64)
    ys = vault.y_cores.astype(np.int64)
    aware = vault.family_ids == FAMILIES.index(transcript.locking_family.family)
    return tuple(reference_census_count(x, y, vault.q, k, transcript.t_mfk)
                 for x, y in ((xs, ys), (xs[aware], ys[aware])))


class TestCensus:
    @pytest.mark.parametrize("seed, q, k_lock, k, r, t_mfj, rho", [
        (0, 97, 3, 3, 30, 6, 0.2),
        (1, 97, 3, 3, 30, 6, 0.0),
        (2, 31, 1, 1, 31, 2, 0.5),
        (3, 31, 2, 2, 31, 4, 1.0),
        (4, 53, 2, 3, 25, 2, 0.2),
        (5, 17, 3, 4, 17, 5, 0.3),
        (6, 11, 1, 4, 11, 1, 0.0),
    ])
    def test_matches_recursive_counter(self, seed, q, k_lock, k, r, t_mfj, rho):
        vault, transcript = census_vault(seed, q=q, k_lock=k_lock, r=r, t_mfj=t_mfj, rho=rho)
        res = empirical_spurious_census(vault, transcript, k)
        assert (res.family_blind, res.family_aware) == reference_census(vault, transcript, k)

    def test_genuine_only_vault_unique_polynomial(self):
        vault, transcript = census_vault(0, q=97, k_lock=3, r=6, t_mfj=6, rho=0.0)
        res = empirical_spurious_census(vault, transcript, 3)
        assert res.family_blind == 1
        assert res.family_aware == 1

    def test_underdetermined_no_chaff(self):
        # census degree bound k above t_mfj: q^(k - t_mfj) polynomials pass
        # through the genuine points (agreement on exactly t_mfj = r points)
        q, k, t = 31, 3, 2
        vault, transcript = census_vault(1, q=q, k_lock=t, r=t, t_mfj=t, rho=0.0)
        res = empirical_spurious_census(vault, transcript, k)
        assert res.family_blind == q ** (k - t)

    def test_reproducible_per_seed(self):
        for seed in (2, 3):
            a = empirical_spurious_census(*census_vault(seed), 3)
            b = empirical_spurious_census(*census_vault(seed), 3)
            assert (a.family_blind, a.family_aware) == (b.family_blind, b.family_aware)

    def test_reports_model_expectation(self):
        vault, transcript = census_vault(4)
        res = empirical_spurious_census(vault, transcript, 3)
        assert math.isfinite(res.log2_model_expectation)
        # no equality asserted between census and model, by design
        assert res.family_blind >= 0

    def test_infeasible_scale_rejected(self):
        vault, transcript = census_vault(5)
        with pytest.raises(ValueError):
            empirical_spurious_census(vault, transcript, 9)
