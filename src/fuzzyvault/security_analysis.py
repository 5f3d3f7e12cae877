"""Spurious-polynomial counting and attacker-success formulas, evaluated in
the log2 domain, plus scenario presets and a tiny-field empirical census.

Reports compute counts by a log-gamma path that never overflows; the
``*_exact`` functions give the same counts as exact rationals, against
which the log2 path can be checked where magnitudes stay small.  The
published scenario exponents are carried along as *reported claims*,
never as oracle values: when the computed counts disagree by more than one
bit the report raises its discrepancy flag instead of normalizing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .field_poly import _check_field_size
from .vault import FAMILIES, LockTranscript, Vault


def _log2_int(n: int) -> float:
    """log2 of a positive integer of arbitrary size."""
    if n <= 0:
        raise ValueError("log2 of a non-positive integer")
    shift = max(0, n.bit_length() - 53)
    return math.log2(n >> shift) + shift


def log2_fraction(fr: Fraction) -> float:
    if fr <= 0:
        raise ValueError("log2 of a non-positive rational")
    return _log2_int(fr.numerator) - _log2_int(fr.denominator)


def _log2_binomial(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -math.inf
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2)


@dataclass(frozen=True)
class ScenarioParams:
    q: int
    k: int
    r: int
    t: int
    t_mfj: int
    m_a: int
    m_f: int
    n: int
    mu: float = 0.5
    family_cardinality: int = 1   # |epsilon~| of the family-restricted bound

    def __post_init__(self):
        _check_field_size(self.q)
        if not (0 < self.t_mfj <= self.t <= self.r <= self.q):
            raise ValueError(
                f"need 0 < t_mfj <= t <= r <= q, got t_mfj={self.t_mfj}, "
                f"t={self.t}, r={self.r}, q={self.q}"
            )
        if not (1 <= self.m_a <= self.m_f):
            raise ValueError(f"need 1 <= m_a <= m_f, got {self.m_a}, {self.m_f}")
        if self.m_a > self.q:  # as conditional_membership_prob refuses
            raise ValueError(f"need m_a <= q, got m_a={self.m_a}, q={self.q}")
        if not (0 < self.mu < 1):
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        # the formulas take k and n as float64 factors and exponents,
        # which hold every integer up to 2**53
        if not (1 <= self.k <= 2**53 and 0 <= self.n <= 2**53):
            raise ValueError(f"need 1 <= k <= 2**53 and 0 <= n <= 2**53, "
                             f"got k={self.k}, n={self.n}")
        if self.family_cardinality < 1:
            raise ValueError("family cardinality must be at least 1")


def conditional_membership_prob(q: int, m_a: int) -> Fraction:
    """Probability that a uniform field point lands on the locking families."""
    if not (1 <= m_a <= q):
        raise ValueError(f"need 1 <= m_a <= q, got m_a={m_a}, q={q}")
    return Fraction(m_a, q)


def spurious_polynomials_exact(p: ScenarioParams) -> Fraction:
    """Exact rational spurious-polynomial count (cross-check path)."""
    base = Fraction(p.m_a, p.q)
    return (
        Fraction(p.q) ** p.k
        * math.comb(p.r, p.t_mfj)
        * base ** (p.k - p.t_mfj)
        * (1 - base) ** (p.r - p.t_mfj)
    )


def spurious_polynomials_log2(p: ScenarioParams) -> float:
    """log2 of the expected number of degree-<k polynomials agreeing with
    exactly t_mfj of the r vault points.  -inf when the count is zero
    (m_a = q with leftover points)."""
    if p.m_a == p.q:
        if p.r > p.t_mfj:
            return -math.inf
        return p.k * math.log2(p.q) + _log2_binomial(p.r, p.t_mfj)
    return (
        p.k * math.log2(p.q)
        + _log2_binomial(p.r, p.t_mfj)
        + (p.k - p.t_mfj) * (math.log2(p.m_a) - math.log2(p.q))
        + (p.r - p.t_mfj) * log2_fraction(Fraction(p.q - p.m_a, p.q))
    )


def family_spurious_log2(p: ScenarioParams) -> float:
    """log2 of the family-restricted spurious-polynomial bound: the plain
    count scaled by mu * |family|, with the binomial ratio C(r,t)/C(q,t)."""
    base = spurious_polynomials_log2(p)
    if base == -math.inf:
        return -math.inf
    return (
        math.log2(p.mu)
        + math.log2(p.family_cardinality)
        + base
        - _log2_binomial(p.q, p.t_mfj)
    )


def family_spurious_exact(p: ScenarioParams) -> Fraction:
    return (
        Fraction(p.mu)
        * p.family_cardinality
        * spurious_polynomials_exact(p)
        / math.comb(p.q, p.t_mfj)
    )


def attacker_success_prob(p: ScenarioParams) -> float:
    """Closed-form attacker success probability: (m_a/m_f * t_mfj/r) ** n."""
    base = (p.m_a / p.m_f) * (p.t_mfj / p.r)
    return base ** p.n


def attacker_success_prob_product_form(p: ScenarioParams) -> float:
    """Telescoped product-over-rounds variant (exponent n(n-1)/2); kept as a
    separate name because it disagrees with the closed form for n > 2."""
    base = (p.m_a / p.m_f) * (p.t_mfj / p.r)
    return base ** (p.n * (p.n - 1) // 2)


@dataclass(frozen=True)
class SecurityReport:
    params: ScenarioParams
    log2_spurious: float
    log2_family_bound: float
    attacker_prob: float
    reported_claims: dict | None
    discrepancy_flag: bool

    def to_dict(self) -> dict:
        return asdict(self)


# Published movie-lover scenarios with their claimed exponents.  The claims
# are attached verbatim; computed values routinely disagree, which is what
# the discrepancy flag is for.
PRESETS = {
    "movie-k16-t20": (
        ScenarioParams(q=10_000, k=16, r=10_000, t=20, t_mfj=20,
                       m_a=5, m_f=5, n=15),
        {
            "classical_log2_count": 106,
            "classical_security_bits": 53,
            "fuzzy_log2_count": 249,
            "fuzzy_security_bits": 125,
        },
    ),
    "movie-k18-t22": (
        ScenarioParams(q=10_000, k=18, r=10_000, t=22, t_mfj=22,
                       m_a=5, m_f=5, n=17),
        {
            "classical_log2_count": 139,
            "classical_security_bits": 70,
            "fuzzy_log2_count": 276,
            "fuzzy_security_bits": 138,
        },
    ),
}


def scenario_report(preset) -> SecurityReport:
    """Evaluate all three formulas for a preset name or explicit params."""
    if isinstance(preset, str):
        try:
            params, claims = PRESETS[preset]
        except KeyError:
            raise ValueError(
                f"unknown preset {preset!r}; known: {sorted(PRESETS)}"
            )
    elif isinstance(preset, ScenarioParams):
        params, claims = preset, None
    else:
        raise ValueError(f"preset must be a name or ScenarioParams, got {preset!r}")
    log2_n = spurious_polynomials_log2(params)
    log2_family = family_spurious_log2(params)
    prob = attacker_success_prob(params)
    discrepancy = False
    if claims is not None:
        for computed in (log2_n, log2_family):
            if abs(computed - claims["fuzzy_log2_count"]) > 1:
                discrepancy = True
    return SecurityReport(params, log2_n, log2_family, prob, claims, discrepancy)


@dataclass(frozen=True)
class CensusResult:
    q: int
    k: int
    r: int
    t_mfj: int
    family_blind: int      # polynomials agreeing with exactly t_mfj cores
    family_aware: int      # agreement restricted to locking-family points
    log2_model_expectation: float  # the binomial-model value, for comparison


def empirical_spurious_census(vault: Vault, transcript: LockTranscript, k: int) -> CensusResult:
    """Exhaustively count degree-<k polynomials agreeing with exactly t_mfj
    vault point cores.  Feasible only at desk scale (q**k <= 1e7)."""
    q = vault.q
    if q ** k > 10**7:
        raise ValueError(f"census infeasible: q^k = {q**k} exceeds 1e7")
    t = transcript.t_mfk
    xs, ys = vault.x_cores, vault.y_cores
    fam_mask = vault.family_ids == FAMILIES.index(transcript.locking_family.family)

    def count_exact(xs_sel, ys_sel, target):
        if len(xs_sel) < target:
            return 0
        total = 0
        # residual = (y - sum_{j>=1} b_j x^j) mod q; for each choice of the
        # higher coefficients, a histogram over the residual gives the
        # agreement count of every constant term at once.
        powers = []
        acc_pow = np.mod(xs_sel, q)
        for _ in range(1, k):
            powers.append(acc_pow)
            acc_pow = np.mod(acc_pow * xs_sel, q)
        # every value b of the last higher coefficient at once: row b of the
        # residual array is offset by b * q, so one bincount holds the
        # histograms of all rows side by side
        if powers:
            b = np.arange(q, dtype=np.int64)[:, None]
            last = b * powers.pop()
        else:  # k = 1: the constant term alone
            b = last = np.zeros((1, 1), dtype=np.int64)
        offsets = b * q

        def recurse(j, acc):
            nonlocal total
            if j == len(powers):
                residual = np.mod(ys_sel - acc - last, q) + offsets
                counts = np.bincount(residual.ravel(), minlength=len(offsets) * q)
                total += int(np.count_nonzero(counts == target))
                return
            for b in range(q):
                recurse(j + 1, acc + b * powers[j])

        recurse(0, np.zeros(len(xs_sel), dtype=np.int64))
        return total

    blind = count_exact(xs, ys, t)
    aware = count_exact(xs[fam_mask], ys[fam_mask], t)
    model = ScenarioParams(
        q=q, k=k, r=vault.r, t=t, t_mfj=t,
        m_a=transcript.m_a, m_f=transcript.m_a, n=vault.n,
    )
    return CensusResult(
        q, k, vault.r, t, blind, aware, spurious_polynomials_log2(model)
    )
