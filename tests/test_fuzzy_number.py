import itertools
import math
import sys

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from fuzzyvault import FuzzyNumber, distance
from fuzzyvault.fuzzy_number import PARAM_COUNT
from conftest import REFERENCE_ARITY, reference_core, reference_validate


def triangulars():
    return st.tuples(
        st.floats(-50, 50), st.floats(0, 20), st.floats(0, 20)
    ).map(lambda t: FuzzyNumber.triangular(t[0], t[0] + t[1], t[0] + t[1] + t[2]))


def sigmoids():
    return st.tuples(st.floats(-20, 20), st.floats(0.1, 5), st.floats(0.1, 5),
                     st.floats(0.05, 1), st.floats(0.5, 8)).map(
        lambda t: FuzzyNumber.sigmoid(t[0], t[0] + t[1], t[0] + t[1] + t[2],
                                      t[3], t[4])
    )


ANY_FAMILY = st.one_of(
    triangulars(),
    st.tuples(st.floats(-20, 20), st.floats(0.1, 5), st.floats(0.1, 5)).map(
        lambda t: FuzzyNumber.gaussian(*t)
    ),
    st.tuples(st.floats(-20, 20), st.floats(0, 5), st.floats(0.1, 5),
              st.floats(0.1, 5)).map(
        lambda t: FuzzyNumber.trapezoidal(t[0], t[0] + t[1], t[2], t[3])
    ),
    sigmoids(),
)


class TestMembership:
    def test_triangular_core(self):
        assert FuzzyNumber.triangular(1, 2, 3).membership(2) == 1.0

    def test_triangular_outside_support(self):
        assert FuzzyNumber.triangular(1, 2, 3).membership(0.5) == 0.0

    def test_triangular_flank(self):
        assert FuzzyNumber.triangular(1, 2, 3).membership(1.5) == pytest.approx(0.5)

    def test_sigmoid_peak_is_omega(self):
        f = FuzzyNumber.sigmoid(0, 1, 3, 0.7, 4.0)
        assert f.membership(1) == pytest.approx(0.7)

    def test_gaussian_mean(self):
        assert FuzzyNumber.gaussian(0, 1, 1).membership(0) == 1.0

    def test_gaussian_clipped_support(self):
        f = FuzzyNumber.gaussian(0, 1, 2)
        assert f.membership(-3.0) == 0.0
        assert f.membership(5.9) > 0.0
        assert f.membership(6.0) == 0.0

    def test_trapezoidal_plateau_and_flanks(self):
        f = FuzzyNumber.trapezoidal(2, 4, 1, 2)
        assert f.membership(3) == 1.0
        assert f.membership(1.5) == pytest.approx(0.5)
        assert f.membership(5) == pytest.approx(0.5)
        assert f.membership(0.9) == 0.0

    @given(ANY_FAMILY, st.floats(-100, 100))
    @example(FuzzyNumber.sigmoid(0.0, 0.3125, 1.3125, 1.0, 3.452784273890271), 0.0)
    def test_membership_in_unit_interval(self, f, x):
        assert 0.0 <= f.membership(x) <= 1.0

    @given(ANY_FAMILY, st.floats(0, 1))
    def test_peak_grade_bounds_membership(self, f, w):
        lo, hi = f.support()
        x = lo + w * (hi - lo)
        assert f.membership(x) <= f.peak_grade + 1e-12

    @given(sigmoids())
    def test_sigmoid_zero_at_support_ends(self, f):
        lo, hi = f.support()
        assert f.membership(lo) == 0.0 and f.membership(hi) == 0.0
        cut = f.alpha_cut(0.0)
        assert (cut.lo, cut.hi) == (lo, hi)


class TestAlphaCut:
    def test_support_cut(self):
        cut = FuzzyNumber.triangular(1, 2, 5).alpha_cut(0)
        assert (cut.lo, cut.hi) == (1, 5)

    def test_core_singleton(self):
        cut = FuzzyNumber.triangular(1, 2, 5).alpha_cut(1)
        assert (cut.lo, cut.hi) == (2, 2)

    def test_half_cut(self):
        cut = FuzzyNumber.triangular(1, 2, 5).alpha_cut(0.5)
        assert (cut.lo, cut.hi) == (1.5, 3.5)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            FuzzyNumber.triangular(1, 2, 5).alpha_cut(1.5)

    def test_sigmoid_above_omega_is_error(self):
        f = FuzzyNumber.sigmoid(0, 1, 2, 0.6, 4.0)
        with pytest.raises(ValueError):
            f.alpha_cut(0.7)
        cut = f.alpha_cut(0.6)
        assert cut.lo <= 1 <= cut.hi

    @given(ANY_FAMILY, st.floats(0.01, 1), st.floats(0.01, 1))
    @example(FuzzyNumber.triangular(0.0, 1.1754943508222875e-38, 1.0), 1.0, 1.0)
    def test_nestedness(self, f, a1, a2):
        a1, a2 = sorted((a1, a2))
        a1 = min(a1, f.peak_grade)
        a2 = min(a2, f.peak_grade)
        c1, c2 = f.alpha_cut(a1), f.alpha_cut(a2)
        assert c1.lo <= c2.lo + 1e-9 and c2.hi <= c1.hi + 1e-9

    @given(ANY_FAMILY, st.floats(0.02, 0.98), st.floats(0.01, 0.99))
    @settings(max_examples=200)
    # at ulp(32) the formula's hi lies 0.7 % of the 1e-12 flank past the cut
    @example(FuzzyNumber.triangular(32, 32, 32.000000000001), 0.9375, 0.96875)
    def test_cut_membership_consistency(self, f, alpha, w):
        alpha = min(alpha, f.peak_grade)
        cut = f.alpha_cut(alpha)
        x = cut.lo + w * (cut.hi - cut.lo)
        assert f.membership(x) >= alpha - 1e-9


class TestArithmetic:
    def test_add(self):
        a = FuzzyNumber.triangular(1, 2, 3)
        b = FuzzyNumber.triangular(2, 3, 4)
        assert (a + b).params == (3, 5, 7)

    def test_add_crisp_identity(self):
        a = FuzzyNumber.triangular(0, 1, 2)
        assert (a + FuzzyNumber.crisp(0)).params == a.params

    def test_add_twice(self):
        a = FuzzyNumber.triangular(0, 1, 2)
        assert (a + a).params == (0, 2, 4)

    def test_sub_not_group_inverse(self):
        a = FuzzyNumber.triangular(1, 2, 3)
        assert (a - a).params == (-2, 0, 2)

    def test_sub_crisp_identity(self):
        a = FuzzyNumber.triangular(1, 2, 3)
        assert (a - FuzzyNumber.crisp(0)).params == a.params

    def test_sub_endpoint_rule(self):
        a = FuzzyNumber.triangular(3, 5, 7)
        b = FuzzyNumber.triangular(1, 2, 3)
        assert (a - b).params == (0, 3, 6)

    def test_scalar_positive(self):
        assert (2 * FuzzyNumber.triangular(1, 2, 3)).params == (2, 4, 6)

    def test_scalar_negative_swaps(self):
        assert (-1 * FuzzyNumber.triangular(1, 2, 3)).params == (-3, -2, -1)

    def test_scalar_identity(self):
        a = FuzzyNumber.triangular(1, 2, 3)
        assert (1 * a).params == a.params

    def test_scalar_zero(self):
        assert (0 * FuzzyNumber.triangular(1, 2, 3)).family == "crisp"

    def test_mixed_families_rejected(self):
        with pytest.raises(ValueError):
            FuzzyNumber.triangular(1, 2, 3) + FuzzyNumber.gaussian(0, 1, 1)

    @given(triangulars(), triangulars())
    def test_support_law(self, a, b):
        lo, hi = (a + b).support()
        assert lo == a.support()[0] + b.support()[0]
        assert hi == a.support()[1] + b.support()[1]

    @given(triangulars(), triangulars(), st.floats(-10, 10))
    @example(FuzzyNumber.triangular(0.0, 0.0, 1e-16),
             FuzzyNumber.triangular(1.0, 1.0, 1.0), 3.0)
    def test_scalar_distributes_over_add(self, a, b, x):
        lhs = ((a + b) * x).params
        rhs = ((a * x) + (b * x)).params
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestPower:
    def test_core_maps_to_full_membership(self):
        assert FuzzyNumber.triangular(1, 2, 4).pow(2).membership(4) == 1.0

    def test_support_endpoint(self):
        assert FuzzyNumber.triangular(1, 2, 4).pow(2).membership(1) == 0.0

    def test_left_flank_value(self):
        # sqrt(2.25) = 1.5, halfway up the left flank
        assert FuzzyNumber.triangular(1, 2, 4).pow(2).membership(2.25) == pytest.approx(0.5)

    def test_alpha_cut_is_powered_interval(self):
        pw = FuzzyNumber.triangular(1, 2, 4).pow(3)
        cut = pw.alpha_cut(0.5)
        assert cut.lo == pytest.approx(1.5 ** 3)
        assert cut.hi == pytest.approx(3.0 ** 3)

    def test_requires_positive_support(self):
        with pytest.raises(ValueError):
            FuzzyNumber.triangular(0, 1, 2).pow(2)

    def test_rejects_zero_power(self):
        with pytest.raises(ValueError):
            FuzzyNumber.triangular(1, 2, 3).pow(0)

    def test_approx_triangular_matches_support_and_core(self):
        pw = FuzzyNumber.triangular(1, 2, 4).pow(2)
        approx = pw.approx_triangular()
        assert approx.params == (1, 4, 16)


class TestDistance:
    def test_reflexive(self):
        a = FuzzyNumber.triangular(1, 2, 3)
        assert distance(a, a) == 0.0

    def test_cross_family_infinite(self):
        assert distance(
            FuzzyNumber.triangular(1, 2, 3), FuzzyNumber.gaussian(2, 1, 1)
        ) == math.inf

    def test_chebyshev(self):
        a = FuzzyNumber.triangular(1, 2, 3)
        b = FuzzyNumber.triangular(1, 2.5, 3)
        assert distance(a, b) == 0.5

    @given(ANY_FAMILY, ANY_FAMILY)
    def test_symmetry(self, a, b):
        assert distance(a, b) == distance(b, a)

    @given(ANY_FAMILY)
    def test_zero_iff_identical(self, a):
        assert distance(a, a) == 0.0


class TestDefuzzify:
    def test_triangular_core(self):
        assert FuzzyNumber.triangular(1, 2, 3).defuzzify() == 2

    def test_trapezoidal_midpoint(self):
        assert FuzzyNumber.trapezoidal(2, 4, 1, 1).defuzzify() == 3

    def test_crisp_identity(self):
        assert FuzzyNumber.crisp(7).defuzzify() == 7

    def test_gaussian_mean(self):
        assert FuzzyNumber.gaussian(5, 1, 2).defuzzify() == 5

    def test_sigmoid_middle_breakpoint(self):
        assert FuzzyNumber.sigmoid(0, 1, 3, 0.9, 4).defuzzify() == 1


class TestSerialization:
    @given(ANY_FAMILY)
    def test_dict_round_trip(self, f):
        assert FuzzyNumber.from_dict(f.to_dict()) == f

    def test_invalid_family_rejected(self):
        with pytest.raises(ValueError):
            FuzzyNumber("parabolic", (1, 2, 3))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            FuzzyNumber.triangular(3, 2, 1)
        with pytest.raises(ValueError):
            FuzzyNumber.gaussian(0, -1, 1)
        with pytest.raises(ValueError):
            FuzzyNumber.sigmoid(0, 1, 2, 1.5, 4)
        with pytest.raises(ValueError):
            FuzzyNumber.gaussian(math.nan, 1, 1)
        with pytest.raises(ValueError):
            FuzzyNumber.triangular(0, 1, math.inf)

    @pytest.mark.parametrize("doc", [
        None,
        [],
        {"family": "triangular"},
        {"family": ["x"], "params": [1, 2, 3]},
        {"family": "triangular", "params": "123"},
        {"family": "triangular", "params": [1, True, 3]},
        {"family": "triangular", "params": [0, 1, None]},
        {"family": "gaussian", "params": [0, math.nan, 1]},
    ])
    def test_from_dict_rejects_malformed(self, doc):
        with pytest.raises(ValueError):
            FuzzyNumber.from_dict(doc)


# a valid parameter row per family, and the edge values of the rules: each
# row value and its neighbouring floats, signed zeros, subnormals, 1, the
# largest floats and values outside the float range
RULE_ROWS = {
    "triangular": (2.0, 3.0, 4.0),
    "trapezoidal": (2.5, 3.5, 1.0, 1.0),
    "gaussian": (3.0, 0.5, 0.5),
    "sigmoid": (2.0, 3.0, 4.0, 0.9, 4.0),
    "crisp": (3.0,),
}
RULE_EDGES = [-5e-324, -0.0, 0, 0.0, 5e-324, 1, 1.0, math.nextafter(1.0, 2.0), -1.0,
              2.5, 3.5, 5.5, sys.float_info.max, -sys.float_info.max, 10**400,
              math.inf, -math.inf, math.nan]
RULE_EDGES += sorted({e for row in RULE_ROWS.values() for v in row
                      for e in (v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf))})


def assert_constructs_like_reference(family: str, params: list) -> None:
    """``FuzzyNumber(family, params)`` rejects where the reference chain
    does, and otherwise holds its floats and defuzzifies to its core."""
    try:
        p = reference_validate(family, params)
    except ValueError as e:
        with pytest.raises(ValueError) as raised:
            FuzzyNumber(family, params)
        # a rule's message ends with the parameters, where some chain
        # messages did not
        got = str(raised.value)
        assert got == str(e) or got == f"{e}: {tuple(map(float, params))}"
        return
    f = FuzzyNumber(family, params)
    assert repr(f.params) == repr(p)  # repr tells -0.0 from 0.0
    assert repr(f.defuzzify()) == repr(reference_core(family, p))


class TestFamilyRules:
    def test_reference_covers_every_family(self):
        assert REFERENCE_ARITY == PARAM_COUNT
        assert RULE_ROWS.keys() == PARAM_COUNT.keys()

    @settings(max_examples=500)
    @given(data=st.data())
    def test_constructor_matches_reference(self, data):
        family = data.draw(st.sampled_from(sorted(RULE_ROWS)))
        params = [data.draw(st.just(v) | st.sampled_from(RULE_EDGES))
                  for v in RULE_ROWS[family]]
        assert_constructs_like_reference(family, params)

    @pytest.mark.parametrize("family", sorted(RULE_ROWS))
    def test_constructor_matches_reference_at_rule_edges(self, family):
        # the row with one or two of its parameters set to each edge value
        row = RULE_ROWS[family]
        assert_constructs_like_reference(family, list(row))
        for size in (1, 2):
            for at in itertools.combinations(range(len(row)), size):
                for values in itertools.product(RULE_EDGES, repeat=size):
                    params = list(row)
                    for i, v in zip(at, values):
                        params[i] = v
                    assert_constructs_like_reference(family, params)
