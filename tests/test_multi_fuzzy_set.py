import math
import re
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fuzzyvault import (
    FamilyTemplate,
    FuzzyNumber,
    MultiFuzzySet,
    SubsetDescriptor,
    build_locking_set,
    partition_field,
)
from fuzzyvault.fuzzy_number import CORE, PARAM_COUNT, RULES
from fuzzyvault.multi_fuzzy_set import _LAYOUT, _TEMPLATE_ARITY
from conftest import desk_field

TRI = FamilyTemplate("triangular", (1.0, 1.0))
GAU = FamilyTemplate("gaussian", (0.5, 0.5))
KINDS = ["field", "locking", "unlocking"]


# MultiFuzzySet's checks as they were while it kept an index from every
# element to its subset, kept as the oracle: one pass over the elements of
# each subset in turn
def reference_element_index(q, subsets, kind) -> dict:
    lookup = {}
    for s in subsets:
        for e in s.elements:
            if not (0 <= e < q):
                raise ValueError(f"element {e} outside field [0, {q})")
            if e in lookup:
                raise ValueError(f"element {e} appears in more than one subset")
            lookup[e] = s
    if kind == "field" and len(lookup) != q:
        raise ValueError("field partition must cover every element of [0, q)")
    return lookup


@st.composite
def subset_lists(draw):
    """(q, element groups): partitions of [0, q), some broken by an element
    dropped, repeated or out of range, and free groups of elements or
    ranges near the field's ends, also at q = 10**400."""
    q = draw(st.sampled_from([2, 3, 5, 8, 13, 10**400]))
    near = st.integers(-2, q + 2) if q < 100 else st.sampled_from(
        [-1, 0, 1, 10**399, q - 1, q, q + 1])
    if q < 100 and draw(st.booleans()):
        # in field order, the groups are runs of consecutive elements
        order = draw(st.permutations(range(q)) | st.just(range(q)))
        cuts = sorted(draw(st.lists(st.integers(1, q - 1), unique=True, max_size=3)))
        groups = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, q])]
        for _ in range(draw(st.integers(0, 2))):
            group = draw(st.sampled_from(groups))
            e = draw(near)
            if draw(st.booleans()) and len(group) > 1:
                group.remove(e if e in group else group[0])  # an element uncovered
            elif e not in group:
                group.append(e)  # maybe outside the field or in another group
        return q, groups
    group = st.lists(near, min_size=1, max_size=4, unique=True) | st.builds(
        lambda a, n: range(a, a + n), near, st.integers(1, 4))
    return q, draw(st.lists(group, min_size=1, max_size=4))


# FamilyTemplate.instantiate as it was before it skipped the second
# validation, kept as the oracle: every instance goes through __post_init__
def reference_instantiate(template: FamilyTemplate, core) -> FuzzyNumber:
    p = template.spread_params
    if template.family == "triangular":
        return FuzzyNumber.triangular(core - p[0], core, core + p[1])
    if template.family == "trapezoidal":
        h, sigma, beta = p
        return FuzzyNumber.trapezoidal(core - h, core + h, sigma, beta)
    if template.family == "gaussian":
        return FuzzyNumber.gaussian(core, p[0], p[1])
    if template.family == "sigmoid":
        w1, w2, omega, halfwidth = p
        return FuzzyNumber.sigmoid(core - w1, core, core + w2, omega, halfwidth)
    return FuzzyNumber.crisp(core)


SPREAD = st.sampled_from([5e-324, 0.5, 1.0, 1e308]) | st.floats(5e-324, 1e308)
TEMPLATES = st.one_of(
    st.tuples(SPREAD, SPREAD).map(lambda p: FamilyTemplate("triangular", p)),
    st.tuples(st.just(0.0) | SPREAD, SPREAD, SPREAD).map(
        lambda p: FamilyTemplate("trapezoidal", p)),
    st.tuples(SPREAD, SPREAD).map(lambda p: FamilyTemplate("gaussian", p)),
    st.tuples(SPREAD, SPREAD, st.floats(5e-324, 1.0), SPREAD).map(
        lambda p: FamilyTemplate("sigmoid", p)),
    st.just(FamilyTemplate("crisp")),
)
# cores near +-1.7e308 overflow core +- spread for the larger spreads
INSTANCE_CORES = st.one_of(
    st.integers(-10**6, 10**6), st.sampled_from([-0.0, 10**308]),
    st.floats(-1e6, 1e6), st.floats(1.6e308, 1.79e308), st.floats(-1.79e308, -1.6e308),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


class TestPartitionField:
    def test_even_split(self):
        mfs = partition_field(8, [4, 4], [TRI, GAU])
        assert mfs.subsets[0].elements == range(4)
        assert mfs.subsets[1].elements == range(4, 8)

    def test_uneven_split(self):
        mfs = partition_field(10, [3, 7], [TRI, GAU])
        assert mfs.subsets[0].elements == range(3)
        assert mfs.subsets[1].elements == range(3, 10)

    def test_size_sum_mismatch(self):
        with pytest.raises(ValueError):
            partition_field(8, [5, 4], [TRI, GAU])

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            partition_field(8, [8, 0], [TRI, GAU])

    def test_desk_field_keeps_only_its_subsets(self):
        # an index from each of the 65 537 elements to its subset doubled this
        tracemalloc.start()
        try:
            field = desk_field()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert field.q == 65537
        assert held < 3.5e6

    @settings(max_examples=300, deadline=None)
    @given(case=subset_lists(), kind=st.sampled_from(KINDS))
    def test_checks_match_element_index(self, case, kind):
        q, groups = case
        subsets = tuple(SubsetDescriptor(g if type(g) is range else tuple(g), TRI, i)
                        for i, g in enumerate(groups))
        try:
            lookup = reference_element_index(q, subsets, kind)
        except ValueError as want:
            with pytest.raises(ValueError) as got:
                MultiFuzzySet(q, subsets, kind)
            if str(want).startswith("element "):
                assert re.match(r"element -?\d+ ", str(got.value))
            return
        mfs = MultiFuzzySet(q, subsets, kind)
        for e, subset in lookup.items():
            assert [s for s in mfs.subsets if e in s.elements] == [subset]

    def test_partition_beyond_ssize_t_holds_ranges(self):
        q = 2**61 - 1
        mfs = partition_field(q, [2**60, 2**60 - 1], [TRI, GAU])
        assert [s.elements for s in mfs.subsets] == [range(2**60), range(2**60, q)]
        assert mfs.total_elements == q

    def test_consecutive_elements_become_a_range(self):
        assert SubsetDescriptor([4, 5, 6], TRI, 0).elements == range(4, 7)
        assert SubsetDescriptor((7,), TRI, 0).elements == range(7, 8)
        assert SubsetDescriptor((6, 5, 4), TRI, 0).elements == (6, 5, 4)
        assert SubsetDescriptor(range(0, 6, 2), TRI, 0).elements == (0, 2, 4)
        with pytest.raises(ValueError, match="empty"):
            SubsetDescriptor(range(3, 3), TRI, 0)

    def test_every_element_covered_exactly_once(self):
        q = 101
        mfs = partition_field(q, [40, 61], [TRI, GAU])
        seen = [[s.index for s in mfs.subsets if a in s.elements] for a in range(q)]
        assert seen == [[0]] * 40 + [[1]] * 61


class TestFuzzify:
    def test_template_instantiation(self):
        mfs = partition_field(8, [4, 4], [TRI, GAU])
        f = mfs.select_subset(0)[2]
        assert f.family == "triangular"
        assert f.params == (1, 2, 3)

    def test_defuzzify_round_trip(self):
        mfs = partition_field(32, [8, 8, 8, 8], [
            TRI, GAU,
            FamilyTemplate("sigmoid", (1.0, 1.0, 0.9, 4.0)),
            FamilyTemplate("trapezoidal", (0.5, 1.0, 1.0)),
        ])
        cores = [f.defuzzify() for k in range(4) for f in mfs.select_subset(k)]
        assert cores == list(range(32))

    def test_family_determinism(self):
        mfs = partition_field(8, [4, 4], [TRI, GAU])
        fams = {f.family for f in mfs.select_subset(0)}
        assert fams == {"triangular"}


class TestLockingSet:
    def test_construction_bookkeeping(self):
        field = partition_field(8, [4, 4], [TRI, GAU])
        locking = build_locking_set(field, [((1, 2), TRI), ((5,), GAU)])
        assert locking.kind == "locking"
        assert locking.total_elements == 3
        assert locking.subset_count == 2

    def test_overlap_rejected(self):
        field = partition_field(8, [4, 4], [TRI, GAU])
        with pytest.raises(ValueError):
            build_locking_set(field, [((1, 2), TRI), ((2,), GAU)])

    def test_empty_groups_rejected(self):
        field = partition_field(8, [4, 4], [TRI, GAU])
        with pytest.raises(ValueError):
            build_locking_set(field, [])

    def test_element_out_of_range(self):
        field = partition_field(8, [4, 4], [TRI, GAU])
        with pytest.raises(ValueError):
            build_locking_set(field, [((9,), TRI)])

    def test_t_bookkeeping(self):
        field = partition_field(100, [50, 50], [TRI, GAU])
        groups = [(tuple(range(10)), TRI), (tuple(range(20, 25)), GAU)]
        locking = build_locking_set(field, groups)
        assert locking.total_elements == sum(len(g) for g, _ in groups)


class TestSelectSubset:
    def test_ascending_cores(self):
        field = partition_field(8, [4, 4], [TRI, GAU])
        locking = build_locking_set(field, [((2, 1), TRI), ((5,), GAU)])
        cores = [f.defuzzify() for f in locking.select_subset(0)]
        assert cores == [1, 2]
        assert [f.family for f in locking.select_subset(1)] == ["gaussian"]

    def test_bad_index(self):
        field = partition_field(8, [4, 4], [TRI, GAU])
        locking = build_locking_set(field, [((1,), TRI)])
        with pytest.raises(ValueError):
            locking.select_subset(2)

    def test_element_beyond_float_range_rejected(self):
        # a probe-set file may declare any q; float() of such an element
        # raised OverflowError
        probe = MultiFuzzySet.from_dict({
            "q": 10**400, "kind": "unlocking",
            "subsets": [{"elements": [10**399], "family": "triangular",
                         "spreads": [1.0, 1.0]}],
        })
        with pytest.raises(ValueError, match="float range"):
            probe.select_subset(0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        field = partition_field(16, [8, 8], [TRI, GAU])
        locking = build_locking_set(field, [((1, 2, 3), TRI), ((9,), GAU)])
        path = tmp_path / "locking.json"
        locking.save(path)
        loaded = MultiFuzzySet.load(path)
        assert loaded == locking

    def test_size_form(self, tmp_path):
        path = tmp_path / "field.json"
        path.write_text(
            '{"q": 16, "kind": "field", "subsets": ['
            '{"size": 8, "family": "triangular", "spreads": [1, 1]},'
            '{"size": 8, "family": "gaussian", "spreads": [0.5, 0.5]}]}'
        )
        loaded = MultiFuzzySet.load(path)
        assert loaded.subsets[0].elements == range(8)
        assert loaded.subsets[1].elements == range(8, 16)


    def test_size_beyond_ssize_t(self):
        # the len() of such a range overflowed, and its tuple never fit
        mfs = MultiFuzzySet.from_dict({"q": 2**127 - 1, "kind": "locking", "subsets": [
            {"size": 2**100, "family": "triangular", "spreads": [1, 1]}]})
        assert mfs.subsets[0].elements == range(2**100)
        assert mfs.subsets[0].size == mfs.total_elements == 2**100

    @pytest.mark.parametrize("mfs", [
        partition_field(13, [5, 8], [TRI, GAU]),
        MultiFuzzySet.from_dict({"q": 13, "kind": "field", "subsets": [
            {"size": 5, "family": "triangular", "spreads": [1, 1]},
            {"elements": [7, 9], "family": "gaussian", "spreads": [0.5, 0.5]},
            {"size": 3, "family": "triangular", "spreads": [1, 1]},
            {"elements": [5, 6], "family": "gaussian", "spreads": [0.5, 0.5]},
            {"elements": [8], "family": "crisp"}]}),
        MultiFuzzySet(13, (SubsetDescriptor((3, 1, 2), TRI, 0),
                           SubsetDescriptor((4, 5), GAU, 1)), "unlocking"),
    ], ids=["partition", "sizes-and-elements", "explicit"])
    def test_round_trip_equal_and_hashed_alike(self, mfs):
        doc = mfs.to_dict()
        back = MultiFuzzySet.from_dict(doc)
        assert back == mfs and hash(back) == hash(mfs)
        assert back.to_dict() == doc

    def test_to_dict_lists_every_element(self):
        assert partition_field(5, [2, 3], [TRI, GAU]).to_dict() == {
            "q": 5, "kind": "field", "subsets": [
                {"elements": [0, 1], "family": "triangular", "spreads": [1.0, 1.0]},
                {"elements": [2, 3, 4], "family": "gaussian", "spreads": [0.5, 0.5]}]}

    @pytest.mark.parametrize("q, subsets", [
        ("16", [{"elements": [1], "family": "crisp"}]),
        (16, {"elements": [1], "family": "crisp"}),
        (16, [{"elements": [1.5], "family": "crisp"}]),
        (16, [{"elements": ["3"], "family": "crisp"}]),
        (16, [{"family": "crisp"}]),
        (16, [{"size": 0, "family": "crisp"}]),
        (16, [{"size": 8, "family": "crisp"}, {"size": 9, "family": "crisp"}]),
        (16, [{"size": 10**12, "family": "crisp"}]),
        (16, [{"size": 4, "family": "gaussian", "spreads": [0.5, math.inf]}]),
    ], ids=["q-string", "subsets-object", "element-float", "element-string",
            "no-elements-or-size", "size-0", "size-beyond-q", "size-1e12",
            "spread-inf"])
    def test_from_dict_rejects_malformed(self, q, subsets):
        with pytest.raises(ValueError):
            MultiFuzzySet.from_dict({"q": q, "kind": "locking", "subsets": subsets})


class TestTemplates:
    def test_family_tables_agree(self):
        # a family added to one table and missed in another fails here
        for table in (CORE, RULES, _TEMPLATE_ARITY, _LAYOUT):
            assert table.keys() == PARAM_COUNT.keys()
        for family, layout in _LAYOUT.items():
            assert len(layout) == PARAM_COUNT[family]
            spreads = {slot[0] for slot in layout if slot is not None}
            assert spreads == set(range(_TEMPLATE_ARITY[family]))

    def test_non_finite_spreads_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                FamilyTemplate("triangular", (1.0, bad))

    def test_nonpositive_spreads_rejected(self):
        with pytest.raises(ValueError):
            FamilyTemplate("triangular", (0.0, 1.0))
        with pytest.raises(ValueError):
            FamilyTemplate("gaussian", (1.0, -1.0))

    def test_same_family_different_parameters_allowed(self):
        a = FamilyTemplate("triangular", (1.0, 1.0))
        b = FamilyTemplate("triangular", (2.0, 2.0))
        field = partition_field(8, [4, 4], [a, b])
        assert field.select_subset(0)[1].params != field.select_subset(1)[1].params

    def test_instantiation_defuzzifies_to_core(self):
        for template in (
            TRI, GAU,
            FamilyTemplate("sigmoid", (2.0, 3.0, 0.8, 4.0)),
            FamilyTemplate("trapezoidal", (1.0, 0.5, 0.5)),
            FamilyTemplate("crisp", ()),
        ):
            assert template.instantiate(7.0).defuzzify() == 7.0

    @settings(max_examples=500, deadline=None)
    @given(template=TEMPLATES, core=INSTANCE_CORES)
    def test_instantiate_matches_validated_constructor(self, template, core):
        try:
            want = reference_instantiate(template, core)
        except ValueError:  # a non-finite parameter
            with pytest.raises(ValueError):
                template.instantiate(core)
            return
        got = template.instantiate(core)
        assert all(type(p) is float for p in got.params)
        assert got == FuzzyNumber(template.family, got.params) == want
        assert repr(got) == repr(want)  # repr also tells -0.0 from 0.0
