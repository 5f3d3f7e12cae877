import math
import re

import pytest

from fuzzyvault import (
    BIFURCATION,
    GRID_STEP,
    RIDGE_ENDING,
    Minutia,
    circular_distance,
    minutia_to_fuzzy,
    minutiae_demo,
    minutiae_vault_demo,
    orientation_set,
    parse_minutiae_file,
)


def grid_minutiae(count, kind=RIDGE_ENDING, spread=GRID_STEP):
    """A spatially spread batch of minutiae on distinct orientation steps."""
    out = []
    for i in range(count):
        center = (i % 16) * GRID_STEP
        out.append(
            Minutia(kind, (40 * i + 8, 24 * i + 8),
                    (center - spread, center, center + spread))
        )
    return out


class TestOrientationGrid:
    def test_sixteen_values(self):
        grid = orientation_set()
        assert len(grid) == 16
        assert grid[0] == 0.0
        assert grid[-1] == 337.5

    def test_uniform_spacing(self):
        grid = orientation_set()
        steps = {round(b - a, 6) for a, b in zip(grid, grid[1:])}
        assert steps == {22.5}

    def test_contains_named_orientations(self):
        grid = orientation_set()
        for value in (22.5, 202.5, 225.0, 315.0):
            assert value in grid


class TestCircularDistance:
    def test_zero(self):
        assert circular_distance(45.0, 45.0) == 0.0

    def test_wraparound(self):
        assert circular_distance(350.0, 10.0) == pytest.approx(20.0)

    def test_antipodal_max(self):
        assert circular_distance(0.0, 180.0) == 180.0

    def test_grid_exhaustive_metric_axioms(self):
        grid = orientation_set()
        for a in grid:
            for b in grid:
                d = circular_distance(a, b)
                assert 0.0 <= d <= 180.0
                assert d == circular_distance(b, a)
                for c in grid:
                    assert d <= circular_distance(a, c) + circular_distance(c, b) + 1e-9


class TestMinutia:
    def test_plain_interval(self):
        m = Minutia(RIDGE_ENDING, (10, 20), (202.5, 225.0, 247.5))
        f = minutia_to_fuzzy(m)
        assert f.family == "triangular"
        assert f.params == (202.5, 225.0, 247.5)

    def test_wraparound_interval_unwraps(self):
        # an arc straddling 0 degrees: [337.5, 22.5] centered at 0
        m = Minutia(BIFURCATION, (0, 0), (337.5, 0.0, 22.5))
        f = minutia_to_fuzzy(m)
        assert f.params == (337.5, 360.0, 382.5)

    def test_upper_grid_interval(self):
        m = Minutia(RIDGE_ENDING, (5, 5), (292.5, 315.0, 337.5))
        assert minutia_to_fuzzy(m).params == (292.5, 315.0, 337.5)

    def test_orientation_normalized(self):
        m = Minutia(RIDGE_ENDING, (0, 0), (-22.5, 0.0, 22.5))
        assert m.orientation_interval == (337.5, 0.0, 22.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Minutia("pore", (0, 0), (0.0, 10.0, 20.0))

    def test_center_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            Minutia(RIDGE_ENDING, (0, 0), (10.0, 50.0, 40.0))

    def test_wide_arc_rejected(self):
        with pytest.raises(ValueError):
            Minutia(RIDGE_ENDING, (0, 0), (0.0, 60.0, 120.0))


class TestVaultDemo:
    KEY = b"\x13\x37\xba\xbe"

    def test_round_trip_zero_jitter(self):
        res = minutiae_vault_demo(grid_minutiae(8), self.KEY, seed=3)
        assert res.unlock.key == self.KEY
        assert len(res.vault.points) == 80

    def test_round_trip_small_jitter(self):
        # jitter magnitude capped at delta / 2: every probe stays in tolerance
        res = minutiae_vault_demo(grid_minutiae(8), self.KEY,
                                  delta=0.25, jitter=0.125, seed=5)
        assert res.unlock.key == self.KEY

    def test_jitter_beyond_tolerance_fails(self):
        res = minutiae_vault_demo(grid_minutiae(8), self.KEY,
                                  delta=0.25, jitter=1.0, seed=5)
        assert res.unlock.key is None

    def test_deterministic_per_seed(self):
        a = minutiae_vault_demo(grid_minutiae(6), self.KEY, seed=9)
        b = minutiae_vault_demo(grid_minutiae(6), self.KEY, seed=9)
        assert a.vault.to_json() == b.vault.to_json()
        assert a.elements == b.elements

    def test_distinct_elements_after_collision_resolution(self):
        # identical minutiae map to one element; each later one takes the
        # next free element, mod q
        for position, first in [
            ((8, 8), 768),  # grid index 0 and position hash 48: 16 * 48
            # position hash 31 * 6 + 17 * 230 = 4096, and 16 * 4096 = q - 1,
            # so the increments wrap around to 0
            ((48, 1840), 65536),
        ]:
            minutia = Minutia(RIDGE_ENDING, position, (337.5, 0.0, 22.5))
            res = minutiae_vault_demo([minutia] * 20, self.KEY, seed=1)
            assert res.elements == tuple((first + i) % 65537 for i in range(20))
            assert res.unlock.key == self.KEY

    def test_too_few_minutiae(self):
        with pytest.raises(ValueError):
            minutiae_vault_demo(grid_minutiae(3), self.KEY)

    @pytest.mark.parametrize("r", [12, 80])
    def test_more_minutiae_than_points_refused(self, r):
        # refused before an element is placed: placing one is a walk past
        # the used elements, which cannot end once the field is full
        minutia = Minutia(RIDGE_ENDING, (8, 8), (337.5, 0.0, 22.5))
        with pytest.raises(ValueError, match=re.escape(
                f"{r + 1} minutiae do not fit a vault of r={r} points")):
            minutiae_vault_demo([minutia] * (r + 1), self.KEY, r=r)

    @pytest.mark.parametrize("q", [2**20 + 7, 2**61 - 1])
    def test_field_beyond_bound_rejected(self, q):
        # both are prime; the only bound on the demo's field is the lock's
        # 2**53, beyond which float64 fuzzy parameters lose field elements
        if q < 2**53:
            assert minutiae_vault_demo(grid_minutiae(8), self.KEY, q=q).unlock.key == self.KEY
            return
        with pytest.raises(ValueError, match=re.escape("exceeds 2**53")):
            minutiae_vault_demo(grid_minutiae(8), self.KEY, q=q)


class TestParseFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "minutiae.txt"
        path.write_text(
            "# header comment\n"
            "ridge_ending 10 20 202.5 225 247.5\n"
            "\n"
            "bifurcation 30 40 292.5 315 337.5\n"
        )
        parsed = parse_minutiae_file(path)
        assert len(parsed) == 2
        assert parsed[0].kind == RIDGE_ENDING
        assert parsed[0].orientation_interval == (202.5, 225.0, 247.5)
        assert parsed[1].position == (30, 40)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ridge_ending 10 20 202.5 225\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_minutiae_file(path)

    def test_lines_past_r_counted_not_parsed(self, tmp_path, monkeypatch):
        # given r, the parser builds at most r minutiae and counts the rest
        # of the records, a malformed one too, for the demo's refusal
        path = tmp_path / "minutiae.txt"
        path.write_text("# header\n" + "ridge_ending 10 20 202.5 225 247.5\n" * 5
                        + "\n# more\nbifurcation 1 2\n" + "bifurcation 30 40 292.5 315 337.5\n" * 3)
        built = []
        monkeypatch.setattr(minutiae_demo, "Minutia",
                            lambda *args: built.append(args) or Minutia(*args))
        with pytest.raises(ValueError,
                           match=re.escape("9 minutiae do not fit a vault of r=4 points")):
            parse_minutiae_file(path, 4)
        assert len(built) == 4
        with pytest.raises(ValueError, match=re.escape(f"bad minutiae file {path}, line 9: "
                                                       "expected 6 fields, got 3")):
            parse_minutiae_file(path, 9)
        path.write_text("ridge_ending 10 20 202.5 225 247.5\n# a comment\n\n" * 4)
        assert len(parse_minutiae_file(path, 4)) == 4
