import base64
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import fuzzyvault
from conftest import reference_v1_document, reference_v2_document
from fuzzyvault import Vault
from fuzzyvault.cli import EXIT_IO, EXIT_NULL, EXIT_OK, EXIT_VALIDATION, main

KEY_HEX = "00112233445566778899"
KEY_LEN = 10

FIELD_DOC = {
    "q": 65537,
    "kind": "field",
    "subsets": [
        {"size": 32768, "family": "triangular", "spreads": [1.0, 1.0]},
        {"size": 32769, "family": "gaussian", "spreads": [0.5, 0.5]},
    ],
}

LOCKING_DOC = {
    "q": 65537,
    "kind": "locking",
    "subsets": [
        {"elements": list(range(10, 22)), "family": "triangular",
         "spreads": [1.0, 1.0]},
    ],
}


def write_inputs(d):
    (d / "field.json").write_text(json.dumps(FIELD_DOC))
    (d / "locking.json").write_text(json.dumps(LOCKING_DOC))
    probe = dict(LOCKING_DOC, kind="unlocking")
    (d / "probe.json").write_text(json.dumps(probe))
    return d


@pytest.fixture
def workdir(tmp_path):
    return write_inputs(tmp_path)


def lock_args(d, **overrides):
    args = {
        "--key-hex": KEY_HEX,
        "--locking-set": str(d / "locking.json"),
        "--field-partition": str(d / "field.json"),
        "--k": "8",
        "--r": "60",
        "--seed": "7",
        "--out": str(d / "vault.json"),
    }
    args.update(overrides)
    return ["lock"] + [s for kv in args.items() for s in kv]


def write_huge_field(d) -> int:
    """A field at q = 2**41 + 27, the next prime after 2**41, of two
    ``size`` subsets, and the 12-element locking set in it; returns q."""
    q = 2**41 + 27
    (d / "field.json").write_text(json.dumps(dict(FIELD_DOC, q=q, subsets=[
        {"size": 2**40, "family": "triangular", "spreads": [1.0, 1.0]},
        {"size": q - 2**40, "family": "gaussian", "spreads": [0.5, 0.5]}])))
    (d / "locking.json").write_text(json.dumps(dict(LOCKING_DOC, q=q)))
    return q


def run_capped(argv):
    """``main(argv)`` in a child process whose address space is capped at
    2 GB, so that a build too large to hold fails there and not the machine."""
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
            "from fuzzyvault.cli import main; sys.exit(main(sys.argv[1:]))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fuzzyvault.__file__)))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=30)


class TestLock:
    def test_writes_vault(self, workdir, capsys):
        assert main(lock_args(workdir)) == EXIT_OK
        out = capsys.readouterr().out
        assert "locked:" in out and "q=65537" in out
        doc = json.loads((workdir / "vault.json").read_text())
        assert doc["format_version"] == 3
        # 1 byte per id of the 2 templates, 3 per core below q = 65537
        assert [len(base64.b64decode(doc[name])) for name in ("template_ids", "x_cores",
                                                              "y_cores")] == [60, 180, 180]

    def test_byte_identical_reruns(self, workdir):
        main(lock_args(workdir))
        first = (workdir / "vault.json").read_bytes()
        main(lock_args(workdir))
        assert (workdir / "vault.json").read_bytes() == first

    def test_seed_changes_output(self, workdir):
        main(lock_args(workdir))
        first = (workdir / "vault.json").read_bytes()
        main(lock_args(workdir, **{"--seed": "8"}))
        assert (workdir / "vault.json").read_bytes() != first

    def test_bad_hex_key(self, workdir, capsys):
        assert main(lock_args(workdir, **{"--key-hex": "zz"})) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_r_beyond_field(self, workdir):
        assert main(lock_args(workdir, **{"--r": "70000"})) == EXIT_VALIDATION

    def test_r_too_large_to_hold(self, tmp_path):
        # 2**40 points fit the field but not memory: one error line and
        # exit 2, where numpy's MemoryError ended in a traceback and exit 1
        write_huge_field(tmp_path)
        child = run_capped(lock_args(tmp_path, **{"--r": str(2**40)}))
        assert child.returncode == EXIT_VALIDATION, child.stderr
        assert child.stderr.startswith("error: out of memory: ")
        assert child.stderr.count("\n") == 1 and "Traceback" not in child.stderr
        assert not (tmp_path / "vault.json").exists()

    def test_bad_subset_index(self, workdir):
        assert main(lock_args(workdir, **{"--subset-index": "3"})) == EXIT_VALIDATION

    def test_locking_template_missing_from_field(self, workdir, capsys):
        # the field has triangular (1, 1): chaff would never take this shape
        doc = copy.deepcopy(LOCKING_DOC)
        doc["subsets"][0]["spreads"] = [1.0, 2.0]
        (workdir / "locking.json").write_text(json.dumps(doc))
        assert main(lock_args(workdir)) == EXIT_VALIDATION
        assert "not a template of the field" in capsys.readouterr().err
        assert not (workdir / "vault.json").exists()

    def test_plateau_too_wide_for_its_cores(self, workdir, capsys):
        # (x0 + y0) / 2 rounds to even at 1e16: the vault would not hold the
        # cores it was locked at
        wide = {"family": "trapezoidal", "spreads": [1e16, 1.0, 1.0]}
        field = copy.deepcopy(FIELD_DOC)
        field["subsets"][0].update(wide)
        locking = copy.deepcopy(LOCKING_DOC)
        locking["subsets"][0].update(wide)
        (workdir / "field.json").write_text(json.dumps(field))
        (workdir / "locking.json").write_text(json.dumps(locking))
        assert main(lock_args(workdir)) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: template ")
        assert "trapezoidal" in err[0] and "-core" in err[0]
        assert not (workdir / "vault.json").exists()

    def test_field_partition_of_another_kind(self, workdir, capsys):
        # labelled "unlocking", a set covering 41 elements locked with exit 0
        field = copy.deepcopy(FIELD_DOC)
        field["kind"] = "unlocking"
        field["subsets"] = [{"elements": list(range(41)), "family": "triangular",
                             "spreads": [1.0, 1.0]}]
        (workdir / "field.json").write_text(json.dumps(field))
        assert main(lock_args(workdir)) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "must cover every element" in err[0]
        assert str(workdir / "field.json") in err[0]
        assert not (workdir / "vault.json").exists()

    def test_missing_locking_file(self, workdir):
        argv = lock_args(workdir, **{"--locking-set": str(workdir / "nope.json")})
        assert main(argv) == EXIT_IO


def unlock_args(d, probe="probe.json", **overrides):
    args = {
        "--vault": str(d / "vault.json"),
        "--probe-set": str(d / probe),
        "--key-len": str(KEY_LEN),
    }
    args.update(overrides)
    return ["unlock"] + [s for kv in args.items() for s in kv]


class TestUnlock:
    def test_round_trip(self, workdir, capsys):
        main(lock_args(workdir))
        capsys.readouterr()
        assert main(unlock_args(workdir)) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.strip() == KEY_HEX
        assert "matched=12" in captured.err

    def test_wrong_family_probe_returns_null(self, workdir, capsys):
        main(lock_args(workdir))
        doc = dict(LOCKING_DOC, kind="unlocking")
        doc["subsets"] = [dict(doc["subsets"][0],
                               family="gaussian", spreads=[0.5, 0.5])]
        (workdir / "wrong.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(unlock_args(workdir, probe="wrong.json")) == EXIT_NULL
        assert capsys.readouterr().out.strip() == "null"

    @pytest.mark.parametrize("cap, tail", [
        ("100", "subsets_tried=100 cap_hit=1"),
        # C(12, 8) = 495: every subset tried, so the cap did not cut it short
        ("495", "subsets_tried=495 cap_hit=0"),
    ])
    def test_stderr_reports_cap_hit(self, workdir, capsys, cap, tail):
        main(lock_args(workdir))
        capsys.readouterr()
        # the genuine subset decoded as a 9-byte key fails the CRC check
        argv = unlock_args(workdir, **{"--key-len": "9", "--effort-cap": cap})
        assert main(argv) == EXIT_NULL
        captured = capsys.readouterr()
        assert captured.out.strip() == "null"
        assert captured.err.strip() == f"matched=12 {tail}"

    @pytest.mark.parametrize("delta", [{}, {"--delta": "1e12"}], ids=["default", "1e12"])
    def test_probe_subset_of_2e40_elements(self, tmp_path, delta):
        # unlocking fuzzifies only the probes that reach an unclaimed vault
        # point, where it built all 2**40, or at a tolerance of 1e12 all
        # those within it, and ran out of memory
        q = write_huge_field(tmp_path)
        (tmp_path / "probe.json").write_text(_sized_set("unlocking", q, 2**40))
        assert main(lock_args(tmp_path)) == EXIT_OK
        child = run_capped(unlock_args(tmp_path, **delta))
        assert child.returncode in (EXIT_OK, EXIT_NULL), child.stderr

    def test_missing_vault(self, workdir):
        assert main(unlock_args(workdir)) == EXIT_IO

    def test_corrupted_vault(self, workdir):
        (workdir / "vault.json").write_text("{not json")
        assert main(unlock_args(workdir)) == EXIT_VALIDATION

    def test_truncated_vault_document(self, workdir):
        (workdir / "vault.json").write_text('{"q": 65537}')
        assert main(unlock_args(workdir)) == EXIT_VALIDATION


# the explicit scenario of TestAnalyze.test_explicit_params
ANALYZE_ARGS = {"--q": "7", "--k": "1", "--r": "3", "--t": "1", "--t-mfj": "1", "--m-a": "1",
                "--m-f": "1", "--n": "0"}


class TestAnalyze:
    def test_preset_text(self, capsys):
        assert main(["analyze", "--preset", "movie-k16-t20"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "log2 spurious polynomials" in out
        assert "reported claims" in out
        assert "DISCREPANCY" in out

    def test_preset_json(self, capsys):
        assert main(["analyze", "--preset", "movie-k16-t20",
                     "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["reported_claims"]["fuzzy_log2_count"] == 249
        assert doc["discrepancy_flag"] is True

    def test_explicit_params(self, capsys):
        argv = ["analyze", "--q", "7", "--k", "1", "--r", "3", "--t", "1",
                "--t-mfj", "1", "--m-a", "1", "--m-f", "1", "--n", "0",
                "--format", "json"]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["log2_spurious"] == pytest.approx(3.9475, abs=1e-3)

    def test_missing_params(self, capsys):
        assert main(["analyze", "--q", "7", "--k", "1"]) == EXIT_VALIDATION
        assert "missing scenario parameters" in capsys.readouterr().err

    def test_unknown_preset_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--preset", "bogus"])

    # each overflowed a float in the formulas, a traceback with exit 1
    @pytest.mark.parametrize("name, message", [
        ("--q", f"field size q={10**400} exceeds 2**53"),
        ("--k", f"need 1 <= k <= 2**53 and 0 <= n <= 2**53, got k={10**400}, n=0"),
        ("--n", f"need 1 <= k <= 2**53 and 0 <= n <= 2**53, got k=1, n={10**400}"),
    ], ids=["q", "k", "n"])
    def test_integer_past_the_float_range_refused(self, capsys, name, message):
        args = dict(ANALYZE_ARGS, **{name: str(10**400)})
        assert main(["analyze", *(token for item in args.items() for token in item)]) == (
            EXIT_VALIDATION)
        assert message in capsys.readouterr().err

    def test_more_locking_families_than_field_elements_refused(self, capsys):
        # it exited 2 with "log2 of a non-positive rational", naming no parameter
        args = dict(ANALYZE_ARGS, **{"--m-a": "9", "--m-f": "9"})
        assert main(["analyze", *(token for item in args.items() for token in item)]) == (
            EXIT_VALIDATION)
        assert "need m_a <= q, got m_a=9, q=7" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None)
    @given(values=st.fixed_dictionaries({
        name: st.integers(0, 12) | st.sampled_from([2**53, 2**53 + 1, 10**308, 10**400])
        | st.integers(-10**400, 10**400)
        for name in [*ANALYZE_ARGS, "--family-cardinality"]}),
        form=st.sampled_from(["text", "json"]))
    def test_any_integers_exit_0_or_2(self, values, form):
        argv = ["analyze", "--format", form]
        for name, value in values.items():
            argv += [name, str(value)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) in (EXIT_OK, EXIT_VALIDATION)


class TestMinutiaeDemo:
    MINUTIAE = (
        "# three per line: kind x y lower center upper\n"
        "ridge_ending 8 8 337.5 0 22.5\n"
        "bifurcation 48 32 0 22.5 45\n"
        "ridge_ending 88 56 22.5 45 67.5\n"
        "bifurcation 128 80 45 67.5 90\n"
        "ridge_ending 168 104 202.5 225 247.5\n"
        "bifurcation 208 128 292.5 315 337.5\n"
    )

    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text(self.MINUTIAE)
        assert main(["minutiae-demo", "--minutiae", str(path),
                     "--key-hex", "cafebabe"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.strip() == "cafebabe"
        assert "minutiae=6" in captured.err

    def test_heavy_jitter_null(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text(self.MINUTIAE)
        assert main(["minutiae-demo", "--minutiae", str(path),
                     "--jitter", "2.0"]) == EXIT_NULL
        assert capsys.readouterr().out.strip() == "null"

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("ridge_ending 1 2 3\n")
        assert main(["minutiae-demo", "--minutiae", str(path)]) == EXIT_VALIDATION

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.txt"
        assert main(["minutiae-demo", "--minutiae", str(path)]) == EXIT_IO

    @pytest.mark.parametrize("count", [81, 65538, 262144], ids=["r+1", "q+1", "4q"])
    def test_more_minutiae_than_points_refused(self, tmp_path, count):
        # one more than the default r = 80, one more than the default field
        # holds, where placing the elements cannot end, and a file of 8 MB,
        # whose lines past the 80th are counted, not parsed
        path = tmp_path / "m.txt"
        path.write_text("ridge_ending 8 8 337.5 0 22.5\n" * count)
        child = run_capped(["minutiae-demo", "--minutiae", str(path)])
        assert child.returncode == EXIT_VALIDATION
        assert child.stderr == f"error: {count} minutiae do not fit a vault of r=80 points\n"

    def test_field_beyond_demo_bound(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text(self.MINUTIAE)
        argv = ["minutiae-demo", "--minutiae", str(path), "--q", str(2**61 - 1)]
        assert main(argv) == EXIT_VALIDATION
        assert "exceeds 2**53" in capsys.readouterr().err


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("ok   ") == 6
        assert "FAIL" not in out


def _replace(doc, path, value):
    """JSON text of ``doc`` with the node at ``path`` replaced by ``value``."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


def _v2(doc) -> dict:
    """The v2 document of the vault of ``doc``, a v3 document."""
    return reference_v2_document(Vault.from_dict(doc))


def _v3_value(doc, name, value):
    """JSON text of the v3 document ``doc`` with the first value of its
    column ``name`` set to ``value``, at the column's width."""
    raw = bytearray(base64.b64decode(doc[name]))
    width = len(raw) // doc["r"]
    raw[:width] = value.to_bytes(width, "little")
    return _replace(doc, [name], base64.b64encode(raw).decode())


def _template(doc, family):
    """Index of the first template of ``family`` in a v2 vault document."""
    return next(i for i, t in enumerate(doc["templates"]) if t["family"] == family)


def _v2_core(doc, axis, family, value):
    """``doc`` with the ``axis`` core of its first point of ``family`` set
    to ``value``, as JSON text."""
    ids = [i for i, t in enumerate(doc["templates"]) if t["family"] == family]
    point = next(i for i, t in enumerate(doc["template_ids"]) if t in ids)
    return _replace(doc, [f"{axis}_cores", point], value)


def _canonical(doc):
    """``doc`` as the lock writes it: sorted keys, no spaces, a newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _sized_subset(doc, size):
    entry = doc["subsets"][0]
    del entry["elements"]
    entry["size"] = size
    return json.dumps(doc)


def _sized_set(kind, q, size):
    """A set of one triangular subset of ``size`` elements, as JSON text."""
    return json.dumps({"q": q, "kind": kind, "subsets": [
        {"size": size, "family": "triangular", "spreads": [1.0, 1.0]}]})


# a JSON integer that no float holds
HUGE_INT = 10**400

# (file, mutation of its parsed document or text -> new file contents); a
# vault file's document is given as v2
MALFORMED = {
    # vault files that crashed the v1 reader with TypeError or
    # AttributeError, their faults carried by the v2 file
    "vault-points-int": ("vault.json", lambda d: _replace(d, ["x_cores"], 5)),
    "vault-params-null": ("vault.json", lambda d: _replace(d, ["templates", 0, "spreads"], None)),
    "vault-top-level-array": ("vault.json", lambda d: json.dumps([d])),
    "vault-point-int": ("vault.json", lambda d: _replace(d, ["templates", 0], 7)),
    "vault-family-array": (
        "vault.json", lambda d: _replace(d, ["templates", 0, "family"], ["x"])),
    # vault files that the v1 reader unlocked with exit 0
    "vault-param-nan": ("vault.json", lambda d: _replace(
        d, ["templates", _template(d, "gaussian"), "spreads", 1], math.nan)),
    "vault-params-1e300": ("vault.json", lambda d: _v2_core(d, "x", "triangular", int(1e300))),
    "vault-core-beyond-q": ("vault.json", lambda d: _v2_core(d, "x", "triangular", 70000)),
    "vault-y-core-negative": ("vault.json", lambda d: _v2_core(d, "y", "triangular", -5)),
    "vault-param-1e400": ("vault.json", lambda d: _replace(
        d, ["templates", _template(d, "gaussian"), "spreads", 1], "BIG"
    ).replace('"BIG"', "1e400")),
    "vault-crc-variant": (
        "vault.json", lambda d: _replace(d, ["crc_variant"], "CRC-32")),
    # a trapezoidal core (x0 + y0) / 2 beyond the float range: a traceback;
    # x0 and y0 round to the core 1e308 under a plateau of half-width 2**52
    "vault-core-overflow": ("vault.json", lambda d: _v2_core(
        {**d, "q": 2**1024, "templates": [
            {"family": "trapezoidal", "spreads": [2.0**52, 1.0, 1.0]}
            if t["family"] == "gaussian" else t for t in d["templates"]]},
        "x", "trapezoidal", int(1e308))),
    # integers beyond the float range: float() raised OverflowError
    "vault-param-huge-int": ("vault.json", lambda d: _replace(
        d, ["templates", _template(d, "gaussian"), "spreads", 1], HUGE_INT)),
    # a file of format 1, which is no longer read
    "vault-format-v1": (
        "vault.json", lambda d: json.dumps(reference_v1_document(Vault.from_dict(d)))),
    "probe-spread-huge-int": (
        "probe.json", lambda d: _replace(d, ["subsets", 0, "spreads", 0], HUGE_INT)),
    # a q beyond the float range: float() of an element raised OverflowError
    "probe-q-beyond-float": ("probe.json", lambda d: _replace(
        json.loads(_replace(d, ["q"], HUGE_INT)),
        ["subsets", 0, "elements"], [HUGE_INT // 10])),
    # a probe set over another field that unlocked with exit 0
    "probe-q-other-field": ("probe.json", lambda d: _replace(d, ["q"], 70001)),
    # probe-set files that crashed with TypeError
    "probe-subsets-int": ("probe.json", lambda d: _replace(d, ["subsets"], 5)),
    "probe-top-level-array": ("probe.json", lambda d: json.dumps([d])),
    "probe-spreads-null": (
        "probe.json", lambda d: _replace(d, ["subsets", 0, "spreads"], None)),
    "probe-q-null": ("probe.json", lambda d: _replace(d, ["q"], None)),
    # a size that range() would have tried to allocate
    "probe-size-1e12": ("probe.json", lambda d: _sized_subset(d, 10**12)),
    # sizes in range for their q, whose element tuples ran out of memory
    # (2**40) or overflowed len() (2**100)
    "probe-size-2e40": ("probe.json", lambda d: _sized_set("unlocking", 2**61 - 1, 2**40)),
    "probe-size-2e100": ("probe.json", lambda d: _sized_set("unlocking", 2**127 - 1, 2**100)),
    "locking-size-2e100": (
        "locking.json", lambda d: _sized_set("locking", 2**127 - 1, 2**100)),
    # nesting that made json.load raise RecursionError
    "vault-nested-arrays": ("vault.json", lambda d: "[" * 200_000 + "]" * 200_000),
    "probe-nested-objects": (
        "probe.json", lambda d: '{"q":' * 200_000 + "0" + "}" * 200_000),
    # minutiae files whose error did not name the file
    "minutiae-orientation-nan": (
        "m.txt", lambda text: text.replace("337.5 0 22.5", "nan 0 22.5")),
    "minutiae-not-utf8": ("m.txt", lambda text: b"\xff" + text.encode()),
}


def assert_rejected(path, contents, argv, capsys):
    """Writing ``contents`` to ``path`` makes ``argv`` exit 2 with one
    error line that names the file."""
    if isinstance(contents, str):
        contents = contents.encode()
    path.write_bytes(contents)
    capsys.readouterr()
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(path) in err[0]


# hostile v2 vault files, mutations of the v2 document of the vault lock writes
MALFORMED_V2 = {
    "id-outside-table": lambda d: _replace(d, ["template_ids", 0], len(d["templates"])),
    "id-negative": lambda d: _replace(d, ["template_ids", 0], -1),
    "core-bool": lambda d: _replace(d, ["x_cores", 0], True),
    "core-float": lambda d: _replace(d, ["x_cores", 0], float(d["x_cores"][0])),
    "core-beyond-q": lambda d: _replace(d, ["x_cores", 0], d["q"]),
    "y-core-negative": lambda d: _replace(d, ["y_cores", 0], -1),
    "core-huge-int": lambda d: _replace(d, ["x_cores", 0], HUGE_INT),
    "column-not-r-long": lambda d: _replace(d, ["y_cores"], d["y_cores"][:-1]),
    "x-cores-repeated": lambda d: _replace(d, ["x_cores", 1], d["x_cores"][0]),
    # 2**1023 + 2**1023 overflows; q is raised so that the core is in range
    "spread-overflows-parameter": lambda d: _v2_core(
        {**d, "q": 2**1024, "templates": [
            {**t, "spreads": [1.0, 2.0**1023]} if t["family"] == "triangular" else t
            for t in d["templates"]]},
        "x", "triangular", 2**1023),
    "crc-variant": lambda d: _replace(d, ["crc_variant"], "CRC-32"),
    # a field beyond float64 cores, which no lock writes: it loaded with exit 0
    "q-beyond-float-cores": lambda d: _replace(d, ["q"], 2**61 - 1),
    # look-alikes of the text that the v2 writer wrote
    "core-leading-zero": lambda d: _canonical(d).replace(',"x_cores":[', ',"x_cores":[0', 1),
    "id-19-digits": lambda d: _canonical({**d, "template_ids": [10**18, *d["template_ids"][1:]]}),
    # the json reader keeps the last x_cores, one core repeated
    "x-cores-twice": lambda d: _canonical(d)[:-2] + ',"x_cores":'
    + json.dumps([d["x_cores"][0]] * d["r"], separators=(",", ":")) + "}\n",
    "marker-in-crc-variant": lambda d: _canonical({**d, "crc_variant": 'CRC-16/ARC],"y_cores":['}),
    "marker-in-family": lambda d: _canonical({**d, "templates": [
        {**d["templates"][0], "family": 'triangular],"x_cores":['}, *d["templates"][1:]]}),
    # a field past int64, refused by its column's name
    "core-past-int64": lambda d: _canonical({**d, "x_cores": [2**64 + 5, *d["x_cores"][1:]]}),
    # a core that int64 holds, in a field beyond 2**53
    "core-past-2-53": lambda d: _canonical(
        {**d, "q": 2**62, "x_cores": [2**53 + 1, *d["x_cores"][1:]]}),
}

# hostile v3 vault files, mutations of the file lock writes, and the start
# of the refusal each gives, which names the column
MALFORMED_V3 = {
    "column-not-string": (lambda d: _replace(d, ["x_cores"], list(range(60))),
                          "x_cores must be a base64 string, got list"),
    "bad-base64": (lambda d: _replace(d, ["y_cores"], "!" + d["y_cores"][1:]),
                   "y_cores is not base64"),
    "wrong-byte-length": (lambda d: _replace(d, ["x_cores"], d["x_cores"][:-4]),
                          "x_cores must hold r=60 values of 3 bytes, got 177 bytes"),
    "core-beyond-q": (lambda d: _v3_value(d, "x_cores", d["q"]),
                      "vault x-cores must lie in [0, q=65537)"),
    "id-outside-table": (lambda d: _v3_value(d, "template_ids", len(d["templates"])),
                         "template ids must index the table of 2 templates"),
    # r comes from the file: a short column is refused before an array of
    # 2**40 values is allocated
    "r-2e40": (lambda d: _replace(d, ["r"], 2**40),
               "template_ids must hold r=1099511627776 values of 1 bytes, got 60 bytes"),
}

# look-alikes of the v2 writer's text that read as the vault the lock wrote
LOOK_ALIKE_V2 = {
    # the json reader keeps the last x_cores, the real one
    "x-cores-twice": lambda d: _canonical(d).replace(
        ',"x_cores":[', ',"x_cores":[1,1],"x_cores":['),
    "keys-reversed": lambda d: json.dumps(dict(reversed(d.items())), separators=(",", ":")) + "\n",
    "no-final-newline": lambda d: _canonical(d)[:-1],
}


class TestMalformedInput:
    @pytest.mark.parametrize("name, mutate", MALFORMED.values(), ids=MALFORMED.keys())
    def test_rejected_with_exit_2_naming_the_file(self, workdir, capsys, name, mutate):
        path = workdir / name
        if name == "m.txt":
            contents = mutate(TestMinutiaeDemo.MINUTIAE)
            argv = ["minutiae-demo", "--minutiae", str(path)]
        else:
            assert main(lock_args(workdir)) == EXIT_OK
            doc = json.loads(path.read_text())
            contents = mutate(_v2(doc) if name == "vault.json" else doc)
            argv = lock_args(workdir) if name == "locking.json" else unlock_args(workdir)
        assert_rejected(path, contents, argv, capsys)

    @pytest.mark.parametrize("mutate", MALFORMED_V2.values(), ids=MALFORMED_V2.keys())
    def test_hostile_v2_vault_rejected(self, workdir, capsys, mutate):
        assert main(lock_args(workdir)) == EXIT_OK
        path = workdir / "vault.json"
        assert_rejected(path, mutate(_v2(json.loads(path.read_text()))), unlock_args(workdir),
                        capsys)

    @pytest.mark.parametrize("mutate, cause", MALFORMED_V3.values(), ids=MALFORMED_V3.keys())
    def test_hostile_v3_vault_rejected(self, workdir, capsys, mutate, cause):
        assert main(lock_args(workdir)) == EXIT_OK
        path = workdir / "vault.json"
        assert_rejected(path, mutate(json.loads(path.read_text())), unlock_args(workdir), capsys)
        main(unlock_args(workdir))
        assert capsys.readouterr().err.startswith(f"error: bad vault file {path}: {cause}")

    @pytest.mark.parametrize("mutate", LOOK_ALIKE_V2.values(), ids=LOOK_ALIKE_V2.keys())
    def test_look_alike_v2_vault_unlocks(self, workdir, capsys, mutate):
        assert main(lock_args(workdir)) == EXIT_OK
        path = workdir / "vault.json"
        path.write_text(mutate(_v2(json.loads(path.read_text()))))
        capsys.readouterr()
        assert main(unlock_args(workdir)) == EXIT_OK
        assert capsys.readouterr().out.strip() == KEY_HEX

    @pytest.mark.parametrize("mutate, cause", [
        (MALFORMED["vault-format-v1"][1],
         "vault format 1 is no longer read: lock the key again to write a format 3 file"),
        (MALFORMED_V2["q-beyond-float-cores"], "field size q=2305843009213693951 exceeds "
         "2**53, beyond which float64 fuzzy parameters cannot hold every field element"),
        (MALFORMED_V2["core-past-int64"], "x_cores must hold integers that int64 holds"),
        (MALFORMED_V2["core-past-2-53"], "field size q=4611686018427387904 exceeds "
         "2**53, beyond which float64 fuzzy parameters cannot hold every field element"),
    ], ids=["format-v1", "q-beyond-float-cores", "core-past-int64", "core-past-2-53"])
    def test_vault_refusal_names_its_cause(self, workdir, capsys, mutate, cause):
        assert main(lock_args(workdir)) == EXIT_OK
        path = workdir / "vault.json"
        assert_rejected(path, mutate(_v2(json.loads(path.read_text()))), unlock_args(workdir),
                        capsys)
        main(unlock_args(workdir))
        assert capsys.readouterr().err == f"error: bad vault file {path}: {cause}\n"

    @pytest.mark.parametrize("key_len, message", [("0", "at least 1 byte"),
                                                  ("15", "capacity exceeded")])
    def test_unlock_rejects_key_length_no_search_finds(self, workdir, capsys, key_len, message):
        main(lock_args(workdir))
        capsys.readouterr()
        assert main(unlock_args(workdir, **{"--key-len": key_len})) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_unlock_rejects_non_finite_delta(self, workdir):
        main(lock_args(workdir))
        for delta in ("nan", "inf", "0"):
            assert main(unlock_args(workdir, **{"--delta": delta})) == EXIT_VALIDATION


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
SPECIAL = "\0special\0"


def _paths(node, prefix=()):
    """Paths (key and index tuples) to every node below ``node``."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _minutiae_text(doc):
    return "\n".join(
        " ".join(map(str, line)) if isinstance(line, list) else str(line)
        for line in doc
    )


def _mutated(data, doc, render, special_tokens):
    """File bytes of ``doc`` after one random mutation: a node replaced by
    another JSON value, a node deleted, a NaN/Infinity/1e400/10**400 token
    inserted, or the rendered bytes truncated."""
    doc = copy.deepcopy(doc)
    op = data.draw(st.sampled_from(["replace", "delete", "special", "truncate"]))
    if op != "truncate":
        path = data.draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES) if op == "replace" else SPECIAL
    text = render(doc)
    if op == "special":
        token = data.draw(st.sampled_from(special_tokens))
        text = text.replace(json.dumps(SPECIAL), token).replace(SPECIAL, token)
    raw = text.encode("utf-8", "surrogatepass")
    if op == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    return raw


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = write_inputs(tmp_path_factory.mktemp("fuzz"))
    (d / "m.txt").write_text(TestMinutiaeDemo.MINUTIAE)
    assert main(lock_args(d)) == EXIT_OK
    vault = Vault.load(d / "vault.json")
    (d / "vault-v1.json").write_text(json.dumps(reference_v1_document(vault)))
    (d / "vault-v2.json").write_text(json.dumps(reference_v2_document(vault)))
    return d


class TestFuzzedInput:
    @pytest.mark.parametrize("name", ["vault.json", "probe.json", "locking.json",
                                      "field.json", "m.txt", "vault-v1.json", "vault-v2.json"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_exit_code_contract(self, fuzz_dir, name, data):
        """A mutated input file yields exit 0-3 and never an exception."""
        original = fuzz_dir / name
        mutated = fuzz_dir / f"mutated-{name}"
        if name == "m.txt":
            doc = [line.split() for line in original.read_text().splitlines()]
            raw = _mutated(data, doc, _minutiae_text,
                           ["nan", "inf", "-inf", "1e400", str(HUGE_INT)])
            argv = ["minutiae-demo", "--minutiae", str(mutated)]
        else:
            doc = json.loads(original.read_text())
            raw = _mutated(data, doc, json.dumps,
                           ["NaN", "Infinity", "-Infinity", "1e400", str(HUGE_INT)])
            if name in ("vault-v1.json", "vault-v2.json"):
                argv = unlock_args(fuzz_dir, **{"--effort-cap": "50", "--vault": str(original)})
            elif name in ("vault.json", "probe.json"):
                argv = unlock_args(fuzz_dir, **{"--effort-cap": "50"})
            else:
                argv = lock_args(fuzz_dir, **{"--out": str(fuzz_dir / "out.json")})
            argv = [str(mutated) if a == str(original) else a for a in argv]
        mutated.write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_IO, EXIT_VALIDATION, EXIT_NULL)
        if code == EXIT_VALIDATION:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
