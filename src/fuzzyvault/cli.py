"""Command-line front end: lock, unlock, analyze, minutiae-demo, selftest.

Exit codes: 0 success, 1 I/O failure, 2 validation failure, 3 unlock
returned null.  Commands raise OSError, ValueError or MemoryError (an
argument too large to hold, such as a huge ``--r``); :func:`main` alone
maps them to exit codes.  All commands are deterministic functions of their
arguments and input files, but ``lock`` without ``--seed``, which draws a
fresh seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import minutiae_demo, security_analysis
from .field_poly import FieldParams, crc16, decode_key, encode_key, lagrange_interpolate
from .multi_fuzzy_set import FIELD, LOCKING, UNLOCKING, MultiFuzzySet
from .vault import DEFAULT_EFFORT_CAP, LockParams, Vault, fuzzy_lock, fuzzy_unlock

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NULL = 3


def cmd_lock(args) -> int:
    key = bytes.fromhex(args.key_hex)
    locking_set = MultiFuzzySet.load(args.locking_set, LOCKING)
    field_mfs = MultiFuzzySet.load(args.field_partition, FIELD)
    if locking_set.q != field_mfs.q:  # as lock_polynomial checks, but naming the files
        raise ValueError(f"{args.locking_set} and {args.field_partition} disagree on q")
    if not (0 <= args.subset_index < locking_set.subset_count):
        raise ValueError(f"subset index {args.subset_index} out of range")
    params = LockParams(
        t=locking_set.total_elements,
        k_subset=args.subset_index,
        t_mfk=locking_set.subsets[args.subset_index].size,
        r=args.r,
        k=args.k,
        rho=args.rho,
        seed=args.seed,
    )
    vault, _ = fuzzy_lock(key, locking_set, field_mfs, params)
    vault.save(args.out)
    print(f"locked: q={vault.q} n={vault.n} r={vault.r} crc={vault.crc_variant}")
    return EXIT_OK


def cmd_unlock(args) -> int:
    vault = Vault.load(args.vault)
    probe_set = MultiFuzzySet.load(args.probe_set, UNLOCKING)
    try:
        result = fuzzy_unlock(
            vault, probe_set, args.subset_index, args.delta,
            args.key_len, args.effort_cap,
        )
    except ValueError as e:  # a probe set that does not fit the vault, or a bad option
        raise ValueError(f"unlocking {args.vault} with {args.probe_set}: {e}") from e
    d = result.diagnostics
    print(f"matched={d.matched} subsets_tried={d.subsets_tried} "
          f"cap_hit={int(d.cap_hit)}", file=sys.stderr)
    if result.key is None:
        print("null")
        return EXIT_NULL
    print(result.key.hex())
    return EXIT_OK


def _scenario_from_args(args) -> security_analysis.ScenarioParams:
    required = ("q", "k", "r", "t", "t_mfj", "m_a", "m_f", "n")
    missing = [name for name in required if getattr(args, name) is None]
    if missing:
        raise ValueError(f"missing scenario parameters: {', '.join(missing)}")
    return security_analysis.ScenarioParams(
        q=args.q, k=args.k, r=args.r, t=args.t, t_mfj=args.t_mfj,
        m_a=args.m_a, m_f=args.m_f, n=args.n, mu=args.mu,
        family_cardinality=args.family_cardinality,
    )


def cmd_analyze(args) -> int:
    if args.preset:
        report = security_analysis.scenario_report(args.preset)
    else:
        report = security_analysis.scenario_report(_scenario_from_args(args))
    if args.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True))
        return EXIT_OK
    p = report.params
    print(f"scenario: q={p.q} k={p.k} r={p.r} t={p.t} t_mfj={p.t_mfj} "
          f"m_a={p.m_a} m_f={p.m_f} n={p.n} mu={p.mu}")
    print(f"log2 spurious polynomials : {report.log2_spurious:.9f}")
    print(f"log2 family-bound count   : {report.log2_family_bound:.9f}")
    print(f"attacker success prob     : {report.attacker_prob:.6e}")
    if report.reported_claims:
        c = report.reported_claims
        print(f"reported claims           : classical 2^{c['classical_log2_count']} "
              f"({c['classical_security_bits']}-bit), "
              f"fuzzy 2^{c['fuzzy_log2_count']} ({c['fuzzy_security_bits']}-bit)")
    if report.discrepancy_flag:
        print("DISCREPANCY: computed counts disagree with the reported "
              "exponents by more than one bit")
    return EXIT_OK


def cmd_minutiae_demo(args) -> int:
    minutiae = minutiae_demo.parse_minutiae_file(args.minutiae, args.r)
    key = bytes.fromhex(args.key_hex)
    result = minutiae_demo.minutiae_vault_demo(
        minutiae, key, q=args.q, k=args.k, r=args.r,
        delta=args.delta, jitter=args.jitter, seed=args.seed,
    )
    d = result.unlock.diagnostics
    print(f"minutiae={len(minutiae)} vault_points={result.vault.r} "
          f"matched={d.matched}", file=sys.stderr)
    if result.unlock.key is None:
        print("null")
        return EXIT_NULL
    print(result.unlock.key.hex())
    return EXIT_OK


def _selftest_checks():
    from .fuzzy_number import FuzzyNumber
    from .multi_fuzzy_set import FamilyTemplate, SubsetDescriptor, partition_field

    def check_crc():
        assert crc16(b"123456789") == 0xBB3D, "CRC-16/ARC check value mismatch"
        assert crc16(b"") == 0x0000

    def check_codec():
        field = FieldParams(65537)
        key = bytes(range(10))
        p = encode_key(key, field, 8)
        material = decode_key(p, field, len(key))
        assert material is not None and material.key_bytes == key, "key round trip"

    def check_interpolation():
        field = FieldParams(131101)
        coeffs = (5, 0, 17, 131100)
        from .field_poly import Polynomial

        p = Polynomial(coeffs, field.q)
        pts = [(x, p.eval(x)) for x in range(4)]
        assert lagrange_interpolate(pts, field).coefficients == coeffs

    def check_vault_roundtrip():
        from .vault import fuzzy_lock as lock

        q = 65537
        tri = FamilyTemplate("triangular", (1.0, 1.0))
        gau = FamilyTemplate("gaussian", (0.5, 0.5))
        field_mfs = partition_field(q, [q // 2, q - q // 2], [tri, gau])
        elements = tuple(range(10, 22))
        locking = MultiFuzzySet(q, (SubsetDescriptor(elements, tri, 0),), LOCKING)
        params = LockParams(t=12, k_subset=0, t_mfk=12, r=60, k=8, seed=7)
        key = b"selftest-key!"
        vault, _ = lock(key, locking, field_mfs, params)
        # through the file format, as lock and unlock pass a vault
        loaded = Vault.from_json(vault.to_json())
        assert loaded == vault, "vault file round trip changed the vault"
        result = fuzzy_unlock(loaded, locking, 0, 0.25, len(key))
        assert result.key == key, "vault round trip failed"

    def check_capped_search():
        # 12 points on no key's polynomial: subset 0 fails, and the
        # batched walk runs to the cap
        import random

        from .vault import search_key

        q = 65537
        rnd = random.Random(7)
        chaff = [(x, rnd.randrange(q)) for x in rnd.sample(range(q), 12)]
        result = search_key(chaff, q, 8, 12, effort_cap=50)
        d = result.diagnostics
        assert result.key is None, "chaff unlocked a key"
        assert (d.subsets_tried, d.cap_hit) == (50, True), "capped search miscounted"

    def check_alpha_cut():
        f = FuzzyNumber.triangular(1, 2, 5)
        cut = f.alpha_cut(0.5)
        assert abs(cut.lo - 1.5) < 1e-12 and abs(cut.hi - 3.5) < 1e-12

    return [
        ("crc16 reference value", check_crc),
        ("key encode/decode round trip", check_codec),
        ("exact lagrange interpolation", check_interpolation),
        ("vault lock/unlock round trip", check_vault_roundtrip),
        ("capped search of chaff", check_capped_search),
        ("triangular alpha cut", check_alpha_cut),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as e:
            failures += 1
            print(f"FAIL {name}: {e}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyvault",
        description="Fuzzy-fuzzy vault: lock/unlock keys over multi-fuzzy sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lock", help="lock a key into a vault file")
    p.add_argument("--key-hex", required=True)
    p.add_argument("--locking-set", required=True)
    p.add_argument("--field-partition", required=True)
    p.add_argument("--k", type=int, required=True, help="coefficient count")
    p.add_argument("--r", type=int, required=True, help="total vault points")
    p.add_argument("--rho", type=float, default=0.2)
    p.add_argument("--subset-index", type=int, default=0)
    p.add_argument("--seed", type=int, default=None,
                   help="chaff seed; an explicit one reproduces the file byte for byte "
                        "(default: a fresh random seed per lock)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lock)

    p = sub.add_parser("unlock", help="attempt to recover a key from a vault file")
    p.add_argument("--vault", required=True)
    p.add_argument("--probe-set", required=True)
    p.add_argument("--subset-index", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--key-len", type=int, required=True)
    p.add_argument("--effort-cap", type=int, default=DEFAULT_EFFORT_CAP)
    p.set_defaults(func=cmd_unlock)

    p = sub.add_parser("analyze", help="evaluate the security formulas")
    p.add_argument("--preset", choices=sorted(security_analysis.PRESETS))
    for name in ("q", "k", "r", "t", "t-mfj", "m-a", "m-f", "n"):
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--family-cardinality", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("minutiae-demo", help="end-to-end minutiae vault demo")
    p.add_argument("--minutiae", required=True, help="text file: kind x y lo mid hi")
    p.add_argument("--key-hex", default="00112233")
    p.add_argument("--q", type=int, default=65537)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--r", type=int, default=80)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the demo's lock and probe jitter (default 0, so that "
                        "the demo reproduces; its vault is not secret)")
    p.set_defaults(func=cmd_minutiae_demo)

    p = sub.add_parser("selftest", help="run the fast built-in checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as e:
        print(f"error: out of memory: {str(e) or 'allocation failed'}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
