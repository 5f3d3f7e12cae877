"""Seeded inputs and the four benchmark workloads.

Every input a workload hands to fuzzyvault -- keys, locking sets, probe
sets and vault files -- is derived from the workload seed, so one seed
always yields the same inputs and the same vault bytes.  The parameters are
the desk setup of ``tests/conftest.py``: q = 65 537, k = 8, rho = 0.2,
delta = 0.25, a four-family field partition, a 12-byte key per user and a
locking set of 12 triangular elements plus 6 gaussian and 6 sigmoid decoys.

Each workload gives one optimisable layer most of the work:

* ``enroll``  writes: chaff, fuzzification, Horner and ``to_json``.
* ``verify``  reads the vaults ``enroll`` writes: ``Vault.load`` and
  ``match_points``; the key search tries a single subset.
* ``reject``  is the impostor's failing k-subset search, capped.
* ``cli``     is one fresh ``fuzzyvault.cli unlock`` process per op, so
  interpreter start-up and imports dominate.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

import fuzzyvault as fv
import spans
from fuzzyvault.multi_fuzzy_set import UNLOCKING

Q = 65537
K = 8
RHO = 0.2
DELTA = 0.25
KEY_LEN = 12
T_MFK = 12
DECOYS = 6
CLI_TIMEOUT_S = 60
CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

TRI = fv.FamilyTemplate("triangular", (1.0, 1.0))
GAU = fv.FamilyTemplate("gaussian", (0.5, 0.5))
SIG = fv.FamilyTemplate("sigmoid", (1.0, 1.0, 0.9, 4.0))
TRAP = fv.FamilyTemplate("trapezoidal", (0.5, 1.0, 1.0))

EXIT_OK = 0
EXIT_NULL = 3


def desk_field() -> fv.MultiFuzzySet:
    quarter = Q // 4
    return fv.partition_field(
        Q, [quarter, quarter, quarter, Q - 3 * quarter], [TRI, GAU, SIG, TRAP]
    )


class User:
    """One enrolment: key, locking set and lock parameters, all from
    ``(seed, r, index)``."""

    def __init__(self, field: fv.MultiFuzzySet, seed: int, r: int, index: int):
        rnd = random.Random(f"fuzzyvault-bench:{seed}:{r}:{index}")
        self.field = field
        self.key = rnd.randbytes(KEY_LEN)
        elems = rnd.sample(range(Q), T_MFK + 2 * DECOYS)
        self.genuine = sorted(elems[:T_MFK])
        self.locking_set = fv.build_locking_set(field, [
            (elems[:T_MFK], TRI),
            (elems[T_MFK:T_MFK + DECOYS], GAU),
            (elems[T_MFK + DECOYS:], SIG),
        ])
        self.params = fv.LockParams(
            t=T_MFK + 2 * DECOYS, k_subset=0, t_mfk=T_MFK, r=r, k=K,
            rho=RHO, delta=DELTA, seed=rnd.getrandbits(63),
        )
        self.rnd = rnd

    def lock(self) -> fv.Vault:
        vault, _ = fv.fuzzy_lock(self.key, self.locking_set, self.field, self.params)
        return vault

    def genuine_probe(self, vault: fv.Vault, family=TRI) -> fv.MultiFuzzySet:
        """The 12 genuine elements plus 12 elements that hit no vault core."""
        taken = {p.x_core for p in vault.points}
        extra = set()
        while len(extra) < T_MFK:
            e = self.rnd.randrange(Q)
            if e not in taken:
                extra.add(e)
        elems = self.genuine + sorted(extra)
        return fv.build_locking_set(self.field, [(elems, family)], UNLOCKING)

    def impostor_probe(self, vault: fv.Vault, size: int) -> fv.MultiFuzzySet:
        """``size`` elements at chaff cores of the locking family."""
        genuine = set(self.genuine)
        cores = sorted(
            p.x_core for p in vault.points
            if p.x.family == TRI.family and p.x_core not in genuine
        )
        if len(cores) < size:
            raise RuntimeError(f"vault has {len(cores)} locking-family chaff points")
        elems = sorted(self.rnd.sample(cores, size))
        return fv.build_locking_set(self.field, [(elems, TRI)], UNLOCKING)


def sympy_import_ms(importtime_log: str) -> float:
    """Cumulative ``import sympy`` time from ``-X importtime`` output."""
    for line in importtime_log.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and fields[-1].strip() == "sympy":
            return int(fields[1]) / 1e3
    return 0.0


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    """A closed loop with one client: ``run_op(i)`` is the timed call,
    ``check_op`` compares its result with the answer the generator
    expects, ``finish`` runs the checks that must wait until timing ends."""

    name = ""
    r = 0
    effort_cap = 100_000
    probe = ""

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.field = desk_field()
        self.fingerprint = None

    def path(self, stem: str, i: int) -> str:
        return os.path.join(self.workdir, f"{stem}-{i}.json")

    def record(self) -> dict:
        return {
            "q": Q, "k": K, "r": self.r, "rho": RHO, "delta": DELTA,
            "key_len": KEY_LEN, "probe": self.probe,
            "effort_cap": self.effort_cap,
        }

    def setup(self) -> None:
        pass

    def prepare(self, i: int) -> None:
        """Build op ``i``'s inputs, outside the timed region."""

    def run_op(self, i: int):
        raise NotImplementedError

    def run_traced(self, i: int, tracer):
        with tracer.span(spans.OP):
            return self.run_op(i)

    def collect(self, i: int, tracer) -> None:
        """Gather trace data op ``i`` left outside the tracer, untimed."""

    def check_op(self, i: int, result) -> str | None:
        raise NotImplementedError

    def op_bytes(self, i: int) -> int:
        raise NotImplementedError

    def finish(self, n_ops: int) -> list[tuple[int, str]]:
        return []


class _Pool(Workload):
    """Workloads that read a pool of vaults enrolled during set-up."""

    pool_size = 3

    def setup(self) -> None:
        self.users, self.vault_paths, self.probes = [], [], []
        for i in range(2 if self.tiny else self.pool_size):
            user = User(self.field, self.seed, self.r, i)
            vault = user.lock()
            path = self.path("vault", i)
            vault.save(path)
            self.users.append(user)
            self.vault_paths.append(path)
            self.probes.append(self.make_probes(i, user, vault))
        self.fingerprint = sha256_file(self.vault_paths[0])
        self.sizes = [os.path.getsize(p) for p in self.vault_paths]

    def make_probes(self, i: int, user: User, vault: fv.Vault):
        raise NotImplementedError

    def op_bytes(self, i: int) -> int:
        return self.sizes[i % len(self.sizes)]


class Enroll(Workload):
    name = "enroll"
    r = 10_000
    probe = "none timed; after timing each vault reloads equal and unlocks with its locking subset"

    def setup(self) -> None:
        if self.tiny:
            self.r = 300
        self.users = {}

    def prepare(self, i: int) -> None:
        self.users[i] = User(self.field, self.seed, self.r, i)

    def run_op(self, i: int):
        vault = self.users[i].lock()
        vault.save(self.path("enroll", i))
        return vault.r

    def check_op(self, i: int, result) -> str | None:
        return None if result == self.r else f"vault holds {result} points"

    def op_bytes(self, i: int) -> int:
        return os.path.getsize(self.path("enroll", i))

    def finish(self, n_ops: int) -> list[tuple[int, str]]:
        """Each saved vault reloads equal to a fresh lock of the same inputs
        and unlocks with its own locking subset to its key."""
        errors = []
        for i in range(n_ops):
            user = self.users.pop(i)
            path = self.path("enroll", i)
            if i == 0:
                self.fingerprint = sha256_file(path)
            try:
                loaded = fv.Vault.load(path)
                if loaded != user.lock():
                    errors.append((i, "reloaded vault differs from a re-lock"))
                    continue
                result = fv.fuzzy_unlock(loaded, user.locking_set, 0, DELTA, KEY_LEN)
            except Exception as e:  # any failure of the library counts
                errors.append((i, f"{type(e).__name__}: {e}"))
                continue
            if result.key != user.key:
                errors.append((i, "locking subset does not unlock the key"))
            os.remove(path)
        return errors


class Verify(_Pool):
    name = "verify"
    r = 10_000
    probe = "12 genuine elements + 12 elements that hit no vault core"

    def setup(self) -> None:
        if self.tiny:
            self.r = 300
        super().setup()

    def make_probes(self, i: int, user: User, vault: fv.Vault):
        return user.genuine_probe(vault)

    def run_op(self, i: int):
        j = i % len(self.vault_paths)
        vault = fv.Vault.load(self.vault_paths[j])
        return fv.fuzzy_unlock(vault, self.probes[j], 0, DELTA, KEY_LEN)

    def check_op(self, i: int, result) -> str | None:
        user = self.users[i % len(self.users)]
        d = result.diagnostics
        if result.key != user.key:
            return "genuine probe did not recover the key"
        if (d.matched, d.subsets_tried) != (T_MFK, 1):
            return f"matched={d.matched} subsets_tried={d.subsets_tried}, expected {T_MFK} and 1"
        return None


class Reject(_Pool):
    name = "reject"
    r = 300
    effort_cap = 2000
    impostor_size = 16
    pool_size = 8
    probe = "16 elements at locking-family chaff cores"

    def setup(self) -> None:
        if self.tiny:
            self.effort_cap = 50
        super().setup()

    def make_probes(self, i: int, user: User, vault: fv.Vault):
        return user.impostor_probe(vault, self.impostor_size)

    def run_op(self, i: int):
        j = i % len(self.vault_paths)
        vault = fv.Vault.load(self.vault_paths[j])
        return fv.fuzzy_unlock(
            vault, self.probes[j], 0, DELTA, KEY_LEN, self.effort_cap
        )

    def check_op(self, i: int, result) -> str | None:
        d = result.diagnostics
        if result.key is not None:
            return "impostor probe was accepted"
        if (d.matched, d.subsets_tried) != (self.impostor_size, self.effort_cap):
            return (f"matched={d.matched} subsets_tried={d.subsets_tried}, "
                    f"expected {self.impostor_size} and {self.effort_cap}")
        return None


class Cli(_Pool):
    name = "cli"
    r = 300
    probe = "alternating: 12 genuine + 12 missing elements; the same elements as gaussian"

    def make_probes(self, i: int, user: User, vault: fv.Vault):
        paths = []
        for family, stem in ((TRI, "genuine"), (GAU, "wrong-family")):
            path = self.path(stem, i)
            user.genuine_probe(vault, family).save(path)
            paths.append(path)
        return paths

    def setup(self) -> None:
        super().setup()
        src = os.path.dirname(os.path.dirname(os.path.abspath(fv.__file__)))
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def argv(self, i: int) -> list[str]:
        j = (i // 2) % len(self.vault_paths)
        return [
            "unlock", "--vault", self.vault_paths[j],
            "--probe-set", self.probes[j][i % 2], "--key-len", str(KEY_LEN),
        ]

    def run_op(self, i: int, prefix=(sys.executable, "-m", "fuzzyvault.cli")):
        return subprocess.run(
            [*prefix, *self.argv(i)], env=self.env, capture_output=True,
            text=True, timeout=CLI_TIMEOUT_S,
        )

    def run_traced(self, i: int, tracer):
        self.pending = None
        out = self.path("spans", i)
        with tracer.span(spans.OP) as root:
            proc = self.run_op(i, (sys.executable, "-X", "importtime", CLI_CHILD, out))
        self.pending = (root, out, proc.stderr)
        return proc

    def collect(self, i: int, tracer) -> None:
        if self.pending is None or not os.path.exists(self.pending[1]):
            return
        root, out, stderr = self.pending
        with open(out, encoding="utf-8") as fh:
            tracer.absorb(json.load(fh), root)
        os.remove(out)
        tracer.count("cli.import_sympy_ms", sympy_import_ms(stderr))

    def check_op(self, i: int, result) -> str | None:
        if i % 2 == 0:
            want = (EXIT_OK, self.users[(i // 2) % len(self.users)].key.hex())
        else:
            want = (EXIT_NULL, "null")
        got = (result.returncode, result.stdout.strip())
        return None if got == want else f"exit/stdout {got}, expected {want}"

    def op_bytes(self, i: int) -> int:
        return self.sizes[(i // 2) % len(self.sizes)]


WORKLOADS = {w.name: w for w in (Enroll, Verify, Reject, Cli)}
