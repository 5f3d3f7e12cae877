import json
import math
import random

import numpy as np
import pytest

from fuzzyvault import (
    FamilyTemplate,
    LockParams,
    MultiFuzzySet,
    SubsetDescriptor,
    Vault,
    build_locking_set,
    partition_field,
)

Q_DESK = 65537

TRI = FamilyTemplate("triangular", (1.0, 1.0))
GAU = FamilyTemplate("gaussian", (0.5, 0.5))
SIG = FamilyTemplate("sigmoid", (1.0, 1.0, 0.9, 4.0))
TRAP = FamilyTemplate("trapezoidal", (0.5, 1.0, 1.0))

ALL_TEMPLATES = [TRI, GAU, SIG, TRAP]


def split_field(q, templates):
    """Field partition of contiguous subsets, one per template, all of
    size q // len(templates) but the last, which takes the rest."""
    size = q // len(templates)
    return partition_field(
        q, [size] * (len(templates) - 1) + [q - size * (len(templates) - 1)], templates
    )


def desk_field(q=Q_DESK):
    """Four-family field partition used across the suite."""
    return split_field(q, ALL_TEMPLATES)


def desk_locking_set(field_mfs, seed, t_mfk=12, extra=(6, 6), k_template=TRI):
    """Locking set with t_mfk triangular elements plus two decoy groups."""
    rnd = random.Random(seed)
    total = t_mfk + sum(extra)
    elems = rnd.sample(range(field_mfs.q), total)
    groups = [(elems[:t_mfk], k_template)]
    start = t_mfk
    for size, template in zip(extra, [GAU, SIG]):
        groups.append((elems[start:start + size], template))
        start += size
    return build_locking_set(field_mfs, groups)


def desk_params(seed, t=24, t_mfk=12, r=300, k=8, rho=0.2, delta=0.25):
    return LockParams(t=t, k_subset=0, t_mfk=t_mfk, r=r, k=k,
                      rho=rho, delta=delta, seed=seed)


def vault_of(rows, q, n=0) -> Vault:
    """The vault whose points are ``(template, x_core, y_core)`` rows, in
    order, built through ``Vault``'s constructor."""
    templates = list(dict.fromkeys(template for template, _, _ in rows))
    ids = np.array([templates.index(template) for template, _, _ in rows], dtype=np.intp)
    x_cores, y_cores = (np.array([row[axis] for row in rows], dtype=np.int64) for axis in (1, 2))
    return Vault(x_cores, y_cores, ids, templates, q, n)


@pytest.fixture(scope="session")
def field_mfs():
    return desk_field()


# The family rules as one if-chain per family, written out apart from the
# library's tables so that tests compare those tables with something else.
REFERENCE_ARITY = {"triangular": 3, "trapezoidal": 4, "gaussian": 3, "sigmoid": 5, "crisp": 1}


def reference_validate(family, params) -> tuple:
    """The checks of ``FuzzyNumber(family, params)``: the parameters as a
    tuple of floats, or ValueError."""
    if not isinstance(family, str) or family not in REFERENCE_ARITY:
        raise ValueError(f"unknown membership family: {family!r}")
    try:
        p = tuple(map(float, params))
    except OverflowError:
        raise ValueError(f"{family} parameters must be finite") from None
    if len(p) != REFERENCE_ARITY[family]:
        raise ValueError(f"{family} needs {REFERENCE_ARITY[family]} parameters, got {len(p)}")
    if not all(map(math.isfinite, p)):
        raise ValueError(f"{family} parameters must be finite: {p}")
    if family == "triangular":
        left, core, right = p
        if not (left <= core <= right):
            raise ValueError(f"triangular endpoints out of order: {p}")
    elif family == "trapezoidal":
        x0, y0, sigma, beta = p
        if x0 > y0:
            raise ValueError(f"trapezoidal defuzzifiers out of order: {p}")
        if sigma <= 0 or beta <= 0:
            raise ValueError("trapezoidal fuzziness must be positive")
    elif family == "gaussian":
        _, sl, sr = p
        if sl <= 0 or sr <= 0:
            raise ValueError("gaussian deviations must be positive")
    elif family == "sigmoid":
        a1, a2, a3, omega, halfwidth = p
        if not (a1 <= a2 <= a3):
            raise ValueError(f"sigmoid breakpoints out of order: {p}")
        if not (0 < omega <= 1):
            raise ValueError("sigmoid peak grade must be in (0, 1]")
        if halfwidth <= 0:
            raise ValueError("sigmoid domain halfwidth must be positive")
    return p


def reference_core(family: str, p: tuple) -> float:
    """``FuzzyNumber(family, p).defuzzify()``: the core, or plateau midpoint."""
    if family == "triangular":
        return p[1]
    if family == "trapezoidal":
        return (p[0] + p[1]) / 2
    if family == "gaussian":
        return p[0]
    if family == "sigmoid":
        return p[1]
    return p[0]


# The v1 vault document, which the library no longer reads or writes, kept
# as the oracle of the v1 bytes: every point as two {"family", "params"}
# objects.
def reference_v1_document(vault) -> dict:
    return {
        "format_version": 1,
        "q": vault.q,
        "n": vault.n,
        "r": vault.r,
        "crc_variant": vault.crc_variant,
        "points": [p.to_dict() for p in vault.points],
    }


def reference_v1_json(vault) -> str:
    """The v1 text of ``vault``, as the v1 writer wrote it."""
    return json.dumps(reference_v1_document(vault), sort_keys=True, separators=(",", ":")) + "\n"
