"""Fingerprint minutiae orientations as triangular fuzzy numbers, feeding a
small end-to-end vault demonstration.

Orientations are quantized to a 16-step grid (22.5 degrees).  Circular
wraparound is handled by unwrapping intervals onto the real line before the
linear fuzzy arithmetic, and reducing mod 360 only when comparing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .field_poly import FieldParams, encode_key
from .fuzzy_number import GAUSSIAN, TRIANGULAR, FuzzyNumber
from .multi_fuzzy_set import (
    LOCKING,
    FamilyTemplate,
    MultiFuzzySet,
    SubsetDescriptor,
    partition_field,
)
from .vault import (
    LockParams,
    SplitMix64,
    UnlockResult,
    Vault,
    fuzzy_lock,
    match_points,
    search_key,
)

GRID_STEP = 22.5

RIDGE_ENDING = "ridge_ending"
BIFURCATION = "bifurcation"


def normalize_orientation(degrees: float) -> float:
    return degrees % 360.0


def orientation_set() -> list[float]:
    """The 16-step quantization grid: 0, 22.5, ..., 337.5 degrees."""
    return [i * GRID_STEP for i in range(16)]


def circular_distance(a: float, b: float) -> float:
    """Shorter-arc angular distance, in [0, 180]."""
    d = abs(normalize_orientation(a) - normalize_orientation(b))
    return min(d, 360.0 - d)


@dataclass(frozen=True)
class Minutia:
    kind: str
    position: tuple  # (x, y) pixel coordinates
    orientation_interval: tuple  # (lower, center, upper) degrees

    def __post_init__(self):
        if self.kind not in (RIDGE_ENDING, BIFURCATION):
            raise ValueError(f"unknown minutia kind: {self.kind!r}")
        pos = (int(self.position[0]), int(self.position[1]))
        object.__setattr__(self, "position", pos)
        interval = tuple(normalize_orientation(float(v))
                         for v in self.orientation_interval)
        object.__setattr__(self, "orientation_interval", interval)
        if not all(map(math.isfinite, interval)):
            raise ValueError(f"orientation interval must be finite: {interval}")
        lower, center, upper = self._unwrapped()
        if not (lower <= center <= upper):
            raise ValueError(
                f"orientation center must sit inside the interval: {interval}"
            )
        if upper - lower > 90.0:
            raise ValueError(f"orientation arc too wide ({upper - lower} degrees)")

    def _unwrapped(self) -> tuple[float, float, float]:
        lower, center, upper = self.orientation_interval
        if center < lower:
            center += 360.0
        if upper < center:
            upper += 360.0
        return lower, center, upper


def minutia_to_fuzzy(m: Minutia) -> FuzzyNumber:
    """Triangular number on the unwrapped orientation interval."""
    lower, center, upper = m._unwrapped()
    return FuzzyNumber.triangular(lower, center, upper)


def _minutia_field_element(m: Minutia, q: int) -> int:
    """Demo-only mapping of a minutia to a field element: orientation grid
    index plus a quantized position hash."""
    _, center, _ = m._unwrapped()
    grid_index = round(normalize_orientation(center) / GRID_STEP) % 16
    px, py = m.position
    pos_hash = (px // 8) * 31 + (py // 8) * 17
    return (grid_index + 16 * pos_hash) % q


@dataclass(frozen=True)
class DemoResult:
    vault: Vault
    unlock: UnlockResult
    elements: tuple


def minutiae_vault_demo(
    minutiae: list[Minutia],
    key: bytes,
    q: int = 65537,
    k: int = 4,
    r: int = 80,
    delta: float = 0.25,
    jitter: float = 0.0,
    rho: float = 0.2,
    seed: int = 0,
) -> DemoResult:
    """Lock a key on minutiae-derived elements, then unlock with a jittered
    copy of the same minutiae (jitter in core units, applied to probe cores)."""
    if len(minutiae) < k:
        raise ValueError(f"need at least k={k} minutiae, got {len(minutiae)}")
    field = FieldParams(q)
    encode_key(key, field, k)  # surface capacity errors before locking

    elements = []
    used = set()
    for m in minutiae:
        e = _minutia_field_element(m, q)
        while e in used:  # collision-resolved by increment
            e = (e + 1) % q
        used.add(e)
        elements.append(e)

    template = FamilyTemplate(TRIANGULAR, (1.0, 1.0))
    decoy = FamilyTemplate(GAUSSIAN, (0.5, 0.5))
    field_mfs = partition_field(q, [q // 2, q - q // 2], [template, decoy])
    locking_set = MultiFuzzySet(
        q, (SubsetDescriptor(tuple(elements), template, 0),), LOCKING
    )
    params = LockParams(
        t=len(elements), k_subset=0, t_mfk=len(elements), r=r, k=k,
        rho=rho, delta=delta, seed=seed,
    )
    vault, _ = fuzzy_lock(key, locking_set, field_mfs, params)

    # probe cores are perturbed by an offset of magnitude in [jitter/2, jitter],
    # random sign, so a jitter beyond 2*delta can never cross the tolerance
    rng = SplitMix64(seed ^ 0xD6E8FEB86659FD93)
    cores = []
    for e in sorted(elements):
        if jitter:
            u = rng.next_u64() / 2.0**64
            sign = 1.0 if rng.next_u64() & 1 else -1.0
            offset = sign * (jitter / 2 + u * jitter / 2)
        else:
            offset = 0.0
        cores.append(float(e) + offset)

    matched = match_points(vault, template, cores, delta)
    unlock = search_key(matched, q, k, len(key))
    return DemoResult(vault, unlock, tuple(elements))


def parse_minutiae_file(path) -> list[Minutia]:
    """One minutia per line: ``kind x y lower center upper``.

    OSError passes through; a malformed file raises ValueError naming the
    file and line.
    """
    minutiae = []
    lineno = 0
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh.read().splitlines(), 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 6:
                    raise ValueError(f"expected 6 fields, got {len(parts)}")
                kind, x, y, lower, center, upper = parts
                minutiae.append(Minutia(kind, (int(x), int(y)),
                                        (float(lower), float(center), float(upper))))
        except ValueError as e:
            where = f", line {lineno}" if lineno else ""
            raise ValueError(f"bad minutiae file {path}{where}: {e}") from e
    return minutiae
