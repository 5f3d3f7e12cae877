"""Fingerprint minutiae orientations as triangular fuzzy numbers, feeding a
small end-to-end vault demonstration.

Orientations are quantized to a 16-step grid (22.5 degrees).  Circular
wraparound is handled by unwrapping intervals onto the real line before the
linear fuzzy arithmetic, and reducing mod 360 only when comparing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice

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


def _refuse_more_than(r: int, count: int):
    """ValueError: ``count`` minutiae, more than ``r``, do not fit the vault."""
    raise ValueError(f"{count} minutiae do not fit a vault of r={r} points")


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
    if len(minutiae) > r:  # as LockParams refuses t > r, before any is placed
        _refuse_more_than(r, len(minutiae))
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
    cores = [float(e) for e in sorted(elements)]
    if jitter:
        outputs = SplitMix64(seed ^ 0xD6E8FEB86659FD93)._peek(2 * len(cores)).tolist()
        for i, (u, sign) in enumerate(zip(outputs[::2], outputs[1::2])):
            offset = jitter / 2 + u / 2.0**64 * jitter / 2
            cores[i] += offset if sign & 1 else -offset

    matched = match_points(vault, template, cores, delta)
    unlock = search_key(matched, q, k, len(key))
    return DemoResult(vault, unlock, tuple(elements))


def parse_minutiae_file(path, r: int | None = None) -> list[Minutia]:
    """One minutia per line: ``kind x y lower center upper``; blank lines
    and lines starting with ``#`` are skipped.

    The file is read a line at a time.  Given the vault size ``r``, a file
    of more than r minutiae is refused as ``minutiae_vault_demo`` refuses
    them: the lines past the r-th minutia are counted, not parsed, so the
    refusal holds at most r minutiae however long the file.  OSError passes
    through; a malformed file raises ValueError naming the file and line.
    """
    minutiae = []
    lineno = 0
    with open(path, encoding="utf-8") as fh:
        # the lines fh.read().splitlines() gives, one at a time
        lines = ((n, line.strip()) for n, line
                 in enumerate(chain.from_iterable(map(str.splitlines, fh)), 1))
        records = ((n, line) for n, line in lines if line and not line.startswith("#"))
        try:
            for lineno, line in islice(records, None if r is None else max(r, 0)):
                parts = line.split()
                if len(parts) != 6:
                    raise ValueError(f"expected 6 fields, got {len(parts)}")
                kind, x, y, lower, center, upper = parts
                minutiae.append(Minutia(kind, (int(x), int(y)),
                                        (float(lower), float(center), float(upper))))
            extra = sum(1 for _ in records)
        except ValueError as e:
            # text is decoded a block at a time, ahead of the line reached
            where = f", line {lineno}" if lineno and not isinstance(e, UnicodeDecodeError) else ""
            raise ValueError(f"bad minutiae file {path}{where}: {e}") from e
    if extra:
        _refuse_more_than(r, len(minutiae) + extra)
    return minutiae
