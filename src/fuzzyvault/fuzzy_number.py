"""Parametric fuzzy numbers: four membership families plus a crisp embedding.

A :class:`FuzzyNumber` is a family tag together with a family-specific
parameter vector.  All values are immutable; every operation is a pure
function, so instances can be shared freely between threads.

Families and their parameter order (the serialization order as well):

* ``triangular``:  ``(left, core, right)`` -- absolute endpoints.
* ``trapezoidal``: ``(x0, y0, sigma_left, beta_right)`` -- two defuzzifiers,
  left fuzziness, right fuzziness.
* ``gaussian``:    ``(mean, sigma_left, sigma_right)`` -- support clipped to
  ``[mean - 3*sigma_left, mean + 3*sigma_right]``.
* ``sigmoid``:     ``(a1, a2, a3, omega, halfwidth)`` -- peak grade is
  ``omega``, flanks shaped by a logistic on ``[-halfwidth, halfwidth]``.
* ``crisp``:       ``(value,)`` -- degenerate embedding of a real number.

A family is one entry in each of ``PARAM_COUNT``, ``CORE`` and ``RULES``
here, plus one in each of ``multi_fuzzy_set``'s template tables.  A core
and a rule index ``p[i]`` and join comparisons with ``&``, so the same
entry works on one number's tuple of floats and on the columns
(``block.T``) of a float64 block of parameters, one number per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TRIANGULAR = "triangular"
TRAPEZOIDAL = "trapezoidal"
GAUSSIAN = "gaussian"
SIGMOID = "sigmoid"
CRISP = "crisp"

# parameters per family; a vault stores a point's family as its position here
PARAM_COUNT = {
    TRIANGULAR: 3,
    TRAPEZOIDAL: 4,
    GAUSSIAN: 3,
    SIGMOID: 5,
    CRISP: 1,
}

# the crisp value a number defuzzifies to: its core, or plateau midpoint
CORE = {
    TRIANGULAR: lambda p: p[1],
    TRAPEZOIDAL: lambda p: (p[0] + p[1]) / 2,
    GAUSSIAN: lambda p: p[0],
    SIGMOID: lambda p: p[1],
    CRISP: lambda p: p[0],
}

# (rule(p), message) pairs: the order and sign checks on finite parameters
RULES = {
    TRIANGULAR: [
        (lambda p: (p[0] <= p[1]) & (p[1] <= p[2]), "triangular endpoints out of order"),
    ],
    TRAPEZOIDAL: [
        (lambda p: p[0] <= p[1], "trapezoidal defuzzifiers out of order"),
        (lambda p: (p[2] > 0) & (p[3] > 0), "trapezoidal fuzziness must be positive"),
    ],
    GAUSSIAN: [
        (lambda p: (p[1] > 0) & (p[2] > 0), "gaussian deviations must be positive"),
    ],
    SIGMOID: [
        (lambda p: (p[0] <= p[1]) & (p[1] <= p[2]), "sigmoid breakpoints out of order"),
        (lambda p: (0 < p[3]) & (p[3] <= 1), "sigmoid peak grade must be in (0, 1]"),
        (lambda p: p[4] > 0, "sigmoid domain halfwidth must be positive"),
    ],
    CRISP: [],
}


def json_fields(d, *keys) -> list:
    """The values of the required ``keys`` of the parsed JSON object ``d``.

    Raises ValueError if ``d`` is not a JSON object or lacks one of the keys.
    """
    if type(d) is not dict:
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    try:
        return [d[k] for k in keys]
    except KeyError as e:
        raise ValueError(f"missing key {e}") from None


# The checks below match exact types, so a JSON true is neither an int nor a
# float.

def json_numbers(v) -> list:
    """``v`` if it is a parsed JSON array of numbers, else ValueError."""
    if type(v) is not list:
        raise ValueError(f"expected an array of numbers, got {type(v).__name__}")
    for x in v:
        if type(x) is not float and type(x) is not int:
            raise ValueError(f"expected a number, got {type(x).__name__}")
    return v


def json_ints(v) -> list:
    """``v`` if it is a parsed JSON array of integers, else ValueError."""
    if type(v) is not list:
        raise ValueError(f"expected an array of integers, got {type(v).__name__}")
    for x in v:
        json_int(x)
    return v


def json_int(v) -> int:
    """``v`` if it is a parsed JSON integer, else ValueError."""
    if type(v) is not int:
        raise ValueError(f"expected an integer, got {type(v).__name__}")
    return v


def _logistic(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass(frozen=True)
class AlphaCut:
    """A crisp interval of points with membership grade >= alpha."""

    alpha: float
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"alpha-cut interval inverted: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class FuzzyNumber:
    family: str
    params: tuple

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in PARAM_COUNT:
            raise ValueError(f"unknown membership family: {self.family!r}")
        try:
            params = tuple(map(float, self.params))
        except OverflowError:  # a JSON integer beyond the float range
            raise ValueError(f"{self.family} parameters must be finite") from None
        object.__setattr__(self, "params", params)
        if len(params) != PARAM_COUNT[self.family]:
            raise ValueError(
                f"{self.family} needs {PARAM_COUNT[self.family]} parameters, "
                f"got {len(params)}"
            )
        if not all(map(math.isfinite, params)):
            raise ValueError(f"{self.family} parameters must be finite: {params}")
        for rule, message in RULES[self.family]:
            if not rule(params):
                raise ValueError(f"{message}: {params}")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def triangular(cls, left: float, core: float, right: float) -> "FuzzyNumber":
        return cls(TRIANGULAR, (left, core, right))

    @classmethod
    def trapezoidal(cls, x0: float, y0: float, sigma: float, beta: float) -> "FuzzyNumber":
        return cls(TRAPEZOIDAL, (x0, y0, sigma, beta))

    @classmethod
    def gaussian(cls, mean: float, sigma_left: float, sigma_right: float) -> "FuzzyNumber":
        return cls(GAUSSIAN, (mean, sigma_left, sigma_right))

    @classmethod
    def sigmoid(
        cls, a1: float, a2: float, a3: float, omega: float, halfwidth: float
    ) -> "FuzzyNumber":
        return cls(SIGMOID, (a1, a2, a3, omega, halfwidth))

    @classmethod
    def crisp(cls, value: float) -> "FuzzyNumber":
        return cls(CRISP, (value,))

    @classmethod
    def _trusted(cls, family: str, params: tuple) -> "FuzzyNumber":
        """Build without ``__post_init__``: for ``FamilyTemplate.instantiate``
        and a vault's columns only, which pass a tuple of finite floats whose
        order and signs their own checks already guarantee."""
        fn = object.__new__(cls)
        object.__setattr__(fn, "family", family)
        object.__setattr__(fn, "params", params)
        return fn

    # ------------------------------------------------------------------
    # queries

    @property
    def peak_grade(self) -> float:
        """Supremum of the membership function (1 except for sigmoid)."""
        return self.params[3] if self.family == SIGMOID else 1.0

    def support(self) -> tuple[float, float]:
        """Smallest closed interval outside which membership is zero."""
        p = self.params
        if self.family == TRIANGULAR:
            return p[0], p[2]
        if self.family == TRAPEZOIDAL:
            x0, y0, sigma, beta = p
            return x0 - sigma, y0 + beta
        if self.family == GAUSSIAN:
            mean, sl, sr = p
            return mean - 3 * sl, mean + 3 * sr
        if self.family == SIGMOID:
            return p[0], p[2]
        return p[0], p[0]

    def membership(self, x: float) -> float:
        """Membership grade of a real ``x``, piecewise per family."""
        p = self.params
        if self.family == TRIANGULAR:
            left, core, right = p
            if x < left or x > right:
                return 0.0
            if x == core:
                return 1.0
            if x < core:
                return (x - left) / (core - left)
            return (right - x) / (right - core)
        if self.family == TRAPEZOIDAL:
            x0, y0, sigma, beta = p
            if x0 <= x <= y0:
                return 1.0
            if x0 - sigma <= x < x0:
                return (x - x0 + sigma) / sigma
            if y0 < x <= y0 + beta:
                return (y0 - x + beta) / beta
            return 0.0
        if self.family == GAUSSIAN:
            mean, sl, sr = p
            if x <= mean - 3 * sl or x >= mean + 3 * sr:
                return 0.0
            sigma = sl if x < mean else sr
            return math.exp(-((x - mean) ** 2) / (2 * sigma * sigma))
        if self.family == SIGMOID:
            return self._sigmoid_membership(x)
        return 1.0 if x == p[0] else 0.0

    def _sigmoid_membership(self, x: float) -> float:
        a1, a2, a3, omega, a = self.params
        if x < a1 or x > a3:
            return 0.0
        span = _logistic(a) - _logistic(-a)
        if x <= a2:
            if a2 == a1:
                return omega
            if x == a1:
                return 0.0
            z = (x - (a1 + a2) / 2) * (2 * a / (a2 - a1))
            grade = (_logistic(z) - _logistic(-a)) / span
        else:
            if x == a3:
                return 0.0
            z = (x - (a2 + a3) / 2) * (2 * a / (a3 - a2))
            grade = (_logistic(a) - _logistic(z)) / span
        # the logistic differences cancel near the ends and can leave [0, 1]
        return omega * min(max(grade, 0.0), 1.0)

    def alpha_cut(self, alpha: float) -> AlphaCut:
        """The interval of points with membership at least ``alpha``.

        Raises ValueError for ``alpha`` outside [0, 1] and, for sigmoid
        numbers, for ``alpha`` above the peak grade (the cut would be empty).
        """
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        p = self.params
        if self.family == TRIANGULAR:
            left, core, right = p
            # rounding can carry an end past the core: 1 - (1 - 1e-38) * 1 == 0
            return AlphaCut(alpha, min((core - left) * alpha + left, core),
                            max(right - (right - core) * alpha, core))
        if self.family == TRAPEZOIDAL:
            x0, y0, sigma, beta = p
            return AlphaCut(alpha, x0 - sigma * (1 - alpha), y0 + beta * (1 - alpha))
        if self.family == GAUSSIAN:
            mean, sl, sr = p
            if alpha == 0.0:
                return AlphaCut(alpha, mean - 3 * sl, mean + 3 * sr)
            half = math.sqrt(2 * math.log(1 / alpha)) if alpha < 1 else 0.0
            lo = max(mean - sl * half, mean - 3 * sl)
            hi = min(mean + sr * half, mean + 3 * sr)
            return AlphaCut(alpha, lo, hi)
        if self.family == SIGMOID:
            return self._sigmoid_cut(alpha)
        v = p[0]
        return AlphaCut(alpha, v, v)

    def _sigmoid_cut(self, alpha: float) -> AlphaCut:
        a1, a2, a3, omega, a = self.params
        if alpha > omega:
            raise ValueError(
                f"alpha {alpha} exceeds sigmoid peak grade {omega}: empty cut"
            )
        if alpha == 0.0:
            return AlphaCut(alpha, a1, a3)
        span = _logistic(a) - _logistic(-a)

        def logit(p: float) -> float:
            p = min(max(p, 1e-300), 1 - 1e-16)
            return math.log(p / (1 - p))

        if a2 == a1:
            lo = a1
        else:
            target = (alpha / omega) * span + _logistic(-a)
            lo = logit(target) * (a2 - a1) / (2 * a) + (a1 + a2) / 2
            lo = min(max(lo, a1), a2)
        if a3 == a2:
            hi = a3
        else:
            target = _logistic(a) - (alpha / omega) * span
            hi = logit(target) * (a3 - a2) / (2 * a) + (a2 + a3) / 2
            hi = min(max(hi, a2), a3)
        return AlphaCut(alpha, lo, hi)

    def defuzzify(self) -> float:
        """Representative crisp value: the core (or plateau midpoint)."""
        return CORE[self.family](self.params)

    # ------------------------------------------------------------------
    # arithmetic (triangular/crisp algebra)

    def _as_triple(self) -> tuple[float, float, float]:
        if self.family == TRIANGULAR:
            return self.params  # type: ignore[return-value]
        if self.family == CRISP:
            v = self.params[0]
            return (v, v, v)
        raise ValueError(
            f"arithmetic is defined for triangular/crisp numbers, not {self.family}"
        )

    @staticmethod
    def _from_triple(left: float, core: float, right: float) -> "FuzzyNumber":
        if left == core == right:
            return FuzzyNumber.crisp(core)
        return FuzzyNumber.triangular(left, core, right)

    def __add__(self, other: "FuzzyNumber") -> "FuzzyNumber":
        if not isinstance(other, FuzzyNumber):
            return NotImplemented
        al, ac, ar = self._as_triple()
        bl, bc, br = other._as_triple()
        return self._from_triple(al + bl, ac + bc, ar + br)

    def __sub__(self, other: "FuzzyNumber") -> "FuzzyNumber":
        if not isinstance(other, FuzzyNumber):
            return NotImplemented
        al, ac, ar = self._as_triple()
        bl, bc, br = other._as_triple()
        return self._from_triple(al - br, ac - bc, ar - bl)

    def scale(self, x: float) -> "FuzzyNumber":
        """Scalar multiple; a negative scalar swaps the endpoints."""
        if x == 0:
            return FuzzyNumber.crisp(0.0)
        left, core, right = self._as_triple()
        if x > 0:
            return self._from_triple(x * left, x * core, x * right)
        return self._from_triple(x * right, x * core, x * left)

    def __mul__(self, x: float) -> "FuzzyNumber":
        if isinstance(x, (int, float)):
            return self.scale(x)
        return NotImplemented

    __rmul__ = __mul__

    def pow(self, n: int) -> "TriangularPower":
        """nth power of a positive triangular number, via alpha-cut arithmetic."""
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"power must be a positive integer, got {n}")
        if self.family != TRIANGULAR:
            raise ValueError(f"pow is defined for triangular numbers, not {self.family}")
        left, core, right = self.params
        if left <= 0:
            raise ValueError("pow requires a strictly positive support")
        return TriangularPower(left, core, right, n)

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        return {"family": self.family, "params": list(self.params)}

    @classmethod
    def from_dict(cls, d: dict) -> "FuzzyNumber":
        """Parse ``to_dict`` output; raises ValueError on any malformed input."""
        family, params = json_fields(d, "family", "params")
        return cls(family, json_numbers(params))


@dataclass(frozen=True)
class TriangularPower:
    """Membership object for the nth power of a positive triangular number.

    Not triangular-shaped: the flanks are nth roots.  Exposes membership and
    alpha-cut queries; :meth:`approx_triangular` collapses it back to a
    (lossy) triangular number matching support and core.
    """

    left: float
    core: float
    right: float
    n: int

    def support(self) -> tuple[float, float]:
        return self.left ** self.n, self.right ** self.n

    def membership(self, x: float) -> float:
        lo, hi = self.support()
        if x < lo or x > hi:
            return 0.0
        root = x ** (1.0 / self.n)
        cn = self.core ** self.n
        if x <= cn:
            if self.core == self.left:
                return 1.0
            return min(1.0, (root - self.left) / (self.core - self.left))
        if self.right == self.core:
            return 1.0
        return min(1.0, (self.right - root) / (self.right - self.core))

    def alpha_cut(self, alpha: float) -> AlphaCut:
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        lo = ((self.core - self.left) * alpha + self.left) ** self.n
        hi = (self.right - (self.right - self.core) * alpha) ** self.n
        return AlphaCut(alpha, lo, hi)

    def approx_triangular(self) -> FuzzyNumber:
        """Lossy linear approximation matching support endpoints and core."""
        return FuzzyNumber.triangular(
            self.left ** self.n, self.core ** self.n, self.right ** self.n
        )


def distance(a: FuzzyNumber, b: FuzzyNumber) -> float:
    """Chebyshev distance over parameter vectors; +inf across families.

    The infinite cross-family distance is what makes wrong-family probes
    unmatched regardless of tolerance.
    """
    if a.family != b.family:
        return math.inf
    return max(abs(pa - pb) for pa, pb in zip(a.params, b.params))
