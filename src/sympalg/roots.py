"""Root-system combinatorics for sp(2n): weights, bases, dominance, dimensions.

Weights are stored in epsilon coordinates (length-n tuples of exact
rationals; half-integer entries are allowed for the metaplectic weights).
The omega basis of fundamental weights, omega_j = eps_1 + ... + eps_j, is
handled only at the conversion boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple


class NotDominant(ValueError):
    """Raised when a weight violates the dominance/integrality precondition."""


@dataclass(frozen=True)
class Weight:
    """A weight of sp(2n) in epsilon coordinates."""

    coords: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coords", tuple(Fraction(c) for c in self.coords)
        )
        if not self.coords:
            raise ValueError("rank-0 weights are not supported")

    @classmethod
    def of(cls, *coords) -> "Weight":
        return cls(tuple(Fraction(c) for c in coords))

    @classmethod
    def from_partition(cls, parts: Sequence, n: int) -> "Weight":
        """Pad a short label like (2, 1) with zeros up to rank n."""
        parts = [Fraction(p) for p in parts]
        if len(parts) > n:
            raise ValueError(f"{len(parts)} entries exceed rank {n}")
        parts.extend([Fraction(0)] * (n - len(parts)))
        return cls(tuple(parts))

    @classmethod
    def parse(cls, text: str, n: int) -> "Weight":
        try:
            parts = [Fraction(part) for part in text.split(",")]
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in weight {text!r}") from exc
        return cls.from_partition(parts, n)

    @property
    def n(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def to_json(self) -> dict:
        return {"n": self.n, "coords": [str(c) for c in self.coords]}


def is_dominant(coords: Iterable) -> bool:
    """True when the coordinates (a Weight, or a sequence of ints or
    Fractions) are weakly decreasing and integral with a last entry >= 0: the
    highest weights of the finite-dimensional irreducible sp(2n)-modules.
    This is the one dominance test of the package."""
    c = tuple(coords)
    return (
        c[-1] >= 0
        and all(a >= b for a, b in zip(c, c[1:]))
        and all(a.denominator == 1 for a in c)
    )


def spinor_tails(n: int) -> Tuple[Weight, Weight]:
    """The highest weights of the even and odd symplectic spinor summands."""
    half = Fraction(1, 2)
    even = Weight((-half,) * n)
    odd = Weight((-half,) * (n - 1) + (Fraction(-3, 2),)) if n > 1 else Weight(
        (Fraction(-3, 2),)
    )
    return even, odd


def omega_to_epsilon(coeffs: Sequence) -> Weight:
    """Expand sum_j c_j omega_j in epsilon coordinates."""
    cs = [Fraction(c) for c in coeffs]
    n = len(cs)
    if n == 0:
        raise ValueError("empty coefficient list")
    coords = []
    running = Fraction(0)
    for i in range(n - 1, -1, -1):
        running += cs[i]
        coords.append(running)
    coords.reverse()
    return Weight(tuple(coords))


def epsilon_to_omega(w: Weight) -> List[Fraction]:
    """Inverse of omega_to_epsilon: c_j = w_j - w_{j+1}, c_n = w_n."""
    c = list(w.coords)
    out = [c[j] - c[j + 1] for j in range(len(c) - 1)]
    out.append(c[-1])
    return out


def weyl_dim(w: Weight) -> int:
    """Weyl dimension formula for sp(2n).

    With g_i = n - i + 1 and m_i = lambda_i + g_i:
        dim = prod_i m_i/g_i * prod_{i<j} (m_i - m_j)/(g_i - g_j)
                                 * prod_{i<j} (m_i + m_j)/(g_i + g_j).
    The product is computed as one exact rational and asserted integral.
    """
    if not is_dominant(w):
        raise NotDominant(f"{w} is not a dominant integral sp({2 * w.n}) weight")
    n = w.n
    g = [Fraction(n - i + 1) for i in range(1, n + 1)]
    m = [w.coords[i] + g[i] for i in range(n)]
    result = Fraction(1)
    for i in range(n):
        result *= m[i] / g[i]
    for i in range(n):
        for j in range(i + 1, n):
            result *= (m[i] - m[j]) / (g[i] - g[j])
            result *= (m[i] + m[j]) / (g[i] + g[j])
    if result.denominator != 1 or result <= 0:
        raise ArithmeticError(f"dimension product {result} is not a positive integer")
    return result.numerator


@dataclass(frozen=True)
class RootSystemSp:
    """The roots of sp(2n): 2n long roots +-2 eps_i and 2(n^2-n) short ones."""

    n: int

    def long_roots(self) -> List[Weight]:
        out = []
        for i in range(self.n):
            for s in (2, -2):
                coords = [Fraction(0)] * self.n
                coords[i] = Fraction(s)
                out.append(Weight(tuple(coords)))
        return out

    def short_roots(self) -> List[Weight]:
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for si in (1, -1):
                    for sj in (1, -1):
                        coords = [Fraction(0)] * self.n
                        coords[i] = Fraction(si)
                        coords[j] = Fraction(sj)
                        out.append(Weight(tuple(coords)))
        return out

    def all_roots(self) -> List[Weight]:
        return self.long_roots() + self.short_roots()

    def simple_roots(self) -> List[Weight]:
        out = []
        for i in range(self.n - 1):
            coords = [Fraction(0)] * self.n
            coords[i] = Fraction(1)
            coords[i + 1] = Fraction(-1)
            out.append(Weight(tuple(coords)))
        coords = [Fraction(0)] * self.n
        coords[-1] = Fraction(2)
        out.append(Weight(tuple(coords)))
        return out

    def fundamental_weights(self) -> List[Weight]:
        return [
            Weight(tuple(Fraction(1) if i <= j else Fraction(0) for i in range(self.n)))
            for j in range(self.n)
        ]
