"""Exact sparse multivariate polynomials over the rationals.

The variable universe is parametrized by a rank ``n`` and a number of
vector-variable copies ``N``.  Copy ``a`` (1-based) carries the 2n coordinates
``x<a>.<i>`` and ``y<a>.<i>`` for ``i = 1..n``; on top of that there are the
``n`` spinor variables ``z<i>`` shared by all copies.  All coefficients are
`fractions.Fraction`, so every operation is exact and equality is structural.

Term order: variables are ordered copy by copy, by index within a copy, with
x before y at equal (copy, index), and the z family last.  A variable is
stored as its rank, its position in that order (see ``variables``); a
`VarId` names it only at the parse and print boundary.  Monomials are
compared by the lexicographic order induced on their sparse (rank, exponent)
lists with larger exponents of earlier variables first; this fixed order is
what makes bases and matrices reproducible.

`Terms` is the sparse-term core shared with the Weyl-algebra operators:
construction, equality, hashing, the vector-space operations and printing
are defined there once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, perm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class UniverseMismatch(ValueError):
    """Raised when two objects live over different (n, N) variable universes."""


class PolyParseError(ValueError):
    """Raised on malformed polynomial/operator text or JSON."""


# ---------------------------------------------------------------------------
# Variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarId:
    """A single variable: family 'x'/'y'/'z', copy (None for z), 1-based index."""

    family: str
    copy: Optional[int]
    index: int

    def __post_init__(self):
        if self.family not in ("x", "y", "z"):
            raise ValueError(f"unknown variable family {self.family!r}")
        if (self.family == "z") != (self.copy is None):
            raise ValueError("z variables carry no copy; x/y variables need one")
        if self.index < 1 or (self.copy is not None and self.copy < 1):
            raise ValueError("copy and index are 1-based")

    def __str__(self) -> str:
        if self.family == "z":
            return f"z{self.index}"
        return f"{self.family}{self.copy}.{self.index}"

    def in_universe(self, n: int, N: int) -> bool:
        if self.index > n:
            return False
        return self.copy is None or self.copy <= N

    def rank(self, n: int, N: int) -> int:
        """The position of this variable in variables(n, N)."""
        if not self.in_universe(n, N):
            raise UniverseMismatch(f"{self} outside the (n={n}, N={N}) universe")
        if self.family == "z":
            return 2 * n * N + self.index - 1
        return 2 * n * (self.copy - 1) + 2 * (self.index - 1) + (self.family == "y")


_VAR_RE = re.compile(r"^(d?)([xyz])(\d+)(?:\.(\d+))?$")


def parse_var(name: str, n: int, N: int, *, allow_deriv: bool = False):
    """Parse a variable token like ``x1.2``, ``z3`` or (operator mode) ``dz3``.

    For N=1 the aliases ``x2``/``y2`` (no dot) mean copy 1, index 2.
    Returns (VarId, is_derivative).
    """
    m = _VAR_RE.match(name)
    if not m:
        raise PolyParseError(f"cannot parse variable {name!r}")
    dflag, family, first, second = m.groups()
    if dflag and not allow_deriv:
        raise PolyParseError(f"derivative factor {name!r} not allowed in a polynomial")
    try:
        if family == "z":
            if second is not None:
                raise PolyParseError(f"z variables carry no copy: {name!r}")
            var = VarId("z", None, int(first))
        elif second is not None:
            var = VarId(family, int(first), int(second))
        else:
            if N != 1:
                raise PolyParseError(
                    f"{name!r}: the copy-free alias is only accepted for N=1"
                )
            var = VarId(family, 1, int(first))
    except PolyParseError:
        raise
    except ValueError as exc:
        raise PolyParseError(f"bad variable {name!r}: {exc}") from exc
    if not var.in_universe(n, N):
        raise PolyParseError(f"variable {var} outside the (n={n}, N={N}) universe")
    return var, bool(dflag)


def variables(n: int, N: int) -> List[VarId]:
    """All universe variables in the fixed term order; a variable's rank is
    its position in this list."""
    out = []
    for a in range(1, N + 1):
        out.extend(copy_variables(n, a))
    out.extend(VarId("z", None, i) for i in range(1, n + 1))
    return out


def copy_variables(n: int, a: int) -> List[VarId]:
    """The 2n coordinates of copy a, in term order."""
    out = []
    for i in range(1, n + 1):
        out.append(VarId("x", a, i))
        out.append(VarId("y", a, i))
    return out


@lru_cache(maxsize=None)
def var_names(n: int, N: int) -> Tuple[str, ...]:
    """The printed name of every variable, indexed by rank."""
    return tuple(str(v) for v in variables(n, N))


# ---------------------------------------------------------------------------
# Monomials: sorted tuples of (variable rank, positive exponent).  The ranks
# of copy a (1-based) fill block a-1 of width 2n; the z ranks fill block N.
# ---------------------------------------------------------------------------

Monomial = Tuple[Tuple[int, int], ...]

ONE: Monomial = ()


def mono_from_dict(exps: Dict[int, int]) -> Monomial:
    """The monomial with the given rank -> exponent map (zeros dropped)."""
    for r, e in exps.items():
        if e < 0:
            raise ValueError(f"negative exponent {e} for variable rank {r}")
    return tuple(sorted((r, e) for r, e in exps.items() if e))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for r, e in b:
        exps[r] = exps.get(r, 0) + e
    return tuple(sorted(exps.items()))


def mono_apply(m: Monomial, d: Monomial, x: Monomial) -> Optional[Tuple[int, Monomial]]:
    """The operator term x^m d^d applied to the monomial x^x, as (weight,
    monomial) with the falling-factorial weight prod_v x_v!/(x_v - d_v)!, or
    None when the term kills x^x.  Every derivative of a monomial, in
    polynomial action and in normal ordering, is taken here."""
    exps = dict(x)
    weight = 1
    for r, a in d:
        e = exps.get(r, 0)
        if e < a:
            return None
        weight *= perm(e, a)
        if e == a:
            del exps[r]
        else:
            exps[r] = e - a
    for r, e in m:
        exps[r] = exps.get(r, 0) + e
    return weight, tuple(sorted(exps.items()))


def mono_z_degree(m: Monomial, n: int, N: int) -> int:
    return sum(e for r, e in m if r >= 2 * n * N)


def mono_copy_degree(m: Monomial, n: int, a: int) -> int:
    return sum(e for r, e in m if r // (2 * n) == a - 1)


def mono_sort_key(m: Monomial):
    # Lex order on the sparse (rank, exponent) list; negated exponents put
    # higher powers of earlier variables first (x^2 before x*y before y^2).
    return tuple((r, -e) for r, e in m)


def mono_str(m: Monomial, names: Sequence[str]) -> str:
    """Print m with the universe's name table (see var_names)."""
    if not m:
        return "1"
    return "*".join(names[r] if e == 1 else f"{names[r]}^{e}" for r, e in m)


# ---------------------------------------------------------------------------
# Multi-degrees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiDegree:
    """Total x+y degree per vector-variable copy, plus the spinor z degree."""

    per_copy: Tuple[int, ...]
    z_degree: int = 0

    def __post_init__(self):
        if any(d < 0 for d in self.per_copy) or self.z_degree < 0:
            raise ValueError("degrees must be nonnegative")

    @property
    def N(self) -> int:
        return len(self.per_copy)


# ---------------------------------------------------------------------------
# The sparse-term core and polynomials
# ---------------------------------------------------------------------------


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"not an exact rational: {c!r}")


class Terms:
    """A sparse exact linear combination of keys over the (n, N) universe.

    A subclass fixes the key type: its constant key ``_one``, the order
    ``sort_key`` and the printer ``key_str(key, names)`` of its keys, and
    its product ``_product``.  Values are immutable after construction; all
    arithmetic returns new objects, so instances are safe to share.
    """

    __slots__ = ("n", "N", "terms")

    _one = ONE

    def __init__(self, n: int, N: int, terms: Optional[Dict] = None):
        if n < 1 or N < 1:
            raise ValueError("need n >= 1 and N >= 1")
        self.n = n
        self.N = N
        clean = {}
        if terms:
            for key, c in terms.items():
                c = _as_fraction(c)
                if c != 0:
                    clean[key] = c
        self.terms = clean

    @classmethod
    def zero(cls, n: int, N: int):
        return cls(n, N)

    @classmethod
    def const(cls, n: int, N: int, c):
        return cls(n, N, {cls._one: c})

    # -- basic protocol -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.const(self.n, self.N, other)
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.N == other.N and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.N, frozenset(self.terms.items())))

    def _check(self, other: "Terms"):
        if self.n != other.n or self.N != other.N:
            raise UniverseMismatch(
                f"(n={self.n}, N={self.N}) vs (n={other.n}, N={other.N})"
            )

    # -- vector-space operations and the product -----------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.const(self.n, self.N, other)
        elif type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return type(self)(self.n, self.N, out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.n, self.N, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.const(self.n, self.N, other)
        elif type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) - c
        return type(self)(self.n, self.N, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return type(self)(self.n, self.N, {k: other * c for k, c in self.terms.items()})
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self._product(other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    # -- views ----------------------------------------------------------------

    def items_sorted(self) -> List[Tuple[object, Fraction]]:
        return sorted(self.terms.items(), key=lambda kc: self.sort_key(kc[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = var_names(self.n, self.N)
        text = ""
        for key, c in self.items_sorted():
            body, size = self.key_str(key, names), abs(c)
            if body == "1":
                body = str(size)
            elif size != 1:
                body = f"{size}*{body}"
            if not text:
                text = "-" + body if c < 0 else body
            else:
                text += f" - {body}" if c < 0 else f" + {body}"
        return text

    __repr__ = __str__


class Poly(Terms):
    """A sparse exact polynomial over the (n, N) universe, keyed by monomials."""

    __slots__ = ()

    sort_key = staticmethod(mono_sort_key)
    key_str = staticmethod(mono_str)

    @classmethod
    def var(cls, n: int, N: int, v) -> "Poly":
        if isinstance(v, str):
            v, _ = parse_var(v, n, N)
        return cls(n, N, {((v.rank(n, N), 1),): 1})

    def _product(self, other: "Poly") -> "Poly":
        out: Dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return Poly(self.n, self.N, out)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not polynomials")
        out = Poly.const(self.n, self.N, 1)
        for _ in range(e):
            out = out * self
        return out

    # -- grading --------------------------------------------------------------

    def copy_degree_of_terms(self, a: int) -> Optional[int]:
        """Degree in copy a if uniform over all terms, else None."""
        degs = {mono_copy_degree(m, self.n, a) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    # -- views ----------------------------------------------------------------

    def to_json(self) -> List[dict]:
        names = var_names(self.n, self.N)
        return [
            {"coef": str(c), "exps": {names[r]: e for r, e in m}}
            for m, c in self.items_sorted()
        ]


# ---------------------------------------------------------------------------
# Monomial bases of graded components
# ---------------------------------------------------------------------------


def _compositions(total: int, slots: int) -> Iterator[Tuple[int, ...]]:
    """All length-``slots`` tuples of nonnegative ints summing to total."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def monos_of_degree(ranks: Sequence[int], degree: int) -> List[Monomial]:
    """All monomials of exact total degree in the variables of the given
    increasing ranks."""
    return [
        tuple((r, e) for r, e in zip(ranks, exps) if e)
        for exps in _compositions(degree, len(ranks))
    ]


def monomial_basis(
    n: int, N: int, d: MultiDegree, num_vars: Optional[int] = None
) -> List[Monomial]:
    """Ordered basis of the multidegree-d component of the (n, N) universe.

    ``num_vars`` restricts copy 1 to its first ``num_vars`` coordinates (the
    R^m validation path for the classical harmonic checks); it requires N=1.
    """
    if d.N != N:
        raise ValueError(f"multidegree has {d.N} copies, expected {N}")
    if num_vars is not None:
        if N != 1:
            raise ValueError("num_vars restriction only supported for N=1")
        if not 1 <= num_vars <= 2 * n:
            raise ValueError(f"num_vars must lie in 1..{2*n}")
    width = 2 * n
    factors: List[List[Monomial]] = []
    for a in range(N):
        ranks = range(a * width, (a + 1) * width)
        if num_vars is not None:
            ranks = ranks[:num_vars]
        factors.append(monos_of_degree(ranks, d.per_copy[a]))
    if d.z_degree:
        factors.append(monos_of_degree(range(N * width, N * width + n), d.z_degree))
    # the factors hold increasing rank blocks, so concatenation stays sorted
    basis = [ONE]
    for fac in factors:
        basis = [m + f for m in basis for f in fac]
    basis.sort(key=mono_sort_key)
    return basis


def graded_dimension(n: int, N: int, d: MultiDegree) -> int:
    """Closed-form count of monomial_basis via stars and bars."""
    count = 1
    for la in d.per_copy:
        count *= comb(la + 2 * n - 1, 2 * n - 1)
    count *= comb(d.z_degree + n - 1, n - 1)
    return count


# ---------------------------------------------------------------------------
# Text and JSON input
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9.]*)|(?P<op>[-+*^]))"
)


def _tokenize(text: str) -> List[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise PolyParseError(f"unexpected input at {text[pos:pos+10]!r}")
            break
        tokens.append(m.group("num") or m.group("name") or m.group("op"))
        pos = m.end()
    return tokens


def parse_terms(text: str, n: int, N: int, *, allow_deriv: bool = False):
    """Parse the polynomial/operator text grammar.

    Returns (coef, mult_exps, deriv_exps) triples, one per textual term, with
    the exponent maps keyed by variable rank.  Plain polynomial inputs always
    have empty deriv_exps.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty input")
    terms = []
    i = 0
    while i < len(tokens):
        sign = Fraction(1)
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise PolyParseError("dangling sign at end of input")
        coef = sign
        mult: Dict[int, int] = {}
        deriv: Dict[int, int] = {}
        # a term is atoms joined by single '*'s: it starts and ends on an atom
        expect_atom = True
        while i < len(tokens):
            tok = tokens[i]
            if tok in "+-":
                break
            if tok == "*":
                if expect_atom:
                    raise PolyParseError("misplaced '*'")
                i += 1
                expect_atom = True
                continue
            if tok == "^":
                raise PolyParseError("misplaced '^'")
            if not expect_atom:
                raise PolyParseError(f"missing '*' before {tok!r}")
            # exponent lookahead
            exp = 1
            adv = 1
            if i + 2 < len(tokens) and tokens[i + 1] == "^":
                exp_tok = tokens[i + 2]
                if not exp_tok.isdigit():
                    raise PolyParseError(f"bad exponent {exp_tok!r}")
                exp = int(exp_tok)
                adv = 3
            elif i + 1 < len(tokens) and tokens[i + 1] == "^":
                raise PolyParseError("dangling '^'")
            if re.fullmatch(r"\d+(?:/\d+)?", tok):
                if adv != 1:
                    raise PolyParseError("numeric coefficients take no exponent")
                try:
                    coef *= Fraction(tok)
                except ZeroDivisionError:
                    raise PolyParseError(f"zero denominator in {tok!r}") from None
            else:
                var, is_deriv = parse_var(tok, n, N, allow_deriv=allow_deriv)
                target = deriv if is_deriv else mult
                r = var.rank(n, N)
                target[r] = target.get(r, 0) + exp
            i += adv
            expect_atom = False
        if expect_atom:
            raise PolyParseError("dangling '*'")
        terms.append((coef, mult, deriv))
    return terms


def parse_poly(text: str, n: int, N: int) -> Poly:
    """Parse the polynomial text grammar, e.g. ``3/2*x1.1^2*z1 - y1.2``."""
    out: Dict[Monomial, Fraction] = {}
    for coef, mult, _ in parse_terms(text, n, N, allow_deriv=False):
        m = mono_from_dict(mult)
        out[m] = out.get(m, 0) + coef
    return Poly(n, N, out)


def _exact(value):
    """A JSON number as given, refusing floats (0.1 is not 1/10, and 1.7 would
    truncate to 1) and booleans (true would read as 1)."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"{value!r} is not an exact number")
    return value


def poly_from_json(data: List[dict], n: int, N: int) -> Poly:
    """Read a term list ``[{"coef": "3/2", "exps": {"x1.1": 2}}, ...]``.

    Coefficients are integers or fraction strings, exponents integers."""
    if not isinstance(data, list):
        raise PolyParseError(f"polynomial JSON must be a term list, not {data!r}")
    out: Dict[Monomial, Fraction] = {}
    for entry in data:
        try:
            coef = Fraction(_exact(entry["coef"]))
            exps = entry.get("exps", {})
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise PolyParseError(f"bad polynomial JSON entry {entry!r}") from exc
        if not isinstance(exps, dict):
            raise PolyParseError(f'"exps" must map variables to exponents in {entry!r}')
        mult: Dict[int, int] = {}
        for name, e in exps.items():
            var, _ = parse_var(name, n, N)
            try:
                e = int(_exact(e))
            except (TypeError, ValueError) as exc:
                raise PolyParseError(f"bad exponent {e!r} in {entry!r}") from exc
            if e < 0:
                raise PolyParseError(f"negative exponent {e} in {entry!r}")
            r = var.rank(n, N)
            mult[r] = mult.get(r, 0) + e
        m = mono_from_dict(mult)
        out[m] = out.get(m, 0) + coef
    return Poly(n, N, out)
