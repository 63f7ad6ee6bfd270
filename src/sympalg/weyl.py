"""Normal-ordered Weyl algebra of polynomial-coefficient differential operators.

An operator is a finite sum of terms ``coef * (multiplication monomial) *
(derivative monomial)`` with every multiplication written to the left of every
derivative.  Composition restores that canonical form by the Leibniz rule
``d^a x^b = sum_{g <= a, b} C(a, g) (d^g x^b) d^(a-g)``, so structural equality
of canonical forms decides operator equality, and two equal operators act
identically on all polynomials.  The Leibniz loop runs on Python ints: each
operand is scaled once to integer terms over its least common denominator, and
each output term becomes one Fraction at the end, so coefficients stay exact
rationals without a Fraction product per term pair.

All the named operators of the symplectic calculus live here: the per-copy
symplectic Dirac operators and their adjoints, the Euclidean and symplectic
contractions between vector-variable copies, Euler operators, the classical
Laplacian/|x|^2 pair used as the orthogonal validation path, and the scalar
and spinor realizations of sp(2n).  The symplectic pairing is the one induced
by Omega_0 = [[0, I], [-I, 0]]:  <v, w>_s = sum_i (v_x,i w_y,i - v_y,i w_x,i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import echelon_insert, integerize, scale
from .poly import (
    ONE,
    Monomial,
    Poly,
    Terms,
    UniverseMismatch,
    VarId,
    copy_variables,
    mono_apply,
    mono_from_dict,
    mono_mul,
    mono_sort_key,
    mono_str,
    parse_terms,
    var_names,
)

OpKey = Tuple[Monomial, Monomial]


class ClosureNotClosed(RuntimeError):
    """lie_closure exceeded max_rounds without the span stabilizing."""

    def __init__(self, rounds: int, dimension: int):
        super().__init__(
            f"Lie span still growing after {rounds} rounds (dimension {dimension})"
        )
        self.rounds = rounds
        self.dimension = dimension


class WeylOp(Terms):
    """A normal-ordered element of the Weyl algebra over the (n, N) universe,
    keyed by (multiplication monomial, derivative monomial) pairs."""

    __slots__ = ()

    _one = (ONE, ONE)

    @staticmethod
    def sort_key(key: OpKey):
        return (mono_sort_key(key[0]), mono_sort_key(key[1]))

    @staticmethod
    def key_str(key: OpKey, names: Sequence[str]) -> str:
        m, d = key
        factors = [mono_str(m, names)] if m else []
        factors.extend(f"d{names[r]}" if e == 1 else f"d{names[r]}^{e}" for r, e in d)
        return "*".join(factors) or "1"

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int, N: int, c=1) -> "WeylOp":
        return cls.const(n, N, c)

    @classmethod
    def deriv(cls, n: int, N: int, v: VarId, order: int = 1) -> "WeylOp":
        return cls(n, N, {(ONE, mono_from_dict({v.rank(n, N): order})): 1})

    @classmethod
    def mult(cls, n: int, N: int, v: VarId, order: int = 1) -> "WeylOp":
        return cls(n, N, {(mono_from_dict({v.rank(n, N): order}), ONE): 1})

    def _product(self, other: "WeylOp") -> "WeylOp":
        return compose(self, other)

    def to_json(self) -> List[dict]:
        names = var_names(self.n, self.N)
        return [
            {
                "coef": str(c),
                "mult": {names[r]: e for r, e in m},
                "deriv": {names[r]: e for r, e in d},
            }
            for (m, d), c in self.items_sorted()
        ]


# ---------------------------------------------------------------------------
# Composition, commutators, application
# ---------------------------------------------------------------------------


def _leibniz(alpha: Monomial, beta: Monomial):
    """Normal-order d^alpha x^beta by the Leibniz rule: one (weight, beta',
    alpha') per gamma <= alpha, beta, where C(alpha, gamma) d^gamma x^beta =
    weight x^beta', and alpha' = alpha - gamma.  gamma = 0 comes first, and
    alone when alpha and beta share no variable."""
    powers = dict(beta)
    shared = [(r, a, min(a, powers[r])) for r, a in alpha if r in powers]
    if not shared:
        yield 1, beta, alpha
        return
    for gs in product(*(range(top + 1) for _, _, top in shared)):
        gamma = tuple((r, g) for (r, _, _), g in zip(shared, gs) if g)
        weight, mid_m = mono_apply(ONE, gamma, beta)
        _, mid_d = mono_apply(ONE, gamma, alpha)
        for (_, a, _), g in zip(shared, gs):
            weight *= comb(a, g)
        yield weight, mid_m, mid_d


def compose(A: WeylOp, B: WeylOp) -> WeylOp:
    """Normal-ordered operator product A o B (A acting after B).

    Each operand is scaled once to integer terms over its least common
    denominator (``linalg.scale``), the Leibniz loop runs on Python ints, and
    each output term becomes one Fraction over the product of the two
    denominators."""
    A._check(B)
    den_a, terms_a = scale(A.terms)
    den_b, terms_b = scale(B.terms)
    out: Dict[OpKey, int] = {}
    for (ma, da), ca in terms_a.items():
        for (mb, db), cb in terms_b.items():
            c = ca * cb
            for weight, mid_m, mid_d in _leibniz(da, mb):
                key = (mono_mul(ma, mid_m), mono_mul(mid_d, db))
                out[key] = out.get(key, 0) + c * weight
    d = den_a * den_b
    return WeylOp(A.n, A.N, {k: Fraction(v, d) for k, v in out.items()})


def commutator(A: WeylOp, B: WeylOp) -> WeylOp:
    return compose(A, B) - compose(B, A)


def apply_op(A: WeylOp, p: Poly) -> Poly:
    """Exact action of A on a polynomial."""
    if A.n != p.n or A.N != p.N:
        raise UniverseMismatch(f"operator (n={A.n}, N={A.N}) vs poly (n={p.n}, N={p.N})")
    out: Dict[Monomial, Fraction] = {}
    for (m, d), c in A.terms.items():
        for mono, coef in p.terms.items():
            hit = mono_apply(m, d, mono)
            if hit is not None:
                weight, res = hit
                out[res] = out.get(res, 0) + c * coef * weight
    return Poly(p.n, p.N, out)


def ratio(q: Terms, p: Terms) -> Optional[Fraction]:
    """The exact scalar c with q = c p, or None if there is none.

    q and p are any Terms of one kind: polynomials or operators alike.  A zero
    q is 0 times any p; a nonzero q is no multiple of a zero p.
    """
    if not q:
        return Fraction(0)
    if q.terms.keys() != p.terms.keys():
        return None
    m0, c0 = next(iter(p.terms.items()))
    lam = q.terms[m0] / c0
    return lam if all(c == lam * p.terms[m] for m, c in q.terms.items()) else None


def eigenvalue(op: WeylOp, p: Poly) -> Optional[Fraction]:
    """The exact scalar c with op(p) = c p, or None if p is no eigenvector.

    The zero polynomial is an eigenvector of every operator, with c = 0.
    """
    return ratio(apply_op(op, p), p)


# ---------------------------------------------------------------------------
# Named operators
# ---------------------------------------------------------------------------


def _sum_terms(
    n: int, N: int, pieces: Iterable[Tuple[Fraction, Sequence[VarId], Sequence[VarId]]]
) -> WeylOp:
    """Sum of c * (product of the mult variables) * (product of the deriv
    variables) over the pieces; a repeated variable is a power."""
    terms: Dict[OpKey, Fraction] = {}
    for c, mult, deriv in pieces:
        key = (_mono(n, N, mult), _mono(n, N, deriv))
        terms[key] = terms.get(key, 0) + c
    return WeylOp(n, N, terms)


def _mono(n: int, N: int, vars_: Sequence[VarId]) -> Monomial:
    exps: Dict[int, int] = {}
    for v in vars_:
        r = v.rank(n, N)
        exps[r] = exps.get(r, 0) + 1
    return mono_from_dict(exps)


def _check_copy(a: int, N: int):
    if not 1 <= a <= N:
        raise ValueError(f"copy index {a} out of range 1..{N}")


def euler_op(n: int, N: int, copy: int) -> WeylOp:
    """E over copy a: sum_i x_a.i d_x_a.i + y_a.i d_y_a.i."""
    _check_copy(copy, N)
    return euler_vars_op(n, N, copy_variables(n, copy))


def euler_vars_op(n: int, N: int, vars_: Sequence[VarId]) -> WeylOp:
    return _sum_terms(n, N, ((1, (v,), (v,)) for v in vars_))


def laplacian_op(n: int, N: int, vars_: Optional[Sequence[VarId]] = None) -> WeylOp:
    """Sum of d_v^2 over the given variables (default: the 2n coords of copy 1)."""
    if vars_ is None:
        vars_ = copy_variables(n, 1)
    return _sum_terms(n, N, ((1, (), (v, v)) for v in vars_))


def r_squared_op(n: int, N: int, vars_: Optional[Sequence[VarId]] = None) -> WeylOp:
    """Multiplication by |x|^2 over the given variables."""
    if vars_ is None:
        vars_ = copy_variables(n, 1)
    return _sum_terms(n, N, ((1, (v, v), ()) for v in vars_))


def pairing_vars_op(n: int, N: int, a: int, b: int) -> WeylOp:
    """<u_a, u_b>_s = sum_i (x_a.i y_b.i - y_a.i x_b.i)."""
    _check_copy(a, N)
    _check_copy(b, N)
    pieces = []
    for i in range(1, n + 1):
        xa, ya = VarId("x", a, i), VarId("y", a, i)
        xb, yb = VarId("x", b, i), VarId("y", b, i)
        pieces.append((1, (xa, yb), ()))
        pieces.append((-1, (ya, xb), ()))
    return _sum_terms(n, N, pieces)


def pairing_derivs_op(n: int, N: int, a: int, b: int) -> WeylOp:
    """<d_a, d_b>_s = sum_i (d_x_a.i d_y_b.i - d_y_a.i d_x_b.i)."""
    _check_copy(a, N)
    _check_copy(b, N)
    pieces = []
    for i in range(1, n + 1):
        xa, ya = VarId("x", a, i), VarId("y", a, i)
        xb, yb = VarId("x", b, i), VarId("y", b, i)
        pieces.append((1, (), (xa, yb)))
        pieces.append((-1, (), (ya, xb)))
    return _sum_terms(n, N, pieces)


def contraction_op(n: int, N: int, a: int, b: int) -> WeylOp:
    """Euclidean contraction <u_a, d_b> = sum over all 2n coords of u_a.c d_u_b.c."""
    _check_copy(a, N)
    _check_copy(b, N)
    pieces = zip(copy_variables(n, a), copy_variables(n, b))
    return _sum_terms(n, N, ((1, (va,), (vb,)) for va, vb in pieces))


def dirac_op(n: int, N: int, copy: int) -> WeylOp:
    """Symplectic Dirac operator on copy a: <z, d_y_a> - <d_z, d_x_a>."""
    _check_copy(copy, N)
    pieces = []
    for i in range(1, n + 1):
        z = VarId("z", None, i)
        x, y = VarId("x", copy, i), VarId("y", copy, i)
        pieces.append((1, (z,), (y,)))
        pieces.append((-1, (), (z, x)))
    return _sum_terms(n, N, pieces)


def dirac_adjoint_op(n: int, N: int, copy: int) -> WeylOp:
    """Fischer adjoint on copy a: <x_a, z> + <y_a, d_z>."""
    _check_copy(copy, N)
    pieces = []
    for i in range(1, n + 1):
        z = VarId("z", None, i)
        x, y = VarId("x", copy, i), VarId("y", copy, i)
        pieces.append((1, (x, z), ()))
        pieces.append((1, (y,), (z,)))
    return _sum_terms(n, N, pieces)


def parse_weyl_op(text: str, n: int, N: int) -> WeylOp:
    """Parse the operator text grammar, e.g. ``z1*dy1.1 - dz1*dx1.1``."""
    terms: Dict[OpKey, Fraction] = {}
    for coef, mult, deriv in parse_terms(text, n, N, allow_deriv=True):
        key = (mono_from_dict(mult), mono_from_dict(deriv))
        terms[key] = terms.get(key, 0) + coef
    return WeylOp(n, N, terms)


# ---------------------------------------------------------------------------
# sp(2n) realizations
# ---------------------------------------------------------------------------

CARTAN = "cartan"
POSITIVE = "positive-root"
NEGATIVE = "negative-root"


@dataclass(frozen=True)
class RealizationElement:
    label: str
    role: str
    op: WeylOp


def _scalar_generator(n: int, N: int, kind: str, j: int, k: int) -> WeylOp:
    """One-copy generators of Eq.-style scalar realization, summed over copies."""
    pieces = []
    for a in range(1, N + 1):
        xj, yj = VarId("x", a, j), VarId("y", a, j)
        xk, yk = VarId("x", a, k), VarId("y", a, k)
        if kind == "X":
            pieces.append((1, (xj,), (xk,)))
            pieces.append((-1, (yk,), (yj,)))
        elif kind == "Y":
            pieces.append((1, (xj,), (yk,)))
            if j != k:
                pieces.append((1, (xk,), (yj,)))
        elif kind == "Z":
            pieces.append((1, (yj,), (xk,)))
            if j != k:
                pieces.append((1, (yk,), (xj,)))
    return _sum_terms(n, N, pieces)


def _spinor_part(n: int, N: int, kind: str, j: int, k: int) -> WeylOp:
    zj, zk = VarId("z", None, j), VarId("z", None, k)
    half = Fraction(1, 2) if j == k else 1
    if kind == "X":
        pieces = [(-1, (zk,), (zj,))]
        if j == k:
            pieces.append((-half, (), ()))
    elif kind == "Y":
        pieces = [(-half, (), (zj, zk))]
    else:
        pieces = [(half, (zj, zk), ())]
    return _sum_terms(n, N, pieces)


def build_sp2n_realization(kind: str, n: int, N: int) -> List[RealizationElement]:
    """The 2n^2 + n generators of sp(2n) on the polynomial universe.

    kind="scalar": regular action on N vector-variable copies (diagonal sum of
    one-copy generators).  kind="spinor": the same plus the metaplectic action
    on the z variables (X_jk gains -(z_k d_z_j + 1/2 delta_jk), Y_jk gains
    -d_z_j d_z_k with a 1/2 on the diagonal, Z_jk gains +z_j z_k likewise).
    """
    if kind not in ("scalar", "spinor"):
        raise ValueError(f"kind must be 'scalar' or 'spinor', got {kind!r}")
    out: List[RealizationElement] = []
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            op = _scalar_generator(n, N, "X", j, k)
            if kind == "spinor":
                op = op + _spinor_part(n, N, "X", j, k)
            if j == k:
                role = CARTAN
            elif j < k:
                role = POSITIVE
            else:
                role = NEGATIVE
            out.append(RealizationElement(f"X_{j}{k}", role, op))
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            op = _scalar_generator(n, N, "Y", j, k)
            if kind == "spinor":
                op = op + _spinor_part(n, N, "Y", j, k)
            out.append(RealizationElement(f"Y_{j}{k}", POSITIVE, op))
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            op = _scalar_generator(n, N, "Z", j, k)
            if kind == "spinor":
                op = op + _spinor_part(n, N, "Z", j, k)
            out.append(RealizationElement(f"Z_{j}{k}", NEGATIVE, op))
    return out


# ---------------------------------------------------------------------------
# Exact Lie closure
# ---------------------------------------------------------------------------


@dataclass
class ClosureResult:
    basis: List[WeylOp]
    dimension: int
    rounds: int


def lie_closure(generators: Sequence[WeylOp], max_rounds: int = 16) -> ClosureResult:
    """Close the given operators under commutators by exact linear algebra.

    ``basis`` lists the generators that are independent of the ones before
    them, in the given order, then every bracket that enlarged the span, in
    the order found.  Each basis element b is bracketed only with the
    independent generators g, as [g, b]; two generators are bracketed once
    (the earlier one first).  That suffices: the algebra generated by G is
    spanned by the right-normed brackets [g_1, [g_2, ..., g_k]] with every
    g_i in G (Reutenauer, *Free Lie Algebras*, 1993), and on exit [g, V]
    lies in the span V for every g, so by Jacobi {x : [x, V] in V} is a
    subalgebra containing G, hence containing V: V is closed.

    A generator has depth 0 and a bracket [g, b] one more than b, so depth
    is the length of a right-normed bracket.  ``rounds`` is one more than
    the greatest depth (the last round adds nothing).

    Raises ClosureNotClosed if an element would reach depth max_rounds.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        gens[0]._check(g)
    pivots: Dict[OpKey, Dict[OpKey, int]] = {}
    basis = [g for g in gens if echelon_insert(pivots, integerize(g.terms))]
    gens = basis[:]
    depth = [0] * len(basis)
    j = 0
    while j < len(basis):  # the basis grows as the loop runs
        for g in gens[:j]:  # all of them once j passes the generators
            c = commutator(g, basis[j])
            if echelon_insert(pivots, integerize(c.terms)):
                if depth[j] + 1 >= max_rounds:
                    raise ClosureNotClosed(max_rounds, len(basis))
                basis.append(c)
                depth.append(depth[j] + 1)
        j += 1
    # depths are appended in non-decreasing order, so the last is the greatest
    rounds = depth[-1] + 1 if depth else 0
    return ClosureResult(basis, len(basis), rounds)
