"""Normal-ordered Weyl algebra of polynomial-coefficient differential operators.

An operator is a finite sum of terms ``coef * (multiplication monomial) *
(derivative monomial)`` with every multiplication written to the left of every
derivative.  Composition repeatedly applies ``[d_v, w] = delta_{vw}`` to
restore that canonical form, so structural equality of canonical forms decides
operator equality, and two equal operators act identically on all polynomials.

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
from math import comb, factorial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import (
    ONE,
    Monomial,
    Poly,
    Terms,
    UniverseMismatch,
    VarId,
    copy_variables,
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

    def total_order(self) -> int:
        """Maximal mult-degree + deriv-degree over the terms."""
        return max(
            (sum(e for _, e in m) + sum(e for _, e in d) for (m, d) in self.terms),
            default=0,
        )

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


def _push_deriv_past_mono(alpha: Monomial, beta: Monomial):
    """Normal-order d^alpha x^beta as sum_gamma w_gamma x^(beta-gamma) d^(alpha-gamma).

    Yields (weight, beta', alpha') with integer weight
    prod_v C(alpha_v, g_v) C(beta_v, g_v) g_v!.
    """
    da = dict(alpha)
    mb = dict(beta)
    shared = [r for r in da if r in mb]
    choices: List[Tuple[int, Dict[int, int], Dict[int, int]]] = [(1, mb, da)]
    for r in shared:
        a, b = da[r], mb[r]
        new_choices = []
        for weight, cur_mb, cur_da in choices:
            for g in range(min(a, b) + 1):
                w = weight * comb(a, g) * comb(b, g) * factorial(g)
                nmb = dict(cur_mb)
                nda = dict(cur_da)
                if g:
                    if b - g:
                        nmb[r] = b - g
                    else:
                        del nmb[r]
                    if a - g:
                        nda[r] = a - g
                    else:
                        del nda[r]
                new_choices.append((w, nmb, nda))
        choices = new_choices
    for weight, cur_mb, cur_da in choices:
        yield weight, tuple(sorted(cur_mb.items())), tuple(sorted(cur_da.items()))


def compose(A: WeylOp, B: WeylOp) -> WeylOp:
    """Normal-ordered operator product A o B (A acting after B)."""
    A._check(B)
    out: Dict[OpKey, Fraction] = {}
    for (ma, da), ca in A.terms.items():
        for (mb, db), cb in B.terms.items():
            c = ca * cb
            for weight, mid_m, mid_d in _push_deriv_past_mono(da, mb):
                key = (mono_mul(ma, mid_m), mono_mul(mid_d, db))
                out[key] = out.get(key, 0) + c * weight
    return WeylOp(A.n, A.N, out)


def commutator(A: WeylOp, B: WeylOp) -> WeylOp:
    return compose(A, B) - compose(B, A)


def apply_op(A: WeylOp, p: Poly) -> Poly:
    """Exact action of A on a polynomial."""
    if A.n != p.n or A.N != p.N:
        raise UniverseMismatch(f"operator (n={A.n}, N={A.N}) vs poly (n={p.n}, N={p.N})")
    out: Dict[Monomial, Fraction] = {}
    for (m, d), c in A.terms.items():
        for mono, coef in p.terms.items():
            exps = dict(mono)
            weight = 1
            for r, a in d:
                e = exps.get(r, 0)
                if e < a:
                    break
                for s in range(a):
                    weight *= e - s
                if e == a:
                    del exps[r]
                else:
                    exps[r] = e - a
            else:  # no derivative factor annihilated the monomial
                for r, e in m:
                    exps[r] = exps.get(r, 0) + e
                res = tuple(sorted(exps.items()))
                out[res] = out.get(res, 0) + c * coef * weight
    return Poly(p.n, p.N, out)


def eigenvalue(op: WeylOp, p: Poly) -> Optional[Fraction]:
    """The exact scalar c with op(p) = c p, or None if p is no eigenvector.

    The zero polynomial is an eigenvector of every operator, with c = 0.
    """
    q = apply_op(op, p)
    if q.is_zero():
        return Fraction(0)
    m0, c0 = p.leading()
    cq = q.terms.get(m0)
    if cq is None:
        return None
    lam = cq / c0
    return lam if q == p * lam else None


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


def angular_momentum_op(n: int, N: int, va: VarId, vb: VarId) -> WeylOp:
    """L_ab = a d_b - b d_a for two coordinates of the same universe."""
    return _sum_terms(n, N, [(1, (va,), (vb,)), (-1, (vb,), (va,))])


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


_NAMED_BUILDERS = {
    "euler": lambda n, N, copies: euler_op(n, N, copies[0]),
    "laplacian": lambda n, N, copies: laplacian_op(n, N),
    "r_squared": lambda n, N, copies: r_squared_op(n, N),
    "symplectic_pairing_vars": lambda n, N, copies: pairing_vars_op(n, N, *copies),
    "symplectic_pairing_derivs": lambda n, N, copies: pairing_derivs_op(n, N, *copies),
    "contraction": lambda n, N, copies: contraction_op(n, N, *copies),
    "D_s": lambda n, N, copies: dirac_op(n, N, copies[0]),
    "X_s": lambda n, N, copies: dirac_adjoint_op(n, N, copies[0]),
}


def build_named(name: str, n: int, N: int, copies: Sequence[int] = (1,)) -> WeylOp:
    """Build a named operator; see _NAMED_BUILDERS for the accepted names."""
    try:
        builder = _NAMED_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown operator {name!r}; known: {sorted(_NAMED_BUILDERS)}"
        ) from None
    return builder(n, N, tuple(copies))


def build_named_from_json(data: dict) -> WeylOp:
    """Build from the named-operator JSON form {name, n, N, copies}."""
    try:
        name = data["name"]
        n = int(data["n"])
        N = int(data["N"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad named-operator JSON {data!r}") from exc
    copies = tuple(int(c) for c in data.get("copies", (1,)))
    return build_named(name, n, N, copies)


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
    structure_constants: Dict[Tuple[int, int], Dict[int, Fraction]]
    rounds: int


class _OpSpan:
    """Exact echelon span of operators viewed as sparse coefficient vectors."""

    def __init__(self):
        # pivot key -> reduced vector (vector has coefficient 1 at its pivot
        # and zero at every other pivot key)
        self.pivots: Dict[OpKey, Dict[OpKey, Fraction]] = {}
        self.order: List[OpKey] = []

    def _reduce(self, vec: Dict[OpKey, Fraction]) -> Dict[OpKey, Fraction]:
        for key in self.order:
            c = vec.get(key)
            if not c:
                continue
            piv = self.pivots[key]
            for k2, v2 in piv.items():
                nv = vec.get(k2, Fraction(0)) - c * v2
                if nv:
                    vec[k2] = nv
                elif k2 in vec:
                    del vec[k2]
        return vec

    def coordinates(self, op: WeylOp) -> Optional[Dict[OpKey, Fraction]]:
        """Pivot-key -> coefficient expansion of op, or None if outside the span."""
        vec = self._reduce(dict(op.terms))
        if vec:
            return None
        # pivots are mutually reduced, so coordinates read off the pivot entries
        return {
            key: op.terms[key]
            for key in self.order
            if op.terms.get(key, Fraction(0)) != 0
        }

    def insert(self, op: WeylOp) -> bool:
        """Add op to the span; returns True if the dimension grew."""
        vec = self._reduce(dict(op.terms))
        if not vec:
            return False
        key = min(vec, key=WeylOp.sort_key)
        lead = vec[key]
        vec = {k: v / lead for k, v in vec.items()}
        # eliminate the new pivot from the existing reduced vectors
        for pkey in self.order:
            piv = self.pivots[pkey]
            c = piv.get(key)
            if not c:
                continue
            for k2, v2 in vec.items():
                nv = piv.get(k2, Fraction(0)) - c * v2
                if nv:
                    piv[k2] = nv
                elif k2 in piv:
                    del piv[k2]
        self.pivots[key] = vec
        self.order.append(key)
        return True

    def basis_ops(self, n: int, N: int) -> List[WeylOp]:
        return [WeylOp(n, N, self.pivots[key]) for key in self.order]


def lie_closure(generators: Sequence[WeylOp], max_rounds: int = 16) -> ClosureResult:
    """Close the given operators under commutators by exact linear algebra.

    Raises ClosureNotClosed if the span is still growing after max_rounds.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n, N = gens[0].n, gens[0].N
    for g in gens:
        gens[0]._check(g)
    span = _OpSpan()
    frontier: List[WeylOp] = []
    for g in gens:
        if span.insert(g):
            frontier.append(g)
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > max_rounds:
            raise ClosureNotClosed(max_rounds, len(span.order))
        basis_now = span.basis_ops(n, N)
        new_frontier: List[WeylOp] = []
        for a in basis_now:
            for b in frontier:
                c = commutator(a, b)
                if c and span.insert(c):
                    new_frontier.append(c)
        frontier = new_frontier
    basis = span.basis_ops(n, N)
    key_index = {key: i for i, key in enumerate(span.order)}
    structure: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            bracket = commutator(basis[i], basis[j])
            if not bracket:
                continue
            coords = span.coordinates(bracket)
            if coords is None:
                raise ClosureNotClosed(rounds, len(basis))
            structure[(i, j)] = {key_index[k]: c for k, c in coords.items()}
    return ClosureResult(basis, len(basis), structure, rounds)
