"""Shared test utilities: random exact polynomials, an independent
dense-elimination oracle for kernel dimensions and kernel vectors, and a
singular-vector oracle for the spinor tensor decomposition.

The dense oracle deliberately shares no code with sympalg's matrix assembly or
sympalg.linalg: it differentiates every basis monomial with its own exponent
loop, builds a dense Fraction matrix and runs textbook Gauss-Jordan, so
kernel dimensions are cross-checked by a second route.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from sympalg.kernels import GradedSpec, harmonic_system, joint_kernel
from sympalg.poly import Poly, mono_from_dict, mono_z_degree, variables
from sympalg.roots import Weight
from sympalg.tensor import EVEN, ODD
from sympalg.weyl import POSITIVE, build_sp2n_realization


def random_poly(rng, n=2, N=2, terms=4, deg=3):
    vs = range(len(variables(n, N)))  # variable ranks
    p = Poly.zero(n, N)
    for _ in range(terms):
        coef = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        exps = {}
        for _ in range(rng.randint(0, deg)):
            var = rng.choice(vs)
            exps[var] = exps.get(var, 0) + 1
        p = p + Poly(n, N, {mono_from_dict(exps): coef})
    return p


def stacked_rows(ops, domain_monos):
    """Sparse rows {column: coefficient} of the stacked operator matrices,
    one per (operator, image monomial)."""
    rows = {}
    for j, mono in enumerate(domain_monos):
        for oi, op in enumerate(ops):
            for imono, c in _act(op, mono).items():
                if c:
                    rows.setdefault((oi, imono), {})[j] = c
    return list(rows.values())


def _act(op, mono):
    """op applied to one monomial, term by term: d_v^a x_v^e has the falling
    factorial weight e (e-1) ... (e-a+1), which is 0 when a > e."""
    out = {}
    for (m, d), c in op.terms.items():
        exps = dict(mono)
        for r, a in d:
            e = exps.get(r, 0)
            for s in range(a):
                c *= e - s
            exps[r] = e - a
        if c:
            for r, e in m:
                exps[r] = exps.get(r, 0) + e
            image = mono_from_dict(exps)
            out[image] = out.get(image, 0) + c
    return out


def dense_kernel_dim(ops, domain_monos):
    """Brute-force nullity of the stacked operator matrices."""
    ncols = len(domain_monos)
    rows = [
        [row.get(j, Fraction(0)) for j in range(ncols)]
        for row in stacked_rows(ops, domain_monos)
    ]
    return ncols - dense_rank(rows)


def dense_rank(rows):
    return len(_rref(rows, len(rows[0]) if rows else 0))


def dense_nullspace(rows, ncols):
    """Kernel vectors of the dense matrix read off its reduced row echelon
    form, one per free column f: v[f] = 1, v[pivot] = -R[pivot row][f].
    Each is scaled to coprime integers, positive at its lowest entry, as a
    dict with ascending keys."""
    reduced = _rref(rows, ncols)
    pivot_cols = [next(j for j, x in enumerate(r) if x) for r in reduced]
    out = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = {c: -r[f] for c, r in zip(pivot_cols, reduced) if r[f]}
        vec[f] = Fraction(1)
        d = 1
        for c in vec.values():
            d = lcm(d, c.denominator)
        ints = {j: int(vec[j] * d) for j in sorted(vec)}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        sign = 1 if ints[min(ints)] > 0 else -1
        out.append({j: sign * v // g for j, v in ints.items()})
    return out


def _rref(rows, ncols):
    """Textbook Gauss-Jordan: the nonzero rows of the reduced echelon form."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rows[:rank]


# every dominant lambda with n <= 3 and |lambda| <= 2, and n = 2 with
# |lambda| = 3 (n = 3 with |lambda| = 3 is left out: (1,1,1) alone takes 5 s)
SPINOR_TENSOR_GRID = [
    (0,), (1,), (2,),
    (0, 0), (1, 0), (2, 0), (1, 1), (3, 0), (2, 1),
    (0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0),
]


@lru_cache(maxsize=None)
def spinor_singular_weights(lam):
    """The (highest weight, family) of every singular vector of
    V(lam) (x) P(z), as a Counter, so that comparing with it also compares
    multiplicities.  It is cached for the tests that share a grid.

    It runs sympalg's own elimination (joint_kernel), so the independent route
    is the singular-vector computation, not the elimination: it finds the
    summands of the spinor tensor decomposition instead of stating the rule.
    V(lam) is the harmonic model on N copies of degrees lam, N the number of
    nonzero rows (1 for lam = 0).  A singular vector is a joint-kernel vector
    of the harmonic system plus the positive roots of the spinor realization;
    the z degree is capped at lam_1 + lam_n + 3, and since the positive roots
    never raise the z degree, that truncated kernel is exact.  A vector's
    weight is read off its monomials: x_{a,i} counts +eps_i, y_{a,i} and z_i
    count -eps_i, and every entry gets -1/2.  Its family is the parity of its
    z degree.  Each vector must be homogeneous in both.
    """
    n = lam.n
    degrees = tuple(int(c) for c in lam.coords if c) or (0,)
    N = len(degrees)
    ops, _ = harmonic_system(n, N)
    ops += [e.op for e in build_sp2n_realization("spinor", n, N) if e.role == POSITIVE]
    spec = GradedSpec(n, N, degrees, z_max=int(lam[0] + lam[n - 1]) + 3)
    out = Counter()
    for vec in joint_kernel(ops, spec).vectors:
        found = set()
        for mono in vec.terms:
            mu = [Fraction(-1, 2)] * n
            for r, e in mono:
                if r >= 2 * n * N:  # z_i
                    mu[r - 2 * n * N] -= e
                else:  # x_{a,i} at an even rank, y_{a,i} at the odd one after it
                    mu[(r % (2 * n)) // 2] += -e if r % 2 else e
            family = ODD if mono_z_degree(mono, n, N) % 2 else EVEN
            found.add((Weight(tuple(mu)), family))
        assert len(found) == 1, f"inhomogeneous singular vector {vec}"
        out[found.pop()] += 1
    return out
