"""Shared test utilities: random exact polynomials and an independent
dense-elimination oracle for kernel dimensions and kernel vectors.

The oracle deliberately shares no code with sympalg's matrix assembly or
sympalg.linalg: it differentiates every basis monomial with its own exponent
loop, builds a dense Fraction matrix and runs textbook Gauss-Jordan, so
kernel dimensions are cross-checked by a second route.
"""

from fractions import Fraction
from math import gcd, lcm

from sympalg.poly import Poly, mono_from_dict, variables


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
