"""Shared test utilities: random exact polynomials and an independent
dense-elimination oracle for kernel dimensions.

The oracle deliberately shares no code with sympalg.linalg: it applies the
operators to every basis monomial, builds a dense Fraction matrix and runs
textbook Gauss-Jordan, so kernel dimensions are cross-checked by a second
route.
"""

from fractions import Fraction

from sympalg.poly import Poly, mono_from_dict, variables
from sympalg.weyl import apply_op


def random_poly(rng, n=2, N=2, terms=4, deg=3):
    vs = variables(n, N)
    p = Poly.zero(n, N)
    for _ in range(terms):
        coef = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        exps = {}
        for _ in range(rng.randint(0, deg)):
            var = rng.choice(vs)
            exps[var] = exps.get(var, 0) + 1
        p = p + Poly(n, N, {mono_from_dict(exps): coef})
    return p


def stacked_rows(ops, domain_monos, n, N):
    """Sparse rows {column: coefficient} of the stacked operator matrices,
    one per (operator, image monomial)."""
    rows = []
    row_of_image = {}
    for j, mono in enumerate(domain_monos):
        p = Poly(n, N, {mono: Fraction(1)})
        for oi, op in enumerate(ops):
            for imono, c in apply_op(op, p).terms.items():
                key = (oi, imono)
                if key not in row_of_image:
                    row_of_image[key] = len(rows)
                    rows.append({})
                rows[row_of_image[key]][j] = c
    return rows


def dense_kernel_dim(ops, domain_monos, n, N):
    """Brute-force nullity of the stacked operator matrices."""
    ncols = len(domain_monos)
    rows = [
        [row.get(j, Fraction(0)) for j in range(ncols)]
        for row in stacked_rows(ops, domain_monos, n, N)
    ]
    return ncols - dense_rank(rows)


def dense_rank(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
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
    return rank
