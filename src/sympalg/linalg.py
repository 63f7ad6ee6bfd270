"""Exact sparse nullspace computation over the rationals.

Rows are dictionaries column -> coefficient.  Elimination is fraction-free in
the division-minimizing sense: rows are scaled to integers once (``scale``,
the helper that ``weyl.compose`` also uses on its operands), updates use
integer cross-multiplication (r' = a*r - b*piv), and every row is stripped to
content 1 afterwards, which keeps entries small without ever leaving exact
arithmetic.  Rows are processed sparsest-first and each pivot is the smallest
column of its row, so for a fixed column order the computed kernel basis is
deterministic.

Kernel vectors are read straight off the reduced pivot rows as sparse integer
dictionaries, never as dense rational lists.  Because every pivot is the
smallest column of its row, the vector of free column f is supported on f and
on pivot columns below f: f is its largest key, and the nullity of the column
prefix M[:, :k] is the number of vectors whose largest key is below k.

The forward step is ``echelon_insert``.  ``weyl.lie_closure`` runs it too, on
operators as integer rows keyed by their (ordered) terms, so Lie spans are
decided by this same elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Tuple, TypeVar

K = TypeVar("K")  # a column key: an int for matrices, an operator term for lie_closure
Row = Dict[int, Fraction]
IntRow = Dict[int, int]


def scale(row: Dict[K, Fraction]) -> Tuple[int, Dict[K, int]]:
    """(d, int_row): d is the least common denominator of the entries and
    int_row[k] = d * row[k] as an int, zero entries dropped."""
    d = 1
    for c in row.values():
        d = lcm(d, c.denominator)
    return d, {j: c.numerator * (d // c.denominator) for j, c in row.items() if c}


def integerize(row: Dict[K, Fraction]) -> Dict[K, int]:
    """The row scaled to coprime integers (zero entries dropped)."""
    return _strip_content(scale(row)[1])


def _strip_content(row: Dict[K, int]) -> Dict[K, int]:
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        row = {j: v // g for j, v in row.items()}
    return row


def _combine(row: Dict[K, int], piv: Dict[K, int], col: K) -> Dict[K, int]:
    """Eliminate ``col`` from row using the pivot row (integer cross-multiply)."""
    a = piv[col]
    b = row[col]
    out: Dict[K, int] = {}
    for j, v in row.items():
        out[j] = a * v
    for j, v in piv.items():
        nv = out.get(j, 0) - b * v
        if nv:
            out[j] = nv
        elif j in out:
            del out[j]
    return _strip_content(out)


def echelon_insert(pivots: Dict[K, Dict[K, int]], row: Dict[K, int]) -> bool:
    """Reduce the integer row against ``pivots`` (pivot key -> row whose
    smallest key is that pivot) and store a nonzero remainder as a new pivot
    row.  Returns True iff the row was independent of the pivot rows."""
    while row:
        col = min(row)
        piv = pivots.get(col)
        if piv is None:
            pivots[col] = row
            return True
        row = _combine(row, piv, col)
    return False


def nullspace(rows: List[Row], ncols: int) -> List[IntRow]:
    """Exact basis of {v : M v = 0} for the sparse matrix given by ``rows``.

    Returns one sparse integer vector per free column, ordered by free column
    index: a dict column -> int, keys ascending, with content 1 and a positive
    entry at its lowest column.  The free column is the vector's largest key.
    """
    int_rows = [integerize(r) for r in rows]
    int_rows = [r for r in int_rows if r]
    int_rows.sort(key=lambda r: (len(r), sorted(r)))
    pivots: Dict[int, IntRow] = {}
    for row in int_rows:
        echelon_insert(pivots, row)
    # back-substitution: make pivot rows mutually reduced, so every entry of a
    # pivot row other than its pivot lies in a free column.  Pivots are taken
    # from the largest down, and each is already reduced when it is used, so
    # a combination removes one pivot column and adds only free ones: the
    # pivot rows that meet each pivot column are known before the first step.
    meets: Dict[int, List[int]] = {}
    for col2, row in pivots.items():
        for j in row:
            if j != col2 and j in pivots:
                meets.setdefault(j, []).append(col2)
    for col in sorted(meets, reverse=True):
        piv = pivots[col]
        for col2 in meets[col]:
            pivots[col2] = _combine(pivots[col2], piv, col)
    order = sorted(pivots)
    # column f of the reduced rows: v[f] = 1, v[col] = -piv[f] / piv[col];
    # rows_at[f] lists, ascending, the pivot columns whose rows meet f
    rows_at: Dict[int, List[int]] = {}
    for col in order:
        for j in pivots[col]:
            if j != col:
                rows_at.setdefault(j, []).append(col)
    basis: List[IntRow] = []
    for f in range(ncols):
        if f in pivots:
            continue
        cols = rows_at.get(f, [])
        # lcd is the least common denominator of the entries, so the
        # content is 1 already; only the sign of the lowest entry is left
        lcd = 1
        for col in cols:
            a = pivots[col][col]
            lcd = lcm(lcd, a // gcd(a, pivots[col][f]))
        vec = {col: -pivots[col][f] * lcd // pivots[col][col] for col in cols}
        vec[f] = lcd
        if cols and vec[cols[0]] < 0:
            vec = {j: -v for j, v in vec.items()}
        basis.append(vec)
    return basis
