"""Tensor decompositions with the symplectic spinor module S = P(z).

S is the sum of the two completely pointed modules, the even and the odd
polynomials in z, whose highest weights are even_tail = (-1/2, ..., -1/2) and
odd_tail = even_tail - eps_n.  For a dominant integral lambda, V(lambda) (x) S
is the sum of L(even_tail + lambda - d), one summand for each drop d with

    0 <= d_i <= lambda_i - lambda_{i+1}  (i < n),   0 <= d_n <= 2 lambda_n + 1.

The summand lies in the even part of S when sum d is even and in the odd part
when it is odd.  That makes prod_{i<n} (lambda_i - lambda_{i+1} + 1) *
(2 lambda_n + 2) summands.  The Cartan product is there once per parity:
even_tail + lambda at d = 0 and odd_tail + lambda at d = e_n.

Why the rule holds: V(lambda) (x) S is completely reducible and multiplicity
free (Britten-Lemire), so its summands are the weights of its singular vectors,
the vectors that every positive root of the spinor realization kills.  In the
harmonic model of V(lambda) those form a joint kernel on
P_(lambda) (x) P(z).  The positive roots never raise the z degree, so that
kernel truncated at a z-degree cap is exact below the cap.  Its weights and z
parities are the rule for every dominant lambda with n <= 3 and |lambda| <= 3,
with n = 2 and |lambda| = 4, and with n = 4 and |lambda| <= 2; the tests keep
that computation as a reference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List, Tuple

from .roots import NotDominant, Weight, is_dominant, spinor_tails

EVEN = "even"
ODD = "odd"


@dataclass(frozen=True)
class DecompSummand:
    weight: Weight
    parity: str

    def to_json(self) -> dict:
        return {
            "weight": self.weight.to_json(),
            "multiplicity": 1,  # multiplicity free (Britten-Lemire)
            "parity": self.parity,
        }


def drop_vectors(lam: Weight) -> List[Tuple[int, ...]]:
    """Every drop d of the rule, in lexicographic order."""
    if not is_dominant(lam):
        raise NotDominant(f"{lam} is not dominant integral")
    c = [int(x) for x in lam.coords]
    bounds = [a - b for a, b in zip(c, c[1:])] + [2 * c[-1] + 1]
    return list(product(*(range(b + 1) for b in bounds)))


def tensor_with_spinor(lam: Weight) -> List[DecompSummand]:
    """The summands even_tail + lambda - d of V(lambda) (x) S: the even family
    (sum d even) first, then the odd one, each in drop order."""
    drops = drop_vectors(lam)
    top = spinor_tails(lam.n)[0] + lam
    return [
        DecompSummand(top - Weight(d), parity)
        for parity, rest in ((EVEN, 0), (ODD, 1))
        for d in drops
        if sum(d) % 2 == rest
    ]


def cartan_product(lam: Weight) -> Tuple[Weight, Weight]:
    """The two top summands, tail + lambda for each spinor parity (the drops
    d = 0 and d = e_n)."""
    if not is_dominant(lam):
        raise NotDominant(f"{lam} is not dominant integral")
    even_tail, odd_tail = spinor_tails(lam.n)
    return even_tail + lam, odd_tail + lam
