"""Extremal projector, transvector projection, and the Rarita-Schwinger map.

The sl(2) triple used throughout is the rational normalization of the Dirac
pair on the dummy copy u (copy 2): X = D_{s,u}, Y = 2 X_{s,u} and
H = [X, Y] = -2(E_u + E_v + n), which satisfies [H, X] = 2X, [H, Y] = -2Y.
On an H-eigenvector p of eigenvalue h the extremal projector is the finite sum

    pi p = p + sum_{j>=1} (-1)^j / j! * [prod_{s=1..j} (h + 1 + s)]^(-1) Y^j X^j p,

where terms with X^j p = 0 are skipped before their denominators are ever
evaluated; a vanishing factor h+1+s on a surviving term is a singular weight
and raises instead of returning wrong output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .kernels import EmptyBasis, GradedSpec, joint_kernel
from .poly import Poly
from .weyl import (
    WeylOp,
    apply_op,
    commutator,
    contraction_op,
    dirac_adjoint_op,
    dirac_op,
    eigenvalue,
    pairing_derivs_op,
    ratio,
)


class SingularWeight(ArithmeticError):
    """A nonzero projector term met a vanishing denominator."""


class NotHomogeneous(ValueError):
    """Input is not a single H-eigenvector."""


@dataclass(frozen=True)
class Sl2Triple:
    """Operators X, Y, H with [X,Y] = H, [H,X] = 2X, [H,Y] = -2Y."""

    X: WeylOp
    Y: WeylOp
    H: WeylOp

    def bracket_residuals(self) -> Dict[str, WeylOp]:
        """Exact residuals of the three defining identities (empty iff valid)."""
        out = {}
        r1 = commutator(self.X, self.Y) - self.H
        if r1:
            out["[X,Y]-H"] = r1
        r2 = commutator(self.H, self.X) - 2 * self.X
        if r2:
            out["[H,X]-2X"] = r2
        r3 = commutator(self.H, self.Y) + 2 * self.Y
        if r3:
            out["[H,Y]+2Y"] = r3
        return out


def dirac_sl2_triple(n: int) -> Sl2Triple:
    """The rational Dirac triple on copy 2 of the (n, N=2) universe; H acts
    by the scalar -2(E_u+E_v+n) on (u,v)-homogeneous polynomials."""
    X = dirac_op(n, 2, 2)
    Y = 2 * dirac_adjoint_op(n, 2, 2)
    H = commutator(X, Y)
    return Sl2Triple(X, Y, H)


def h_eigenvalue(triple: Sl2Triple, p: Poly) -> Fraction:
    """Exact H-eigenvalue of p; raises NotHomogeneous otherwise."""
    if p.is_zero():
        raise NotHomogeneous("zero polynomial has no eigenvalue")
    lam = eigenvalue(triple.H, p)
    if lam is None:
        raise NotHomogeneous("input is not an H-eigenvector")
    return lam


@dataclass
class ProjectorReport:
    """The projected polynomial and the series terms it took.  A singular
    weight raises instead of reporting, so the report's singularFailure is
    always null."""

    output: Poly
    terms_used: int
    singular_terms_skipped: List[int]

    def to_json(self) -> dict:
        return {
            "output": self.output.to_json(),
            "termsUsed": self.terms_used,
            "singularTermsSkipped": list(self.singular_terms_skipped),
            "singularFailure": None,
        }


def extremal_project(triple: Sl2Triple, p: Poly, max_terms: int = 10000) -> ProjectorReport:
    """Apply the extremal projector to an H-homogeneous polynomial.

    The series is evaluated lazily: X^j p is computed first and zero images
    terminate the sum (their index is recorded in singular_terms_skipped), so
    a vanishing denominator only raises when its term is actually nonzero.
    """
    h = h_eigenvalue(triple, p)
    out = p
    xj = p
    terms_used = 0
    skipped: List[int] = []
    denom = Fraction(1)
    for j in range(1, max_terms + 1):
        xj = apply_op(triple.X, xj)
        if xj.is_zero():
            skipped.append(j)
            break
        factor = h + 1 + j
        if factor == 0:
            raise SingularWeight(
                f"term j={j}: X^j p != 0 but h+1+j = 0 (h = {h})"
            )
        denom *= factor
        term = xj
        for _ in range(j):
            term = apply_op(triple.Y, term)
        coef = Fraction((-1) ** j) / (factorial(j) * denom)
        out = out + term * coef
        terms_used = j
    else:
        raise RuntimeError(f"projector series did not terminate in {max_terms} terms")
    return ProjectorReport(out, terms_used, skipped)


def transvector_project_dsx(f: Poly, n: int) -> Poly:
    """The two-term transvector projection (1 - YX/(H+2)) D_{s,x} f.

    f must be (u,v)-homogeneous.  On f in ker X = ker D_{s,u} this equals the
    full extremal-projector series applied to D_{s,x} f (the defining identity
    holds modulo the left ideal generated by X, i.e. on ker X).
    """
    triple = dirac_sl2_triple(n)
    dsx = dirac_op(n, 2, 1)
    g = apply_op(dsx, f)
    if g.is_zero():
        return g
    h = h_eigenvalue(triple, g)
    xg = apply_op(triple.X, g)
    if xg.is_zero():
        return g
    if h + 2 == 0:
        raise SingularWeight(f"H+2 vanishes on D_s,x f (h = {h})")
    return g - apply_op(triple.Y, xg) * (Fraction(1) / (h + 2))


# ---------------------------------------------------------------------------
# Symplectic Rarita-Schwinger operator
# ---------------------------------------------------------------------------


def rs_apply(
    f: Poly, k: int, n: int, denominator: Optional[Fraction] = None
) -> Poly:
    """(1 + 2 X_{s,u} D_{s,u} / denominator) D_{s,x} f.

    f must be (u,v)-homogeneous of degree k; the default denominator is the
    stated value k+n+2 (rs_calibrate reports which denominators actually
    preserve ker D_{s,u}).
    """
    if denominator is None:
        denominator = Fraction(k + n + 2)
    denominator = Fraction(denominator)
    if denominator == 0:
        raise ZeroDivisionError("zero denominator in the Rarita-Schwinger map")
    if not f.is_zero():
        deg = f.copy_degree_of_terms(2)
        if deg is None or deg != k:
            raise NotHomogeneous(
                f"input must be homogeneous of degree {k} in the u copy"
            )
    g = apply_op(dirac_op(n, 2, 1), f)
    du = apply_op(dirac_op(n, 2, 2), g)
    correction = apply_op(dirac_adjoint_op(n, 2, 2), du) * (Fraction(2) / denominator)
    return g + correction


@dataclass
class CalibrationReport:
    k: int
    n: int
    z_max: int
    x_degrees: Tuple[int, ...]
    basis_sizes: Dict[int, int]
    candidates: List[Fraction]
    working_denominators: List[Fraction]
    default_denominator: Fraction
    default_denominator_works: bool
    failures: Dict[str, List[str]]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "zMax": self.z_max,
            "xDegrees": list(self.x_degrees),
            "basisSizes": {str(l): s for l, s in sorted(self.basis_sizes.items())},
            "candidates": [str(c) for c in self.candidates],
            "workingDenominators": [str(c) for c in self.working_denominators],
            "defaultDenominator": str(self.default_denominator),
            "defaultDenominatorWorks": self.default_denominator_works,
            "failures": self.failures,
        }


def default_candidates(k: int, n: int) -> List[Fraction]:
    """Candidate denominators: the stated k+n+2, the transvector value
    2(k+n-1), and nearby shifts."""
    raw = [k + n + 2, 2 * (k + n - 1), k + n - 2, k + n, k + n + 1]
    out: List[Fraction] = []
    for c in raw:
        fc = Fraction(c)
        if fc != 0 and fc not in out:
            out.append(fc)
    return out


def rs_calibrate(
    k: int,
    n: int,
    z_max: int,
    candidates: Optional[Sequence[Fraction]] = None,
    x_degrees: Sequence[int] = (1, 2),
    strict: bool = False,
) -> CalibrationReport:
    """Test which denominators make rs_apply preserve the truncated ker D_{s,u}.

    For each x-degree l the exact kernel of D_{s,u} on P_{l,k} (x) P_{<=zMax}(z)
    is computed; a candidate works iff D_{s,u}(rs_apply(f)) = 0 exactly for
    every basis vector f.  x-degree 0 is excluded from the default sweep since
    it makes every candidate pass vacuously.  ``strict`` intersects the domain
    with the simplicial constraints <x, d_u> and <d_x, d_u>_s as well.
    """
    if candidates is None:
        candidates = default_candidates(k, n)
    candidates = [Fraction(c) for c in candidates]
    if not candidates:
        raise ValueError("need at least one candidate denominator")
    if any(c == 0 for c in candidates):
        raise ZeroDivisionError("candidate denominator 0 rejected")
    dsu = dirac_op(n, 2, 2)
    domain_ops = [dsu]
    domain_labels = ["D_s,u"]
    if strict:
        domain_ops += [contraction_op(n, 2, 1, 2), pairing_derivs_op(n, 2, 1, 2)]
        domain_labels += ["<x,d_u>", "<d_x,d_u>_s"]
    bases: Dict[int, List[Poly]] = {}
    for ell in x_degrees:
        spec = GradedSpec(n, 2, (ell, k), z_max=z_max)
        bases[ell] = joint_kernel(domain_ops, spec, domain_labels).vectors
    total = sum(len(v) for v in bases.values())
    if total == 0:
        raise EmptyBasis(
            f"truncated ker D_s,u is empty at k={k}, n={n}, zMax={z_max}"
        )
    # D_s,u(rs_apply(f, c)) = du_g + (2/c) du_corr with two candidate-
    # independent pieces, so each basis vector is decided once: it passes
    # every c when both pieces vanish, exactly c = -2/lam when du_g = lam
    # du_corr with lam != 0, and no c otherwise
    dsx = dirac_op(n, 2, 1)
    xsu = dirac_adjoint_op(n, 2, 2)
    roots: List[Tuple[str, Optional[Fraction]]] = []
    for ell, vectors in sorted(bases.items()):
        for i, f in enumerate(vectors):
            du_g = apply_op(dsu, apply_op(dsx, f))
            du_corr = apply_op(dsu, apply_op(xsu, du_g))
            if du_g or du_corr:
                roots.append((f"x-degree {ell}, basis vector {i}", _root(du_g, du_corr)))

    working: List[Fraction] = []
    failures: Dict[str, List[str]] = {}
    for candidate in candidates:
        bad = [label for label, root in roots if root != candidate]
        if bad:
            failures[str(candidate)] = bad
        else:
            working.append(candidate)
    stated = Fraction(k + n + 2)
    return CalibrationReport(
        k=k,
        n=n,
        z_max=z_max,
        x_degrees=tuple(x_degrees),
        basis_sizes={l: len(v) for l, v in bases.items()},
        candidates=candidates,
        working_denominators=working,
        default_denominator=stated,
        default_denominator_works=stated in working,
        failures=failures,
    )


def _root(g: Poly, corr: Poly) -> Optional[Fraction]:
    """The only c with g + (2/c) corr = 0, when g = lam corr with lam != 0;
    None when no c works (g and corr are not both zero)."""
    lam = ratio(g, corr)
    return -2 / lam if lam else None
