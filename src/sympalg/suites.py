"""Named exact-identity suites: operator tables, closures, invariance.

Every check is an exact WeylOp identity (structural equality of normal
forms); a failing check reports the residual operator instead of a boolean
only.  Where the source table normalizes generators by sqrt(2), the rational
identities carry coefficient 1 instead of 2; the suites verify the rational
form and record the normalization gap rather than patching it silently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from .transvector import dirac_sl2_triple
from .weyl import (
    WeylOp,
    build_sp2n_realization,
    commutator,
    contraction_op,
    dirac_adjoint_op,
    dirac_op,
    euler_op,
    laplacian_op,
    lie_closure,
    pairing_derivs_op,
    pairing_vars_op,
    r_squared_op,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        data = {"name": self.name, "passed": self.passed}
        if self.detail:
            data["detail"] = self.detail
        return data


@dataclass
class SuiteReport:
    suite: str
    params: Dict[str, int]
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, residual: WeylOp, detail: str = ""):
        ok = residual.is_zero()
        self.checks.append(
            CheckResult(name, ok, detail if ok else f"residual: {residual}")
        )

    def note(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(name, passed, detail))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _delta(a: int, b: int) -> int:
    return 1 if a == b else 0


def suite_sl2_harmonic(n: int) -> SuiteReport:
    """The hidden sl(2) of harmonic analysis on R^{2n}: X=-Delta/2, Y=|x|^2/2."""
    rep = SuiteReport("sl2-harmonic", {"n": n})
    X = laplacian_op(n, 1) * Fraction(-1, 2)
    Y = r_squared_op(n, 1) * Fraction(1, 2)
    H = commutator(X, Y)
    expected_H = -(euler_op(n, 1, 1) + n)
    rep.add("[X,Y] = -(E + n)", H - expected_H)
    rep.add("[H,X] = 2X", commutator(H, X) - 2 * X)
    rep.add("[H,Y] = -2Y", commutator(H, Y) + 2 * Y)
    closure = lie_closure([X, Y])
    rep.note(
        "closure dimension = 3",
        closure.dimension == 3,
        f"dimension {closure.dimension}",
    )
    return rep


def so5_commutator_table(n: int) -> List[Tuple[str, WeylOp]]:
    """Residuals of the six-entry commutator table of the so(5) system."""
    N = 2
    Dx, Du = dirac_op(n, N, 1), dirac_op(n, N, 2)
    Xx, Xu = dirac_adjoint_op(n, N, 1), dirac_adjoint_op(n, N, 2)
    Id = WeylOp.identity(n, N)
    return [
        ("[X_u,D_u] = E_u+E_v+n", commutator(Xu, Du) - (euler_op(n, N, 2) + n * Id)),
        ("[X_x,D_x] = E_x+E_y+n", commutator(Xx, Dx) - (euler_op(n, N, 1) + n * Id)),
        ("[X_u,D_x] = <u,d_x>", commutator(Xu, Dx) - contraction_op(n, N, 2, 1)),
        ("[X_x,D_u] = <x,d_u>", commutator(Xx, Du) - contraction_op(n, N, 1, 2)),
        ("[D_u,D_x] = <d_x,d_u>_s", commutator(Du, Dx) - pairing_derivs_op(n, N, 1, 2)),
        ("[X_u,X_x] = <x,u>_s", commutator(Xu, Xx) - pairing_vars_op(n, N, 1, 2)),
    ]


def suite_so5(n: int) -> SuiteReport:
    rep = SuiteReport("so5", {"n": n})
    for name, residual in so5_commutator_table(n):
        rep.add(name, residual)
    N = 2
    gens = [
        dirac_op(n, N, 1),
        dirac_op(n, N, 2),
        dirac_adjoint_op(n, N, 1),
        dirac_adjoint_op(n, N, 2),
    ]
    closure = lie_closure(gens)
    rep.note(
        "closure dimension = 10",
        closure.dimension == 10,
        f"dimension {closure.dimension}",
    )
    return rep


def suite_so2N1(N: int, n: int) -> SuiteReport:
    """N Dirac pairs close to an algebra of dimension N(2N+1)."""
    rep = SuiteReport("so2N+1", {"N": N, "n": n})
    gens = []
    for a in range(1, N + 1):
        gens.append(dirac_op(n, N, a))
        gens.append(dirac_adjoint_op(n, N, a))
    closure = lie_closure(gens)
    expected = N * (2 * N + 1)
    rep.note(
        f"closure dimension = {expected}",
        closure.dimension == expected,
        f"dimension {closure.dimension}",
    )
    return rep


def suite_parafermion(N: int, n: int) -> SuiteReport:
    """The five triple-commutator relations of the N Dirac pairs, exactly.

    For the unscaled rational generators D_a = D_{s,u_a}, X_a = X_{s,u_a} the
    mixed identities hold with coefficient 1; the tabulated coefficient 2
    belongs to the sqrt(2)-rescaled generators (no rational rescaling can
    produce it, since the relations are cubic on the left and linear on the
    right).  The suite also settles two table ambiguities by exact
    computation: [[D_a,X_b],D_c] = delta_bc D_a (D-type, not X-type), and
    [[X_a,X_b],X_c] = 0 (the all-plus triple bracket vanishes, mirroring
    [[D_a,D_b],D_c] = 0).
    """
    if N < 1:
        raise ValueError(f"parafermion suite needs N >= 1, got N={N}")
    rep = SuiteReport("parafermion", {"N": N, "n": n})
    D = {a: dirac_op(n, N, a) for a in range(1, N + 1)}
    X = {a: dirac_adjoint_op(n, N, a) for a in range(1, N + 1)}
    rng = range(1, N + 1)
    DX = {(a, b): commutator(D[a], X[b]) for a in rng for b in rng}
    DD = {(a, b): commutator(D[a], D[b]) for a in rng for b in rng}
    XX = {(a, b): commutator(X[a], X[b]) for a in rng for b in rng}
    for a in rng:
        for b in rng:
            for c in rng:
                rep.add(
                    f"[[D{a},X{b}],X{c}] = -d({a}{c}) X{b}",
                    commutator(DX[a, b], X[c]) + _delta(a, c) * X[b],
                )
                rep.add(
                    f"[[D{a},X{b}],D{c}] = d({b}{c}) D{a}",
                    commutator(DX[a, b], D[c]) - _delta(b, c) * D[a],
                )
                rep.add(
                    f"[[D{a},D{b}],X{c}] = d({b}{c}) D{a} - d({a}{c}) D{b}",
                    commutator(DD[a, b], X[c])
                    - (_delta(b, c) * D[a] - _delta(a, c) * D[b]),
                )
                rep.add(f"[[X{a},X{b}],X{c}] = 0", commutator(XX[a, b], X[c]))
                rep.add(f"[[D{a},D{b}],D{c}] = 0", commutator(DD[a, b], D[c]))
    # Table deviations, recorded rather than patched:
    # (a) [[X_a,X_b],X_c] vanishes identically ([X_a,X_b] is a z-free
    #     multiplication operator and X_c differentiates only z), mirroring
    #     [[D_a,D_b],D_c] = 0; the tabulated 2 d(bc) X_a - 2 d(ac) X_b fails.
    if N >= 2:
        xxx = commutator(XX[1, 2], X[1])
        rep.note(
            "tabulated [[X_a,X_b],X_c] = 2d(bc)X_a - 2d(ac)X_b fails (bracket is 0)",
            xxx.is_zero() and not (xxx - (-X[2])).is_zero(),
            "[[X1,X2],X1] = 0 exactly; the all-plus parafermion triple bracket vanishes",
        )
    # (b) the tabulated RHS 2 d(bc) X_a of [[D_a,X_b],D_c] does not match; the
    #     computed bracket is D-type with rational coefficient 1.
    probe = commutator(DX[1, 1], D[1])
    rep.note(
        "[[D_a,X_b],D_c] right-hand side is D-type",
        probe == D[1],
        "computed [[D1,X1],D1] equals D1 exactly (the X-type candidate 2*X1 "
        "differs); tabulated coefficient 2 requires sqrt(2)-scaled generators",
    )
    rep.note(
        "tabulated coefficient-2 form fails over Q (recorded, expected)",
        not (probe - 2 * D[1]).is_zero(),
        "coefficient is 1 for unscaled generators: relations are cubic in the "
        "generators, so only c = sqrt(2) rescaling produces the factor 2",
    )
    return rep


def suite_sp_invariance(n: int) -> SuiteReport:
    """[g, D_s] = 0 for every generator of the spinor realization."""
    rep = SuiteReport("sp-invariance", {"n": n})
    Ds = dirac_op(n, 1, 1)
    for elem in build_sp2n_realization("spinor", n, 1):
        rep.add(f"[{elem.label}, D_s] = 0", commutator(elem.op, Ds))
    return rep


def suite_so2N(N: int, n: int) -> SuiteReport:
    """The scalar dual system closes to dimension N(2N-1) (so(4) for N=2)."""
    rep = SuiteReport("so2N", {"N": N, "n": n})
    Id = WeylOp.identity(n, N)
    gens: List[WeylOp] = []
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            if a < b:
                gens.append(pairing_vars_op(n, N, a, b))
                gens.append(pairing_derivs_op(n, N, a, b))
            if a != b:
                gens.append(contraction_op(n, N, a, b))
            else:
                gens.append(contraction_op(n, N, a, a) + n * Id)
    expected = N * (2 * N - 1)
    rep.note(
        f"generator count = {expected}",
        len(gens) == expected,
        f"{len(gens)} generators",
    )
    closure = lie_closure(gens)
    rep.note(
        f"closure dimension = {expected}",
        closure.dimension == expected,
        f"dimension {closure.dimension}",
    )
    return rep


def suite_sl2_triple(n: int) -> SuiteReport:
    """Bracket identities of the rational Dirac sl(2) triple on copy u."""
    rep = SuiteReport("sl2-triple", {"n": n})
    triple = dirac_sl2_triple(n)
    residuals = triple.bracket_residuals()
    for name in ("[X,Y]-H", "[H,X]-2X", "[H,Y]+2Y"):
        res = residuals.get(name)
        rep.note(
            name + " = 0",
            res is None,
            "" if res is None else f"residual: {res}",
        )
    return rep


def _named_op_pool(n: int) -> List[WeylOp]:
    N = 2
    return [
        dirac_op(n, N, 1),
        dirac_op(n, N, 2),
        dirac_adjoint_op(n, N, 1),
        dirac_adjoint_op(n, N, 2),
        contraction_op(n, N, 1, 2),
        contraction_op(n, N, 2, 1),
        pairing_vars_op(n, N, 1, 2),
        pairing_derivs_op(n, N, 1, 2),
        euler_op(n, N, 1),
        euler_op(n, N, 2),
    ]


def suite_jacobi(n: int, seed: int = 0, trials: int = 12) -> SuiteReport:
    """Jacobi identity on random triples drawn from the named constructors."""
    rep = SuiteReport("jacobi", {"n": n, "seed": seed})
    rng = random.Random(seed)
    pool = _named_op_pool(n)
    for t in range(trials):
        A, B, C = (rng.choice(pool) for _ in range(3))
        residual = (
            commutator(commutator(A, B), C)
            + commutator(commutator(B, C), A)
            + commutator(commutator(C, A), B)
        )
        rep.add(f"jacobi trial {t}", residual)
    return rep


SUITES: Dict[str, Callable[..., SuiteReport]] = {
    "sl2-harmonic": lambda n, N: suite_sl2_harmonic(n),
    "so5": lambda n, N: suite_so5(n),
    "so2N+1": lambda n, N: suite_so2N1(N, n),
    "parafermion": lambda n, N: suite_parafermion(N, n),
    "sp-invariance": lambda n, N: suite_sp_invariance(n),
    "so2N": lambda n, N: suite_so2N(N, n),
    "so4": lambda n, N: suite_so2N(2, n),
    "sl2-triple": lambda n, N: suite_sl2_triple(n),
}


def run_suite(name: str, n: int, N: int = 1, seed: int = 0) -> List[SuiteReport]:
    if name == "jacobi":
        return [suite_jacobi(n, seed)]
    if name == "all":
        reports = [fn(n, N) for key, fn in SUITES.items() if key != "so4"]
        reports.append(suite_jacobi(n, seed))
        return reports
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; known: {sorted(SUITES) + ['jacobi', 'all']}"
        )
    return [SUITES[name](n, N)]
