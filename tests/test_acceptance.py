"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check here is structural equality over Q (tolerance zero); the only
numeric bounds are the stated runtime budgets.  Each test prints one
PASS/FAIL line (visible with `pytest -s` or in failure output).
"""

import random
import time
from collections import Counter
from fractions import Fraction
from math import comb, prod

from helpers import SPINOR_TENSOR_GRID, spinor_singular_weights

from sympalg.kernels import (
    GradedSpec,
    determinantal_hwv,
    fischer_layer_dims,
    hwv_verify,
    joint_kernel,
    symplectic_harmonic_kernel,
    symplectic_monogenic_kernel,
)
from sympalg.poly import MultiDegree, Poly, monomial_basis
from sympalg.roots import Weight, weyl_dim
from sympalg.suites import (
    suite_parafermion,
    suite_so2N1,
    suite_so5,
    suite_sp_invariance,
)
from sympalg.tensor import (
    EVEN,
    ODD,
    cartan_product,
    tensor_with_spinor,
)
from sympalg.transvector import (
    SingularWeight,
    Sl2Triple,
    dirac_sl2_triple,
    extremal_project,
    rs_apply,
    rs_calibrate,
    transvector_project_dsx,
)
from sympalg.weyl import (
    apply_op,
    build_sp2n_realization,
    commutator,
    contraction_op,
    dirac_adjoint_op,
    dirac_op,
    euler_op,
    pairing_derivs_op,
    parse_weyl_op,
)


def _report(num, passed, text):
    print(f"ACCEPTANCE {num:>2} [{'PASS' if passed else 'FAIL'}] {text}")
    assert passed, f"criterion {num}: {text}"


def dominant_pairs(budget):
    out = []
    for l1 in range(budget + 1):
        for l2 in range(l1 + 1):
            if l1 + l2 <= budget:
                out.append((l1, l2))
    return out


def test_criterion_01_weyl_dimension_formula():
    start = time.perf_counter()
    ok = True
    for n in range(1, 6):
        for k in range(0, 9):
            if weyl_dim(Weight.from_partition([k], n)) != comb(k + 2 * n - 1, 2 * n - 1):
                ok = False
    elapsed = time.perf_counter() - start
    _report(
        1,
        ok and elapsed < 1.0,
        f"weyl_dim((k)) = C(k+2n-1, 2n-1) for n<=5, k<=8 in {elapsed:.3f}s (< 1s)",
    )


def test_criterion_02_counterexample_288_160():
    start = time.perf_counter()
    kb = symplectic_harmonic_kernel(4, 2, (2, 1))
    elapsed = time.perf_counter() - start
    ok = (
        kb.ambient_dim == 288
        and kb.dimension == 160
        and kb.dimension == weyl_dim(Weight.parse("2,1", 4))
        and elapsed <= 10.0
    )
    _report(
        2,
        ok,
        f"n=4 degrees (2,1): ambient {kb.ambient_dim} = 288, kernel "
        f"{kb.dimension} = 160 = weyl_dim in {elapsed:.2f}s (<= 10s)",
    )


def test_criterion_03_scalar_model_grid():
    checked = 0
    ok = True
    for n in (2, 3, 4):
        for l1, l2 in dominant_pairs(4):
            expect = weyl_dim(Weight.from_partition([l1, l2], n))
            for basis in (True, False):
                kb = symplectic_harmonic_kernel(n, 2, (l1, l2), basis)
                if kb.dimension != expect:
                    ok = False
            checked += 1
    _report(
        3,
        ok,
        f"dim H^s_(l1,l2) = weyl_dim on {checked} grid points "
        "(l1+l2 <= 4, n in {2,3,4}, N=2), exact, with and without the basis",
    )


def test_criterion_04_hwv_suite():
    ok = True
    for n in (2, 3, 4):
        real = build_sp2n_realization("scalar", n, 2)
        extra = [contraction_op(n, 2, 1, 2), pairing_derivs_op(n, 2, 1, 2)]
        for l1, l2 in dominant_pairs(4):
            w = determinantal_hwv(n, 2, (l1, l2))
            rep = hwv_verify(w, real, extra, ["<x,d_u>", "<d_x,d_u>_s"])
            if not (rep.passed and rep.cartan_eigenvalues == Weight.from_partition([l1, l2], n)):
                ok = False
    half = Fraction(1, 2)
    for n in (2, 3):
        real = build_sp2n_realization("spinor", n, 1)
        Ds = dirac_op(n, 1, 1)
        for k in range(0, 4):
            x1k = Poly.var(n, 1, "x1.1") ** k
            zn = Poly.var(n, 1, f"z{n}")
            even = hwv_verify(x1k, real, [Ds], ["D_s"])
            odd = hwv_verify(x1k * zn, real, [Ds], ["D_s"])
            if not (
                even.passed
                and even.cartan_eigenvalues == Weight.of(*([k - half] + [-half] * (n - 1)))
                and odd.passed
                and odd.cartan_eigenvalues
                == Weight.of(*([k - half] + [-half] * (n - 2) + [Fraction(-3, 2)]))
            ):
                ok = False
    _report(
        4,
        ok,
        "determinantal HWVs verify on the scalar grid; x_1^k (x) 1 and (x) z_n "
        "carry weights (k-1/2,-1/2,...) and (k-1/2,...,-3/2), exact",
    )


def test_criterion_05_operator_closures():
    start = time.perf_counter()
    ok = True
    # (a) adjoint pair bracket
    for n in (1, 2, 3):
        if commutator(dirac_adjoint_op(n, 2, 1), dirac_op(n, 2, 1)) != euler_op(n, 2, 1) + n:
            ok = False
    # (b) so(5) closure and table
    for n in (1, 2, 3):
        if not suite_so5(n).passed:
            ok = False
    # (c) so(2N+1) closures and the triple relations for every index combo
    for N in (1, 2, 3):
        for n in (1, 2, 3):
            if not suite_so2N1(N, n).passed:
                ok = False
            if not suite_parafermion(N, n).passed:
                ok = False
    # (d) invariance of D_s under all 2n^2+n spinor generators
    for n in (1, 2, 3):
        if not suite_sp_invariance(n).passed:
            ok = False
    elapsed = time.perf_counter() - start
    _report(
        5,
        ok and elapsed < 30.0,
        f"closures: [X,D] = E+n; so(5) dim 10; so(2N+1) dim N(2N+1) with all "
        f"triple relations (implemented rational convention); [g, D_s] = 0; "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_06_fischer_sanity():
    ok = True
    for m in (2, 3, 4):
        for k in range(0, 7):
            total, layers = fischer_layer_dims(m, k)
            if total != sum(layers):
                ok = False
    _report(6, ok, "dim P_k(R^m) = sum_j dim H_(k-2j)(R^m) for m in {2,3,4}, k <= 6")


def test_criterion_07_extremal_projector():
    n = 2
    triple = dirac_sl2_triple(n)
    ok = True
    # pi^2 = pi and X pi = 0 on full monomial bases of (u,v)-degree <= 4
    for uv in range(0, 5):
        for zd in range(0, 3):
            for mono in monomial_basis(n, 2, MultiDegree((0, uv), zd)):
                p = Poly(n, 2, {mono: Fraction(1)})
                out = extremal_project(triple, p).output
                if not apply_op(triple.X, out).is_zero():
                    ok = False
                if not out.is_zero() and extremal_project(triple, out).output != out:
                    ok = False
    # pi fixes ker X, and the two-term formula agrees with the full series on
    # ker D_s,u slices of the same (u,v)-degree grid
    rng = random.Random(2024)
    dsx = dirac_op(n, 2, 1)
    for uv in range(1, 5):
        spec = GradedSpec(n, 2, (1, uv), z_max=2)
        kb = joint_kernel([dirac_op(n, 2, 2)], spec, ["D_s,u"])
        for vec in kb.vectors[:6]:
            rep = extremal_project(triple, vec)
            if rep.output != vec or rep.terms_used != 0:
                ok = False
        for _ in range(3):
            f = Poly.zero(n, 2)
            for v in kb.vectors:
                f = f + v * Fraction(rng.randint(-2, 2))
            if f.is_zero():
                continue
            g = apply_op(dsx, f)
            full = g if g.is_zero() else extremal_project(triple, g).output
            if transvector_project_dsx(f, n) != full:
                ok = False
    # singular weights raise the documented error instead of wrong output
    X = parse_weyl_op("dx1.1", 1, 1)
    Y = parse_weyl_op("2*x1.1 - x1.1^2*dx1.1", 1, 1)
    singular_triple = Sl2Triple(X, Y, commutator(X, Y))
    if singular_triple.bracket_residuals():
        ok = False
    try:
        extremal_project(singular_triple, Poly.var(1, 1, "x1.1") ** 2)
        ok = False
    except SingularWeight:
        pass
    _report(
        7,
        ok,
        "pi^2 = pi and X pi = 0 on full (u,v)-degree <= 4 bases (n=2); pi fixes "
        "ker X; two-term transvector formula = full series on ker D_s,u; "
        "singular weight raises",
    )


def test_criterion_08_rarita_schwinger_preservation():
    ok = True
    lines = []
    dsu_by_n = {}
    for (k, n, zmax) in ((1, 2, 3), (2, 2, 3), (1, 3, 2)):
        rep = rs_calibrate(k, n, zmax)
        if not rep.working_denominators:
            ok = False
        lines.append(
            f"(k={k},n={n},zMax={zmax}): working={[str(c) for c in rep.working_denominators]}, "
            f"default k+n+2={rep.default_denominator} works={rep.default_denominator_works}"
        )
        # rs_apply with a working denominator maps the truncated kernel back
        # into ker D_s,u exactly
        dsu = dsu_by_n.setdefault(n, dirac_op(n, 2, 2))
        denom = rep.working_denominators[0]
        for ell in rep.x_degrees:
            spec = GradedSpec(n, 2, (ell, k), z_max=zmax)
            kb = joint_kernel([dsu], spec, ["D_s,u"])
            for f in kb.vectors:
                if not apply_op(dsu, rs_apply(f, k, n, denom)).is_zero():
                    ok = False
    _report(8, ok, "rs_calibrate nonempty and kernel-preserving; " + "; ".join(lines))


def test_criterion_09_britten_lemire_consistency():
    ok = True
    half = Fraction(1, 2)
    # one-row and two-row Cartan products match the stated weights
    for n in (2, 3, 4):
        for k in range(0, 5):
            even, odd = cartan_product(Weight.from_partition([k], n))
            if even != Weight.of(*([k - half] + [-half] * (n - 1))):
                ok = False
            if odd != Weight.of(*([k - half] + [-half] * (n - 2) + [Fraction(-3, 2)])):
                ok = False
        for l1, l2 in dominant_pairs(4):
            lam = Weight.from_partition([l1, l2], n)
            even, odd = cartan_product(lam)
            want_even = [l1 - half, l2 - half] + [-half] * (n - 2)
            want_odd = [l1 - half, l2 - half] + [-half] * (n - 3) + [Fraction(-3, 2)]
            if n == 2:
                want_odd = [l1 - half, l2 - Fraction(3, 2)]
            if even != Weight.of(*want_even) or odd != Weight.of(*want_odd):
                ok = False
            # the summand count is prod (l_i - l_{i+1} + 1) * (2 l_n + 2), and
            # the Cartan product appears once per parity
            summands = tensor_with_spinor(lam)
            c = [l1, l2] + [0] * (n - 2)
            want = prod(a - b + 1 for a, b in zip(c, c[1:])) * (2 * c[-1] + 2)
            if len(summands) != want:
                ok = False
            if sum(1 for s in summands if s.weight == even and s.parity == EVEN) != 1:
                ok = False
            if sum(1 for s in summands if s.weight == odd and s.parity == ODD) != 1:
                ok = False
    # the summands are the singular vectors of V(lambda) (x) S
    for parts in SPINOR_TENSOR_GRID:
        lam = Weight(parts)
        got = Counter((s.weight, s.parity) for s in tensor_with_spinor(lam))
        if got != spinor_singular_weights(lam):
            ok = False
    _report(9, ok, "Cartan products match the stated weights; summands match the singular vectors")


def test_criterion_10_truncation_stability():
    ok = True
    details = []
    for n in (1, 2):
        for k in range(0, 3):
            kb = symplectic_monogenic_kernel(n, 1, (k,), z_max=3)
            wider = symplectic_monogenic_kernel(n, 1, (k,), z_max=4)
            if any(
                kb.per_z_degree_dims[t] != wider.per_z_degree_dims[t]
                for t in range(3)
            ):
                ok = False
            details.append(
                f"n={n},k={k}: {dict(sorted(kb.per_z_degree_dims.items()))}"
            )
    _report(
        10,
        ok,
        "per-z dims of M^s_k stable under zMax 3 -> 4; " + "; ".join(details),
    )
