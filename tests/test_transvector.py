"""Extremal projector, transvector projection, Rarita-Schwinger calibration."""

import random
from fractions import Fraction

import pytest

from helpers import random_poly
from sympalg.kernels import EmptyBasis, GradedSpec, joint_kernel
from sympalg.poly import MultiDegree, Poly, monomial_basis, parse_poly
from sympalg.transvector import (
    NotHomogeneous,
    SingularWeight,
    Sl2Triple,
    dirac_sl2_triple,
    extremal_project,
    h_eigenvalue,
    rs_apply,
    _root,
    rs_calibrate,
    transvector_project_dsx,
)
from sympalg.weyl import apply_op, commutator, dirac_op, parse_weyl_op


def kernel_vectors(n, x_deg, uv_deg, z_max=2):
    spec = GradedSpec(n, 2, (x_deg, uv_deg), z_max=z_max, allow_non_dominant=True)
    kb = joint_kernel([dirac_op(n, 2, 2)], spec, ["D_s,u"])
    return kb.vectors


def random_kernel_element(rng, vectors, n):
    f = Poly.zero(n, 2)
    for v in vectors:
        f = f + v * Fraction(rng.randint(-3, 3))
    return f


class TestTriple:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bracket_identities(self, n):
        triple = dirac_sl2_triple(n)
        assert triple.bracket_residuals() == {}

    def test_invalid_triple_rejected(self):
        n = 1
        bad = Sl2Triple(
            dirac_op(n, 2, 2), dirac_op(n, 2, 1), commutator(dirac_op(n, 2, 2), dirac_op(n, 2, 1))
        )
        with pytest.raises(ValueError):
            bad.validate()


class TestExtremalProjector:
    def test_fixes_highest_weight_vectors(self):
        n = 2
        triple = dirac_sl2_triple(n)
        for vec in kernel_vectors(n, 1, 2)[:4]:
            rep = extremal_project(triple, vec)
            assert rep.output == vec
            assert rep.terms_used == 0

    def test_kills_image_of_y(self):
        n = 2
        triple = dirac_sl2_triple(n)
        for vec in kernel_vectors(n, 1, 1)[:4]:
            q = apply_op(triple.Y, vec)
            if q.is_zero():
                continue
            rep = extremal_project(triple, q)
            assert rep.output.is_zero()

    def test_idempotent_and_annihilates(self):
        n = 2
        triple = dirac_sl2_triple(n)
        rng = random.Random(37)
        for uv in (1, 2, 3):
            basis = monomial_basis(n, 2, MultiDegree((0, uv), 1))
            for _ in range(5):
                mono = rng.choice(basis)
                p = Poly(n, 2, {mono: Fraction(1)})
                out = extremal_project(triple, p).output
                assert apply_op(triple.X, out).is_zero()
                if not out.is_zero():
                    assert extremal_project(triple, out).output == out

    def test_requires_h_eigenvector(self):
        n = 2
        triple = dirac_sl2_triple(n)
        p = parse_poly("x2.1 + x2.1*x2.2", n, 2)  # mixed (u,v)-degree
        with pytest.raises(NotHomogeneous):
            extremal_project(triple, p)

    def test_zero_input_has_no_h_eigenvalue(self):
        with pytest.raises(NotHomogeneous):
            h_eigenvalue(dirac_sl2_triple(2), Poly.zero(2, 2))

    def test_singular_weight_raises(self):
        # synthetic valid triple on one variable: X = d, Y = -x^2 d + 2x,
        # H = -2x d + 2; on p = x^2 the j=1 denominator h+2 vanishes while
        # X p = 2x is nonzero
        n, N = 1, 1
        X = parse_weyl_op("dx1.1", n, N)
        Y = parse_weyl_op("2*x1.1 - x1.1^2*dx1.1", n, N)
        H = commutator(X, Y)
        triple = Sl2Triple(X, Y, H)
        triple.validate()
        p = Poly.var(n, N, "x1.1") ** 2
        assert h_eigenvalue(triple, p) == -2
        with pytest.raises(SingularWeight):
            extremal_project(triple, p)

    def test_dirac_triple_never_singular_on_polynomials(self):
        # h = -2(k+n) makes h+1+s = 0 impossible while X^j p != 0 (s <= k)
        n = 1
        triple = dirac_sl2_triple(n)
        basis = monomial_basis(n, 2, MultiDegree((0, 3), 2))
        for mono in basis:
            extremal_project(triple, Poly(n, 2, {mono: Fraction(1)}))

    def test_projects_onto_classical_harmonics(self):
        # the same projector on the harmonic triple of R^3 must send every
        # cubic onto its harmonic part: X pi p = 0 means Delta(pi p) = 0
        from sympalg.kernels import orthogonal_harmonic_kernel
        from sympalg.poly import copy_variables
        from sympalg.weyl import euler_vars_op, laplacian_op, r_squared_op

        m, k, n = 3, 3, 2
        vars_ = copy_variables(n, 1)[:m]
        lap = laplacian_op(n, 1, vars_)
        X = lap * Fraction(-1, 2)
        Y = r_squared_op(n, 1, vars_) * Fraction(1, 2)
        H = commutator(X, Y)
        triple = Sl2Triple(X, Y, H)
        triple.validate()
        assert H == -(euler_vars_op(n, 1, vars_) + Fraction(m, 2))
        for mono in monomial_basis(n, 1, MultiDegree((k,), 0), num_vars=m):
            p = Poly(n, 1, {mono: Fraction(1)})
            out = extremal_project(triple, p).output
            assert apply_op(lap, out).is_zero()
        for h in orthogonal_harmonic_kernel(m, k).vectors:
            assert extremal_project(triple, h).output == h


class TestTransvectorProjection:
    def test_u_independent_passthrough(self):
        n = 2
        f = parse_poly("x1.1^2*y1.2 + 3*z1*x1.1", n, 2)
        assert transvector_project_dsx(f, n) == apply_op(dirac_op(n, 2, 1), f)

    def test_truncation_identity(self):
        # [<d_x,d_u>_s, D_s,x] = 0: the reason the series stops at two terms
        from sympalg.weyl import pairing_derivs_op

        for n in (1, 2, 3):
            T = pairing_derivs_op(n, 2, 1, 2)
            assert commutator(T, dirac_op(n, 2, 1)).is_zero()

    @pytest.mark.parametrize("uv", [1, 2, 3, 4])
    def test_agrees_with_full_series_on_kernel(self, uv):
        n = 2
        rng = random.Random(uv)
        triple = dirac_sl2_triple(n)
        vectors = kernel_vectors(n, 1, uv)
        assert vectors
        for _ in range(3):
            f = random_kernel_element(rng, vectors, n)
            if f.is_zero():
                continue
            two_term = transvector_project_dsx(f, n)
            g = apply_op(dirac_op(n, 2, 1), f)
            full = g if g.is_zero() else extremal_project(triple, g).output
            assert two_term == full


class TestRaritaSchwinger:
    def test_k0_u_independent(self):
        n = 2
        f = parse_poly("x1.1*y1.2 + z1^2", n, 2)
        assert rs_apply(f, 0, n) == apply_op(dirac_op(n, 2, 1), f)

    def test_zero_input(self):
        assert rs_apply(Poly.zero(2, 2), 1, 2).is_zero()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rs_apply(Poly.zero(2, 2), 1, 2, Fraction(0))

    def test_wrong_homogeneity_rejected(self):
        n = 2
        f = parse_poly("x2.1", n, 2)  # u-degree 1, but k=2 claimed
        with pytest.raises(NotHomogeneous):
            rs_apply(f, 2, n)

    def test_calibration_k1_n2(self):
        rep = rs_calibrate(1, 2, 3)
        # transvector-derived denominator 2(k+n-1) = 4 works; k+n+2 = 5 fails
        assert rep.working_denominators == [Fraction(4)]
        assert not rep.default_denominator_works

    def test_calibration_coincidence_points(self):
        # at k+n = 4 the stated k+n+2 equals 2(k+n-1) and passes
        rep = rs_calibrate(2, 2, 3)
        assert Fraction(6) in rep.working_denominators
        assert rep.default_denominator_works

    def test_calibrated_denominator_preserves_kernel(self):
        k, n = 1, 2
        vectors = kernel_vectors(n, 2, k, z_max=3)
        dsu = dirac_op(n, 2, 2)
        for f in vectors:
            image = rs_apply(f, k, n, Fraction(2 * (k + n - 1)))
            assert apply_op(dsu, image).is_zero()

    def test_decided_pieces_match_direct_evaluation(self):
        # each basis vector is decided once; evaluating D_s,u(rs_apply(f, c))
        # for every candidate gives the same verdicts, labels and order
        k, n, z_max = 1, 2, 3
        candidates = [Fraction(c) for c in (5, 4, -2, Fraction(1, 3), 6)]
        rep = rs_calibrate(k, n, z_max, candidates)
        dsu = dirac_op(n, 2, 2)
        failures = {}
        for c in candidates:
            bad = [
                f"x-degree {ell}, basis vector {i}"
                for ell in (1, 2)
                for i, f in enumerate(kernel_vectors(n, ell, k, z_max))
                if apply_op(dsu, rs_apply(f, k, n, c))
            ]
            if bad:
                failures[str(c)] = bad
        assert rep.failures == failures
        assert rep.working_denominators == [c for c in candidates if str(c) not in failures]

    def test_root_of_a_piece(self):
        # g + (2/c) corr vanishes exactly at the returned c, and nowhere when
        # None is returned
        rng = random.Random(5)
        n = 2
        for _ in range(200):
            corr = random_poly(rng, n, 2)
            lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            g = corr * lam if rng.random() < 0.6 else random_poly(rng, n, 2)
            if not (g or corr):
                continue
            root = _root(g, corr)
            for c in [Fraction(1), Fraction(-2), Fraction(2, 3)] + ([root] if root else []):
                assert (g + corr * (Fraction(2) / c)).is_zero() == (c == root)

    def test_k0_every_candidate_passes(self):
        rep = rs_calibrate(0, 2, 2, candidates=[Fraction(7), Fraction(1, 3)])
        assert rep.working_denominators == [Fraction(7), Fraction(1, 3)]

    def test_zero_candidate_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rs_calibrate(1, 2, 2, candidates=[Fraction(0)])

    def test_empty_kernel_reported(self):
        # u_1^k is always monogenic, so only an empty sweep empties the basis
        with pytest.raises(EmptyBasis):
            rs_calibrate(1, 2, 2, x_degrees=())

    def test_strict_domain_accepts_every_denominator(self):
        # on the full simplicial domain <d_x,d_u>_s f = 0, so the correction
        # term's obstruction vanishes for any c: the loose ker D_s,u domain is
        # the one that discriminates
        rep = rs_calibrate(1, 2, 3, strict=True)
        assert rep.working_denominators == rep.candidates
        assert rep.default_denominator_works
