"""Weyl algebra: normal ordering, commutator tables, closures, realizations."""

import random
from fractions import Fraction

import pytest

from helpers import dense_rank
from sympalg.poly import Poly, VarId
from sympalg.weyl import (
    CARTAN,
    POSITIVE,
    ClosureNotClosed,
    WeylOp,
    apply_op,
    build_sp2n_realization,
    commutator,
    compose,
    contraction_op,
    dirac_adjoint_op,
    dirac_op,
    eigenvalue,
    euler_op,
    laplacian_op,
    lie_closure,
    pairing_derivs_op,
    pairing_vars_op,
    parse_weyl_op,
    r_squared_op,
)
from sympalg.suites import (
    so5_commutator_table,
    suite_parafermion,
    suite_so2N,
    suite_so2N1,
    suite_sp_invariance,
)


def _term_rank(ops):
    """Dense rank of the operators' term-coefficient matrix."""
    keys = sorted({key for op in ops for key in op.terms})
    return dense_rank([[op.terms.get(key, Fraction(0)) for key in keys] for op in ops])


def D(n, N, v, order=1):
    return WeylOp.deriv(n, N, v, order)


def M(n, N, v, order=1):
    return WeylOp.mult(n, N, v, order)


X11 = VarId("x", 1, 1)
Z1 = VarId("z", None, 1)


def compose_pool(n, N):
    return [
        dirac_op(n, N, 1),
        dirac_adjoint_op(n, N, 2),
        contraction_op(n, N, 1, 2),
        pairing_vars_op(n, N, 1, 2),
        pairing_derivs_op(n, N, 1, 2),
        euler_op(n, N, 1),
    ]


def random_op(rng, n, N):
    """A seeded 3-term operator that multiplies by and differentiates in the
    variables of ranks 0 and 1, with exponents up to 3 on each side."""
    pieces = {}
    for _ in range(3):
        m = tuple((r, e) for r in (0, 1) if (e := rng.randint(0, 3)))
        d = tuple((r, e) for r in (0, 1) if (e := rng.randint(0, 3)))
        pieces[(m, d)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return WeylOp(n, N, pieces)


class TestCompose:
    def test_canonical_commutation(self):
        # d_x o x = x d_x + 1
        got = compose(D(1, 1, X11), M(1, 1, X11))
        expected = compose(M(1, 1, X11), D(1, 1, X11)) + 1
        assert got == expected

    def test_already_normal_ordered(self):
        got = compose(M(1, 1, X11), D(1, 1, X11))
        x = X11.rank(1, 1)
        assert got == WeylOp(1, 1, {(((x, 1),), ((x, 1),)): Fraction(1)})

    def test_zeroth_order_is_identity(self):
        assert D(1, 1, X11, 0) == WeylOp.identity(1, 1) == M(1, 1, Z1, 0)

    def test_second_order(self):
        # d_z^2 o z^2 = z^2 d_z^2 + 4 z d_z + 2   (product rule twice, by hand)
        got = compose(D(1, 1, Z1, 2), M(1, 1, Z1, 2))
        z = Z1.rank(1, 1)
        expected = (
            WeylOp(1, 1, {(((z, 2),), ((z, 2),)): Fraction(1)})
            + 4 * WeylOp(1, 1, {(((z, 1),), ((z, 1),)): Fraction(1)})
            + 2
        )
        assert got == expected

    def test_leibniz_weights(self):
        got = compose(parse_weyl_op("dx1.1^2*dz1", 1, 1), parse_weyl_op("x1.1^3*z1^2", 1, 1))
        expected = parse_weyl_op(
            "x1.1^3*z1^2*dx1.1^2*dz1 + 2*x1.1^3*z1*dx1.1^2 + 6*x1.1^2*z1^2*dx1.1*dz1"
            " + 12*x1.1^2*z1*dx1.1 + 6*x1.1*z1^2*dz1 + 12*x1.1*z1",
            1,
            1,
        )
        assert got == expected

    def test_apply_respects_compose(self):
        rng = random.Random(23)
        n, N = 2, 2
        pool = compose_pool(n, N)
        from helpers import random_poly

        for _ in range(20):
            A, B = rng.choice(pool), rng.choice(pool)
            p = random_poly(rng, n=n, N=N, terms=3, deg=5)
            assert apply_op(compose(A, B), p) == apply_op(A, apply_op(B, p))
        # operators of derivative order up to 3 in the same two variables,
        # so normal ordering meets powers on both sides
        n, N = 1, 1
        for _ in range(20):
            A, B = random_op(rng, n, N), random_op(rng, n, N)
            p = random_poly(rng, n=n, N=N, terms=3, deg=6)
            assert apply_op(compose(A, B), p) == apply_op(A, apply_op(B, p))


class TestCommutator:
    def test_antisymmetry(self):
        A = dirac_op(2, 2, 1)
        assert commutator(A, A).is_zero()

    def test_jacobi_random(self):
        rng = random.Random(29)
        n, N = 2, 2
        pool = [
            dirac_op(n, N, 1),
            dirac_op(n, N, 2),
            dirac_adjoint_op(n, N, 1),
            dirac_adjoint_op(n, N, 2),
            contraction_op(n, N, 1, 2),
            pairing_vars_op(n, N, 1, 2),
            pairing_derivs_op(n, N, 1, 2),
            euler_op(n, N, 2),
        ]
        for _ in range(15):
            A, B, C = (rng.choice(pool) for _ in range(3))
            residual = (
                commutator(commutator(A, B), C)
                + commutator(commutator(B, C), A)
                + commutator(commutator(C, A), B)
            )
            assert residual.is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_adjoint_pair_bracket(self, n):
        # [X_s,x, D_s,x] = E_x + E_y + n
        got = commutator(dirac_adjoint_op(n, 2, 1), dirac_op(n, 2, 1))
        assert got == euler_op(n, 2, 1) + n

    @pytest.mark.parametrize("n", [1, 2])
    def test_so5_table(self, n):
        for name, residual in so5_commutator_table(n):
            assert residual.is_zero(), name

    def test_dirac_dirac_bracket_sign(self):
        # [D_s,u, D_s,x] = <d_x, d_u>_s in the Omega_0 convention
        n = 2
        got = commutator(dirac_op(n, 2, 2), dirac_op(n, 2, 1))
        assert got == pairing_derivs_op(n, 2, 1, 2)


class TestApply:
    def test_dirac_kills_constants(self):
        Ds = dirac_op(2, 1, 1)
        assert apply_op(Ds, Poly.const(2, 1, 1)).is_zero()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_yjj_kills_hwv(self, k):
        # (x_1 d_y1 - 1/2 d_z1^2) x_1^k = 0
        n = 2
        op = parse_weyl_op("x1.1*dy1.1 - 1/2*dz1^2", n, 1)
        p = Poly.var(n, 1, "x1.1") ** k
        assert apply_op(op, p).is_zero()

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_cartan_weight_on_hwv(self, k):
        # X_11 x_1^k = (k - 1/2) x_1^k in the spinor realization
        n = 2
        real = build_sp2n_realization("spinor", n, 1)
        x11 = next(e.op for e in real if e.label == "X_11")
        p = Poly.var(n, 1, "x1.1") ** k
        assert apply_op(x11, p) == p * (Fraction(k) - Fraction(1, 2))


    def test_eigenvalue(self):
        # Euler operators read off the degree; a mixed-degree sum has none
        E = euler_op(2, 1, 1)
        x = Poly.var(2, 1, "x1.1")
        assert eigenvalue(E, x**3) == 3
        assert eigenvalue(E, Poly.const(2, 1, 5)) == 0
        assert eigenvalue(E, Poly.zero(2, 1)) == 0
        assert eigenvalue(E, x + x**2) is None


class TestNamedOperators:
    def test_symplectic_pairing_vars(self):
        got = pairing_vars_op(1, 2, 1, 2)
        expected = parse_weyl_op("x1.1*y2.1 - y1.1*x2.1", 1, 2)
        assert got == expected

    def test_euler(self):
        got = euler_op(2, 1, 1)
        expected = parse_weyl_op(
            "x1.1*dx1.1 + y1.1*dy1.1 + x1.2*dx1.2 + y1.2*dy1.2", 2, 1
        )
        assert got == expected

    def test_dirac_n1(self):
        got = dirac_op(1, 1, 1)
        expected = parse_weyl_op("z1*dy1.1 - dz1*dx1.1", 1, 1)
        assert got == expected

    def test_copy_out_of_range(self):
        with pytest.raises(ValueError):
            dirac_op(1, 1, 2)

    def test_operator_equality_by_action(self):
        # structurally equal normal forms act identically
        n = 2
        A = compose(dirac_op(n, 2, 1), dirac_adjoint_op(n, 2, 1))
        B = commutator(dirac_op(n, 2, 1), dirac_adjoint_op(n, 2, 1)) + compose(
            dirac_adjoint_op(n, 2, 1), dirac_op(n, 2, 1)
        )
        assert A == B


class TestRealizations:
    def test_spinor_n1_cartan(self):
        real = build_sp2n_realization("spinor", 1, 1)
        assert len(real) == 3  # 2n^2 + n = 3
        x11 = next(e for e in real if e.label == "X_11")
        assert x11.role == CARTAN
        expected = parse_weyl_op("x1.1*dx1.1 - y1.1*dy1.1 - z1*dz1 - 1/2", 1, 1)
        assert x11.op == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generator_count(self, n):
        for kind in ("scalar", "spinor"):
            real = build_sp2n_realization(kind, n, 1)
            assert len(real) == 2 * n * n + n

    def test_positive_root_count(self):
        real = build_sp2n_realization("scalar", 3, 1)
        assert sum(1 for e in real if e.role == POSITIVE) == 9  # n^2

    def test_scalar_two_copies_diagonal(self):
        # Y_11 for N=2 is x1.1 d_y1.1 + x2.1 d_y2.1
        real = build_sp2n_realization("scalar", 2, 2)
        y11 = next(e.op for e in real if e.label == "Y_11")
        assert y11 == parse_weyl_op("x1.1*dy1.1 + x2.1*dy2.1", 2, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_invariance(self, n):
        assert suite_sp_invariance(n).passed

    @pytest.mark.parametrize("kind,N", [("scalar", 1), ("scalar", 2), ("spinor", 1)])
    def test_root_vectors(self, kind, N):
        # every non-Cartan generator g satisfies [H_j, g] = alpha_j g with
        # alpha a root of sp(2n); positive roles carry positive roots
        from fractions import Fraction as F

        from sympalg.roots import RootSystemSp

        n = 2
        real = build_sp2n_realization(kind, n, N)
        cartans = [e.op for e in real if e.role == CARTAN]
        roots = {w.coords for w in RootSystemSp(n).all_roots()}
        for elem in real:
            if elem.role == CARTAN:
                continue
            alpha = []
            for h in cartans:
                bracket = commutator(h, elem.op)
                # exact proportionality [h, g] = c g
                key = next(iter(elem.op.terms))
                c = bracket.terms.get(key, F(0)) / elem.op.terms[key]
                assert bracket == c * elem.op, elem.label
                alpha.append(c)
            assert tuple(alpha) in roots, (elem.label, alpha)
            first = next(a for a in alpha if a != 0)
            if elem.role == POSITIVE:
                assert first > 0, elem.label
            else:
                assert first < 0, elem.label


class TestClosures:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sl2_harmonic(self, n):
        # generators -Delta/2 and |x|^2/2 on R^{2n} close with H = -(E + n)
        X = laplacian_op(n, 1) * Fraction(-1, 2)
        Y = r_squared_op(n, 1) * Fraction(1, 2)
        result = lie_closure([X, Y])
        assert result.dimension == 3
        assert commutator(X, Y) == -(euler_op(n, 1, 1) + n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_so5(self, n):
        gens = [
            dirac_op(n, 2, 1),
            dirac_op(n, 2, 2),
            dirac_adjoint_op(n, 2, 1),
            dirac_adjoint_op(n, 2, 2),
        ]
        assert lie_closure(gens).dimension == 10

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_so2N1_dimension(self, N):
        assert suite_so2N1(N, 2).passed

    def test_so4_scalar_duals(self):
        assert suite_so2N(2, 2).passed

    def test_so2N_three_copies(self):
        assert suite_so2N(3, 2).passed  # dimension 15

    def test_closure_stays_in_order_two_filtration(self):
        gens = [
            dirac_op(2, 2, 1),
            dirac_op(2, 2, 2),
            dirac_adjoint_op(2, 2, 1),
            dirac_adjoint_op(2, 2, 2),
        ]
        result = lie_closure(gens)
        for op in result.basis:
            # mult degree + deriv degree of every term
            assert all(sum(e for _, e in m + d) <= 2 for m, d in op.terms)

    def test_angular_momentum_commutes_with_laplacian(self):
        # the derived rotation action preserves harmonics: [L_ab, Delta] = 0
        from sympalg.poly import copy_variables

        n = 2
        vars_ = copy_variables(n, 1)[:3]
        lap = laplacian_op(n, 1, vars_)
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = vars_[i], vars_[j]
                L = parse_weyl_op(f"{a}*d{b} - {b}*d{a}", n, 1)
                assert commutator(L, lap).is_zero()

    @pytest.mark.parametrize("kind", ["scalar", "spinor"])
    def test_full_realization_closes_to_sp2n(self, kind):
        # the 2n^2+n generators span a closed algebra (validates the negative
        # roots Z_jk too, which the HWV checks never touch)
        n = 2
        ops = [e.op for e in build_sp2n_realization(kind, n, 1)]
        result = lie_closure(ops)
        assert result.dimension == 2 * n * n + n

    @pytest.mark.parametrize(
        "gens",
        [
            [laplacian_op(1, 1) * Fraction(-1, 2), r_squared_op(1, 1) * Fraction(1, 2)],
            [dirac_op(2, 2, 1), dirac_op(2, 2, 2), dirac_adjoint_op(2, 2, 1), dirac_adjoint_op(2, 2, 2)],
            [e.op for e in build_sp2n_realization("scalar", 2, 1)],
            [e.op for e in build_sp2n_realization("spinor", 2, 1)],
            [parse_weyl_op("dx1.1", 1, 1), parse_weyl_op("x1.1^2", 1, 1)],
        ],
        ids=["sl2", "so5", "sp4-scalar", "sp4-spinor", "depth2"],
    )
    def test_brackets_stay_in_span(self, gens):
        # checked with the independent dense elimination: the basis is
        # independent, and no generator or bracket of two basis elements
        # raises the rank of the term-coefficient matrix
        result = lie_closure(gens)
        basis = result.basis
        assert _term_rank(basis) == result.dimension
        assert _term_rank(basis + gens) == result.dimension
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                bracket = commutator(basis[i], basis[j])
                assert _term_rank(basis + [bracket]) == result.dimension, (i, j)

    def test_depth_two(self):
        # [d, x^2] = 2x at depth 1, [d, 2x] = 2 at depth 2, then nothing new
        d, x2 = parse_weyl_op("dx1.1", 1, 1), parse_weyl_op("x1.1^2", 1, 1)
        result = lie_closure([d, x2])
        assert result.dimension == 4
        assert result.rounds == 3
        assert result.basis == [d, x2, parse_weyl_op("2*x1.1", 1, 1), WeylOp.identity(1, 1, 2)]

    def test_brackets_only_with_generators(self, monkeypatch):
        # bracketing every pair of the 21 basis elements would make 210
        import sympalg.weyl as weyl

        gens = []
        for a in range(1, 4):
            gens += [dirac_op(2, 3, a), dirac_adjoint_op(2, 3, a)]
        calls = []

        def spy(A, B):
            calls.append(1)
            return commutator(A, B)

        monkeypatch.setattr(weyl, "commutator", spy)
        result = lie_closure(gens)
        assert result.dimension == 21
        assert len(calls) <= len(gens) * result.dimension

    def test_dependent_generators_are_dropped(self):
        X = laplacian_op(1, 1) * Fraction(-1, 2)
        Y = r_squared_op(1, 1) * Fraction(1, 2)
        result = lie_closure([X, 2 * X, Y])
        assert result.dimension == 3
        assert result.basis[:2] == [X, Y]

    def test_rounds(self, monkeypatch):
        # sl(2) needs one bracket ([X,Y] = H) and a round that adds nothing;
        # the so2N generators already span their algebra
        import sympalg.suites as suites

        rounds = []

        def spy(gens):
            result = lie_closure(gens)
            rounds.append(result.rounds)
            return result

        monkeypatch.setattr(suites, "lie_closure", spy)
        assert suites.suite_sl2_harmonic(2).passed
        assert suites.suite_so2N(3, 2).passed
        assert rounds == [2, 1]

    def test_not_closed_reported(self):
        # x^2 d_x and d_x generate an infinite-dimensional algebra within
        # order <= 2; the failure must be reported, not silent
        n, N = 1, 1
        a = parse_weyl_op("x1.1^2*dx1.1", n, N)
        b = parse_weyl_op("dx1.1^2", n, N)
        with pytest.raises(ClosureNotClosed):
            lie_closure([a, b], max_rounds=3)


class TestParafermion:
    @pytest.mark.parametrize("N,n", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)])
    def test_relations(self, N, n):
        rep = suite_parafermion(N, n)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]

    def test_open_question_rhs_is_d_type(self):
        # [[D_a,X_b],D_c] = delta_bc D_a exactly; the X-type candidate fails
        n, N = 2, 2
        Da = dirac_op(n, N, 1)
        Xb = dirac_adjoint_op(n, N, 1)
        bracket = commutator(commutator(Da, Xb), Da)
        assert bracket == Da
        assert bracket != 2 * dirac_adjoint_op(n, N, 1)

    def test_coefficient_two_needs_sqrt2(self):
        # no rational multiple of the generators satisfies the tabulated
        # coefficient-2 relation: it would force c^2 = 2
        n, N = 1, 1
        D1 = dirac_op(n, N, 1)
        X1 = dirac_adjoint_op(n, N, 1)
        got = commutator(commutator(D1, X1), X1)
        assert got == -X1          # rational convention
        assert got != -2 * X1      # the sqrt(2)-scaled tabulated form


class TestOperatorGrammar:
    def test_parse_dirac(self):
        assert parse_weyl_op("z1*dy1.1 - dz1*dx1.1", 1, 1) == dirac_op(1, 1, 1)

    def test_printed_term_order(self):
        assert str(dirac_op(1, 1, 1)) == "-dx1.1*dz1 + z1*dy1.1"

    def test_str_roundtrip(self):
        rng = random.Random(31)
        n, N = 2, 2
        pool = compose_pool(n, N)
        for _ in range(20):
            A, B = rng.choice(pool), rng.choice(pool)
            op = compose(A, B) * Fraction(rng.randint(-5, 5), rng.randint(1, 4)) + A
            assert parse_weyl_op(str(op), n, N) == op

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            WeylOp(1, 1, {((), ()): 0.5})

    def test_json_roundtrip(self):
        op = dirac_adjoint_op(2, 2, 2) + Fraction(1, 3) * euler_op(2, 2, 1)
        data = op.to_json()
        # reassemble from the JSON list
        total = WeylOp.zero(2, 2)
        for entry in data:
            text_m = "*".join(f"{k}^{v}" for k, v in entry["mult"].items()) or "1"
            text_d = "*".join(f"d{k}^{v}" for k, v in entry["deriv"].items())
            text = entry["coef"] + "*" + text_m + ("*" + text_d if text_d else "")
            total = total + parse_weyl_op(text, 2, 2)
        assert total == op
