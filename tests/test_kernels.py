"""Joint kernels and their elimination, HWV verification, Fischer sanity."""

import random
import warnings
from fractions import Fraction
from math import gcd

import pytest

from helpers import dense_kernel_dim, dense_nullspace, dense_rank, stacked_rows
from sympalg import kernels
from sympalg.kernels import (
    GradedSpec,
    determinantal_hwv,
    fischer_layer_dims,
    harmonic_system,
    hwv_verify,
    joint_kernel,
    monogenic_system,
    orthogonal_harmonic_kernel,
    poly_space_dim,
    symplectic_harmonic_kernel,
    symplectic_monogenic_kernel,
)
from sympalg.linalg import echelon_insert, integerize, nullspace
from sympalg.poly import Poly, copy_variables, parse_poly
from sympalg.roots import Weight, weyl_dim
from sympalg.tensor import cartan_product
from sympalg.weyl import (
    apply_op,
    build_sp2n_realization,
    commutator,
    contraction_op,
    dirac_op,
    pairing_derivs_op,
)


class TestJointKernel:
    def test_harmonics_p2_r3(self):
        kb = orthogonal_harmonic_kernel(3, 2)
        assert kb.dimension == 5  # classical dim H_2(R^3)
        assert kb.ambient_dim == 6

    def test_against_dense_oracle(self):
        # same dimension by an independent dense elimination
        n = 2
        spec = GradedSpec(n, 2, (2, 1))
        ops, _ = harmonic_system(n, 2)
        kb = joint_kernel(ops, spec)
        dense = dense_kernel_dim(ops, spec.domain_monomials())
        assert kb.dimension == dense

    def test_counterexample_288_160(self):
        kb = symplectic_harmonic_kernel(4, 2, (2, 1))
        assert kb.ambient_dim == 288
        assert kb.dimension == 160
        assert kb.dimension == weyl_dim(Weight.parse("2,1", 4))

    def test_basis_exactly_annihilated(self):
        n = 3
        kb = symplectic_harmonic_kernel(n, 2, (2, 1))
        ops, _ = harmonic_system(n, 2)
        for v in kb.vectors:
            for op in ops:
                assert apply_op(op, v).is_zero()

    @pytest.mark.parametrize("basis", [True, False])
    def test_scalar_model_small_grid(self, basis):
        # dim H^s = weyl_dim on a small slice (the full grid runs in acceptance)
        for n in (2, 3):
            for degrees in ((1, 0), (1, 1), (2, 1)):
                kb = symplectic_harmonic_kernel(n, 2, degrees, basis)
                assert kb.dimension == weyl_dim(Weight.from_partition(degrees, n))

    @pytest.mark.parametrize("basis", [True, False])
    def test_single_copy_degenerates_to_full_component(self, basis):
        # N=1 has no simplicial operators: P_k itself is the model
        for n in (2, 3):
            for k in (0, 2, 3):
                kb = symplectic_harmonic_kernel(n, 1, (k,), basis)
                assert kb.dimension == kb.ambient_dim
                assert kb.dimension == weyl_dim(Weight.from_partition([k], n))

    def test_three_copies(self):
        # the general-N system beyond the N=2 grid: dim H^s_(1,1,1) at n=3
        n, N = 3, 3
        kb = symplectic_harmonic_kernel(n, N, (1, 1, 1))
        assert kb.dimension == weyl_dim(Weight.parse("1,1,1", n))
        w = determinantal_hwv(n, N, (1, 1, 1))
        ops, _ = harmonic_system(n, N)
        assert all(apply_op(op, w).is_zero() for op in ops)
        real = build_sp2n_realization("scalar", n, N)
        rep = hwv_verify(w, real, ops)
        assert rep.passed
        assert rep.cartan_eigenvalues == Weight.parse("1,1,1", n)

    def test_monogenic_k0_all_z_survives(self):
        kb = symplectic_monogenic_kernel(1, 1, (0,), z_max=3)
        assert kb.per_z_degree_dims == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_operator_permutation_invariance(self):
        n = 2
        spec = GradedSpec(n, 2, (2, 1))
        ops, _ = harmonic_system(n, 2)
        d1 = joint_kernel(ops, spec).dimension
        d2 = joint_kernel(list(reversed(ops)), spec).dimension
        assert d1 == d2

    def test_column_permutation_invariance(self):
        n = 2
        spec = GradedSpec(n, 2, (2, 1))
        ops, _ = harmonic_system(n, 2)
        domain = spec.domain_monomials()
        rows = stacked_rows(ops, domain)
        dim = joint_kernel(ops, spec).dimension
        rng = random.Random(7)
        for _ in range(3):
            perm = list(range(len(domain)))
            rng.shuffle(perm)
            permuted = [{perm[j]: c for j, c in row.items()} for row in rows]
            assert len(nullspace(permuted, len(domain))) == dim

    @pytest.mark.parametrize(
        "n,N,degrees,z_max", [(1, 1, (0,), 3), (1, 1, (2,), 3), (2, 1, (1,), 3), (2, 2, (1, 0), 2)]
    )
    def test_per_z_dims_match_dense_prefixes(self, n, N, degrees, z_max):
        # one elimination at z_max against an independent dense elimination
        # at every cap t <= z_max
        kb = symplectic_monogenic_kernel(n, N, degrees, z_max)
        ops, _ = monogenic_system(n, N)
        for t in range(z_max + 1):
            prefix = GradedSpec(n, N, degrees, z_max=t).domain_monomials()
            expect = dense_kernel_dim(ops, prefix)
            assert sum(kb.per_z_degree_dims[s] for s in range(t + 1)) == expect

    def test_range_guard(self):
        # a spec describes a component: outside the stable range it computes
        # without a warning
        ops, labels = harmonic_system(1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kb = joint_kernel(ops, GradedSpec(1, 2, (1, 1)), labels)
        assert kb.dimension == len(kb.vectors)

    @pytest.mark.parametrize("model", [symplectic_harmonic_kernel, determinantal_hwv])
    @pytest.mark.parametrize(
        "n,N,degrees,reason",
        [(1, 2, (1, 1), "stable range"), (3, 2, (1, 2), "weakly decreasing")],
    )
    def test_model_check(self, model, n, N, degrees, reason):
        with pytest.raises(ValueError, match=reason):
            model(n, N, degrees)

    def test_truncation_stability_flag(self):
        kb = symplectic_monogenic_kernel(1, 1, (1,), z_max=3)
        assert kb.to_json(include_basis=False)["truncationStable"] is True
        assert sum(kb.per_z_degree_dims.values()) == kb.dimension

    @pytest.mark.parametrize("n,N", [(0, 1), (1, 0), (-1, 1)])
    def test_rank_and_copies_at_least_one(self, n, N):
        with pytest.raises(ValueError, match=f"n={n}, N={N}"):
            GradedSpec(n, N, (1,) * max(N, 0))


class TestDominantWeightCount:
    """joint_kernel(basis=False): one dominant weight per Weyl orbit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_harmonic_system_commutes_with_scalar_realization(self, n):
        # the premise of the orbit count: the kernel is an sp(2n) module
        for N in range(1, n + 1):
            ops, labels = harmonic_system(n, N)
            for elem in build_sp2n_realization("scalar", n, N):
                for op, label in zip(ops, labels):
                    assert not commutator(op, elem.op), (N, label, elem.label)

    @pytest.mark.parametrize(
        "n,degrees",
        [
            (1, (3,)), (2, (2,)), (3, (2,)),  # N=1: the empty system
            (2, (1, 1)), (2, (2, 1)), (3, (2, 2)), (3, (3, 1)), (4, (2, 2)),
            (3, (1, 1, 1)), (3, (2, 1, 1)),
        ],
    )
    def test_dimension_only_matches_full_kernel(self, n, degrees):
        N = len(degrees)
        spec = GradedSpec(n, N, degrees)
        ops, labels = harmonic_system(n, N)
        full = joint_kernel(ops, spec, labels)
        fast = joint_kernel(ops, spec, labels, basis=False)
        assert fast.dimension == full.dimension
        assert fast.dimension == weyl_dim(Weight.from_partition(degrees, n))
        assert fast.to_json(include_basis=False) == full.to_json(include_basis=False)
        assert fast.vectors == []

    def test_dimension_only_refuses_a_basis(self):
        kb = symplectic_harmonic_kernel(2, 2, (1, 1), basis=False)
        assert kb.dimension == 5  # the 5-dimensional module of sp(4) at (1,1)
        with pytest.raises(ValueError, match="dimension only"):
            kb.to_json(include_basis=True)

    def test_one_elimination_on_dominant_columns(self, monkeypatch):
        calls = []

        def spy(rows, ncols):
            calls.append(ncols)
            return nullspace(rows, ncols)

        monkeypatch.setattr(kernels, "nullspace", spy)
        kb = symplectic_harmonic_kernel(4, 2, (2, 2), basis=False)
        assert calls == [98]
        assert (kb.ambient_dim, kb.dimension) == (1296, 308)

    @pytest.mark.parametrize(
        "spec", [GradedSpec(1, 1, (1,), z_max=1), GradedSpec(2, 1, (2,), num_vars=3)]
    )
    def test_dimension_only_needs_a_scalar_domain(self, spec):
        with pytest.raises(ValueError, match="z-free domain"):
            joint_kernel([], spec, basis=False)


def random_sparse_rows(rng, nrows, ncols):
    rows = []
    for _ in range(nrows):
        row = {}
        for _ in range(rng.randint(0, 4)):
            row[rng.randrange(ncols)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        rows.append(row)
    return rows


class TestNullspace:
    def test_nullity_against_dense_rank(self):
        rng = random.Random(11)
        for _ in range(200):
            ncols = rng.randint(1, 9)
            rows = random_sparse_rows(rng, rng.randint(0, 8), ncols)
            dense = [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]
            vecs = nullspace(rows, ncols)
            assert len(vecs) == ncols - dense_rank(dense)
            for vec in vecs:
                for row in rows:
                    assert sum(c * vec.get(j, 0) for j, c in row.items()) == 0

    def test_vector_normal_form(self):
        # integer entries, content 1, positive at the lowest column, and the
        # free column (one per vector, ascending) is the largest key
        rng = random.Random(12)
        for _ in range(200):
            ncols = rng.randint(1, 9)
            vecs = nullspace(random_sparse_rows(rng, rng.randint(0, 8), ncols), ncols)
            free = [max(vec) for vec in vecs]
            assert free == sorted(set(free))
            for vec in vecs:
                assert list(vec) == sorted(vec)
                assert all(isinstance(c, int) and c for c in vec.values())
                assert vec[min(vec)] > 0
                assert gcd(*vec.values()) == 1
                assert all(max(other) not in vec for other in vecs if other is not vec)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_block_diagonal_vectors_match_dense_oracle(self, shuffle):
        # many blocks, many pivots: the back-substitution meets every pivot
        # column, and the reduced echelon form is unique, so the vectors agree
        # exactly with those of a textbook Gauss-Jordan
        rng = random.Random(14)
        rows, ncols = [], 0
        for _ in range(12):
            width = rng.randint(3, 8)
            for row in random_sparse_rows(rng, rng.randint(1, width), width):
                rows.append({ncols + j: c for j, c in row.items()})
            ncols += width
        if shuffle:  # interleave the blocks, as weight blocks are
            perm = list(range(ncols))
            rng.shuffle(perm)
            rows = [{perm[j]: c for j, c in row.items()} for row in rows]
        dense = [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]
        assert nullspace(rows, ncols) == dense_nullspace(dense, ncols)

    def test_harmonic_vectors_match_dense_oracle(self):
        n, N = 2, 2
        domain = GradedSpec(n, N, (2, 1)).domain_monomials()
        rows = stacked_rows(harmonic_system(n, N)[0], domain)
        ncols = len(domain)
        dense = [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]
        assert nullspace(rows, ncols) == dense_nullspace(dense, ncols)

    def test_echelon_insert_against_dense_rank(self):
        # True exactly when a row raises the rank of the rows before it, so
        # the True count is the rank; each pivot row starts at its pivot
        rng = random.Random(13)
        for _ in range(200):
            ncols = rng.randint(1, 9)
            rows = [integerize(r) for r in random_sparse_rows(rng, rng.randint(0, 8), ncols)]
            dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
            pivots = {}
            for k, row in enumerate(rows):
                grew = dense_rank(dense[: k + 1]) > dense_rank(dense[:k])
                assert echelon_insert(pivots, row) == grew
            assert len(pivots) == dense_rank(dense)
            assert all(min(piv) == col for col, piv in pivots.items())


class TestFischer:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_layers_sum_to_polynomial_space(self, m):
        for k in range(0, 7):
            total, layers = fischer_layer_dims(m, k)
            assert total == sum(layers)

    def test_poly_space_dim(self):
        assert poly_space_dim(3, 2) == 6
        assert poly_space_dim(2, 5) == 6

    def test_decomposition_is_direct_sum(self):
        # the embedded layers |x|^{2j} H_{k-2j} jointly span P_k(R^3): the
        # stacked coefficient vectors of all embedded basis polynomials have
        # full rank (checked with the independent dense elimination), so the
        # sum is direct, not just dimension-consistent
        from fractions import Fraction as F

        from helpers import dense_rank
        from sympalg.poly import mono_sort_key
        from sympalg.weyl import r_squared_op

        m, k = 3, 4
        n = (m + 1) // 2
        active = copy_variables(n, 1)[:m]
        r2 = r_squared_op(n, 1, active)
        embedded = []
        for j in range(k // 2 + 1):
            layer = orthogonal_harmonic_kernel(m, k - 2 * j)
            for h in layer.vectors:
                p = h
                for _ in range(j):
                    p = apply_op(r2, p)
                embedded.append(p)
        monos = sorted({mo for p in embedded for mo in p.terms}, key=mono_sort_key)
        rows = [
            [p.terms.get(mo, F(0)) for mo in monos] for p in embedded
        ]
        assert len(embedded) == poly_space_dim(m, k)
        assert dense_rank(rows) == poly_space_dim(m, k)


class TestHwv:
    def test_scalar_n2_hwv(self):
        n, N = 4, 2
        w = determinantal_hwv(n, N, (2, 1))
        real = build_sp2n_realization("scalar", n, N)
        extra = [contraction_op(n, N, 1, 2), pairing_derivs_op(n, N, 1, 2)]
        rep = hwv_verify(w, real, extra, ["<x,d_u>", "<d_x,d_u>_s"])
        assert rep.passed
        assert rep.cartan_eigenvalues == Weight.parse("2,1", n)

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 3), (3, 2)])
    def test_spinor_hwv_weights(self, n, k):
        real = build_sp2n_realization("spinor", n, 1)
        Ds = dirac_op(n, 1, 1)
        x1k = Poly.var(n, 1, "x1.1") ** k
        zn = Poly.var(n, 1, f"z{n}")
        even = hwv_verify(x1k, real, [Ds], ["D_s"])
        odd = hwv_verify(x1k * zn, real, [Ds], ["D_s"])
        assert even.passed and odd.passed
        half = Fraction(1, 2)
        assert even.cartan_eigenvalues == Weight.of(
            *([k - half] + [-half] * (n - 1))
        )
        assert odd.cartan_eigenvalues == Weight.of(
            *([k - half] + [-half] * (n - 2) + [Fraction(-3, 2)])
        )

    def test_non_eigenvector_reported(self):
        n = 2
        real = build_sp2n_realization("scalar", n, 1)
        p = Poly.var(n, 1, "x1.1") + Poly.var(n, 1, "x1.2") ** 2
        rep = hwv_verify(p, real)
        assert not rep.passed
        assert rep.eigen_failures

    def test_rejects_zero_candidate(self):
        real = build_sp2n_realization("scalar", 2, 1)
        with pytest.raises(ValueError):
            hwv_verify(Poly.zero(2, 1), real)


class TestDeterminantalHwv:
    def test_single_copy_power(self):
        assert determinantal_hwv(3, 1, (4,)) == Poly.var(3, 1, "x1.1") ** 4

    def test_two_copies_formula(self):
        n = 3
        got = determinantal_hwv(n, 2, (3, 1))
        x1 = Poly.var(n, 2, "x1.1")
        det = Poly.var(n, 2, "x1.1") * Poly.var(n, 2, "x2.2") - Poly.var(
            n, 2, "x1.2"
        ) * Poly.var(n, 2, "x2.1")
        assert got == x1**2 * det

    def test_pure_determinant(self):
        got = determinantal_hwv(2, 2, (1, 1))
        assert got == parse_poly("x1.1*x2.2 - x1.2*x2.1", 2, 2)

    def test_lies_in_kernel_and_verifies(self):
        for n, degrees in ((2, (2, 1)), (3, (1, 1)), (3, (2, 2))):
            w = determinantal_hwv(n, 2, degrees)
            ops, _ = harmonic_system(n, 2)
            assert all(apply_op(op, w).is_zero() for op in ops)
            real = build_sp2n_realization("scalar", n, 2)
            rep = hwv_verify(w, real, ops)
            assert rep.passed
            assert rep.cartan_eigenvalues == Weight.from_partition(degrees, n)

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            determinantal_hwv(3, 2, (1, 2))


class TestCombinedSpinorModel:
    def test_cartan_product_cross_check(self):
        # determinantal HWV (x) 1 and (x) z_n under the combined realization
        n, N = 3, 2
        lam = Weight.parse("2,1", n)
        real = build_sp2n_realization("spinor", n, N)
        extra = [
            dirac_op(n, N, 1),
            dirac_op(n, N, 2),
            contraction_op(n, N, 1, 2),
            pairing_derivs_op(n, N, 1, 2),
        ]
        w = determinantal_hwv(n, N, (2, 1))
        zn = Poly.var(n, N, f"z{n}")
        even, odd = cartan_product(lam)
        rep_even = hwv_verify(w, real, extra)
        rep_odd = hwv_verify(w * zn, real, extra)
        assert rep_even.passed and rep_odd.passed
        assert rep_even.cartan_eigenvalues == even
        assert rep_odd.cartan_eigenvalues == odd
