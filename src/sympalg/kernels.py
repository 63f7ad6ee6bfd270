"""Model spaces as exact joint kernels of differential operators.

A GradedSpec describes a multigraded polynomial component (degrees per
vector-variable copy, optionally a spinor-degree cap zMax) and checks only its
shape; joint_kernel computes the exact rational nullspace of the stacked
operator matrices on any such component with a single sparse elimination.
The model constructors (symplectic_harmonic_kernel,
symplectic_monogenic_kernel, determinantal_hwv) also check the model: the
degrees must be a dominant weight and N <= n, the stable range where the joint
kernel is the irreducible sp(2n)-module (Howe, Trans. AMS 313, 1989).

Operators that shift the z degree (Dirac type) map the truncated domain
P_(degrees) (x) P_{<=zMax}(z) into the untruncated image span, so every
reported kernel vector is a genuine global solution.  Columns are ordered by z
degree, so the matrix at a lower cap is a column prefix of the one at zMax:
the per-z-degree dimensions are read off the same elimination (each kernel
vector counts at the z degree of its free column), and they cannot change when
zMax grows, which is why the truncationStable flag is always true.

When only the dimension is wanted, the scalar harmonic system is counted by
one dominant weight per Weyl orbit.  Its operators commute with the scalar
sp(2n) realization, so its kernel is an sp(2n) module whose weight
multiplicities are invariant under the Weyl group W(C_n) of signed
permutations.  Every operator has weight 0 for the Cartan x_i d_x_i -
y_i d_y_i, so the stacked matrix is block diagonal by the weight of its
columns, and a block's nullity is the multiplicity of its weight.  Assembling
the dominant blocks alone and counting each kernel vector |W.mu| times, mu the
weight of its free column, gives the full dimension.  The spinor-valued
monogenic system does not qualify: the sign changes act on z by a Fourier
transform, which the zMax truncation breaks.  Neither does the orthogonal
Laplacian, which is not weight-homogeneous in real coordinates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import nullspace
from .poly import (
    Monomial,
    MultiDegree,
    Poly,
    UniverseMismatch,
    VarId,
    check_num_vars,
    copy_variables,
    mono_z_degree,
    monomial_basis,
)
from .roots import Weight, is_dominant
from .weyl import (
    CARTAN,
    POSITIVE,
    RealizationElement,
    WeylOp,
    apply_op,
    contraction_op,
    dirac_op,
    laplacian_op,
    pairing_derivs_op,
    ratio,
)


class EmptyBasis(ValueError):
    """The requested graded component has no monomials."""


@dataclass(frozen=True)
class GradedSpec:
    """A multigraded component P_(degrees) (x) P_{<=z_max}(z) of the universe.

    ``num_vars`` restricts copy 1 to its first num_vars coordinates (the
    classical R^m validation path; requires N=1 and 1 <= num_vars <= 2n).
    A spec describes a component, not a model: it checks only its shape, so
    any nonnegative degrees and any N are accepted, and the model
    constructors check the model.
    """

    n: int
    N: int
    degrees: Tuple[int, ...]
    z_max: Optional[int] = None
    num_vars: Optional[int] = None

    def __post_init__(self):
        if self.n < 1 or self.N < 1:
            raise ValueError(
                f"need rank n >= 1 and copies N >= 1, got n={self.n}, N={self.N}"
            )
        if len(self.degrees) != self.N:
            raise ValueError(f"{len(self.degrees)} degrees for N={self.N} copies")
        if any(d < 0 for d in self.degrees):
            raise ValueError("degrees must be nonnegative")
        if self.z_max is not None and self.z_max < 0:
            raise ValueError("z_max must be nonnegative")
        check_num_vars(self.n, self.N, self.num_vars)

    def domain_monomials(self) -> List[Monomial]:
        """Ordered monomial basis, in blocks of z degree 0..z_max."""
        z_range = [0] if self.z_max is None else range(self.z_max + 1)
        out: List[Monomial] = []
        for z in z_range:
            out.extend(
                monomial_basis(
                    self.n,
                    self.N,
                    MultiDegree(self.degrees, z),
                    num_vars=self.num_vars,
                )
            )
        return out

    def to_json(self) -> dict:
        data = {"n": self.n, "N": self.N, "degrees": list(self.degrees)}
        if self.z_max is not None:
            data["zMax"] = self.z_max
        if self.num_vars is not None:
            data["numVars"] = self.num_vars
        return data


@dataclass
class KernelBasis:
    """Exact basis of a joint kernel restricted to a graded component.

    Its report prints truncationStable as true, always (see joint_kernel): it
    answers whether raising zMax changes any per-z dimension.
    A result computed for its dimension only (joint_kernel with basis=False)
    holds no vectors and refuses to print a basis.
    """

    spec: GradedSpec
    operators: List[str]
    vectors: List[Poly]
    dimension: int
    per_z_degree_dims: Dict[int, int]
    ambient_dim: int

    def to_json(self, include_basis: bool = True) -> dict:
        data = {
            "spec": self.spec.to_json(),
            "operators": list(self.operators),
            "ambientDim": self.ambient_dim,
            "kernelDim": self.dimension,
            "perZDegreeDims": {str(k): v for k, v in sorted(self.per_z_degree_dims.items())},
            "truncationStable": True,
        }
        if include_basis:
            if len(self.vectors) != self.dimension:
                raise ValueError(
                    "this kernel was computed for its dimension only; "
                    "recompute it with basis=True to print a basis"
                )
            data["vectors"] = [v.to_json() for v in self.vectors]
        return data


def _weight(m: Monomial, n: int) -> Tuple[int, ...]:
    """The sp(2n) weight of a z-free monomial in epsilon coordinates: x_{a,i}
    counts +eps_i and y_{a,i} counts -eps_i."""
    mu = [0] * n
    for r, e in m:
        mu[(r % (2 * n)) // 2] += -e if r % 2 else e
    return tuple(mu)


def _orbit_size(mu: Tuple[int, ...]) -> int:
    """|W.mu| for a dominant mu under the signed permutations: n! / prod m_k!
    over the multiplicities m_k of its entries, times 2 per nonzero entry."""
    size = factorial(len(mu)) << sum(1 for c in mu if c)
    for m in Counter(mu).values():
        size //= factorial(m)
    return size


def joint_kernel(
    ops: Sequence[WeylOp],
    spec: GradedSpec,
    labels: Optional[Sequence[str]] = None,
    basis: bool = True,
) -> KernelBasis:
    """Exact joint kernel of the operators on the graded component.

    One elimination at the cap z_max gives the basis and every per-z
    dimension.  Columns are ordered by z degree, and image rows are never
    truncated, so the matrix at cap t is the column prefix of the matrix at
    cap t+1 and its nullity is the number of kernel vectors whose largest
    column (their free column) lies in a z block <= t.  per_z_degree_dims[t]
    is the dimension gained when the cap grows from t-1 to t.  For the same
    reason a prefix's rank, and with it every per-z dimension, cannot change
    when z_max grows, so the report's truncationStable is always true.

    The stacked matrix has one row {column: coefficient} per (operator index,
    image monomial), in order of first appearance; each column is one
    apply_op call per operator on its domain monomial.

    basis=False returns the dimension only, counted by one dominant weight
    per Weyl orbit (see the module docstring): only the columns of dominant
    weight mu_1 >= ... >= mu_n >= 0 are assembled and eliminated, in one
    nullspace call, and each kernel vector counts |W.mu| times, mu the weight
    of its free column.  It is valid only for operators that commute with the
    scalar sp(2n) realization, such as the harmonic system, on a z-free domain
    over all coordinates; the monogenic system (z truncation), the orthogonal
    Laplacian (not weight-homogeneous) and every basis request keep the full
    elimination.
    """
    ops = list(ops)
    for op in ops:
        if op.n != spec.n or op.N != spec.N:
            raise UniverseMismatch(
                f"operator universe (n={op.n}, N={op.N}) does not match spec"
            )
    if not basis and (spec.z_max is not None or spec.num_vars is not None):
        raise ValueError(
            "a dimension-only kernel counts Weyl orbits of the scalar "
            "realization, which needs a z-free domain on all coordinates"
        )
    if labels is None:
        labels = [f"op{i}" for i in range(len(ops))]
    domain = spec.domain_monomials()
    if not domain:
        raise EmptyBasis(f"no monomials in {spec}")
    columns = domain if basis else [m for m in domain if is_dominant(_weight(m, spec.n))]
    rows: Dict[Tuple[int, Monomial], Dict[int, Fraction]] = {}
    for j, mono in enumerate(columns):
        p = Poly(spec.n, spec.N, {mono: Fraction(1)})
        for oi, op in enumerate(ops):
            for imono, c in apply_op(op, p).terms.items():
                rows.setdefault((oi, imono), {})[j] = c
    vecs = nullspace(list(rows.values()), len(columns))
    if basis:
        vectors = [
            Poly(spec.n, spec.N, {domain[j]: c for j, c in vec.items()})
            for vec in vecs
        ]
        dimension = len(vectors)
    else:
        vectors = []
        dimension = sum(_orbit_size(_weight(columns[max(vec)], spec.n)) for vec in vecs)
    if spec.z_max is None:
        per_z = {0: dimension}
    else:
        per_z = {t: 0 for t in range(spec.z_max + 1)}
        for vec in vecs:
            per_z[mono_z_degree(domain[max(vec)], spec.n, spec.N)] += 1
    return KernelBasis(
        spec=spec,
        operators=list(labels),
        vectors=vectors,
        dimension=dimension,
        per_z_degree_dims=per_z,
        ambient_dim=len(domain),
    )


# ---------------------------------------------------------------------------
# Named operator systems
# ---------------------------------------------------------------------------


def harmonic_system(n: int, N: int) -> Tuple[List[WeylOp], List[str]]:
    """The simplicial system <u_r, d_u_s> (r<s), <d_u_p, d_u_q>_s (p<q).

    Empty for N=1: the one-copy component P_k is already a model, so the
    joint kernel degenerates to the whole graded component.
    """
    ops, labels = [], []
    for r in range(1, N + 1):
        for s in range(r + 1, N + 1):
            ops.append(contraction_op(n, N, r, s))
            labels.append(f"<u{r},d_u{s}>")
    for p in range(1, N + 1):
        for q in range(p + 1, N + 1):
            ops.append(pairing_derivs_op(n, N, p, q))
            labels.append(f"<d_u{p},d_u{q}>_s")
    return ops, labels


def monogenic_system(n: int, N: int) -> Tuple[List[WeylOp], List[str]]:
    """Dirac operators of every copy plus the simplicial system (when N > 1)."""
    ops, labels = [], []
    for a in range(1, N + 1):
        ops.append(dirac_op(n, N, a))
        labels.append(f"D_s,u{a}")
    if N > 1:
        more_ops, more_labels = harmonic_system(n, N)
        ops.extend(more_ops)
        labels.extend(more_labels)
    return ops, labels


def _model_spec(
    n: int, N: int, degrees: Sequence[int], z_max: Optional[int] = None
) -> GradedSpec:
    """The component of a model, refused with ValueError unless it is one:
    the degrees must be dominant and N within the stable range N <= n."""
    spec = GradedSpec(n, N, tuple(degrees), z_max=z_max)
    if N > n:
        raise ValueError(f"N={N} exceeds the stable range n={n}")
    if not is_dominant(spec.degrees):
        raise ValueError(f"degrees {spec.degrees} are not weakly decreasing")
    return spec


def symplectic_harmonic_kernel(
    n: int, N: int, degrees: Sequence[int], basis: bool = True
) -> KernelBasis:
    """The scalar model: the harmonic system's joint kernel on P_(degrees).
    basis=False gives the dimension only, from the dominant weights."""
    spec = _model_spec(n, N, degrees)
    ops, labels = harmonic_system(n, N)
    return joint_kernel(ops, spec, labels, basis)


def symplectic_monogenic_kernel(
    n: int, N: int, degrees: Sequence[int], z_max: int
) -> KernelBasis:
    spec = _model_spec(n, N, degrees, z_max)
    ops, labels = monogenic_system(n, N)
    return joint_kernel(ops, spec, labels)


def orthogonal_harmonic_kernel(m: int, k: int) -> KernelBasis:
    """ker Delta on P_k(R^m): the classical validation path (m = real dim)."""
    if m < 1:
        raise ValueError("need m >= 1")
    n = (m + 1) // 2
    spec = GradedSpec(n, 1, (k,), num_vars=m)
    active = copy_variables(n, 1)[:m]
    op = laplacian_op(n, 1, active)
    return joint_kernel([op], spec, ["laplacian"])


def poly_space_dim(m: int, k: int) -> int:
    """dim P_k(R^m) by stars and bars."""
    return comb(k + m - 1, m - 1)


def fischer_layer_dims(m: int, k: int) -> Tuple[int, List[int]]:
    """dim P_k(R^m) and the harmonic layer dims [dim H_{k-2j}] of its
    Fischer decomposition P_k = (+)_j |x|^{2j} H_{k-2j}."""
    layers = [
        orthogonal_harmonic_kernel(m, k - 2 * j).dimension
        for j in range(k // 2 + 1)
    ]
    return poly_space_dim(m, k), layers


# ---------------------------------------------------------------------------
# Highest weight vectors
# ---------------------------------------------------------------------------


@dataclass
class HwvReport:
    annihilated: Dict[str, bool]
    residuals: Dict[str, Poly]
    cartan_eigenvalues: Optional[Weight]
    eigen_failures: Dict[str, Poly]

    @property
    def passed(self) -> bool:
        return (
            all(self.annihilated.values())
            and not self.eigen_failures
            and self.cartan_eigenvalues is not None
        )

    def to_json(self) -> dict:
        data = {
            "annihilated": dict(self.annihilated),
            "passed": self.passed,
        }
        if self.cartan_eigenvalues is not None:
            data["cartanEigenvalues"] = self.cartan_eigenvalues.to_json()
        if self.residuals:
            data["residuals"] = {k: str(v) for k, v in self.residuals.items()}
        if self.eigen_failures:
            data["eigenFailures"] = {k: str(v) for k, v in self.eigen_failures.items()}
        return data


def hwv_verify(
    candidate: Poly,
    realization: Sequence[RealizationElement],
    extra_ops: Sequence[WeylOp] = (),
    extra_labels: Optional[Sequence[str]] = None,
) -> HwvReport:
    """Check that candidate is a joint highest weight vector.

    Every positive-root operator of the realization and every extra operator
    must annihilate the candidate exactly; every Cartan operator must have it
    as an exact eigenvector.  Returns the per-operator outcome and the Cartan
    eigenvalue tuple.
    """
    if candidate.is_zero():
        raise ValueError("candidate must be nonzero")
    annihilated: Dict[str, bool] = {}
    residuals: Dict[str, Poly] = {}
    eigen_failures: Dict[str, Poly] = {}
    if extra_labels is None:
        extra_labels = [f"extra{i}" for i in range(len(extra_ops))]
    for elem in realization:
        if elem.role != POSITIVE:
            continue
        res = apply_op(elem.op, candidate)
        annihilated[elem.label] = res.is_zero()
        if not res.is_zero():
            residuals[elem.label] = res
    for label, op in zip(extra_labels, extra_ops):
        res = apply_op(op, candidate)
        annihilated[label] = res.is_zero()
        if not res.is_zero():
            residuals[label] = res
    eigs: List[Fraction] = []
    cartan = [e for e in realization if e.role == CARTAN]
    for elem in cartan:
        image = apply_op(elem.op, candidate)
        lam = ratio(image, candidate)
        if lam is None:
            eigen_failures[elem.label] = image
        else:
            eigs.append(lam)
    weight = Weight(tuple(eigs)) if len(eigs) == len(cartan) and cartan else None
    return HwvReport(annihilated, residuals, weight, eigen_failures)


def determinantal_hwv(n: int, N: int, degrees: Sequence[int]) -> Poly:
    """prod_j det(Xi_j)^(lambda_j - lambda_{j+1}) with (Xi_j)_{a,i} = x_a.i.

    The highest weight vector of the scalar model; for N=2 it reduces to
    x1.1^(l1-l2) (x1.1 x2.2 - x1.2 x2.1)^l2.
    """
    degrees = _model_spec(n, N, degrees).degrees
    out = Poly.const(n, N, 1)
    for j in range(1, N + 1):
        power = degrees[j - 1] - (degrees[j] if j < N else 0)
        if power == 0:
            continue
        det = Poly.zero(n, N)
        for perm in permutations(range(1, j + 1)):
            sign = _perm_sign(perm)
            term = Poly.const(n, N, sign)
            for a, i in enumerate(perm, start=1):
                term = term * Poly.var(n, N, VarId("x", a, i))
            det = det + term
        out = out * det**power
    return out


def _perm_sign(perm: Tuple[int, ...]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign
