"""The three fixed CLI workloads, their seeded inputs and their correctness checks.

Every job is an argv list for ``sympalg.cli.main``.  A workload run is a
sequence of passes; each pass runs every job of the workload once, in an
order drawn from the workload seed, so every pass does the same work.

* ``elim``: elimination-bound kernels (``linalg.nullspace`` is most of the
  time, ``weyl.compose`` is never called).
* ``zsweep``: every symplectic-monogenic grid point with at most 400 domain
  columns; many small eliminations, so assembly, ``apply_op`` and
  ``monomial_basis`` carry a large share.
* ``algebra``: Weyl-algebra composition, Lie closure and polynomial action
  (``nullspace`` is never called), plus ``project`` and ``rs-apply`` on
  polynomials generated from the seed.

Checks: jobs whose output does not depend on the seed are compared with the
SHA-256 of their output recorded in ``golden.json``.  Seeded ``verify`` jobs
are compared the same way after removing the seed and the ``jacobi`` suite,
which must pass.  ``project`` and ``rs-apply`` outputs are checked by exact
identities, since their inputs come from the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

WORKLOADS = ("elim", "zsweep", "algebra")

# kind of check a job's output gets
GOLDEN = "golden"
GOLDEN_SEEDED = "golden-seeded"
PROJECT = "project"
RS_APPLY = "rs-apply"


@dataclass
class Job:
    argv: List[str]
    check: str = GOLDEN
    n: int = 0
    k: int = 0
    input_text: str = ""

    @property
    def name(self) -> str:
        return " ".join(self.argv)

    @property
    def golden_key(self) -> str:
        """The job's name without its seed, under which golden.json holds it."""
        if self.check != GOLDEN_SEEDED:
            return self.name
        i = self.argv.index("--seed")
        return " ".join(self.argv[:i] + self.argv[i + 2:])


@dataclass
class Workload:
    name: str
    jobs: List[Job]
    # poly files to write before the first pass: path -> text
    files: Dict[str, str] = field(default_factory=dict)

    def pass_orders(self, seed: int):
        """Endless seeded sequence of job orders, one per pass."""
        rng = random.Random(f"{self.name}/order/{seed}")
        while True:
            yield rng.sample(self.jobs, len(self.jobs))


def _kernel(kind: str, n: int, degrees: str, *extra: str) -> Job:
    return Job(["kernel", "--kind", kind, "--n", str(n), "--degrees", degrees, *extra])


def _rs_calibrate(k: int, n: int, zmax: int, *extra: str) -> Job:
    return Job(["rs-calibrate", "--k", str(k), "--n", str(n), "--zmax", str(zmax), *extra])


def elim_jobs() -> List[Job]:
    harmonic = "symplectic-harmonic"
    return [
        _kernel(harmonic, 4, "2,2"),
        _kernel(harmonic, 3, "3,2"),
        _kernel(harmonic, 3, "3,1"),
        _kernel(harmonic, 3, "2,1,1"),
        _kernel(harmonic, 3, "2,2", "--basis"),
        _kernel(harmonic, 4, "2,1", "--basis"),
        _kernel("orthogonal-harmonic", 8, "4"),
        _kernel("orthogonal-harmonic", 5, "6"),
        _rs_calibrate(1, 3, 2),
        _rs_calibrate(1, 2, 3),
        _rs_calibrate(2, 2, 2),
        _rs_calibrate(1, 2, 3, "--strict"),
    ]


def _domain_columns(n: int, degrees, z_max: int) -> int:
    """Monomials of P_degrees (x) P_{<=z_max}(z): each copy has 2n variables."""
    cols = 1
    for d in degrees:
        cols *= comb(d + 2 * n - 1, 2 * n - 1)
    return cols * sum(comb(z + n - 1, n - 1) for z in range(z_max + 1))


ZSWEEP_DEGREES = ((1,), (2,), (3,), (1, 1), (2, 1), (2, 2))
ZSWEEP_MAX_COLUMNS = 400


def zsweep_jobs() -> List[Job]:
    """The 41 monogenic grid points with N <= n and at most 400 domain columns."""
    jobs = []
    for n in (1, 2, 3):
        for degrees in ZSWEEP_DEGREES:
            if len(degrees) > n:
                continue
            for z_max in range(1, 5):
                if _domain_columns(n, degrees, z_max) > ZSWEEP_MAX_COLUMNS:
                    continue
                jobs.append(
                    _kernel(
                        "symplectic-monogenic",
                        n,
                        ",".join(map(str, degrees)),
                        "--zmax",
                        str(z_max),
                    )
                )
    return jobs


def _verify(suite: str, n: int, N: Optional[int] = None, seed: Optional[int] = None) -> Job:
    argv = ["verify", "--suite", suite, "--n", str(n)]
    if N is not None:
        argv += ["--N", str(N)]
    if seed is None:
        return Job(argv)
    return Job(argv + ["--seed", str(seed)], check=GOLDEN_SEEDED)


POLY_TERMS = 12
# polynomials per (n, k).  With 24 of these small jobs and 8 verify jobs in
# a pass, the median job is a project or rs-apply job and the 90th
# percentile falls among the verify jobs of similar cost (all, parafermion,
# so2N+1 at n=2)
POLYS_PER_SHAPE = 2


def random_poly_text(rng: random.Random, n: int, k: int) -> str:
    """A polynomial with POLY_TERMS distinct terms, homogeneous of degree k in
    copy 2 (the u copy), of degree <= 2 in copy 1 and <= 1 in z."""
    copy1 = [f"{f}1.{i}" for f in "xy" for i in range(1, n + 1)]
    copy2 = [f"{f}2.{i}" for f in "xy" for i in range(1, n + 1)]
    zs = [f"z{i}" for i in range(1, n + 1)]
    seen = set()
    terms = []
    while len(terms) < POLY_TERMS:
        exps: Dict[str, int] = {}
        for pool, degree in (
            (copy2, k),
            (copy1, rng.randint(0, 2)),
            (zs, rng.randint(0, 1)),
        ):
            for _ in range(degree):
                v = rng.choice(pool)
                exps[v] = exps.get(v, 0) + 1
        mono = tuple(sorted(exps.items()))
        if mono in seen:
            continue
        seen.add(mono)
        coef = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        sign = "-" if rng.random() < 0.5 else "+"
        factors = [str(coef)] + [v if e == 1 else f"{v}^{e}" for v, e in mono]
        terms.append((sign, "*".join(factors)))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def algebra_workload(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"algebra/inputs/{seed}")
    jobs = [
        _verify("so2N+1", 2, 3),
        _verify("so2N+1", 3, 3),
        _verify("all", 2, 2, seed=rng.randrange(10**6)),
        _verify("parafermion", 3, 3),
        _verify("so5", 3),
        _verify("so2N", 2, 3),
        _verify("sp-invariance", 4),
        _verify("jacobi", 3, seed=rng.randrange(10**6)),
    ]
    files = {}
    for n in (2, 3):
        for k in (1, 2, 3):
            for i in range(POLYS_PER_SHAPE):
                text = random_poly_text(rng, n, k)
                path = os.path.join(workdir, f"poly-n{n}-k{k}-{i}.txt")
                files[path] = text
                shape = dict(n=n, k=k, input_text=text)
                jobs.append(Job(["project", "--triple", "sl2-u", "--n", str(n), "--input", path],
                                check=PROJECT, **shape))
                jobs.append(Job(["rs-apply", "--k", str(k), "--n", str(n), "--input", path],
                                check=RS_APPLY, **shape))
    return Workload("algebra", jobs, files)


def make_workload(name: str, seed: int, workdir: str) -> Workload:
    if name == "elim":
        return Workload(name, elim_jobs())
    if name == "zsweep":
        return Workload(name, zsweep_jobs())
    if name == "algebra":
        return algebra_workload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def write_inputs(workload: Workload) -> None:
    for path, text in workload.files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text + "\n")


# -- checks -------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_text(job: Job, text: str) -> str:
    """The part of a job's output that must match the recorded golden output."""
    if job.check == GOLDEN:
        return text
    data = json.loads(text)
    data["config"].pop("seed")
    data["suites"] = [s for s in data["suites"] if s["suite"] != "jacobi"]
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def check_output(job: Job, rc, text: str, golden: Dict[str, str]) -> Optional[str]:
    """None if the job's exit code and output are correct, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        if job.check in (GOLDEN, GOLDEN_SEEDED):
            if job.check == GOLDEN_SEEDED and not json.loads(text)["passed"]:
                return "verify report did not pass"
            expected = golden.get(job.golden_key)
            if expected is None:
                return "no golden output recorded"
            if digest(golden_text(job, text)) != expected:
                return "output differs from the golden output"
            return None
        return _check_identity(job, json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _check_identity(job: Job, report: dict) -> Optional[str]:
    from sympalg.poly import parse_poly, poly_from_json
    from sympalg.weyl import WeylOp, apply_op, compose, dirac_adjoint_op, dirac_op
    from sympalg.transvector import dirac_sl2_triple

    n = job.n
    if job.check == PROJECT:
        out = poly_from_json(report["output"], n, 2)
        if out.is_zero() or not apply_op(dirac_sl2_triple(n).X, out).is_zero():
            return "projector output is not a nonzero element of ker X"
        return None
    # rs-apply with the default denominator c = k + n + 2
    f = parse_poly(job.input_text, n, 2)
    c = Fraction(job.k + n + 2)
    dsu = dirac_op(n, 2, 2)
    correction = compose(dirac_adjoint_op(n, 2, 2), dsu) * (Fraction(2) / c)
    rs = compose(WeylOp.identity(n, 2) + correction, dirac_op(n, 2, 1))
    if poly_from_json(report["result"], n, 2) != apply_op(rs, f):
        return "rs-apply output differs from (1 + (2/c) X_su D_su) D_sx f"
    return None
