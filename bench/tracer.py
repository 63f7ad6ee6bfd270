"""Outside-in tracer: wraps public functions of the sympalg modules.

``from .linalg import nullspace`` and similar imports copy a function
reference into the importing module, so a wrapper is installed on every
module-level binding of each traced function in every loaded ``sympalg``
module, and ``uninstall`` puts the originals back.

Span functions record one span each (name, start, end, parent, job) kept in
memory until the run ends.  The hot leaves (``apply_op``, ``compose``,
``monomial_basis``, called thousands of times per job) are not recorded one
by one: their calls, time and counters are summed into the span that called
them.  A span's self time is its duration minus the time of the spans and
leaves called inside it; the tracer's own bookkeeping around a call is
charged to neither.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _nullspace_args(args) -> Dict[str, int]:
    rows, ncols = args[0], args[1]
    return {"rows": len(rows), "cols": ncols, "nnz": sum(len(r) for r in rows)}


def _nullspace_result(vectors) -> Dict[str, int]:
    """Sizes of the returned basis: entries stored (dense lists hold every
    column, dicts only their keys), nonzeros, widest coefficient."""
    dense = nonzeros = bits = 0
    for vec in vectors:
        for c in vec.values() if isinstance(vec, dict) else vec:
            dense += 1
            if c:
                nonzeros += 1
                c = Fraction(c)
                bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return {"vectors": len(vectors), "dense_entries": dense, "nonzeros": nonzeros,
            "max_coef_bits": bits}


def _term_pairs(args) -> Dict[str, int]:
    return {"term_pairs": len(args[0].terms) * len(args[1].terms)}


@dataclass(frozen=True)
class Target:
    """A traced function: ``layer`` is its module's name inside sympalg.
    ``args`` and ``result`` map the call's arguments and its result to
    counters."""

    layer: str
    func: str
    leaf: bool = False
    args: Optional[Callable[[tuple], Dict[str, int]]] = None
    result: Optional[Callable[[object], Dict[str, int]]] = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.func}"


TARGETS = (
    Target("cli", "main"),
    Target("suites", "run_suite", result=lambda r: {"checks": sum(len(s.checks) for s in r)}),
    Target("transvector", "rs_calibrate"),
    Target("transvector", "extremal_project", result=lambda r: {"terms_used": r.terms_used}),
    Target("transvector", "rs_apply"),
    Target("kernels", "joint_kernel", result=lambda r: {"vectors_kept": len(r.vectors)}),
    Target("linalg", "nullspace", args=_nullspace_args, result=_nullspace_result),
    Target("weyl", "lie_closure", result=lambda r: {"rounds": r.rounds, "dim": r.dimension}),
    Target("poly", "parse_poly"),
    Target("weyl", "apply_op", leaf=True, args=_term_pairs),
    Target("weyl", "compose", leaf=True, args=_term_pairs),
    Target("poly", "monomial_basis", leaf=True, result=lambda r: {"monomials": len(r)}),
)

# counters combined by max across calls; every other counter is summed
MAX_COUNTERS = frozenset({"max_coef_bits"})


def _merge(into: Dict[str, int], counts: Dict[str, int]) -> None:
    for key, v in counts.items():
        if key in MAX_COUNTERS:
            into[key] = max(into.get(key, 0), v)
        else:
            into[key] = into.get(key, 0) + v


@dataclass
class Span:
    id: int
    name: str
    job: int
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    self_s: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    # leaf name -> [calls, time in s, counters]
    leaves: Dict[str, list] = field(default_factory=dict)


class _Frame:
    __slots__ = ("span", "child")

    def __init__(self, span: Optional[Span]):
        self.span = span
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.job = 0
        self._stack: List[_Frame] = []
        self._ids = itertools.count()
        self._installed: List[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "sympalg" or name.startswith("sympalg."))
        ]
        for target in TARGETS:
            home = sys.modules[f"sympalg.{target.layer}"]
            original = getattr(home, target.func)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        ids = self._ids
        name = target.name
        leaf = target.leaf
        on_args = target.args
        on_result = target.result

        def traced(*args, **kwargs):
            t_in = perf_counter()
            counts = on_args(args) if on_args is not None else {}
            parent = stack[-1] if stack else None
            owner = _owner_span(stack)
            if leaf:
                frame = _Frame(None)
            else:
                span = Span(next(ids), name, self.job, owner.id if owner else None)
                frame = _Frame(span)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            if on_result is not None:
                counts.update(on_result(result))
            self_s = (t1 - t0) - frame.child
            if leaf:
                if owner is not None:
                    entry = owner.leaves.setdefault(name, [0, 0.0, {}])
                    entry[0] += 1
                    entry[1] += self_s
                    _merge(entry[2], counts)
            else:
                span.start, span.end, span.self_s = t0, t1, self_s
                span.counts = counts
                spans.append(span)
            if parent is not None:
                parent.child += perf_counter() - t_in
            return result

        traced.__wrapped__ = fn
        return traced

    # -- aggregation -------------------------------------------------------

    def totals(self) -> Dict[str, dict]:
        """Per traced function: calls, summed self time and counters."""
        out: Dict[str, dict] = {t.name: {"calls": 0, "self_s": 0.0, "counts": {}} for t in TARGETS}
        for span in self.spans:
            agg = out[span.name]
            agg["calls"] += 1
            agg["self_s"] += span.self_s
            _merge(agg["counts"], span.counts)
            for leaf, (calls, secs, counts) in span.leaves.items():
                lagg = out[leaf]
                lagg["calls"] += calls
                lagg["self_s"] += secs
                _merge(lagg["counts"], counts)
        return out


def _owner_span(stack: List[_Frame]) -> Optional[Span]:
    for frame in reversed(stack):
        if frame.span is not None:
            return frame.span
    return None
