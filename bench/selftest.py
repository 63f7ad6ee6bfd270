"""The benchmark's own tests: tracer wiring, counter determinism, predictions.

    python3 bench/selftest.py            # all checks, about three minutes
    python3 -m pytest -q bench/selftest.py

Run from the root of a checkout.  The slow checks make two traced runs of
every workload with one seed and require every count metric to repeat
exactly; they also hold the predictions stated for this benchmark:
``algebra`` never calls ``linalg.nullspace`` and ``elim`` never calls
``weyl.compose``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import TARGETS, Tracer  # noqa: E402
from worker import import_cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
COUNT_UNITS = ("count", "bits")

_traced_runs = {}


def traced_run(workload: str, attempt: int) -> dict:
    """Last-line JSON of one shortest traced run (one pass pair)."""
    key = (workload, attempt)
    if key not in _traced_runs:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
        )
        _traced_runs[key] = json.loads(proc.stdout.splitlines()[-1])
    return _traced_runs[key]


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}


def test_tracer_wraps_every_binding_and_restores_it():
    import_cli()
    import sympalg
    from sympalg import kernels, linalg, weyl

    originals = (linalg.nullspace, weyl.apply_op, kernels.apply_op, sympalg.apply_op)
    tracer = Tracer()
    tracer.install()
    try:
        assert linalg.nullspace is kernels.nullspace is not originals[0]
        assert weyl.apply_op is kernels.apply_op is sympalg.apply_op is not originals[1]
        assert all(hasattr(getattr(sympalg, t.layer), t.func) for t in TARGETS)
    finally:
        tracer.uninstall()
    assert (linalg.nullspace, weyl.apply_op, kernels.apply_op, sympalg.apply_op) == originals


def test_self_time_excludes_children():
    import_cli()
    from sympalg import cli

    tracer = Tracer()
    tracer.install()
    try:
        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                assert cli.main(["kernel", "--kind", "symplectic-harmonic",
                                 "--n", "2", "--degrees", "1,1"]) == 0
            finally:
                sys.stdout = stdout
    finally:
        tracer.uninstall()
    main = [s for s in tracer.spans if s.name == "cli.main"]
    assert len(main) == 1
    totals = tracer.totals()
    busy = sum(t["self_s"] for t in totals.values())
    assert 0 < busy <= main[0].end - main[0].start
    assert totals["linalg.nullspace"]["calls"] == 1
    assert totals["weyl.apply_op"]["calls"] > 0
    children = [s for s in tracer.spans if s.parent == main[0].id]
    assert {s.name for s in children} == {"kernels.joint_kernel"}


def test_counts_repeat_exactly_for_one_seed():
    for workload in WORKLOADS:
        first, second = traced_run(workload, 0), traced_run(workload, 1)
        assert first["correct"] and second["correct"], workload
        assert counts(first) == counts(second), workload


def test_predictions_at_this_commit():
    algebra = traced_run("algebra", 0)["metrics"]
    elim = traced_run("elim", 0)["metrics"]
    assert algebra["linalg.nullspace.calls"]["value"] == 0
    assert algebra["weyl.compose.calls"]["value"] > 0
    assert elim["weyl.compose.calls"]["value"] == 0
    assert elim["linalg.nullspace.calls"]["value"] > 0


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
