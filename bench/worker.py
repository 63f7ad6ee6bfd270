"""Run one workload in this (fresh) interpreter and print its raw results.

Started by ``run.py`` with ``PYTHONHASHSEED`` pinned and ``SYMPALG_THREADS``
removed.  ``--setup-only`` imports ``sympalg.cli``, writes the inputs and
prints the monotonic clock, so the parent can time set-up from process
start; the worker starts such interpreters itself between its passes.
Otherwise the worker runs whole passes (every job once, in a seeded
order) for as near to ``--seconds`` of pass time as whole passes allow,
checks every output outside the timed region, and prints one JSON object
on its last line.
With ``--trace 1`` each pass runs twice, untraced and then traced with the
same order, and the two outputs of every job must be byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

from tracer import Tracer
from workloads import WORKLOADS, check_output, digest, load_golden, make_workload, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

PINNED_HASH_SEED = "0"


def import_cli():
    """Import sympalg.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    from sympalg import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        raise ImportError(f"sympalg imported from {cli.__file__}, not from {SRC}")
    return cli


def workdir(workload: str, seed: int) -> str:
    """Input directory, relative to the checkout root (the worker's cwd)."""
    return os.path.join("bench", ".work", f"{workload}-{seed}")


def setup(workload: str, seed: int):
    cli = import_cli()
    wl = make_workload(workload, seed, workdir(workload, seed))
    write_inputs(wl)
    return cli, wl


def probe_s() -> float:
    """A fixed stdlib Fraction workload: tracks machine speed, not the code."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 4001):
        acc += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
        acc -= Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
    return time.perf_counter() - t0


SETUP_RUNS_FIRST = 4


def setup_s(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its set-up being done."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60,
    )
    return float(proc.stdout.split()[-1]) - t0


def run_job(cli, job):
    """(latency in s, exit code, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(job.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crashing job is a failed job, not a crashed benchmark
        traceback.print_exc()
        rc = "exception"
    return time.perf_counter() - t0, rc, buf.getvalue()


class Outputs:
    """Every job execution's exit code and output digest; one text per
    distinct output is kept for the checks after the timed passes."""

    def __init__(self):
        self.runs = []  # (job, rc, digest)
        self.texts = {}  # (job name, rc, digest) -> text

    def add(self, job, rc, text: str) -> str:
        d = digest(text)
        self.runs.append((job, rc, d))
        self.texts.setdefault((job.name, rc, d), text)
        return d

    def failures(self, golden) -> dict:
        """Failed executions: job name -> (count, reason)."""
        reasons = {}
        jobs = {job.name: job for job, _, _ in self.runs}
        for (name, rc, d), text in self.texts.items():
            reasons[(name, rc, d)] = check_output(jobs[name], rc, text, golden)
        failed = {}
        for job, rc, d in self.runs:
            reason = reasons[(job.name, rc, d)]
            if reason is None:
                continue
            count, _ = failed.get(job.name, (0, reason))
            failed[job.name] = (count + 1, reason)
        return failed


def more_passes(pass_times: list, seconds: float) -> bool:
    """Whether another pass ends nearer to ``seconds`` than stopping now:
    runs hold whole passes, and last as near to ``seconds`` as they can."""
    if not pass_times:
        return True
    done = sum(pass_times)
    return done + statistics.fmean(pass_times) / 2 < seconds


def run_pass(cli, order, outputs: Outputs, latencies: list):
    digests = []
    for job in order:
        dt, rc, text = run_job(cli, job)
        latencies.append(dt)
        digests.append(outputs.add(job, rc, text))
    return digests


def untraced(cli, wl, seed: int, seconds: float) -> dict:
    """Timed passes.  Between passes, outside the timed region, the machine
    probe runs and fresh interpreters are set up, so that both sample the
    machine's speed over the whole run rather than at one moment."""
    outputs = Outputs()
    latencies = []
    pass_times = []
    probes = []
    setups = []
    setup_s(wl.name, seed)  # unmeasured: writes the bytecode caches

    def gap(setup_runs: int):
        probes.append(probe_s())
        setups.extend(setup_s(wl.name, seed) for _ in range(setup_runs))

    gap(SETUP_RUNS_FIRST)
    orders = wl.pass_orders(seed)
    while more_passes(pass_times, seconds):
        t0 = time.perf_counter()
        run_pass(cli, next(orders), outputs, latencies)
        pass_times.append(time.perf_counter() - t0)
        gap(1)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "outputs": outputs,
        "latencies": latencies,
        "pass_times": pass_times,
        "probes": probes,
        "setups": setups,
        "peak_rss_mb": rss_mb,
    }


def traced(cli, wl, seed: int, seconds: float) -> dict:
    outputs = Outputs()
    plain_times, traced_times = [], []
    per_pass = []  # Tracer.totals() of each traced pass
    mismatches = []
    probes = [probe_s()]
    orders = wl.pass_orders(seed)
    pair_times = []
    while more_passes(pair_times, seconds):
        order = next(orders)
        t0 = time.perf_counter()
        plain = run_pass(cli, order, outputs, [])
        plain_times.append(time.perf_counter() - t0)
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            for job, expected in zip(order, plain):
                tracer.job += 1
                dt, rc, text = run_job(cli, job)
                if outputs.add(job, rc, text) != expected:
                    mismatches.append(job.name)
            traced_times.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        per_pass.append(tracer.totals())
        pair_times.append(plain_times[-1] + traced_times[-1])
        probes.append(probe_s())
    return {
        "outputs": outputs,
        "plain_times": plain_times,
        "traced_times": traced_times,
        "per_pass": per_pass,
        "mismatches": mismatches,
        "probes": probes,
    }


# (traced function, fields): each field is "calls", "self_s" or a counter
LAYER_FIELDS = (
    ("linalg.nullspace", ("calls", "self_s", "rows", "cols", "nnz", "vectors",
                          "dense_entries", "nonzeros", "max_coef_bits")),
    ("kernels.joint_kernel", ("calls", "self_s")),
    ("weyl.apply_op", ("calls", "self_s", "term_pairs")),
    ("weyl.compose", ("calls", "self_s", "term_pairs")),
    ("weyl.lie_closure", ("calls", "self_s", "rounds", "dim")),
    ("poly.monomial_basis", ("calls", "self_s", "monomials")),
    ("poly.parse_poly", ("self_s",)),
    ("transvector.rs_calibrate", ("self_s",)),
    ("transvector.extremal_project", ("calls", "self_s", "terms_used")),
    ("transvector.rs_apply", ("self_s",)),
    ("suites.run_suite", ("self_s",)),
    ("cli.main", ("self_s",)),
)
UNITS = {"self_s": "s", "max_coef_bits": "bits"}


def _counts_only(totals: dict) -> dict:
    return {k: (v["calls"], v["counts"]) for k, v in totals.items()}


def layer_metrics(res: dict) -> tuple:
    """Per-layer metrics per pass, and a list of problems found.  Counts come
    from the first traced pass and must repeat in every other; self times
    are averaged over the traced passes."""
    per_pass = res["per_pass"]
    first = per_pass[0]
    problems = []
    if any(_counts_only(t) != _counts_only(first) for t in per_pass[1:]):
        problems.append("counters differ between identical traced passes")

    def value(func, field):
        if field == "self_s":
            return statistics.fmean(t[func]["self_s"] for t in per_pass)
        if field == "calls":
            return first[func]["calls"]
        return first[func]["counts"].get(field, 0)

    m = {
        f"{func}.{field}": (value(func, field), UNITS.get(field, "count"))
        for func, fields in LAYER_FIELDS
        for field in fields
    }
    kept = value("kernels.joint_kernel", "vectors_kept")
    vectors = value("linalg.nullspace", "vectors")
    dense = value("linalg.nullspace", "dense_entries")
    m["kernels.vectors_kept"] = (kept, "count")
    m["suites.checks"] = (value("suites.run_suite", "checks"), "count")
    # a ratio whose base is 0 (no nullspace call) is reported as 0; its base
    # is reported beside it
    m["linalg.kept_ratio"] = (kept / vectors if vectors else 0.0, "ratio")
    m["linalg.fill_ratio"] = (value("linalg.nullspace", "nonzeros") / dense if dense else 0.0, "ratio")
    m["trace.overhead"] = (sum(res["traced_times"]) / sum(res["plain_times"]), "ratio")
    m["machine.probe_s"] = (statistics.median(res["probes"]), "s")
    return m, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != PINNED_HASH_SEED or "SYMPALG_THREADS" in os.environ:
        print("worker: start it through run.py (pinned PYTHONHASHSEED, no SYMPALG_THREADS)",
              file=sys.stderr)
        return 2
    cli, wl = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(time.monotonic()))
        return 0

    golden = load_golden()
    out = {"jobs_per_pass": len(wl.jobs)}
    if args.trace:
        res = traced(cli, wl, args.seed, args.seconds)
        metrics, problems = layer_metrics(res)
        problems += [f"traced output differs: {name}" for name in res["mismatches"]]
        out["passes"] = len(res["plain_times"])
    else:
        res = untraced(cli, wl, args.seed, args.seconds)
        lat = res["latencies"]
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        metrics = {
            "jobs_per_s": (len(lat) / sum(res["pass_times"]), "1/s"),
            "job_s.p50": (deciles[4], "s"),
            "job_s.p90": (deciles[8], "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(res["setups"]), "s"),
            "machine.probe_s": (statistics.median(res["probes"]), "s"),
        }
        problems = []
        out["passes"] = len(res["pass_times"])
        out["samples"] = len(lat)
        out["beyond_p90"] = sum(1 for x in lat if x > metrics["job_s.p90"][0])
        out["timed_s"] = sum(res["pass_times"])
        out["setup_runs"] = len(res["setups"])
    failed = res["outputs"].failures(golden)
    out["attempted"] = len(res["outputs"].runs)
    out["failed"] = sum(count for count, _ in failed.values())
    out["failures"] = {name: reason for name, (_, reason) in failed.items()}
    out["problems"] = problems
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
