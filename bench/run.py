"""sympalg benchmark: fixed, seeded CLI workloads measured end to end.

    python3 bench/run.py --workload {elim,zsweep,algebra} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Each workload runs in one fresh interpreter (``worker.py``) with
``PYTHONHASHSEED`` pinned and ``SYMPALG_THREADS`` removed, as a closed loop
with one client that calls ``sympalg.cli.main(argv)`` in-process.  Set-up
time is the median over fresh interpreters started between the passes, from
process start to ``sympalg.cli`` imported and the inputs written.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Every line but the last is for people; the last
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when a result was printed, 2 otherwise.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from worker import PINNED_HASH_SEED, SRC, workdir  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# every run, the first of a fresh checkout included, ends within 180 s
DEADLINE_S = 170.0

END_TO_END = ("jobs_per_s", "job_s.p50", "job_s.p90", "peak_rss_mb", "setup_s")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SYMPALG_THREADS", None)
    env["PYTHONHASHSEED"] = PINNED_HASH_SEED
    return env


def run_worker(args: list, timeout: float) -> str:
    """Run worker.py to completion; its stdout, or BenchError."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            env=worker_env(),
            stdout=subprocess.PIPE,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return proc.stdout


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "sympalg", "*.py"))):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "PYTHONHASHSEED": PINNED_HASH_SEED,
    }


def report(args, raw: dict) -> dict:
    shown = raw["metrics"]
    metrics = shown if args.trace else {k: shown[k] for k in END_TO_END}
    print(f"env {json.dumps(environment(args), sort_keys=True)}")
    if args.trace:
        default = "per pass"
        notes = {
            "linalg.kept_ratio": "base linalg.nullspace.vectors",
            "linalg.fill_ratio": "base linalg.nullspace.dense_entries",
            "trace.overhead": f"untraced/traced jobs_per_s over {raw['passes']} pass pairs",
        }
    else:
        default = ""
        n = raw["samples"]
        notes = {
            "jobs_per_s": f"{n} jobs in {raw['passes']} passes of {raw['jobs_per_pass']}, "
            f"{raw['timed_s']:.1f} s",
            "job_s.p50": f"n={n}",
            "job_s.p90": f"n={n}, {raw['beyond_p90']} beyond",
            "setup_s": f"median of {raw['setup_runs']} fresh interpreters",
        }
    notes["machine.probe_s"] = "not gated: the machine's speed between passes"
    for name, m in shown.items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']:6s} {notes.get(name, default)}")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"{'error_rate':36s} {failed / attempted:>14.6g} ratio  {failed} of {attempted} jobs")
    for name, reason in sorted(raw["failures"].items()):
        print(f"FAILED {name}: {reason}")
    for problem in raw["problems"]:
        print(f"PROBLEM {problem}")
    return {
        "correct": failed == 0 and not raw["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "sympalg", "cli.py")):
        print(f"error: no sympalg package under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, workdir(args.workload, args.seed))
    try:
        worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
        raw = json.loads(run_worker(worker_args, DEADLINE_S).splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report(args, raw), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
