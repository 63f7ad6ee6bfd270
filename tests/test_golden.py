"""Byte-identity gate: every job keyed in bench/golden.json, replayed through
``sympalg.cli.main``, must reproduce its recorded SHA-256.

The jobs, the recorded digests and the comparison (``golden_text``, which
drops the seed and the seeded ``jacobi`` suite from ``verify`` reports) are
the benchmark's own, read from ``bench/workloads.py``, so there is one copy
of the corpus.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from workloads import (  # noqa: E402
    GOLDEN,
    GOLDEN_SEEDED,
    WORKLOADS,
    digest,
    golden_text,
    load_golden,
    make_workload,
)

from sympalg.cli import EXIT_OK, main  # noqa: E402

GOLDEN_DIGESTS = load_golden()
# the algebra workload names input files under its work directory; only its
# verify jobs are golden, and they read no file
JOBS = [
    job
    for name in WORKLOADS
    for job in make_workload(name, 0, os.devnull).jobs
    if job.check in (GOLDEN, GOLDEN_SEEDED)
]


def test_every_digest_is_replayed():
    assert sorted(job.golden_key for job in JOBS) == sorted(GOLDEN_DIGESTS)


@pytest.mark.parametrize("job", JOBS, ids=lambda job: job.golden_key)
def test_output_matches_golden(capsys, job):
    code = main(list(job.argv))
    text = capsys.readouterr().out
    assert code == EXIT_OK
    assert digest(golden_text(job, text)) == GOLDEN_DIGESTS[job.golden_key]
