"""CLI fuzz: every argv drawn for every subcommand ends in exit 0, 1 or 2.

Flag values are small numbers, the flags' own choices and the ``--input``
files; then one word may become a junk string (no decimal digits, no leading
dash, so junk never names a huge request or another flag), one required flag
may go missing, or a junk word may trail.  Sizes stay at n <= 3, degrees <= 3 and zMax <= 2, since
nothing refuses a huge request up front yet; ``rs-calibrate`` keeps k <= 2,
its k=3, n=3 sweep alone taking seconds.  The examples run inside a scratch
directory holding the ``--input`` files, so ``--output`` writes there too.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sympalg.cli import EXIT_INVALID, EXIT_OK, EXIT_VERIFY_FAILED, main  # noqa: E402
from sympalg.suites import SUITES  # noqa: E402

EXIT_CODES = {EXIT_OK, EXIT_VERIFY_FAILED, EXIT_INVALID}

INPUTS = {
    "hom.txt": "x1.1*x2.1 - y1.1*x2.1",
    "mixed.txt": "x1.1 + x2.1^2*z1",
    "poly.json": '{"poly": []}',
    "bad.txt": "x1.1**",
    "empty.txt": "",
}

junk = st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=5).filter(
    lambda s: not s.startswith("-")
)


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def comma_lists(min_size=1):
    lists = st.lists(st.integers(-1, 3), min_size=min_size, max_size=3)
    return lists.filter(lambda ds: sum(map(abs, ds)) <= 3).map(
        lambda ds: ",".join(map(str, ds))
    )


rank = ints(-1, 3)
files = st.sampled_from(sorted(INPUTS) + ["missing.txt"])
rationals = st.sampled_from(["0", "1", "-2", "-1/2", "3/2", "1/0"])

# subcommand -> (required flags, optional flags); a flag maps to the strategy
# for its value, or to None for a switch
FLAGS = {
    "dim": ({"--n": rank, "--weight": comma_lists(0)}, {}),
    "kernel": (
        {
            "--kind": st.sampled_from(
                ["symplectic-harmonic", "symplectic-monogenic", "orthogonal-harmonic"]
            ),
            "--n": rank,
            "--degrees": comma_lists(),
        },
        {"--zmax": ints(-1, 2), "--basis": None},
    ),
    "verify": (
        {"--suite": st.sampled_from(sorted(SUITES) + ["jacobi", "all"]), "--n": rank},
        {"--N": rank, "--seed": ints(-1, 3)},
    ),
    "tensor": (
        {"--n": rank, "--weight": comma_lists(0)},
        {
            "--with": st.just("spinor"),
            "--cartan-only": None,
        },
    ),
    "project": ({"--n": rank, "--input": files}, {"--triple": st.just("sl2-u")}),
    "rs-apply": (
        {"--k": ints(-1, 3), "--n": rank, "--input": files},
        {"--denominator": st.just("auto") | rationals},
    ),
    "rs-calibrate": (
        {"--k": ints(-1, 2), "--n": rank, "--zmax": ints(-1, 2)},
        {"--candidates": st.lists(rationals, max_size=3).map(",".join), "--strict": None},
    ),
}
COMMON = {"--pretty": None, "--output": st.just("out.json")}


@st.composite
def argvs(draw):
    """A well-formed argv, then at most one word of it replaced by junk, or
    one required flag dropped, or one junk word appended."""
    cmd = draw(st.sampled_from(sorted(FLAGS)))
    required, optional = FLAGS[cmd]
    argv = [cmd]
    for flag, values in required.items():
        argv += [flag, draw(values)]
    for flag, values in {**optional, **COMMON}.items():
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    defect = draw(st.sampled_from(["none", "replace", "drop", "append"]))
    if defect == "replace":
        argv[draw(st.integers(0, len(argv) - 1))] = draw(junk)
    elif defect == "drop":
        i = 1 + 2 * draw(st.integers(0, len(required) - 1))
        del argv[i : i + 2]
    elif defect == "append":
        argv.append(draw(junk))
    return argv


@pytest.fixture
def inputs_dir(tmp_path, monkeypatch):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


# the directory is the same for every example: its files are only read
@settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=argvs())
def test_exit_code_contract(inputs_dir, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    assert code in EXIT_CODES, argv
