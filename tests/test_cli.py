"""CLI: JSON reports, exit codes, determinism, file I/O."""

import hashlib
import json
import time

import pytest

from sympalg.cli import EXIT_INVALID, EXIT_OK, EXIT_VERIFY_FAILED, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDim:
    def test_counterexample_dimension(self, capsys):
        code, out, _ = run(capsys, "dim", "--n", "4", "--weight", "2,1")
        assert code == EXIT_OK
        assert json.loads(out)["dimension"] == 160

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "dim", "--n", "2", "--weight", "0,0")
        assert code == EXIT_OK
        assert json.loads(out)["dimension"] == 1

    def test_not_dominant_exits_2(self, capsys):
        code, _, err = run(capsys, "dim", "--n", "4", "--weight", "1,2")
        assert code == EXIT_INVALID
        assert "not dominant" in err

    def test_zero_denominator_weight_exits_2(self, capsys):
        code, _, err = run(capsys, "dim", "--n", "2", "--weight", "1/0")
        assert code == EXIT_INVALID
        assert "zero denominator" in err

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "dim", "--n", "4", "--weight", "2,1")
        _, out2, _ = run(capsys, "dim", "--n", "4", "--weight", "2,1")
        assert out1 == out2


class TestKernel:
    def test_symplectic_harmonic(self, capsys):
        code, out, _ = run(
            capsys, "kernel", "--kind", "symplectic-harmonic", "--n", "4",
            "--degrees", "2,1",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["kernelDim"] == 160
        assert data["ambientDim"] == 288
        assert "vectors" not in data  # bases only on --basis

    def test_orthogonal_harmonic(self, capsys):
        code, out, _ = run(
            capsys, "kernel", "--kind", "orthogonal-harmonic", "--n", "3",
            "--degrees", "2",
        )
        assert code == EXIT_OK
        assert json.loads(out)["kernelDim"] == 5

    def test_monogenic_per_z(self, capsys):
        code, out, _ = run(
            capsys, "kernel", "--kind", "symplectic-monogenic", "--n", "1",
            "--degrees", "0", "--zmax", "2",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["perZDegreeDims"] == {"0": 1, "1": 1, "2": 1}
        assert data["truncationStable"] is True

    def test_basis_flag(self, capsys):
        code, out, _ = run(
            capsys, "kernel", "--kind", "orthogonal-harmonic", "--n", "2",
            "--degrees", "2", "--basis",
        )
        data = json.loads(out)
        assert len(data["vectors"]) == data["kernelDim"]

    def test_monogenic_requires_zmax(self, capsys):
        code, _, err = run(
            capsys, "kernel", "--kind", "symplectic-monogenic", "--n", "1",
            "--degrees", "0",
        )
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_rank_below_one_exits_2(self, capsys, n):
        code, out, err = run(
            capsys, "kernel", "--kind", "symplectic-harmonic", "--n", n,
            "--degrees", "1",
        )
        assert code == EXIT_INVALID
        assert out == ""
        assert f"need rank n >= 1 and copies N >= 1, got n={n}, N=1" in err
        assert "stable range" not in err

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (("symplectic-monogenic", "--n", "1", "--degrees", "1,1", "--zmax", "1"),
             "exceeds the stable range"),
            (("symplectic-harmonic", "--n", "3", "--degrees", "1,2"),
             "not weakly decreasing"),
        ],
        ids=["wide", "increasing"],
    )
    def test_non_model_exits_2(self, capsys, argv, reason):
        # a model is refused outright; no library-only override is suggested
        code, out, err = run(capsys, "kernel", "--kind", *argv)
        assert code == EXIT_INVALID
        assert out == ""
        assert reason in err
        assert "allow_" not in err

    def test_basis_flag_on_symplectic_harmonic(self, capsys):
        # the full elimination with --basis, the dominant weights without it
        argv = ("kernel", "--kind", "symplectic-harmonic", "--n", "3", "--degrees", "2,1")
        _, out, _ = run(capsys, *argv)
        _, full, _ = run(capsys, *argv, "--basis")
        data, full = json.loads(out), json.loads(full)
        assert len(full.pop("vectors")) == full["kernelDim"] == 64
        assert data == full

    @pytest.mark.parametrize("kind", ["symplectic-harmonic", "orthogonal-harmonic"])
    def test_zmax_refused_where_unused(self, capsys, kind):
        code, out, err = run(
            capsys, "kernel", "--kind", kind, "--n", "2", "--degrees", "1",
            "--zmax", "7",
        )
        assert code == EXIT_INVALID
        assert out == ""
        assert "--zmax applies only to symplectic-monogenic" in err


class TestVerify:
    def test_so5(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "so5", "--n", "2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["passed"] is True
        detail = next(
            c["detail"]
            for c in data["suites"][0]["checks"]
            if "closure" in c["name"]
        )
        assert "10" in detail

    def test_sp_invariance(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "sp-invariance", "--n", "2")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_parafermion_smallest(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "parafermion", "--n", "1", "--N", "1"
        )
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nope", "--n", "1")
        assert code == EXIT_INVALID

    def test_parafermion_zero_copies_exits_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "--suite", "parafermion", "--n", "2", "--N", "0"
        )
        assert code == EXIT_INVALID
        assert "N >= 1" in err

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        from sympalg import suites

        def broken(n, N):
            rep = suites.SuiteReport("so5", {"n": n})
            rep.note("forced failure", False, "injected by test")
            return rep

        monkeypatch.setitem(suites.SUITES, "so5", broken)
        code, out, _ = run(capsys, "verify", "--suite", "so5", "--n", "1")
        assert code == EXIT_VERIFY_FAILED
        assert json.loads(out)["passed"] is False


class TestTensor:
    def test_cartan_only(self, capsys):
        code, out, _ = run(
            capsys, "tensor", "--n", "4", "--weight", "2,1", "--with", "spinor",
            "--cartan-only",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["cartanProduct"][0]["coords"] == ["3/2", "1/2", "-1/2", "-1/2"]
        assert data["cartanProduct"][1]["coords"] == ["3/2", "1/2", "-1/2", "-3/2"]
        assert "summands" not in data

    def test_full_decomposition(self, capsys):
        # (l1 - l2 + 1)(l2 + 1)(l3 + 1)(2 l4 + 2) = 2 * 2 * 1 * 2 summands
        code, out, _ = run(capsys, "tensor", "--n", "4", "--weight", "2,1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data["summands"]) == 8
        assert "nu" not in data["config"]

    def test_nu_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tensor", "--n", "4", "--weight", "2,1", "--nu", "omega"])
        assert exc.value.code == EXIT_INVALID
        assert "unrecognized arguments: --nu omega" in capsys.readouterr().err

    def test_rank_two_singular_vectors(self, capsys):
        code, out, _ = run(capsys, "tensor", "--n", "2", "--weight", "1,0")
        assert code == EXIT_OK
        listed = [
            (s["weight"]["coords"], s["parity"]) for s in json.loads(out)["summands"]
        ]
        assert (["-1/2", "-1/2"], "odd") in listed
        assert all(coords != ["-1/2", "-5/2"] for coords, _ in listed)

    def test_large_weight_is_quick(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "tensor", "--n", "6", "--weight", "6,6,6,6,6,6")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK
        assert len(json.loads(out)["summands"]) == 14

    def test_zero_denominator_weight_exits_2(self, capsys):
        code, _, err = run(capsys, "tensor", "--n", "2", "--weight", "1/0")
        assert code == EXIT_INVALID
        assert "zero denominator" in err

    def test_not_dominant_exits_2(self, capsys):
        code, out, err = run(capsys, "tensor", "--n", "2", "--weight", "1,2")
        assert code == EXIT_INVALID
        assert out == ""
        assert err == "error: (1, 2) is not dominant integral\n"


class TestProjectAndRs:
    def test_project_fixes_kernel_input(self, capsys, tmp_path):
        # x2.1 is annihilated by X = D_s,u
        path = tmp_path / "f.txt"
        path.write_text("x2.1")
        code, out, _ = run(
            capsys, "project", "--triple", "sl2-u", "--n", "2", "--input", str(path)
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["termsUsed"] == 0
        assert data["output"] == [{"coef": "1", "exps": {"x2.1": 1}}]

    def test_project_json_input(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps([{"coef": "1", "exps": {"x2.1": 1}}]))
        code, out, _ = run(
            capsys, "project", "--triple", "sl2-u", "--n", "2", "--input", str(path)
        )
        assert code == EXIT_OK

    def test_rs_apply_k0(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("x1.1*y1.2 + z1^2")
        code, out, _ = run(
            capsys, "rs-apply", "--k", "0", "--n", "2", "--input", str(path)
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["result"]  # D_s,x f is nonzero here

    def test_rs_calibrate_reports_default_value(self, capsys):
        code, out, _ = run(capsys, "rs-calibrate", "--k", "1", "--n", "2", "--zmax", "3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["workingDenominators"] == ["4"]
        assert data["defaultDenominatorWorks"] is False

    def test_rs_calibrate_outside_stable_range(self, capsys):
        # its (ell, k) components are no models (N=2 > n=1, ell < k), which
        # is neither refused nor warned about
        code, out, err = run(capsys, "rs-calibrate", "--k", "1", "--n", "1", "--zmax", "2")
        assert code == EXIT_OK
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f4b98c2d5c2a100a2c86b820714b3501481a097eeda03c128e6a97f49a7a6b58"
        )

    def test_rs_calibrate_custom_candidates(self, capsys):
        code, out, _ = run(
            capsys, "rs-calibrate", "--k", "1", "--n", "2", "--zmax", "2",
            "--candidates", "4,5",
        )
        data = json.loads(out)
        assert data["workingDenominators"] == ["4"]

    def test_zero_denominator_coef_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps([{"coef": "1/0", "exps": {"x2.1": 1}}]))
        code, _, err = run(capsys, "project", "--n", "2", "--input", str(path))
        assert code == EXIT_INVALID
        assert "bad polynomial JSON entry" in err

    def test_float_coef_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps([{"coef": 0.1, "exps": {"x2.1": 1}}]))
        code, _, err = run(capsys, "project", "--n", "2", "--input", str(path))
        assert code == EXIT_INVALID
        assert "bad polynomial JSON entry" in err

    def test_empty_candidates_exits_2(self, capsys):
        code, _, err = run(
            capsys, "rs-calibrate", "--k", "1", "--n", "2", "--zmax", "2",
            "--candidates", "",
        )
        assert code == EXIT_INVALID
        assert "bad candidate list" in err

    def test_exps_list_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps([{"coef": "1", "exps": ["x2.1"]}]))
        code, _, err = run(capsys, "project", "--n", "2", "--input", str(path))
        assert code == EXIT_INVALID
        assert '"exps"' in err

    def test_rs_apply_zero_denominator_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("x2.1")
        code, _, err = run(
            capsys, "rs-apply", "--k", "1", "--n", "2", "--input", str(path),
            "--denominator", "1/0",
        )
        assert code == EXIT_INVALID
        assert "bad denominator" in err

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["rs-apply", "--k", "0", "--n", "2", "--input", "f.txt"], "--denominator", "-1/2"),
            (["rs-calibrate", "--k", "1", "--n", "2", "--zmax", "2"], "--candidates", "-1/2,3"),
        ],
        ids=["rs-apply", "rs-calibrate"],
    )
    def test_negative_rational_value(self, capsys, tmp_path, monkeypatch, argv, flag, value):
        # argparse alone reads -1/2 as an option, not as the flag's value
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.txt").write_text("x1.1*y1.2 + z1^2")
        spaced = argv + [flag, value]
        code = main(spaced)
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_OK, "")
        assert spaced == argv + [flag, value]  # the caller's list is not rewritten
        assert json.loads(out)["config"][flag[2:]] == value
        assert run(capsys, *argv, f"{flag}={value}") == (code, out, err)

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("[" * 5000 + "]" * 5000)
        code, _, err = run(capsys, "project", "--n", "2", "--input", str(path))
        assert code == EXIT_INVALID
        assert "nested too deeply" in err

    def test_missing_input_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "project", "--triple", "sl2-u", "--n", "2", "--input", "/nonexistent"
        )
        assert code == EXIT_INVALID


MALFORMED_POLYS = {
    "zero-denominator": "3/0*x1.1",
    "signed-zero-denominator": "-1/0",
    "open-bracket": "[",
    "poly-not-a-list": '{"poly": 5}',
    "float-coef": '[{"coef": 1.5}]',
    "double-star": "x1.1 ** 2",
    "derivative-factor": "dx1.1",
    "index-zero": "z0",
    "empty": "",
}
POLY_COMMANDS = {"project": ["project"], "rs-apply": ["rs-apply", "--k", "1"]}
BAD_FLAGS = {
    "project-n-zero": ["project", "--n", "0"],
    "project-n-negative": ["project", "--n", "-1"],
    "project-n-not-int": ["project", "--n", "x"],
    "rs-apply-n-zero": ["rs-apply", "--k", "1", "--n", "0"],
    "rs-apply-k-negative": ["rs-apply", "--k", "-1", "--n", "2"],
    "rs-apply-k-zero-denominator": ["rs-apply", "--k", "-4", "--n", "2"],  # k+n+2 = 0
    "rs-apply-k-not-int": ["rs-apply", "--k", "1.5", "--n", "2"],
    "rs-apply-denominator-zero": ["rs-apply", "--k", "1", "--n", "2", "--denominator", "0"],
    "rs-apply-denominator-text": ["rs-apply", "--k", "1", "--n", "2", "--denominator", "x"],
}
RANK_FLAGS = ["project-n-zero", "project-n-negative", "rs-apply-n-zero"]


class TestMalformedInput:
    """Malformed polynomial files and numeric flags exit 2 with one error
    line; no exception escapes main.  argparse rejects a flag that is not a
    number itself, with the same exit code."""

    @staticmethod
    def assert_invalid(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage error
            code = exc.code
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert "Traceback" not in err
        line = err.strip().splitlines()[-1]
        assert "error: " in line
        return line

    @pytest.mark.parametrize("command", sorted(POLY_COMMANDS))
    @pytest.mark.parametrize("text", MALFORMED_POLYS.values(), ids=list(MALFORMED_POLYS))
    def test_malformed_polynomial_file(self, capsys, tmp_path, command, text):
        path = tmp_path / "f.txt"
        path.write_text(text)
        argv = POLY_COMMANDS[command] + ["--n", "2", "--input", str(path)]
        self.assert_invalid(capsys, argv)

    @pytest.mark.parametrize("command", sorted(POLY_COMMANDS))
    def test_missing_file(self, capsys, tmp_path, command):
        argv = POLY_COMMANDS[command] + ["--n", "2", "--input", str(tmp_path / "none.txt")]
        self.assert_invalid(capsys, argv)

    @pytest.mark.parametrize("name", list(BAD_FLAGS))
    def test_bad_numeric_flag(self, capsys, tmp_path, name):
        path = tmp_path / "f.txt"
        path.write_text("x2.1")
        err = self.assert_invalid(capsys, BAD_FLAGS[name] + ["--input", str(path)])
        if name in RANK_FLAGS:
            # x2.1 lies outside every n < 1 universe: blame the flag, not the file
            assert "--n" in err


class TestOutputFile:
    def test_output_written(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "dim", "--n", "3", "--weight", "1", "--output", str(out_path)
        )
        assert code == EXIT_OK
        assert json.loads(out_path.read_text()) == json.loads(out)

    def test_pretty_is_valid_json(self, capsys):
        _, out, _ = run(capsys, "dim", "--n", "3", "--weight", "1", "--pretty")
        assert json.loads(out)["dimension"] == 6

    def test_config_echoed(self, capsys):
        _, out, _ = run(capsys, "dim", "--n", "3", "--weight", "1")
        data = json.loads(out)
        assert data["config"] == {"command": "dim", "n": 3, "weight": "1"}
