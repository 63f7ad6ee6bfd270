"""CLI: JSON reports, exit codes, determinism, file I/O."""

import json

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
        code, out, _ = run(capsys, "tensor", "--n", "4", "--weight", "2,1")
        data = json.loads(out)
        assert len(data["summands"]) == 12

    def test_omega_nu_mode(self, capsys):
        code, out, _ = run(
            capsys, "tensor", "--n", "4", "--weight", "2,1", "--nu", "omega"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        # the omega reading bounds d_1 by l1-l2, giving a smaller drop set
        assert 0 < len(data["summands"]) < 12

    def test_zero_denominator_weight_exits_2(self, capsys):
        code, _, err = run(capsys, "tensor", "--n", "2", "--weight", "1/0")
        assert code == EXIT_INVALID
        assert "zero denominator" in err


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
