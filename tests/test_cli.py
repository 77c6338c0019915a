import json
import math
import subprocess
import sys

import numpy as np
import pytest

from weaklight.cli import execute, parse

PI = math.pi


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "weaklight.cli", *args],
                          capture_output=True, cwd=cwd)


class TestParse:
    def test_contour_plan(self):
        plan = parse(["contour", "--omega", "0.5:1.5:101",
                      "--beta", "0:3.14159265:181", "-o", "fig1.csv"])
        assert plan.subcommand == "contour"
        assert plan.omega_grid.size == 101
        assert plan.beta_grid.size == 181
        assert plan.output == "fig1.csv"
        assert plan.fmt == "csv"

    def test_stdout_default(self):
        plan = parse(["angle-sweep", "--omega", "1.0", "--beta", "0:1.5708:181"])
        assert plan.output is None

    def test_defaults(self):
        plan = parse(["singularities"])
        assert plan.omega_interval == (0.5, 1.5)
        assert plan.beta_interval == (0.0, PI)
        assert plan.scan == 101 and plan.tol == 1e-10
        assert plan.pair.psi_in.a1 == 1.0 + 0.0j

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(["estimate-beta", "--tau", "54.86", "--bracket", "0.6:0.78"])
        assert exc.value.code == 2
        assert "--omega" in capsys.readouterr().err

    def test_degrees_conversion(self):
        plan = parse(["angle-sweep", "--degrees", "--beta", "0:90:91",
                      "--psi-in", "45"])
        assert plan.beta_grid[-1] == pytest.approx(PI / 2, abs=1e-12)
        assert plan.pair.psi_in.a1.real == pytest.approx(math.cos(PI / 4),
                                                         abs=1e-15)

    def test_config_merge_and_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"omega": "0.5:1.5:11", "psi-in": "D45",
                                   "tau-te": 31.0}), encoding="utf-8")
        plan = parse(["contour", "--config", str(cfg), "--omega", "0.5:1.5:21"])
        assert plan.omega_grid.size == 21      # flag wins
        assert plan.model.tau_te == 31.0       # config fills
        assert plan.pair.psi_in.a2.real == pytest.approx(math.sin(PI / 4),
                                                         abs=1e-15)

    def test_tabulated_model(self, tmp_path):
        csv = tmp_path / "disp.csv"
        csv.write_text("omega,phi_te,phi_tm\n0,0,0\n2,4,2\n", encoding="utf-8")
        plan = parse(["spectrum", "--dispersion-csv", str(csv),
                      "--omega", "0.2:1.8:41", "--beta", "0"])
        assert plan.model.omega_samples.size == 2

    def test_missing_dispersion_csv_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            parse(["spectrum", "--dispersion-csv", str(tmp_path / "no.csv")])
        assert exc.value.code == 1

    def test_pulse_format_locked_to_json(self):
        with pytest.raises(SystemExit) as exc:
            parse(["pulse", "--format", "csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sub", ["contour", "spectrum", "angle-sweep", "singularities"])
    def test_json_rejected_for_csv_only_subcommands(self, sub, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": "json"}), encoding="utf-8")
        for argv in ([sub, "--format", "json"], [sub, "--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"{sub} output is csv only" in err
            assert "pulse and estimate-beta" in err

    def test_json_accepted_where_supported(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": "json", "omega": 1, "tau": 54.86,
                                   "bracket": "0.6:0.78"}), encoding="utf-8")
        assert parse(["estimate-beta", "--config", str(cfg)]).fmt == "json"
        assert parse(["pulse", "--format", "json"]).fmt == "json"
        assert parse(["contour", "--format", "csv"]).fmt == "csv"


class TestExecute:
    def test_contour_row_count(self, tmp_path):
        out = tmp_path / "grid.csv"
        plan = parse(["contour", "--omega", "0.5:1.5:11", "--beta", "0:3.14:7",
                      "-o", str(out)])
        assert execute(plan) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# weaklight contour ")
        assert lines[1] == "omega,beta,re_t,im_t,abs_t,arg_t,group_delay,singular"
        assert len(lines) == 2 + 11 * 7

    def test_singular_sample_serialization(self, tmp_path):
        out = tmp_path / "sweep.csv"
        plan = parse(["angle-sweep", "--omega", "1.0",
                      "--beta", "0:1.5707963267948966:5", "-o", str(out)])
        assert execute(plan) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[2:]
        singular_rows = [r for r in rows if r.endswith(",true")]
        assert len(singular_rows) == 1
        fields = singular_rows[0].split(",")
        assert fields[6] == ""       # empty group_delay
        assert float(fields[1]) == pytest.approx(PI / 4, abs=1e-12)

    def test_singularities_two_rows(self, tmp_path):
        out = tmp_path / "sing.csv"
        plan = parse(["singularities", "-o", str(out)])
        assert execute(plan) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "omega,beta,residual_abs_t"
        assert len(lines) == 4
        first = lines[2].split(",")
        second = lines[3].split(",")
        assert float(first[0]) == pytest.approx(1.0, abs=1e-6)
        assert float(first[1]) == pytest.approx(0.7853981633974483, abs=1e-6)
        assert float(second[1]) == pytest.approx(2.356194490192345, abs=1e-6)

    def test_estimate_beta_output(self, tmp_path):
        out = tmp_path / "beta.csv"
        plan = parse(["estimate-beta", "--omega", "1", "--tau", "54.86",
                      "--bracket", "0.6:0.78", "-o", str(out)])
        assert execute(plan) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "beta"
        assert float(lines[2]) == pytest.approx(0.24 * PI, abs=1e-3)

    def test_bad_bracket_exits_2(self, tmp_path):
        plan = parse(["estimate-beta", "--omega", "1", "--tau", "54.86",
                      "--bracket", "0.6:0.95", "-o", str(tmp_path / "x.csv")])
        assert execute(plan) == 2

    def test_unwritable_output_exits_1(self, tmp_path):
        plan = parse(["singularities", "-o", str(tmp_path / "absent" / "x.csv")])
        assert execute(plan) == 1

    def test_spectrum_uses_unwrapped_phase(self, tmp_path):
        out = tmp_path / "spec.csv"
        plan = parse(["spectrum", "--beta", "0", "--omega", "0.1:0.9:81",
                      "-o", str(out)])
        assert execute(plan) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[2:]
        last = rows[-1].split(",")
        # unwrapped phase climbs to 10*pi*0.9, far beyond the wrapped branch
        assert float(last[5]) == pytest.approx(9 * PI, abs=1e-9)
        assert float(last[6]) == pytest.approx(10 * PI, abs=1e-9)


    def test_undersampled_spectrum_warns_once(self, capsys):
        # steps of 0.1 advance the TE phase by exactly pi per sample
        plan = parse(["spectrum", "--omega", "0.1:0.9:9"])
        assert execute(plan) == 0
        out, err = capsys.readouterr()
        assert err.count("warning") == 1 and "--omega" in err
        assert out.startswith("# weaklight spectrum ") and len(out.splitlines()) == 11

    def test_resolved_spectrum_is_silent(self, capsys):
        assert execute(parse(["spectrum"])) == 0
        assert capsys.readouterr().err == ""

    def test_failed_sweep_writes_no_file(self, tmp_path):
        csv = tmp_path / "disp.csv"
        csv.write_text("omega,phi_te,phi_tm\n0,0,0\n2,4,2\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        null = parse(["spectrum", "--psi-f", "H", "-o", str(out)])
        assert execute(null) == 3
        outside = parse(["contour", "--dispersion-csv", str(csv),
                         "--omega", "1:3:5", "-o", str(out)])
        assert execute(outside) == 2
        assert not out.exists()


class TestProcessLevel:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["contour", "--omega", "0.8:1.2:21", "--beta", "0:3.14159:31"]
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
        assert len(a.stdout) > 1000

    def test_header_self_reproduces(self, tmp_path):
        out1 = tmp_path / "a.csv"
        first = run_cli("angle-sweep", "--omega", "1.0", "--beta", "0:1.5708:11",
                        "--psi-in", "D45", "-o", str(out1))
        assert first.returncode == 0
        header = out1.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("# weaklight ")
        tokens = header[len("# weaklight "):].split()
        second = run_cli(*tokens)
        assert second.returncode == 0
        assert second.stdout.decode("utf-8") == out1.read_text(encoding="utf-8")

    def test_unknown_flag_exits_2(self):
        out = run_cli("contour", "--omeega", "0:1:5")
        assert out.returncode == 2

    def test_null_postselection_exits_3(self):
        out = run_cli("spectrum", "--beta", "0", "--psi-in", "V", "--psi-f", "H")
        assert out.returncode == 3
        assert b"null" in out.stderr

    def test_null_in_bracket_names_beta_as_float(self):
        out = run_cli("estimate-beta", "--omega", "1", "--tau", "40",
                      "--bracket", "0.7543981633974483:0.8173981633974483")
        assert out.returncode == 2
        assert b"beta=0.7853981633974483" in out.stderr
        assert b"np.float64" not in out.stderr

    def test_pulse_json(self, tmp_path):
        out = tmp_path / "pulse.json"
        res = run_cli("pulse", "--samples", "512", "--span", "0.64",
                      "--sigma-omega", "0.01", "--beta", "0.39269908169872414",
                      "-o", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["grid"]["samples"] == 512
        assert doc["report"]["energy_transmission"] == pytest.approx(0.5, rel=0.03)
        assert len(doc["times"]) == 512
        assert len(doc["input_intensity"]) == 512
        assert doc["command"].startswith("weaklight pulse ")

    def test_pulse_singular_carrier_reports_null_delay(self, tmp_path):
        out = tmp_path / "pulse.json"
        res = run_cli("pulse", "--samples", "512",
                      "--beta", "0.7853981633974483", "-o", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["report"]["predicted_group_delay"] is None
