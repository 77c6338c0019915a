import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import test_golden

from weaklight import cli
from weaklight.cli import execute, main, parse

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

    def test_overflowing_dispersion_csv_exits_1(self, tmp_path, capsys):
        # finite samples whose interpolant overflows are refused as a NaN row is
        csv = tmp_path / "disp.csv"
        csv.write_text("omega,phi_te,phi_tm\n0.1,1,0\n0.2,1e308,0\n0.3,-1e308,0\n",
                       encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            parse(["contour", "--dispersion-csv", str(csv), "--omega", "0.1:0.3:3"])
        assert exc.value.code == 1
        assert capsys.readouterr().err \
            == "weaklight: i/o error: phi_te_samples must give a finite interpolant\n"

    @pytest.mark.parametrize("argv", [["bogus"], [], ["--help"], ["-h", "pulse"]])
    def test_top_level_messages_name_every_subcommand(self, argv, capsys):
        # only a run that names its subcommand first builds that subparser alone
        names = ("contour", "spectrum", "angle-sweep", "pulse", "singularities",
                 "estimate-beta")
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out = capsys.readouterr()
        assert (out.out + out.err).startswith("usage: weaklight [-h] SUBCOMMAND ...\n")
        if argv == ["bogus"]:
            choices = ", ".join(f"'{name}'" for name in names)
            assert exc.value.code == 2
            assert f"invalid choice: 'bogus' (choose from {choices})" in out.err
        elif not argv:
            assert exc.value.code == 2
            assert "the following arguments are required: SUBCOMMAND" in out.err
        else:
            assert exc.value.code == 0
            assert all(f"\n    {name}" in out.out for name in names)

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

    @pytest.mark.parametrize("sub, key", [("pulse", "span"), ("contour", "tau-te"),
                                          ("estimate-beta", "omega")])
    def test_config_null_number_is_usage_error(self, sub, key, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        doc = {key: None}
        if sub == "estimate-beta":
            doc.update(tau=54.86, bracket="0.6:0.78")
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            parse([sub, "--config", str(cfg)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"weaklight: error: --{key} expects a number, got None"

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

    @pytest.mark.parametrize("psi_in, psi_f", [("V", "H"), ("D45", "A135")])
    def test_crossed_singularities_exit_3(self, psi_in, psi_f, tmp_path, capsys):
        # crossed pairs have lines of zeros, not points: no file, a note on stderr
        out = tmp_path / "sing.csv"
        plan = parse(["singularities", "--omega", "0.5:2.5",
                      "--beta", f"0.05:{PI - 0.05!r}", "--psi-in", psi_in,
                      "--psi-f", psi_f, "-o", str(out)])
        assert execute(plan) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("weaklight: null postselection: ") and "lines" in err

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

    @pytest.mark.parametrize("argv, omega", [
        (["contour", "--omega", "1e307:1e308:3"], "1e+307"),
        (["spectrum", "--omega", "1e307:1e308:3"], "1e+307"),
        (["angle-sweep", "--omega", "1e308"], "1e+308"),
        (["estimate-beta", "--omega", "1e308", "--tau", "54.86", "--bracket", "0.6:0.78"],
         "1e+308"),
        (["singularities", "--omega", "1e306:1e308"], "5.95e+306"),
    ])
    def test_overflowing_phase_exits_2(self, argv, omega, tmp_path, capsys):
        # the cos/sin tables would turn an infinite phase into NaN rows
        out = tmp_path / "out.csv"
        assert execute(parse(argv + ["-o", str(out)])) == 2
        err = capsys.readouterr().err
        assert err == f"weaklight: error: phase is not finite at omega {omega}\n"
        assert not out.exists()

    def test_failed_pulse_writes_no_file(self, tmp_path, capsys):
        # the JSON document is streamed, but the pulse runs before the output opens
        out = tmp_path / "out.json"
        wide = parse(["pulse", "--span", "0.64", "--sigma-omega", "0.06", "-o", str(out)])
        assert execute(wide) == 2
        assert "12-sigma rule" in capsys.readouterr().err
        assert not out.exists()

    def test_pulse_on_singular_carrier_writes_null(self, tmp_path):
        # in process, so the formatter's null branch runs under the tests: the
        # carrier sits on the beta = pi/4 zero, where no group delay exists
        out = tmp_path / "pulse.json"
        assert main(["pulse", "--samples", "256", "--beta", "0.7853981633974483",
                     "-o", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert '"predicted_group_delay": null' in text
        report = json.loads(text)["report"]
        assert report["predicted_group_delay"] is None
        assert math.isfinite(report["peak_shift"]) and math.isfinite(report["centroid_shift"])
        # the fast-light caveat: the peak moves early while the centroid moves late
        assert report["peak_shift"] < 0.0 < report["centroid_shift"]


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

    def test_runs_without_scipy(self):
        # numpy is the only runtime dependency; scipy serves the tests alone
        code = ("import sys, weaklight, weaklight.cli\n"
                "model = weaklight.load_tabulated('tests/golden/disp.csv')\n"
                "weaklight.group_delay(model, 0.9, 0.5, weaklight.selection('V', 'V'))\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             cwd=Path(__file__).resolve().parent.parent)
        assert out.returncode == 0, out.stderr
        assert out.stdout == b"[]\n"

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


# Contract of the command line, recorded from the implementation with one
# resolver method per flag kind: a usage error exits 2 with exactly this last
# stderr line, whether the bad value comes from argv or from --config.
USAGE_ERRORS = [
    (["angle-sweep", "--omega", "x"], None, "--omega expects a number, got 'x'"),
    (["pulse", "--span", "inf"], None, "--span must be finite, got 'inf'"),
    (["pulse", "--omega=nan"], None, "--omega must be finite, got 'nan'"),
    (["contour", "--tau-te", "nan"], None, "--tau-te must be finite, got 'nan'"),
    (["spectrum", "--degrees", "--beta=-inf"], None, "--beta must be finite, got '-inf'"),
    (["contour", "--omega", "0.5:1.5"], None, "--omega expects lo:hi:count, got '0.5:1.5'"),
    (["contour", "--omega", "0.5:1.5:x"], None, "--omega expects an integer, got 'x'"),
    (["angle-sweep", "--beta", "0:x:5"], None, "--beta expects a number, got 'x'"),
    (["contour", "--beta", "0:1:1"], None, "--beta: grid size must be at least 2"),
    (["contour", "--beta", "1:1:5"], None, "--beta: empty range 1.0:1.0"),
    (["contour", "--degrees", "--beta", "90:0:5"], None,
     "--beta: empty range 1.5707963267948966:0.0"),
    (["singularities", "--beta", "0:1:2"], None, "--beta expects lo:hi, got '0:1:2'"),
    (["singularities", "--omega", "1.5:0.5"], None, "--omega: empty interval 1.5:0.5"),
    (["estimate-beta", "--omega", "1", "--tau", "54.86", "--bracket", "0.78:0.6"], None,
     "--bracket: empty interval 0.78:0.6"),
    (["estimate-beta", "--omega", "1", "--tau", "54.86", "--bracket", "45:30",
      "--degrees"], None, "--bracket: empty interval 0.7853981633974483:0.5235987755982988"),
    (["singularities", "--scan", "x"], None, "--scan expects an integer, got 'x'"),
    (["singularities", "--scan", "1.5"], None, "--scan expects an integer, got '1.5'"),
    (["pulse", "--samples", "x"], None, "--samples expects an integer, got 'x'"),
    (["estimate-beta", "--tau", "54.86", "--bracket", "0.6:0.78"], None,
     "--omega is required for estimate-beta"),
    (["estimate-beta", "--omega", "1", "--bracket", "0.6:0.78"], None,
     "--tau is required for estimate-beta"),
    (["estimate-beta", "--omega", "1", "--tau", "54.86"], None,
     "--bracket is required for estimate-beta"),
    (["contour", "--psi-in", "X"], None, "--psi-in expects a number, got 'X'"),
    (["spectrum", "--psi-f", "inf"], None, "--psi-f must be finite, got 'inf'"),
    (["contour", "--tau-te", "1", "--tau-tm", "1"], None,
     "tau_te and tau_tm must differ; equal slopes leave the half-wave frequency undefined"),
    (["contour", "--format", "xml"], None, "--format must be csv or json, got 'xml'"),
    (["angle-sweep"], '{"omega": "x"}', "--omega expects a number, got 'x'"),
    (["pulse"], '{"sigma-omega": "inf"}', "--sigma-omega must be finite, got 'inf'"),
    (["contour"], '{"tau-tm": "nan"}', "--tau-tm must be finite, got 'nan'"),
    (["contour"], '{"omega": [0.5, 1.5, 11]}',
     "--omega expects lo:hi:count, got [0.5, 1.5, 11]"),
    (["contour"], '{"omega": "0.5:1.5:1"}', "--omega: grid size must be at least 2"),
    (["contour"], '{"beta": "60:30:4", "degrees": true}',
     "--beta: empty range 1.0471975511965976:0.5235987755982988"),
    (["singularities"], '{"omega": "1.5:0.5"}', "--omega: empty interval 1.5:0.5"),
    (["singularities"], '{"scan": "x"}', "--scan expects an integer, got 'x'"),
    (["pulse"], '{"samples": "x"}', "--samples expects an integer, got 'x'"),
    (["estimate-beta"], '{"tau": 54.86, "bracket": "0.6:0.78"}',
     "--omega is required for estimate-beta"),
    (["contour"], '{"psi-in": "X"}', "--psi-in expects a number, got 'X'"),
    (["contour"], '{"omega": ', "--config: Expecting value: line 1 column 11 (char 10)"),
    (["contour"], '[1, 2]', "--config must hold a flat JSON object"),
    (["contour"], '{"degrees": "false", "beta": "0:90:3"}',
     "--degrees expects true or false, got 'false'"),
    (["contour"], '{"degrees": 1}', "--degrees expects true or false, got 1"),
    (["singularities"], '{"scan": 40.9}', "--scan expects an integer, got 40.9"),
    (["singularities"], '{"scan": true}', "--scan expects an integer, got True"),
    (["pulse"], '{"samples": 256.7}', "--samples expects an integer, got 256.7"),
    (["estimate-beta"], '{"omega": 1, "tau": true, "bracket": "0.6:0.78"}',
     "--tau expects a number, got True"),
    (["contour"], '{"omgea": "0.9:1.1:2"}', "--config: contour has no flag --omgea"),
    (["contour"], '{"scan": 40}', "--config: contour has no flag --scan"),
    (["spectrum"], '{"config": "run.json"}', "--config: spectrum has no flag --config"),
    # resource caps: exit 2 before a grid of the capped size is allocated
    (["contour", "--omega", "0.5:1.5:100000", "--beta", "0:1:100000"], None,
     "--beta: 10000000000 sweep cells (omega count x beta count), above the cap of 4000000"),
    (["contour", "--omega", "0.5:1.5:2000", "--beta", "0:1:2001"], None,
     "--beta: 4002000 sweep cells (omega count x beta count), above the cap of 4000000"),
    (["spectrum", "--omega", "0.5:1.5:1000000000000"], None,
     "--omega: 1000000000000 sweep cells (omega count x beta count), above the cap of 4000000"),
    (["angle-sweep"], '{"beta": "0:1:4000001"}',
     "--beta: 4000001 sweep cells (omega count x beta count), above the cap of 4000000"),
    (["pulse", "--samples", "2097152"], None, "--samples 2097152 is above the cap of 1048576"),
    (["pulse"], '{"samples": 1099511627776}',
     "--samples 1099511627776 is above the cap of 1048576"),
    (["singularities", "--scan", "1000001"], None, "--scan 1000001 is above the cap of 1000000"),
    # open() takes an integer or a boolean as a file descriptor
    (["contour"], '{"output": true}', "--output expects a path, got True"),
    (["contour"], '{"output": 5}', "--output expects a path, got 5"),
    (["contour"], '{"output": ["a"]}', "--output expects a path, got ['a']"),
    (["contour"], '{"dispersion-csv": 0}', "--dispersion-csv expects a path, got 0"),
]

MODEL_HELP = [
    "--tau-te X TE phase slope (default 10*pi)",
    "--tau-tm X TM phase slope (default 9*pi)",
    "--phi0-te X TE phase offset (default 0)",
    "--phi0-tm X TM phase offset (default 0)",
    "--dispersion-csv PATH tabulated dispersion CSV (overrides the linear model)",
    "--psi-in STATE pre-selection: V, H, D45, A135 or a linear angle",
    "--psi-f STATE post-selection: V, H, D45, A135 or a linear angle",
    "--degrees interpret input angles as degrees (output stays radians)",
    "--config PATH flat JSON object whose keys are long flag names",
    "-o PATH, --output PATH output file (default: standard output)",
    "--format FMT csv or json (default csv; pulse is always json; "
    "json only for pulse and estimate-beta)",
]

SUBCOMMAND_HELP = {
    "contour": ["--omega LO:HI:N frequency grid (default 0.5:1.5:101)",
                "--beta LO:HI:N angle grid (default 0:pi:181)"],
    "spectrum": ["--omega LO:HI:N frequency grid (default 0.1:0.9:161)",
                 "--beta X plate angle (default 0)"],
    "angle-sweep": ["--omega X frequency (default 1)",
                    "--beta LO:HI:N angle grid (default 0:pi/2:181)"],
    "pulse": ["--omega X carrier frequency (default 1)",
              "--span X spectral window width (default 0.64)",
              "--samples N grid size, power of two (default 4096)",
              "--sigma-omega X spectral bandwidth (default 0.01)",
              "--beta X plate angle (default 0)"],
    "singularities": ["--omega LO:HI frequency window (default 0.5:1.5)",
                      "--beta LO:HI angle window (default 0:pi)",
                      "--scan N points on each 1-D root scan (default 101)",
                      "--tol X residual |T| tolerance (default 1e-10)"],
    "estimate-beta": ["--omega X frequency of the measurement (required)",
                      "--tau X measured group delay (required)",
                      "--bracket LO:HI angle bracket (required)"],
}


class TestContract:
    @pytest.mark.parametrize("argv, config, message", USAGE_ERRORS)
    def test_usage_error_message(self, argv, config, message, tmp_path, capsys):
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(config, encoding="utf-8")
            argv = argv + ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"weaklight: error: {message}"

    @pytest.mark.parametrize("argv", [
        ["contour", "--omega", "0.5:1.5:1001", "--beta", "0:3.141592653589793:1001"],
        ["contour", "--omega", "0.5:1.5:2000", "--beta", "0:1:2000"],
        ["pulse", "--samples", "1048576"],
        ["singularities", "--scan", "1000000"],
    ])
    def test_caps_admit_their_limit(self, argv):
        # parsing allocates only the axes; nothing here is run at the limit
        parse(argv)

    @pytest.mark.parametrize("name", sorted(test_golden.CASES))
    def test_header_tokens_round_trip(self, name, monkeypatch):
        monkeypatch.chdir(test_golden.GOLDEN)
        tokens = parse(test_golden.CASES[name][0]).tokens
        assert "--degrees" not in tokens and "--config" not in tokens
        assert parse(tokens).tokens == tokens

    @pytest.mark.parametrize("sub", sorted(SUBCOMMAND_HELP))
    def test_help_lists_flags_and_defaults(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            parse([sub, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for line in SUBCOMMAND_HELP[sub] + MODEL_HELP:
            assert line in text, line
        # subcommand flags first, in header order, then the model flags
        flags = [line.split()[0] for line in SUBCOMMAND_HELP[sub] + MODEL_HELP]
        usage = text[:text.index("options:")]
        positions = [re.search(rf"\[{flag}[ \]]", usage).start() for flag in flags]
        assert positions == sorted(positions)
