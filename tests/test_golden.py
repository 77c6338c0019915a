"""Committed golden outputs: every subcommand must reproduce them byte for byte.

Each case runs the CLI in-process from ``tests/golden`` (the header echoes
the ``--dispersion-csv`` path as given, so input paths stay relative) and
compares the bytes written to standard output or to ``-o`` with
``tests/golden/<case>.csv``, or ``<case>.json`` for JSON output.  Regenerate
after an intended format change with ``PYTHONPATH=src python tests/test_golden.py``.

``CASES`` is the one list of the corpus: adding a golden is one entry here.
CI runs this module against the installed wheel, from outside the checkout
with ``PYTHONPATH`` at the install directory, so ``weaklight`` is imported
from the wheel's modules and not from ``src``.

Two cases hold only where numpy dispatches its AVX-512 (``X86_V4``) kernels:
``pulse_fast``, through ``np.exp`` in ``gaussian_pulse``, and
``spectrum_tabulated``, through ``np.arctan2`` in ``phase_spectrum``.  Those
kernels differ from libm's ``exp`` and ``atan2`` in the last bit on some
inputs, and the committed bytes are theirs.  At ``X86_V3`` and below numpy
agrees with libm, so with ``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL
X86_V4"`` both cases, and so both across-batches tests, fail.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from weaklight import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv, written with -o)
CASES = {
    # both zeros of T on grid nodes: (1, pi/4) and (1, 3*pi/4) are singular rows
    "contour_zeros": (["contour", "--omega", "0.9:1.1:5",
                       "--beta", "0:3.141592653589793:9"], True),
    # tabulated PCHIP model, beta = pi/4 via --degrees, omega grid through
    # the half-wave knot at 1: one singular sample splits the unwrapped runs
    "spectrum_tabulated": (["spectrum", "--dispersion-csv", "disp.csv",
                            "--omega", "0.6:1.4:9", "--beta", "45", "--degrees"], False),
    "spectrum_linear": (["spectrum", "--omega", "0.1:0.9:17", "--beta", "0.3"], True),
    "angle_linear_pair": (["angle-sweep", "--omega", "0.8",
                           "--beta", "0:1.5707963267948966:9",
                           "--psi-in", "0.3", "--psi-f", "1.1"], False),
    "angle_diagonal_pair": (["angle-sweep", "--omega", "1",
                             "--beta", "0:3.141592653589793:9",
                             "--psi-in", "D45", "--psi-f", "A135"], True),
    "contour_config": (["contour", "--config", "config.json"], True),
    # the beta scan misses both zeros, so each beta is refined to adjacent doubles
    "singularities_degrees": (["singularities", "--omega", "0.5:1.5",
                               "--beta", "10:170", "--degrees", "--scan", "61"], False),
    # the zeros sit on the knot omega = 1 of the PCHIP table
    "singularities_tabulated": (["singularities", "--dispersion-csv", "disp.csv",
                                 "--omega", "0.55:1.45", "--beta", "0.1:3",
                                 "--scan", "40"], True),
    "estimate_beta_linear": (["estimate-beta", "--omega", "1", "--tau", "54.86",
                              "--bracket", "0.6:0.78"], False),
    "estimate_beta_linear_json": (["estimate-beta", "--omega", "1", "--tau", "24.76",
                                   "--bracket", "0.82:1.25", "--format", "json"], True),
    "estimate_beta_tabulated": (["estimate-beta", "--dispersion-csv", "disp.csv",
                                 "--omega", "0.95", "--tau", "36.87",
                                 "--bracket", "0.47:0.72"], True),
    "estimate_beta_tabulated_json": (["estimate-beta", "--dispersion-csv", "disp.csv",
                                      "--omega", "0.95", "--tau", "36.87",
                                      "--bracket", "27:41", "--degrees",
                                      "--format", "json"], False),
    # slow-light side of pi/4, then the fast-light side with a negative peak shift
    "pulse_slow": (["pulse", "--samples", "256", "--beta", "0.5"], True),
    "pulse_fast": (["pulse", "--samples", "256", "--sigma-omega", "0.004",
                    "--beta", "0.8"], False),
}


def golden_file(name):
    argv = CASES[name][0]
    json_out = argv[0] == "pulse" or "json" in argv
    return GOLDEN / (name + (".json" if json_out else ".csv"))


def run_case(name, out_dir):
    argv, to_file = CASES[name]
    if to_file:
        out = Path(out_dir) / golden_file(name).name
        assert cli.main(argv + ["-o", str(out)]) == 0
        return out.read_bytes()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert run_case(name, tmp_path) == golden_file(name).read_bytes()


@pytest.mark.parametrize("rows", [1, 4])
def test_golden_bytes_across_batches(rows, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setattr(cli, "_BATCH_ROWS", rows)
    for name in sorted(CASES):
        assert run_case(name, tmp_path) == golden_file(name).read_bytes(), name


def test_golden_cases_cover_singular_rows():
    for name in ("contour_zeros", "spectrum_tabulated"):
        rows = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8").splitlines()[2:]
        assert any(r.endswith(",true") for r in rows), name


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for case in sorted(CASES):
        data = run_case(case, GOLDEN)
        golden_file(case).write_bytes(data)
        print(f"wrote {golden_file(case).name} ({len(data)} bytes)")
