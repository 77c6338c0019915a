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
X86_V4"`` every test of those two cases fails.  Each test checks one case,
so the other twelve still run there: CI's lower-dispatch step deselects
only those two and ``test_libm_fingerprint``.

Every golden holds only for the bits of ``cos``, ``sin``, ``atan2`` and
``exp`` that wrote it, in ``math`` (the C library's) and in numpy.
``LIBM_FINGERPRINT`` pins the sha256 of both modules' four functions over a
seeded corpus, as written with glibc 2.36 and numpy 2.4.6 at numpy's
``X86_V4`` dispatch level: the goldens hold for this fingerprint.  A host
whose C library or numpy dispatch rounds any of them differently fails
``test_libm_fingerprint``, and each golden mismatch says whether the
fingerprint still matches, so a failure names its cause: the code, or the
host's arithmetic.
"""

import contextlib
import hashlib
import io
import math
import os
from pathlib import Path

import numpy as np
import pytest

from weaklight import cli, weakmeas

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


# sha256 of libm_fingerprint()'s values where the goldens were written
LIBM_FINGERPRINT = "df27eec47761716acbbc7fff9a30332851e435abf14db02de02d7b1cc1e50da3"


def libm_fingerprint():
    """sha256 of math's and numpy's cos, sin, atan2 and exp on a seeded corpus.

    cos and sin on [-700, 700], atan2 on the unit box and exp on [-745, 0],
    4096 points each: enough that a C library or numpy kernel which rounds
    differently in the last bit on a fraction of a percent of inputs changes
    the digest.
    """
    rng = np.random.default_rng(2003)
    x = rng.uniform(-700.0, 700.0, 4096)
    y, z = rng.uniform(-1.0, 1.0, (2, 4096))
    e = rng.uniform(-745.0, 0.0, 4096)
    xs, ys, zs, es = (a.tolist() for a in (x, y, z, e))
    digest = hashlib.sha256()
    for values in (np.cos(x), np.sin(x), np.arctan2(y, z), np.exp(e),
                   list(map(math.cos, xs)), list(map(math.sin, xs)),
                   list(map(math.atan2, ys, zs)), list(map(math.exp, es))):
        digest.update(np.asarray(values, dtype=float).tobytes())
    return digest.hexdigest()


def mismatch(name):
    """The message of a golden mismatch: whether the host's arithmetic is the goldens'."""
    if libm_fingerprint() == LIBM_FINGERPRINT:
        return (f"{name} differs from its golden while the libm fingerprint matches: "
                "the code changed the bytes")
    return (f"{name} differs from its golden, and so does this host's libm fingerprint: "
            "its cos, sin, atan2 or exp rounds differently from the goldens' host "
            "(see test_libm_fingerprint)")


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
    assert run_case(name, tmp_path) == golden_file(name).read_bytes(), mismatch(name)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("rows", [1, 4])
def test_golden_bytes_across_batches(rows, name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setattr(cli, "_BATCH_ROWS", rows)
    assert run_case(name, tmp_path) == golden_file(name).read_bytes(), mismatch(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes_across_slices(name, tmp_path, monkeypatch):
    # slices of 5 split every beta axis and every sample table of the corpus
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setattr(weakmeas, "_SLICE", 5)
    assert run_case(name, tmp_path) == golden_file(name).read_bytes(), mismatch(name)


def test_libm_fingerprint():
    assert libm_fingerprint() == LIBM_FINGERPRINT, (
        "this host's cos, sin, atan2 or exp (math or numpy) rounds differently "
        "from the host that wrote the goldens, which need not hold here")


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
