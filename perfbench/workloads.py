"""Seeded inputs, op schedules and correctness checks for the three workloads.

Inputs come only from ``numpy.random.default_rng`` seeded with the workload
seed; the program receives them as files and arguments.  Every check here
uses a reference independent of the package: the closed-form transfer
function ``T = p1 e^{i phi_te} + p2 e^{i phi_tm}`` of a plate between two
linear polarizers, with its weak-value group delay, evaluated on the linear
model or on scipy's PCHIP interpolant of the generated table.

An op's first run is checked in full; every later run of the same op must
produce byte-identical output (the sha256 of the CLI file, or the repr of
the returned values).
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator

import weaklight as wl
from weaklight import cli

PI = math.pi
TAU_TE = 10.0 * PI
TAU_TM = 9.0 * PI
SINGULAR_TOL = 1e-10
SWEEP_COLUMNS = "omega,beta,re_t,im_t,abs_t,arg_t,group_delay,singular"
LINEAR_TOKENS = f"--tau-te {format(TAU_TE, '.17g')} --tau-tm {format(TAU_TM, '.17g')} " \
                "--phi0-te 0 --phi0-tm 0"

WORKLOADS = ("sweep", "pulse", "search")

# Sizes per workload; "smoke" keeps every path but makes each op tiny.
SIZES = {
    # Op counts are set so that the median and the 90th percentile fall inside
    # one op, away from the boundaries between ops of different cost: on sweep
    # the median is a spectrum run and p90 the contour; on pulse the median is
    # the 2^13 run and p90 the 2^16 run; on search (48 + 48 windows, 2 x 96
    # inversions) the median is an inversion and p90 a tabulated search.
    # Many windows make a seed's set of windows cost about the same as another's.
    "full": {"contour": 201, "spectrum": 10001, "angle": 2001,
             "pulse_log2": (12, 12, 12, 13, 14, 15, 16), "windows": 48,
             "inversions": 96},
    "smoke": {"contour": 21, "spectrum": 201, "angle": 101,
              "pulse_log2": (10, 11, 12), "windows": 1, "inversions": 1},
}


def fmt(x):
    return format(float(x), ".17g")


class CheckFailed(Exception):
    """An op's output disagrees with the reference."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


# --- reference physics -----------------------------------------------------

class Linear:
    """phi = tau * omega on both axes (the package's default model)."""

    def phases(self, w):
        return TAU_TE * w, TAU_TM * w

    def delays(self, w):
        return TAU_TE, TAU_TM


class Tabulated:
    """scipy's PCHIP through the same table the program reads."""

    def __init__(self, w, te, tm):
        self.te = PchipInterpolator(w, te)
        self.tm = PchipInterpolator(w, tm)
        self.dte = self.te.derivative()
        self.dtm = self.tm.derivative()

    def phases(self, w):
        return float(self.te(w)), float(self.tm(w))

    def delays(self, w):
        return float(self.dte(w)), float(self.dtm(w))


def reference_t(model, w, beta, th_in=0.0, th_f=0.0):
    """Closed-form T and group delay (None when singular) for linear selections."""
    p1 = math.cos(beta - th_f) * math.cos(beta - th_in)
    p2 = math.sin(th_f - beta) * math.sin(th_in - beta)
    phi1, phi2 = model.phases(w)
    tau1, tau2 = model.delays(w)
    e1 = complex(math.cos(phi1), math.sin(phi1))
    e2 = complex(math.cos(phi2), math.sin(phi2))
    t = p1 * e1 + p2 * e2
    if abs(t) < SINGULAR_TOL:
        return t, None
    num = p1 * tau1 * e1 + p2 * tau2 * e2
    return t, (num * t.conjugate()).real / abs(t) ** 2


def closed_form_delay(beta):
    """Group delay of the default model, V/V selection, at omega = 1."""
    return 9.5 * PI + 0.5 * PI / math.cos(2.0 * beta)


# --- generated inputs ------------------------------------------------------

def write_table(rng, path, knots=160):
    """Tabulated dispersion whose TE-TM difference is pi*omega plus a small wiggle.

    The wiggle is at most 0.08 rad with slope under 0.32, so TE-TM stays
    increasing and crosses pi once, within 0.03 of omega = 1.
    """
    w = np.linspace(0.05, 2.0, knots)
    h = w[1] - w[0]
    w[1:-1] += rng.uniform(-0.3, 0.3, knots - 2) * h
    offset = rng.uniform(0.0, 2.0 * PI)
    a = rng.uniform(0.01, 0.04, 2)
    k = rng.uniform(1.0, 4.0, 2)
    p = rng.uniform(0.0, 2.0 * PI, 2)
    te = TAU_TE * w + offset + a[0] * np.sin(k[0] * w + p[0])
    tm = TAU_TM * w + offset + a[1] * np.sin(k[1] * w + p[1])
    lines = ["# seeded benchmark table", "omega,phi_te,phi_tm"]
    lines += [f"{fmt(x)},{fmt(y)},{fmt(z)}" for x, y, z in zip(w, te, tm)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    # the text round-trips exactly, so the reference sees the program's table
    return Tabulated(w, te, tm)


def half_wave(model, lo=0.9, hi=1.1):
    """The omega where phi_te - phi_tm = pi, by bisection on the reference."""
    def f(w):
        a, b = model.phases(w)
        return a - b - PI
    f_lo = f(lo)
    check(f_lo < 0.0 < f(hi), "generated table has no half-wave point near 1")
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def monotone_bracket(lo, hi):
    """True when the closed-form delay is strictly monotone on [lo, hi]."""
    d = np.diff(9.5 * PI + 0.5 * PI / np.cos(2.0 * np.linspace(lo, hi, 2001)))
    return bool(np.all(d > 0.0) or np.all(d < 0.0))


def off_grid(z, lo, hi, n, margin=0.05):
    """True when z sits at least `margin` of a scan step away from every grid line."""
    frac = ((z - lo) / ((hi - lo) / (n - 1))) % 1.0
    return margin <= frac <= 1.0 - margin


# --- ops -------------------------------------------------------------------

@dataclass
class Op:
    """One closed-loop operation: a CLI run or a library call."""

    kind: str
    samples: int
    call: object            # () -> result
    verify: object          # (result, output bytes) -> None, raises CheckFailed
    out_path: str | None = None   # CLI ops: the file the run writes

    @property
    def cold(self):
        # a CLI op stands for one `weaklight` process: per-process caches start empty
        return self.out_path is not None

    def output(self, result):
        if self.out_path is not None:
            check(result == 0, f"{self.kind}: exit status {result}")
            return Path(self.out_path).read_bytes()
        return repr(result).encode()


def digest(data):
    return hashlib.sha256(data).hexdigest()


def cli_op(kind, argv, out_path, samples, verify):
    argv = [str(a) for a in argv] + ["-o", str(out_path)]
    return Op(kind, samples, lambda: cli.main(argv), verify, str(out_path))


def _check_sweep(data, command, n_rows, model, spots, singular_at=(), th_in=0.0, th_f=0.0):
    text = data.decode("utf-8")
    lines = text.split("\n")
    check(lines[-1] == "", "output does not end with a newline")
    check(lines[0] == "# " + command, f"header {lines[0]!r} != '# {command}'")
    check(lines[1] == SWEEP_COLUMNS, f"columns {lines[1]!r}")
    rows = lines[2:-1]
    check(len(rows) == n_rows, f"{len(rows)} rows, grid has {n_rows}")
    singular = [rows[i] for i in range(n_rows) if rows[i].endswith(",true")]
    check(len(singular) == len(singular_at),
          f"{len(singular)} singular rows, expected {len(singular_at)}")
    for row, (w, b) in zip(singular, singular_at):
        f = row.split(",")
        check(abs(float(f[0]) - w) < 1e-12 and abs(float(f[1]) - b) < 1e-12,
              f"singular row at ({f[0]}, {f[1]}), expected ({w!r}, {b!r})")
    for i in spots:
        _check_row(rows[i].split(","), model, th_in, th_f)


def _check_row(f, model, th_in, th_f):
    w, b, re, im, ab = (float(x) for x in f[:5])
    t, gd = reference_t(model, w, b, th_in, th_f)
    check(abs(re - t.real) <= 1e-12 and abs(im - t.imag) <= 1e-12
          and abs(ab - abs(t)) <= 1e-12, f"T at ({w!r}, {b!r}): {f[2:5]} vs {t!r}")
    check((f[7] == "true") == (gd is None), f"singular flag {f[7]} at ({w!r}, {b!r})")
    if gd is None:
        check(f[6] == "", "singular sample carries a group delay")
        return
    arg = float(f[5])
    check(abs(ab * math.cos(arg) - re) <= 1e-9 and abs(ab * math.sin(arg) - im) <= 1e-9,
          f"arg {arg!r} inconsistent with T at ({w!r}, {b!r})")
    tol = 1e-9 * max(1.0, abs(gd)) + 1e-13 / abs(t) ** 2
    check(abs(float(f[6]) - gd) <= tol, f"group delay {f[6]} vs {gd!r} at ({w!r}, {b!r})")


def sweep_ops(rng, work, size):
    """contour (linear, V/V, zeros on the grid), spectrum (tabulated), angle-sweep."""
    table = Path(work) / "dispersion.csv"
    tab = write_table(rng, table)
    ops = []

    n = size["contour"]
    h = rng.uniform(0.004, 0.006) * 200 / (n - 1)
    w_lo, w_hi = 1.0 - h * (n - 1) / 2, 1.0 + h * (n - 1) / 2
    argv = ["contour", "--omega", f"{fmt(w_lo)}:{fmt(w_hi)}:{n}",
            "--beta", f"0:{fmt(PI)}:{n}"]
    command = f"weaklight contour {LINEAR_TOKENS} --psi-in V --psi-f V " \
              f"--omega {fmt(w_lo)}:{fmt(w_hi)}:{n} --beta 0:{fmt(PI)}:{n} --format csv"
    spots = sorted(rng.choice(n * n, 6, replace=False).tolist())
    ops.append(cli_op(
        "contour", argv, Path(work) / "contour.csv", n * n,
        lambda r, d, c=command, rows=n * n, s=spots: _check_sweep(
            d, c, rows, Linear(), s, singular_at=((1.0, PI / 4), (1.0, 3 * PI / 4)))))

    n = size["spectrum"]
    for i, (b_lo, b_hi) in enumerate(((0.05, 0.2), (0.3, 0.45))):
        beta = rng.uniform(b_lo, b_hi) * PI
        lo, hi = rng.uniform(0.1, 0.3), rng.uniform(1.6, 1.9)
        argv = ["spectrum", "--dispersion-csv", table, "--omega",
                f"{fmt(lo)}:{fmt(hi)}:{n}", "--beta", fmt(beta)]
        command = f"weaklight spectrum --dispersion-csv {table} --psi-in V --psi-f V " \
                  f"--omega {fmt(lo)}:{fmt(hi)}:{n} --beta {fmt(beta)} --format csv"
        spots = sorted(rng.choice(n, 6, replace=False).tolist())
        ops.append(cli_op(
            "spectrum", argv, Path(work) / f"spectrum{i}.csv", n,
            lambda r, d, c=command, rows=n, s=spots: _check_sweep(d, c, rows, tab, s)))

    n = size["angle"]
    for i in range(2):
        w = rng.choice([rng.uniform(0.6, 0.9), rng.uniform(1.1, 1.4)])
        th_in = rng.uniform(0.0, PI)
        th_f = th_in + rng.uniform(-1.2, 1.2)   # never orthogonal: no exact nulls
        argv = ["angle-sweep", "--omega", fmt(w), "--beta", f"0:{fmt(PI / 2)}:{n}",
                "--psi-in", fmt(th_in), "--psi-f", fmt(th_f)]
        command = f"weaklight angle-sweep {LINEAR_TOKENS} --psi-in {fmt(th_in)} " \
                  f"--psi-f {fmt(th_f)} --omega {fmt(w)} --beta 0:{fmt(PI / 2)}:{n} " \
                  "--format csv"
        spots = sorted(rng.choice(n, 6, replace=False).tolist())
        ops.append(cli_op(
            "angle-sweep", argv, Path(work) / f"angle{i}.csv", n,
            lambda r, d, c=command, rows=n, s=spots, a=th_in, b=th_f: _check_sweep(
                d, c, rows, Linear(), s, th_in=a, th_f=b)))
    return ops


def _check_pulse(data, command, n, beta, fast):
    doc = json.loads(data)
    check(doc["command"] == command, f"command {doc['command']!r} != {command!r}")
    check(doc["grid"]["samples"] == n, "grid size")
    for key in ("times", "input_intensity", "output_intensity"):
        check(len(doc[key]) == n, f"{key} has {len(doc[key])} samples, expected {n}")
    report = doc["report"]
    want = closed_form_delay(beta)
    pred = report["predicted_group_delay"]
    check(abs(pred - want) <= 1e-9 * abs(want), f"predicted delay {pred!r} vs {want!r}")
    shift = report["peak_shift"]
    if fast:
        check(shift < 0.0, f"fast-light side: peak shift {shift!r} is not negative")
    else:
        check(abs(shift - pred) <= 0.02 * abs(pred),
              f"peak shift {shift!r} not within 2% of delay {pred!r}")


def pulse_ops(rng, work, size):
    """One run per listed grid size; runs alternate between the slow and fast-light side.

    The side of each run is fixed, not drawn: the narrower fast-light pulse
    formats to different text, so drawing the side would change the work
    (and peak memory) from seed to seed.
    """
    ops = []
    for i, k in enumerate(size["pulse_log2"]):
        n = 2 ** k
        fast = i % 2 == 1
        if fast:
            beta, sigma = rng.uniform(0.2505, 0.2565) * PI, 0.002
        else:
            # below or above pi/4, also fixed per run: each formats to other text
            lo, hi = (0.02, 0.2) if i % 4 == 0 else (0.3, 0.48)
            beta, sigma = rng.uniform(lo, hi) * PI, 0.005
        argv = ["pulse", "--samples", n, "--sigma-omega", fmt(sigma), "--beta", fmt(beta)]
        command = f"weaklight pulse {LINEAR_TOKENS} --psi-in V --psi-f V --omega 1 " \
                  f"--span {fmt(0.64)} --samples {n} --sigma-omega {fmt(sigma)} " \
                  f"--beta {fmt(beta)} --format json"
        ops.append(cli_op(
            f"pulse-2^{k}", argv, Path(work) / f"pulse{i}.json", n,
            lambda r, d, c=command, n=n, b=beta, f=fast: _check_pulse(d, c, n, b, f)))
    return ops


def _check_zeros(hits, expected, tol):
    check(len(hits) == len(expected), f"{len(hits)} zeros found, expected {len(expected)}")
    # both zeros share one omega, so order them by beta before matching
    for s, (w, b) in zip(sorted(hits, key=lambda s: s.beta), expected):
        check(abs(s.omega - w) <= 1e-9 and abs(s.beta - b) <= 1e-9,
              f"zero at ({s.omega!r}, {s.beta!r}), expected ({w!r}, {b!r})")
        check(s.residual_abs_t < tol, f"residual {s.residual_abs_t!r} >= tol {tol!r}")


def _window(rng, w0, zeros):
    """A window around both zeros at w0 and a scan density off their grid lines."""
    w_lo, w_hi = w0 - rng.uniform(0.3, 0.5), w0 + rng.uniform(0.3, 0.5)
    b_lo, b_hi = rng.uniform(0.05, 0.5), PI - rng.uniform(0.05, 0.5)
    while True:
        scan = int(rng.integers(60, 121))
        if all(off_grid(w, w_lo, w_hi, scan) and off_grid(b, b_lo, b_hi, scan)
               for w, b in zeros):
            return (w_lo, w_hi), (b_lo, b_hi), scan


def search_ops(rng, work, size):
    """find_singularities on linear and tabulated models, estimate_beta on both branches."""
    table = Path(work) / "dispersion.csv"
    tab = write_table(rng, table)
    tabulated = wl.load_tabulated(table)
    w_star = half_wave(tab)
    vv = wl.selection("V", "V")
    tol = 1e-10
    ops = []
    for name, model, w0 in (("find-linear", wl.DEFAULT_MODEL, 1.0),
                            ("find-tabulated", tabulated, w_star)):
        zeros = ((w0, PI / 4), (w0, 3 * PI / 4))
        for _ in range(size["windows"]):
            wr, br, scan = _window(rng, w0, zeros)
            ops.append(Op(
                name, len(zeros),
                lambda m=model, wr=wr, br=br, s=scan: wl.find_singularities(
                    m, wr, br, vv, scan=s, tol=tol),
                lambda hits, d, z=zeros: _check_zeros(hits, z, tol)))

    # true angle range, then a bracket around it that stays on its side of pi/4
    branches = (
        ((0.15, 0.24), lambda b: (rng.uniform(0.10, b - 0.01), rng.uniform(b + 0.002, 0.249))),
        ((0.253, 0.35), lambda b: (rng.uniform(0.2505, b - 0.002), rng.uniform(b + 0.01, 0.40))),
    )
    for (lo, hi), bracket_of in branches:
        for _ in range(size["inversions"]):
            while True:
                b = rng.uniform(lo, hi)
                bracket = tuple(x * PI for x in bracket_of(b))
                if monotone_bracket(*bracket):
                    break
            beta = b * PI
            tau = closed_form_delay(beta)
            ops.append(Op(
                "estimate-beta", 1,
                lambda t=tau, br=bracket: wl.estimate_beta(wl.DEFAULT_MODEL, 1.0, vv, t, br),
                lambda got, d, want=beta: check(
                    abs(got - want) <= 1e-8, f"recovered {got!r}, true {want!r}")))
    return ops


BUILDERS = {"sweep": sweep_ops, "pulse": pulse_ops, "search": search_ops}


def build(workload, seed, work, smoke=False):
    """The workload's op schedule for one seed; the same seed gives the same ops."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](rng, work, SIZES["smoke" if smoke else "full"])
