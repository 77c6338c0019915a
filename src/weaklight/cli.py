"""Command-line front end: reproducible sweeps and pulse runs as CSV/JSON.

Every output starts with a header comment holding the fully resolved command
(angles in radians, numbers at 17 significant digits); re-running that
command reproduces the file byte for byte.  Exit codes: 0 success, 1 i/o,
2 usage, 3 null postselection.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .crystal import LinearDispersion, load_tabulated
from .errors import BadBracket, PostselectionNull
from .jones import basis_state, linear_state
from .pulse import SpectralGrid, gaussian_pulse, propagate
from .weakmeas import (
    SelectionPair,
    contour_grid,
    estimate_beta,
    find_singularities,
    phase_spectrum,
    sweep_angle,
)

__all__ = ["parse", "execute", "main"]

_SWEEP_COLUMNS = "omega,beta,re_t,im_t,abs_t,arg_t,group_delay,singular"
_SINGULARITY_COLUMNS = "omega,beta,residual_abs_t"
_JSON_SUBCOMMANDS = ("pulse", "estimate-beta")

# sweep rows (or JSON array numbers) formatted per template operation
_BATCH_ROWS = 4096

_DEG = math.pi / 180.0
_BASIS_LABELS = ("V", "H", "D45", "A135")
_MISSING = object()


def _fmt(x):
    return format(float(x), ".17g")


@dataclass
class RunPlan:
    subcommand: str
    model: object
    pair: SelectionPair
    output: str | None
    fmt: str
    tokens: list
    omega_grid: np.ndarray | None = None
    beta_grid: np.ndarray | None = None
    omega: float | None = None
    beta: float | None = None
    omega_interval: tuple | None = None
    beta_interval: tuple | None = None
    scan: int | None = None
    tol: float | None = None
    tau: float | None = None
    bracket: tuple | None = None
    span: float | None = None
    samples: int | None = None
    sigma_omega: float | None = None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="weaklight",
        description="Post-selected birefringent-plate sweeps: transfer "
                    "function grids, phase and group-delay spectra, "
                    "singularity maps, pulse runs, and angle estimation.")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="SUBCOMMAND")

    def add_common(p):
        g = p.add_argument_group("model and selection")
        g.add_argument("--tau-te", metavar="X",
                       help="TE phase slope (default 10*pi)")
        g.add_argument("--tau-tm", metavar="X",
                       help="TM phase slope (default 9*pi)")
        g.add_argument("--phi0-te", metavar="X", help="TE phase offset (default 0)")
        g.add_argument("--phi0-tm", metavar="X", help="TM phase offset (default 0)")
        g.add_argument("--dispersion-csv", metavar="PATH",
                       help="tabulated dispersion CSV (overrides the linear model)")
        g.add_argument("--psi-in", metavar="STATE",
                       help="pre-selection: V, H, D45, A135 or a linear angle")
        g.add_argument("--psi-f", metavar="STATE",
                       help="post-selection: V, H, D45, A135 or a linear angle")
        p.add_argument("--degrees", action="store_true",
                       help="interpret input angles as degrees (output stays radians)")
        p.add_argument("--config", metavar="PATH",
                       help="flat JSON object whose keys are long flag names")
        p.add_argument("-o", "--output", metavar="PATH",
                       help="output file (default: standard output)")
        p.add_argument("--format", dest="fmt", metavar="FMT",
                       help="csv or json (default csv; pulse is always json; "
                            "json only for pulse and estimate-beta)")

    p = sub.add_parser("contour", help="T over an (omega, beta) grid")
    p.add_argument("--omega", metavar="LO:HI:N", help="frequency grid (default 0.5:1.5:101)")
    p.add_argument("--beta", metavar="LO:HI:N", help="angle grid (default 0:pi:181)")
    add_common(p)

    p = sub.add_parser("spectrum", help="unwrapped phase vs frequency at fixed angle")
    p.add_argument("--omega", metavar="LO:HI:N", help="frequency grid (default 0.1:0.9:161)")
    p.add_argument("--beta", metavar="X", help="plate angle (default 0)")
    add_common(p)

    p = sub.add_parser("angle-sweep", help="T and group delay vs angle at fixed frequency")
    p.add_argument("--omega", metavar="X", help="frequency (default 1)")
    p.add_argument("--beta", metavar="LO:HI:N", help="angle grid (default 0:pi/2:181)")
    add_common(p)

    p = sub.add_parser("pulse", help="propagate a narrowband Gaussian pulse")
    p.add_argument("--omega", metavar="X", help="carrier frequency (default 1)")
    p.add_argument("--span", metavar="X", help="spectral window width (default 0.64)")
    p.add_argument("--samples", metavar="N", help="grid size, power of two (default 4096)")
    p.add_argument("--sigma-omega", metavar="X", help="spectral bandwidth (default 0.01)")
    p.add_argument("--beta", metavar="X", help="plate angle (default 0)")
    add_common(p)

    p = sub.add_parser("singularities", help="locate transfer-function zeros")
    p.add_argument("--omega", metavar="LO:HI", help="frequency window (default 0.5:1.5)")
    p.add_argument("--beta", metavar="LO:HI", help="angle window (default 0:pi)")
    p.add_argument("--scan", metavar="N", help="scan grid density per axis (default 101)")
    p.add_argument("--tol", metavar="X", help="residual |T| tolerance (default 1e-10)")
    add_common(p)

    p = sub.add_parser("estimate-beta", help="invert the plate angle from a group delay")
    p.add_argument("--omega", metavar="X", help="frequency of the measurement (required)")
    p.add_argument("--tau", metavar="X", help="measured group delay (required)")
    p.add_argument("--bracket", metavar="LO:HI", help="angle bracket (required)")
    add_common(p)

    return parser


class _Resolver:
    """Merges command-line flags over config-file values over defaults."""

    def __init__(self, parser, args, config, degrees):
        self.parser = parser
        self.args = args
        self.config = config
        self.degrees = degrees

    def pick(self, key, default=_MISSING, required=False):
        cli = getattr(self.args, key.replace("-", "_"), None)
        if cli is not None:
            return cli, True
        if key in self.config:
            return self.config[key], True
        if required:
            self.parser.error(
                f"--{key} is required for {self.args.subcommand}")
        return (None if default is _MISSING else default), False

    def _float(self, key, value):
        try:
            x = float(value)
        except (TypeError, ValueError):
            self.parser.error(f"--{key} expects a number, got {value!r}")
        if not math.isfinite(x):
            self.parser.error(f"--{key} must be finite, got {value!r}")
        return x

    def _int(self, key, value):
        try:
            return int(value)
        except (TypeError, ValueError):
            self.parser.error(f"--{key} expects an integer, got {value!r}")

    def number(self, key, default=_MISSING, required=False):
        value, user = self.pick(key, default, required)
        if value is None:
            return None
        return self._float(key, value) if user else float(value)

    def integer(self, key, default=_MISSING):
        value, user = self.pick(key, default)
        return self._int(key, value) if user else int(value)

    def angle(self, key, default=_MISSING, required=False):
        value, user = self.pick(key, default, required)
        if value is None:
            return None
        if not user:
            return float(value)
        x = self._float(key, value)
        return x * _DEG if self.degrees else x

    def _split(self, key, value, count):
        parts = str(value).split(":")
        if len(parts) != count:
            shape = "lo:hi:count" if count == 3 else "lo:hi"
            self.parser.error(f"--{key} expects {shape}, got {value!r}")
        return parts

    def grid(self, key, default, is_angle=False):
        value, user = self.pick(key, default)
        if not user:
            lo, hi, n = default
        else:
            parts = self._split(key, value, 3)
            lo = self._float(key, parts[0])
            hi = self._float(key, parts[1])
            n = self._int(key, parts[2])
            if is_angle and self.degrees:
                lo *= _DEG
                hi *= _DEG
        if n < 2:
            self.parser.error(f"--{key}: grid size must be at least 2")
        if not lo < hi:
            self.parser.error(f"--{key}: empty range {lo!r}:{hi!r}")
        return np.linspace(lo, hi, n), (lo, hi, n)

    def interval(self, key, default=_MISSING, required=False, is_angle=False):
        value, user = self.pick(key, default, required)
        if not user:
            return tuple(value)
        parts = self._split(key, value, 2)
        lo = self._float(key, parts[0])
        hi = self._float(key, parts[1])
        if is_angle and self.degrees:
            lo *= _DEG
            hi *= _DEG
        if not lo < hi:
            self.parser.error(f"--{key}: empty interval {lo!r}:{hi!r}")
        return (lo, hi)

    def state(self, key):
        value, user = self.pick(key, default="V")
        if isinstance(value, str) and value in _BASIS_LABELS:
            return basis_state(value), value
        angle = self._float(key, value)
        if user and self.degrees:
            angle *= _DEG
        try:
            return linear_state(angle), _fmt(angle)
        except ValueError as exc:
            self.parser.error(f"--{key}: {exc}")


def _range_token(bounds):
    lo, hi, n = bounds
    return f"{_fmt(lo)}:{_fmt(hi)}:{n}"


def _interval_token(iv):
    return f"{_fmt(iv[0])}:{_fmt(iv[1])}"


def parse(argv=None):
    """Resolve argv (and any config file) into a RunPlan; exits 2 on usage errors."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    config = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"--config: {exc}")
        if not isinstance(config, dict):
            parser.error("--config must hold a flat JSON object")

    degrees = bool(args.degrees or config.get("degrees", False))
    res = _Resolver(parser, args, config, degrees)

    csv_path, _ = res.pick("dispersion-csv")
    if csv_path is not None:
        try:
            model = load_tabulated(csv_path)
        except FileNotFoundError as exc:
            print(f"weaklight: i/o error: {exc}", file=sys.stderr)
            raise SystemExit(1) from None
        except (OSError, ValueError) as exc:
            print(f"weaklight: i/o error: {exc}", file=sys.stderr)
            raise SystemExit(1) from None
        model_tokens = ["--dispersion-csv", str(csv_path)]
    else:
        params = {
            "tau_te": res.number("tau-te", default=10.0 * math.pi),
            "tau_tm": res.number("tau-tm", default=9.0 * math.pi),
            "phi0_te": res.number("phi0-te", default=0.0),
            "phi0_tm": res.number("phi0-tm", default=0.0),
        }
        try:
            model = LinearDispersion(**params)
        except ValueError as exc:
            parser.error(str(exc))
        model_tokens = [
            "--tau-te", _fmt(model.tau_te), "--tau-tm", _fmt(model.tau_tm),
            "--phi0-te", _fmt(model.phi0_te), "--phi0-tm", _fmt(model.phi0_tm),
        ]

    psi_in, tok_in = res.state("psi-in")
    psi_f, tok_f = res.state("psi-f")
    pair = SelectionPair(psi_in, psi_f)
    pair_tokens = ["--psi-in", tok_in, "--psi-f", tok_f]

    sub = args.subcommand
    if args.fmt is not None:
        fmt = args.fmt
    else:
        fmt = config.get("format", "json" if sub == "pulse" else "csv")
    if fmt not in ("csv", "json"):
        parser.error(f"--format must be csv or json, got {fmt!r}")
    if sub == "pulse" and fmt != "json":
        parser.error("pulse output is json only")
    if fmt == "json" and sub not in _JSON_SUBCOMMANDS:
        parser.error(f"{sub} output is csv only; --format json applies to "
                     f"{' and '.join(_JSON_SUBCOMMANDS)}")
    output, _ = res.pick("output")

    plan = RunPlan(subcommand=sub, model=model, pair=pair,
                   output=output, fmt=fmt, tokens=[])
    sub_tokens = []

    if sub == "contour":
        plan.omega_grid, w_bounds = res.grid("omega", (0.5, 1.5, 101))
        plan.beta_grid, b_bounds = res.grid("beta", (0.0, math.pi, 181), is_angle=True)
        sub_tokens = ["--omega", _range_token(w_bounds),
                      "--beta", _range_token(b_bounds)]
    elif sub == "spectrum":
        plan.omega_grid, w_bounds = res.grid("omega", (0.1, 0.9, 161))
        plan.beta = res.angle("beta", default=0.0)
        sub_tokens = ["--omega", _range_token(w_bounds), "--beta", _fmt(plan.beta)]
    elif sub == "angle-sweep":
        plan.omega = res.number("omega", default=1.0)
        plan.beta_grid, b_bounds = res.grid("beta", (0.0, 0.5 * math.pi, 181),
                                            is_angle=True)
        sub_tokens = ["--omega", _fmt(plan.omega), "--beta", _range_token(b_bounds)]
    elif sub == "pulse":
        plan.omega = res.number("omega", default=1.0)
        plan.span = res.number("span", default=0.64)
        plan.samples = res.integer("samples", default=4096)
        plan.sigma_omega = res.number("sigma-omega", default=0.01)
        plan.beta = res.angle("beta", default=0.0)
        sub_tokens = ["--omega", _fmt(plan.omega), "--span", _fmt(plan.span),
                      "--samples", str(plan.samples),
                      "--sigma-omega", _fmt(plan.sigma_omega),
                      "--beta", _fmt(plan.beta)]
    elif sub == "singularities":
        plan.omega_interval = res.interval("omega", default=(0.5, 1.5))
        plan.beta_interval = res.interval("beta", default=(0.0, math.pi),
                                          is_angle=True)
        plan.scan = res.integer("scan", default=101)
        plan.tol = res.number("tol", default=1e-10)
        sub_tokens = ["--omega", _interval_token(plan.omega_interval),
                      "--beta", _interval_token(plan.beta_interval),
                      "--scan", str(plan.scan), "--tol", _fmt(plan.tol)]
    elif sub == "estimate-beta":
        plan.omega = res.number("omega", required=True)
        plan.tau = res.number("tau", required=True)
        plan.bracket = res.interval("bracket", required=True, is_angle=True)
        sub_tokens = ["--omega", _fmt(plan.omega), "--tau", _fmt(plan.tau),
                      "--bracket", _interval_token(plan.bracket)]

    plan.tokens = [sub] + model_tokens + pair_tokens + sub_tokens \
        + ["--format", fmt]
    return plan


def _command_line(plan):
    return "weaklight " + " ".join(plan.tokens)


def _sweep_chunks(plan, table, arg_t=None, blank=(6,)):
    """A sweep CSV as text chunks: the header, then rows in fixed-size batches.

    Each batch is one ``%`` operation on a ``%.17g`` template, which formats
    exactly like ``format(x, ".17g")``.  ``arg_t`` replaces the table's
    column of that name; on singular rows the fields indexed by ``blank``
    are left empty.
    """
    yield f"# {_command_line(plan)}\n{_SWEEP_COLUMNS}\n"
    columns = (table.omega, table.beta, table.re_t, table.im_t, table.abs_t,
               table.arg_t if arg_t is None else arg_t, table.group_delay)
    ok = "%.17g," * len(columns) + "false\n"
    sing = "".join("," if k in blank else "%.17g," for k in range(len(columns))) + "true\n"
    n = table.singular.shape[0]
    for start in range(0, n, _BATCH_ROWS):
        stop = min(start + _BATCH_ROWS, n)
        values = np.column_stack([c[start:stop] for c in columns])
        flags = table.singular[start:stop]
        if not flags.any():
            yield (ok * (stop - start)) % tuple(values.ravel().tolist())
            continue
        keep = np.ones(values.shape, dtype=bool)
        keep[np.ix_(flags, blank)] = False
        template = "".join([sing if f else ok for f in flags.tolist()])
        yield template % tuple(values[keep].tolist())


def _float_array(values):
    """A JSON array of floats, formatted in batches with one ``%.17g`` template each."""
    parts = []
    for start in range(0, values.shape[0], _BATCH_ROWS):
        batch = values[start:start + _BATCH_ROWS].tolist()
        parts.append(", ".join(["%.17g"] * len(batch)) % tuple(batch))
    return "[" + ", ".join(parts) + "]"


def _json_value(obj):
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64:
        return _float_array(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.dumps(k)}: {_json_value(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _json_document(obj):
    lines = [f"  {json.dumps(k)}: {_json_value(v)}" for k, v in obj.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _csv_document(plan, columns, rows):
    lines = [f"# {_command_line(plan)}", columns]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _render(plan):
    """Compute a plan's results; returns the output as an iterable of text chunks.

    Everything that can fail runs here, before the caller opens the output,
    so a failed run writes nothing; sweep rows are formatted lazily as the
    chunks are consumed.
    """
    model, pair = plan.model, plan.pair

    if plan.subcommand == "contour":
        return _sweep_chunks(plan, contour_grid(model, plan.omega_grid, plan.beta_grid, pair))

    if plan.subcommand == "spectrum":
        spectrum = phase_spectrum(model, plan.beta, pair, plan.omega_grid)
        if spectrum.undersampled:
            print("weaklight: warning: an unwrapped phase step reached 0.9*pi; "
                  "the --omega grid may be too coarse for a faithful unwrap",
                  file=sys.stderr)
        table = contour_grid(model, plan.omega_grid, [plan.beta], pair)
        return _sweep_chunks(plan, table, arg_t=spectrum.phase, blank=(5, 6))

    if plan.subcommand == "angle-sweep":
        return _sweep_chunks(plan, sweep_angle(model, plan.omega, plan.beta_grid, pair))

    if plan.subcommand == "singularities":
        hits = find_singularities(model, plan.omega_interval, plan.beta_interval,
                                  pair, scan=plan.scan, tol=plan.tol)
        rows = [",".join([_fmt(s.omega), _fmt(s.beta), _fmt(s.residual_abs_t)])
                for s in hits]
        return [_csv_document(plan, _SINGULARITY_COLUMNS, rows)]

    if plan.subcommand == "estimate-beta":
        beta = estimate_beta(model, plan.omega, pair, plan.tau, plan.bracket)
        if plan.fmt == "json":
            return [_json_document({"command": _command_line(plan), "beta": beta})]
        return [_csv_document(plan, "beta", [_fmt(beta)])]

    if plan.subcommand == "pulse":
        grid = SpectralGrid(plan.samples, plan.omega, plan.span)
        pulse_in = gaussian_pulse(grid, plan.sigma_omega)
        pulse_out, report = propagate(model, plan.beta, pair, pulse_in)
        in_intensity = pulse_in.temporal.real**2 + pulse_in.temporal.imag**2
        out_intensity = pulse_out.temporal.real**2 + pulse_out.temporal.imag**2
        doc = {
            "command": _command_line(plan),
            "grid": {
                "samples": grid.n,
                "omega_center": grid.omega_center,
                "omega_span": grid.omega_span,
                "delta_omega": grid.delta_omega,
                "time_step": grid.time_step,
            },
            "sigma_omega": plan.sigma_omega,
            "beta": plan.beta,
            "report": {
                "peak_shift": report.peak_shift,
                "centroid_shift": report.centroid_shift,
                "energy_transmission": report.energy_transmission,
                "predicted_group_delay": report.predicted_group_delay,
            },
            "times": grid.times(),
            "input_intensity": in_intensity,
            "output_intensity": out_intensity,
        }
        return [_json_document(doc)]

    raise ValueError(f"unknown subcommand {plan.subcommand!r}")


def _write(path, chunks):
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)


def execute(plan):
    """Run a plan and write its output; returns the process exit status."""
    try:
        chunks = _render(plan)
    except PostselectionNull as exc:
        print(f"weaklight: null postselection: {exc}", file=sys.stderr)
        return 3
    except (BadBracket, ValueError) as exc:
        print(f"weaklight: error: {exc}", file=sys.stderr)
        return 2
    try:
        _write(plan.output, chunks)
    except OSError as exc:
        print(f"weaklight: i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    return execute(parse(argv))


if __name__ == "__main__":
    sys.exit(main())
