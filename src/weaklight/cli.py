"""Command-line front end: reproducible sweeps and pulse runs as CSV/JSON.

Every output starts with a header comment holding the fully resolved command
(angles in radians, numbers at 17 significant digits); re-running that
command reproduces the file byte for byte.  Exit codes: 0 success, 1 i/o,
2 usage, 3 null postselection.

The flag table ``_SUBCOMMANDS`` (with ``_MODEL_FLAGS`` for the linear model)
is the single place where a subcommand's flags, their kinds, defaults and
help text, and their order in the header are declared: the parser, the
resolver, the plan attributes and the header tokens are all built from it.
"""

import argparse
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import _g17
from .crystal import TAU_TE_DEFAULT, TAU_TM_DEFAULT, LinearDispersion, load_tabulated
from .errors import PostselectionNull
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

# sweep rows (or JSON array numbers) formatted per batch
_BATCH_ROWS = 4096
# the flag field of a sweep row, indexed by its singular flag
_FLAGS = np.frombuffer(b"false\ntrue\n\0", np.uint8).reshape(2, 6)

# Resource caps: past them a run exits 2 instead of running out of memory.
# At the measured cost per cell, sample or scan point, a run at its cap
# peaks under 1 GB of RSS (README, "Resource caps").
_MAX_CELLS = 4_000_000                                    # omega count x beta count
_MAX_INTEGER = {"samples": 1 << 20, "scan": 1_000_000}

_DEG = math.pi / 180.0
_BASIS_LABELS = ("V", "H", "D45", "A135")
_REQUIRED = object()

# The kind of a flag fixes its syntax, metavar and RunPlan attribute suffix;
# the angle kinds are scaled by --degrees when the user gives the value.
_KINDS = {"number": ("X", ""), "integer": ("N", ""),
          "grid": ("LO:HI:N", "_grid"), "interval": ("LO:HI", "_interval")}

_MODEL_FLAGS = [
    ("tau-te", "number", TAU_TE_DEFAULT, "TE phase slope (default 10*pi)"),
    ("tau-tm", "number", TAU_TM_DEFAULT, "TM phase slope (default 9*pi)"),
    ("phi0-te", "number", 0.0, "TE phase offset (default 0)"),
    ("phi0-tm", "number", 0.0, "TM phase offset (default 0)"),
]

# subcommand -> (help line, its own flags in header order as
# (flag, kind, default, help)); grid defaults are (lo, hi, count)
_SUBCOMMANDS = {
    "contour": ("T over an (omega, beta) grid", [
        ("omega", "grid", (0.5, 1.5, 101), "frequency grid (default 0.5:1.5:101)"),
        ("beta", "angle-grid", (0.0, math.pi, 181), "angle grid (default 0:pi:181)"),
    ]),
    "spectrum": ("unwrapped phase vs frequency at fixed angle", [
        ("omega", "grid", (0.1, 0.9, 161), "frequency grid (default 0.1:0.9:161)"),
        ("beta", "angle", 0.0, "plate angle (default 0)"),
    ]),
    "angle-sweep": ("T and group delay vs angle at fixed frequency", [
        ("omega", "number", 1.0, "frequency (default 1)"),
        ("beta", "angle-grid", (0.0, 0.5 * math.pi, 181), "angle grid (default 0:pi/2:181)"),
    ]),
    "pulse": ("propagate a narrowband Gaussian pulse", [
        ("omega", "number", 1.0, "carrier frequency (default 1)"),
        ("span", "number", 0.64, "spectral window width (default 0.64)"),
        ("samples", "integer", 4096, "grid size, power of two (default 4096)"),
        ("sigma-omega", "number", 0.01, "spectral bandwidth (default 0.01)"),
        ("beta", "angle", 0.0, "plate angle (default 0)"),
    ]),
    "singularities": ("locate transfer-function zeros", [
        ("omega", "interval", (0.5, 1.5), "frequency window (default 0.5:1.5)"),
        ("beta", "angle-interval", (0.0, math.pi), "angle window (default 0:pi)"),
        ("scan", "integer", 101, "points on each 1-D root scan (default 101)"),
        ("tol", "number", 1e-10, "residual |T| tolerance (default 1e-10)"),
    ]),
    "estimate-beta": ("invert the plate angle from a group delay", [
        ("omega", "number", _REQUIRED, "frequency of the measurement (required)"),
        ("tau", "number", _REQUIRED, "measured group delay (required)"),
        ("bracket", "angle-interval", _REQUIRED, "angle bracket (required)"),
    ]),
}


def _fmt(x):
    return format(float(x), ".17g")


def _shape(kind):
    return kind.removeprefix("angle").lstrip("-") or "number"


@dataclass
class RunPlan:
    """A resolved run; each flag of the subcommand's table is one more attribute."""

    subcommand: str
    model: object
    pair: SelectionPair
    output: str | None
    fmt: str
    tokens: list


def _build_parser(names):
    """The parser with the subparsers of ``names``, and for each of them the
    long flag names a --config key may use."""
    parser = argparse.ArgumentParser(
        prog="weaklight",
        description="Post-selected birefringent-plate sweeps: transfer "
                    "function grids, phase and group-delay spectra, "
                    "singularity maps, pulse runs, and angle estimation.")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="SUBCOMMAND")
    config_keys = {}
    for name in names:
        help_line, flags = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        keys = config_keys[name] = set()

        def add(group, *names, **kwargs):
            keys.add(names[-1].removeprefix("--"))
            group.add_argument(*names, **kwargs)

        for key, kind, _, text in flags:
            add(p, f"--{key}", metavar=_KINDS[_shape(kind)][0], help=text)
        g = p.add_argument_group("model and selection")
        for key, _, _, text in _MODEL_FLAGS:
            add(g, f"--{key}", metavar="X", help=text)
        add(g, "--dispersion-csv", metavar="PATH",
            help="tabulated dispersion CSV (overrides the linear model)")
        add(g, "--psi-in", metavar="STATE",
            help="pre-selection: V, H, D45, A135 or a linear angle")
        add(g, "--psi-f", metavar="STATE",
            help="post-selection: V, H, D45, A135 or a linear angle")
        add(p, "--degrees", action="store_true",
            help="interpret input angles as degrees (output stays radians)")
        p.add_argument("--config", metavar="PATH",
                       help="flat JSON object whose keys are long flag names")
        add(p, "-o", "--output", metavar="PATH",
            help="output file (default: standard output)")
        add(p, "--format", metavar="FMT",
            help="csv or json (default csv; pulse is always json; "
                 "json only for pulse and estimate-beta)")
    return parser, config_keys


class _Resolver:
    """Merges command-line flags over config-file values over defaults."""

    def __init__(self, parser, args, config, degrees):
        self.parser = parser
        self.args = args
        self.config = config
        self.degrees = degrees
        self.cells = 1

    def pick(self, key, default=None):
        cli = getattr(self.args, key.replace("-", "_"), None)
        if cli is not None:
            return cli, True
        if key in self.config:
            return self.config[key], True
        if default is _REQUIRED:
            self.parser.error(
                f"--{key} is required for {self.args.subcommand}")
        return default, False

    def _float(self, key, value):
        try:
            if isinstance(value, bool):
                raise TypeError
            x = float(value)
        except (TypeError, ValueError):
            self.parser.error(f"--{key} expects a number, got {value!r}")
        if not math.isfinite(x):
            self.parser.error(f"--{key} must be finite, got {value!r}")
        return x

    def _int(self, key, value):
        # int() would truncate a JSON float and take a JSON boolean
        try:
            if isinstance(value, (bool, float)):
                raise TypeError
            return int(value)
        except (TypeError, ValueError):
            self.parser.error(f"--{key} expects an integer, got {value!r}")

    def resolve(self, key, kind, default):
        """The typed value of a table flag and its header token.

        A value the user gave (on the command line or in the config) is
        checked, and scaled to radians for an angle kind under --degrees;
        a grid resolves to its sample array, an interval to (lo, hi).
        """
        value, user = self.pick(key, default)
        shape = _shape(kind)
        scale = _DEG if user and self.degrees and kind.startswith("angle") else 1.0
        if shape == "integer":
            n = self._int(key, value)
            if n > _MAX_INTEGER.get(key, n):
                self.parser.error(f"--{key} {n} is above the cap of {_MAX_INTEGER[key]}")
            return n, str(n)
        if shape == "number":
            x = self._float(key, value) * scale
            return x, _fmt(x)
        grid = shape == "grid"
        parts = str(value).split(":") if user else value
        if len(parts) != (3 if grid else 2):
            self.parser.error(
                f"--{key} expects {'lo:hi:count' if grid else 'lo:hi'}, got {value!r}")
        lo, hi = (self._float(key, part) * scale for part in parts[:2])
        token = f"{_fmt(lo)}:{_fmt(hi)}"
        if grid:
            n = self._int(key, parts[2])
            if n < 2:
                self.parser.error(f"--{key}: grid size must be at least 2")
            # checked before any grid is allocated
            self.cells *= n
            if self.cells > _MAX_CELLS:
                self.parser.error(f"--{key}: {self.cells} sweep cells (omega count x "
                                  f"beta count), above the cap of {_MAX_CELLS}")
        if not lo < hi:
            self.parser.error(
                f"--{key}: empty {'range' if grid else 'interval'} {lo!r}:{hi!r}")
        if grid:
            return np.linspace(lo, hi, n), f"{token}:{n}"
        return (lo, hi), token

    def flags(self, table):
        """Resolve a flag table: ({RunPlan attribute: value}, header tokens)."""
        values, tokens = {}, []
        for key, kind, default, _ in table:
            value, token = self.resolve(key, kind, default)
            values[key.replace("-", "_") + _KINDS[_shape(kind)][1]] = value
            tokens += [f"--{key}", token]
        return values, tokens

    def state(self, key):
        """A selection state from a basis label or a linear angle, and its token."""
        value, _ = self.pick(key, "V")
        if isinstance(value, str) and value in _BASIS_LABELS:
            return basis_state(value), value
        angle, token = self.resolve(key, "angle", value)
        return linear_state(angle), token


def parse(argv=None):
    """Resolve argv (and any config file) into a RunPlan; exits 2 on usage errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run names its subcommand first, and only that subparser is built;
    # help, a missing or an unknown subcommand get the full parser's messages
    parser, config_keys = _build_parser(
        argv[:1] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS)
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
        for key in config:
            if key not in config_keys[args.subcommand]:
                parser.error(f"--config: {args.subcommand} has no flag --{key}")

    degrees = config.get("degrees", False)
    if not isinstance(degrees, bool):
        parser.error(f"--degrees expects true or false, got {degrees!r}")
    degrees = args.degrees or degrees
    res = _Resolver(parser, args, config, degrees)

    csv_path, _ = res.pick("dispersion-csv")
    if csv_path is not None:
        try:
            model = load_tabulated(csv_path)
        except (OSError, ValueError) as exc:
            print(f"weaklight: i/o error: {exc}", file=sys.stderr)
            raise SystemExit(1) from None
        model_tokens = ["--dispersion-csv", str(csv_path)]
    else:
        params, model_tokens = res.flags(_MODEL_FLAGS)
        try:
            model = LinearDispersion(**params)
        except ValueError as exc:
            parser.error(str(exc))

    psi_in, tok_in = res.state("psi-in")
    psi_f, tok_f = res.state("psi-f")
    pair = SelectionPair(psi_in, psi_f)
    pair_tokens = ["--psi-in", tok_in, "--psi-f", tok_f]

    sub = args.subcommand
    fmt, _ = res.pick("format", "json" if sub == "pulse" else "csv")
    if fmt not in ("csv", "json"):
        parser.error(f"--format must be csv or json, got {fmt!r}")
    if sub == "pulse" and fmt != "json":
        parser.error("pulse output is json only")
    if fmt == "json" and sub not in _JSON_SUBCOMMANDS:
        parser.error(f"{sub} output is csv only; --format json applies to "
                     f"{' and '.join(_JSON_SUBCOMMANDS)}")
    output, _ = res.pick("output")

    values, sub_tokens = res.flags(_SUBCOMMANDS[sub][1])
    plan = RunPlan(subcommand=sub, model=model, pair=pair, output=output, fmt=fmt,
                   tokens=[sub] + model_tokens + pair_tokens + sub_tokens
                   + ["--format", fmt])
    for name, value in values.items():
        setattr(plan, name, value)
    return plan


def _command_line(plan):
    return "weaklight " + " ".join(plan.tokens)


def _sweep_chunks(plan, table, arg_t=None):
    """A sweep CSV as text chunks: the header, then rows in fixed-size batches.

    The table is row-major over (omega, beta) with beta fastest, as
    ``contour_grid`` and ``sweep_angle`` return it.  Each batch formats its
    T columns, and each distinct omega that its rows reach once, into
    ``_g17`` slot rows; the betas are formatted once per table when one
    batch reaches them all, else per batch.  A row is the slots of its seven
    fields, each with its comma, and its flag, assembled in one row matrix
    that every batch reuses.  ``arg_t`` replaces the table's column of that
    name.  On a singular row, a T field whose value is NaN is left empty:
    the group delay there, and an unwrapped phase.
    """
    yield f"# {_command_line(plan)}\n{_SWEEP_COLUMNS}\n"
    n, nb = table.singular.shape[0], table.shape[-1]
    columns = (table.re_t, table.im_t, table.abs_t,
               table.arg_t if arg_t is None else arg_t, table.group_delay)
    width = _g17.WIDTH + 1
    matrix = np.empty((min(_BATCH_ROWS, n), 7 * width + _FLAGS.shape[1]), np.uint8)
    betas = _g17.slots(table.beta[:nb], b",") if nb <= _BATCH_ROWS else None
    for start in range(0, n, _BATCH_ROWS):
        stop = min(start + _BATCH_ROWS, n)
        rows = matrix[:stop - start]
        at = np.arange(start, stop)
        # row r holds omega r // nb and beta r % nb
        first = start // nb
        omega = _g17.slots(table.omega[first * nb:(stop - 1) // nb * nb + 1:nb], b",")
        np.take(omega, at // nb - first, axis=0, out=rows[:, :width])
        if betas is None:
            _g17.slots(table.beta[at % nb], b",", out=rows[:, width:2 * width])
        else:
            np.take(betas, at % nb, axis=0, out=rows[:, width:2 * width])
        values = np.column_stack([c[start:stop] for c in columns])
        t = _g17.slots(values, b",",
                       out=rows[:, 2 * width:7 * width].reshape(-1, len(columns), width))
        flags = table.singular[start:stop]
        t[np.isnan(values) & flags[:, None], :_g17.WIDTH] = 0
        rows[:, 7 * width:] = _FLAGS[flags.view(np.uint8)]
        yield _g17.text(rows)


def _float_array(values):
    """A JSON array of floats at 17 significant digits, as text chunks
    formatted batch by batch."""
    yield "["
    n = values.shape[0]
    for start in range(0, n, _BATCH_ROWS):
        text = _g17.text(_g17.slots(values[start:start + _BATCH_ROWS], b", "))
        yield text if start + _BATCH_ROWS < n else text[:-2]
    yield "]"


def _time_axis(grid):
    """The chunks of ``_float_array(grid.times())``, formatting each |m|*dt once.

    The times are m*dt for m = -n/2 .. n/2-1, and (-m)*dt is -(m*dt) bit for
    bit, so a negative time is "-" and the slots of its magnitude.  Batches
    of magnitudes are formatted from the top down: each writes its negative
    times at once and keeps the text of its positive ones for after them.
    """
    half = grid.n // 2
    positive = []
    yield "["
    for start in reversed(range(0, half + 1, _BATCH_ROWS)):
        stop = min(start + _BATCH_ROWS, half + 1)
        mags = _g17.slots(np.arange(start, stop) * grid.time_step, b", ")
        positive.append(_g17.text(mags[:half - start]))
        mags = mags[max(1 - start, 0):][::-1]
        mags[:, 0] = ord("-")
        yield _g17.text(mags)
    # the top batch holds no positive time when it starts at n/2
    positive = [text for text in positive if text]
    positive[0] = positive[0][:-2] + "]"
    yield from reversed(positive)


def _json_value(obj):
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.dumps(k)}: {_json_value(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _json_chunks(doc):
    """A JSON object as text chunks, one member a line.

    A member whose value is an iterator of chunks (a float array) is written
    as the iterator yields them; any other value is formatted whole.
    """
    sep = "{\n"
    for key, value in doc.items():
        yield f"{sep}  {json.dumps(key)}: "
        if isinstance(value, Iterator):
            yield from value
        else:
            yield _json_value(value)
        sep = ",\n"
    yield "\n}\n"


def _csv_document(plan, columns, rows):
    return "\n".join([f"# {_command_line(plan)}", columns, *rows]) + "\n"


def _contour(plan, model, pair):
    return _sweep_chunks(plan, contour_grid(model, plan.omega_grid, plan.beta_grid, pair))


def _spectrum(plan, model, pair):
    spectrum = phase_spectrum(model, plan.beta, pair, plan.omega_grid)
    if spectrum.undersampled:
        print("weaklight: warning: an unwrapped phase step reached 0.9*pi; "
              "the --omega grid may be too coarse for a faithful unwrap",
              file=sys.stderr)
    table = contour_grid(model, plan.omega_grid, [plan.beta], pair)
    return _sweep_chunks(plan, table, arg_t=spectrum.phase)


def _angle_sweep(plan, model, pair):
    return _sweep_chunks(plan, sweep_angle(model, plan.omega, plan.beta_grid, pair))


def _singularities(plan, model, pair):
    hits = find_singularities(model, plan.omega_interval, plan.beta_interval,
                              pair, scan=plan.scan, tol=plan.tol)
    rows = [",".join(map(_fmt, (s.omega, s.beta, s.residual_abs_t))) for s in hits]
    return [_csv_document(plan, _SINGULARITY_COLUMNS, rows)]


def _estimate_beta(plan, model, pair):
    beta = estimate_beta(model, plan.omega, pair, plan.tau, plan.bracket_interval)
    if plan.fmt == "json":
        return _json_chunks({"command": _command_line(plan), "beta": beta})
    return [_csv_document(plan, "beta", [_fmt(beta)])]


def _pulse(plan, model, pair):
    grid = SpectralGrid(plan.samples, plan.omega, plan.span)
    pulse_in = gaussian_pulse(grid, plan.sigma_omega)
    pulse_out, report = propagate(model, plan.beta, pair, pulse_in)
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
        "times": _time_axis(grid),
        "input_intensity": _float_array(pulse_in.intensity),
        "output_intensity": _float_array(pulse_out.intensity),
    }
    return _json_chunks(doc)


# subcommand -> renderer(plan, model, pair), which returns the output as text
# chunks.  All that can fail runs in it, before execute opens the output, so a
# failed run writes nothing; rows and float arrays are formatted lazily.
_RENDERERS = {"contour": _contour, "spectrum": _spectrum, "angle-sweep": _angle_sweep,
              "singularities": _singularities, "estimate-beta": _estimate_beta,
              "pulse": _pulse}


def _write(path, chunks):
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)


def execute(plan):
    """Run a plan and write its output; returns the process exit status."""
    try:
        chunks = _RENDERERS[plan.subcommand](plan, plan.model, plan.pair)
    except PostselectionNull as exc:
        print(f"weaklight: null postselection: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
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
