"""Property tests of the CLI's 17-digit text: the number formatter, the sweep rows
and the pulse time axis.

``_g17`` formats float64 arrays with numpy; its text is held to
``"%.17g" % x`` on raw bit patterns, on families where the decimal exponent
or the rounding is hard (powers of ten and two and their neighbours,
subnormals, the fixed/e-style boundaries), on a large seeded sample, and on
the values it hands to its ``%`` fallback.  The sweep rows, which format
each shared axis value once per batch, and the pulse time axis, which
formats each magnitude once, are held to naive references that format every
field with ``format(x, ".17g")``, across batch sizes.
"""

import math
from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weaklight import SpectralGrid
from weaklight import _g17, cli
from weaklight.weakmeas import SampleTable

PLAN = cli.parse(["contour"])
BATCH_SIZES = [1, 2, 3, 4, 5, 6, 7, cli._BATCH_ROWS]

floats = st.floats(allow_nan=True, allow_infinity=True)
axis = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6)


def reference_csv(table, arg_t):
    columns = (table.omega, table.beta, table.re_t, table.im_t, table.abs_t,
               table.arg_t if arg_t is None else arg_t, table.group_delay)
    lines = [f"# {cli._command_line(PLAN)}", cli._SWEEP_COLUMNS]
    for r, singular in enumerate(table.singular.tolist()):
        # on a singular row, a T field whose value is NaN is written empty
        fields = [format(float(c[r]), ".17g") for c in columns]
        fields[2:] = ["" if singular and math.isnan(c[r]) else f
                      for c, f in zip(columns[2:], fields[2:])]
        lines.append(",".join(fields + ["true" if singular else "false"]))
    return "\n".join(lines) + "\n"


def first_difference(text, expected):
    """None if the texts are equal, else where they part; cheap to report when long."""
    if text == expected:
        return None
    at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
              min(len(text), len(expected)))
    return at, text[at:at + 60], expected[at:at + 60]


def with_batch_rows(rows, fn, *args):
    saved = cli._BATCH_ROWS
    cli._BATCH_ROWS = rows
    try:
        return fn(*args)
    finally:
        cli._BATCH_ROWS = saved


@settings(max_examples=300, deadline=None)
@given(data=st.data(), omegas=axis, betas=axis, flat=st.booleans(),
       replace_arg_t=st.booleans(), rows=st.sampled_from(BATCH_SIZES))
def test_sweep_rows_match_naive_formatting(data, omegas, betas, flat, replace_arg_t, rows):
    nw, nb = len(omegas), len(betas)
    n = nw * nb
    draw = lambda dtype, elements: data.draw(arrays(dtype, n, elements=elements))  # noqa: E731
    # a one-omega table may be flat, as sweep_angle returns it
    shape = (nb,) if flat and nw == 1 else (nw, nb)
    table = SampleTable(shape, {
        "omega": np.repeat(np.array(omegas), nb), "beta": np.tile(np.array(betas), nw),
        "re_t": draw(float, floats), "im_t": draw(float, floats),
        "abs_t": draw(float, floats), "arg_t": draw(float, floats),
        "group_delay": draw(float, floats), "singular": draw(bool, st.booleans())})
    arg_t = draw(float, floats) if replace_arg_t else None
    text = with_batch_rows(rows, lambda: "".join(cli._sweep_chunks(PLAN, table, arg_t)))
    assert first_difference(text, reference_csv(table, arg_t)) is None


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(6, 16), span=st.floats(1e-6, 1e6),
       rows=st.sampled_from([1, 7, 4096, cli._BATCH_ROWS]))
def test_time_axis_matches_float_array(bits, span, rows):
    grid = SpectralGrid(2 ** bits, 1.0, span)
    text = with_batch_rows(rows, lambda: "".join(cli._time_axis(grid)))
    assert first_difference(text, "".join(cli._float_array(grid.times()))) is None
    naive = "[" + ", ".join(format(t, ".17g") for t in grid.times().tolist()) + "]"
    assert first_difference(text, naive) is None


def g17_strings(values):
    return _g17.text(_g17.slots(np.asarray(values, dtype=np.float64), b"\n")).split("\n")[:-1]


def assert_formats_like_percent(values):
    values = np.asarray(values, dtype=np.float64)
    got = g17_strings(values)
    want = ["%.17g" % x for x in values.tolist()]
    wrong = [(x.hex(), g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, f"{len(wrong)} of {len(want)} differ, first {wrong[:3]}"


def neighbours(values, steps=2):
    """The values and their ``steps`` nearest floats on each side, as one array."""
    out = [values]
    down = up = values
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=_g17._SHORT, max_size=128))
def test_g17_raw_bit_patterns(patterns):
    # both signs: the top bit is drawn with the rest
    assert_formats_like_percent(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_g17_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = neighbours(powers, steps=3)
    assert_formats_like_percent(np.concatenate([values, -values]))


def test_g17_powers_of_two_and_subnormals():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    subnormals = np.array([5e-324, 1e-323, 2.2250738585072009e-308, 1e-310, 3.7e-320])
    values = np.concatenate([neighbours(powers[1:-1], steps=1), subnormals,
                             np.arange(1, 4096).view(np.float64), [0.0, -0.0]])
    assert_formats_like_percent(np.concatenate([values, -values]))


def test_g17_fixed_and_exponent_boundaries():
    # %g switches to e-style below 1e-4 and from 1e17 on; 1e16..1e17 prints 17 digits
    edges = np.array([1e-5, 1e-4, 1e-3, 0.1, 1.0, 10.0, 1e15, 1e16, 1e17, 1e18,
                      9.99995e-5, 99999999999999999.0, 0.5, 1.5, 123.0, 100.0])
    values = neighbours(edges, steps=4)
    assert_formats_like_percent(np.concatenate([values, -values, values * 7, values / 3]))


def test_g17_seeded_sample():
    rng = np.random.default_rng(20260)
    bits = rng.integers(0, 2 ** 63, 100_000, dtype=np.int64).view(np.float64)
    scaled = rng.normal(size=60_000) * 10.0 ** rng.integers(-30, 30, 60_000)
    # few significant digits, which the formatter must strip to
    scale = 10.0 ** rng.integers(0, 6, 40_000)
    short = np.round(rng.uniform(-1e4, 1e4, 40_000) * scale) / scale
    values = np.concatenate([bits, -bits[:50_000], scaled, short])[:200_000]
    assert values.shape == (200_000,)
    assert_formats_like_percent(values)


def test_g17_slots_of_a_2d_array():
    # a (rows, fields) array, as a sweep batch formats its T columns, gives
    # fresh C-contiguous slot rows: those of the flattened array, each with its tail
    rng = np.random.default_rng(20261)
    values = rng.normal(size=(40, 5)) * 10.0 ** rng.integers(-20, 20, (40, 5))
    values[3, 1:4] = [0.0, math.nan, 2.0 ** -25]           # fallback values
    width = _g17.WIDTH + 1
    rows = _g17.slots(values, b",")
    assert rows.shape == (40, 5, width) and rows.flags.c_contiguous
    assert not np.shares_memory(rows, _g17.slots(values, b","))
    assert np.array_equal(rows.reshape(200, width), _g17.slots(values.ravel(), b","))
    assert (rows[..., _g17.WIDTH] == ord(",")).all()
    assert _g17.text(rows[3]) == "".join("%.17g," % x for x in values[3].tolist())


def test_g17_fallback_values():
    # exact 17-digit ties (an odd and an even last digit), zeros, magnitudes
    # outside [1e-270, 1e270], NaN and infinities
    ties = np.array([2.0 ** -25, 123456789012345.375, 123456789012345.125,
                     12345678901234.5625])
    # exactly 18 significant digits, the last a 5
    assert all(Decimal(x).as_tuple().digits[17:] == (5,) for x in ties.tolist())
    outside = np.array([0.0, 1e-271, 9.9e-271, 1e-300, 1.5e271, 1e300, 1.7976931348623157e308,
                        math.nan, math.inf])
    assert not _g17._decimal(np.abs(ties))[2].any()
    # in an array long enough for the numpy path
    assert_formats_like_percent(np.concatenate([ties, -ties, outside, -outside,
                                                np.linspace(1.0, 2.0, _g17._SHORT)]))
    assert g17_strings([-math.nan, math.nan, -0.0]) == ["nan", "nan", "-0"]
