"""Property tests of the CLI's 17-digit text: the sweep rows and the pulse time axis.

The formatters bake shared axis strings into their templates; these tests
hold them to naive references that format every field with
``format(x, ".17g")``, across batch sizes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weaklight import SpectralGrid
from weaklight import cli
from weaklight.weakmeas import SampleTable

PLAN = cli.parse(["contour"])
BATCH_SIZES = [1, 2, 3, 4, 5, 6, 7, cli._BATCH_ROWS]

floats = st.floats(allow_nan=True, allow_infinity=True)
axis = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6)


def reference_csv(table, arg_t, blank):
    columns = (table.omega, table.beta, table.re_t, table.im_t, table.abs_t,
               table.arg_t if arg_t is None else arg_t, table.group_delay)
    lines = [f"# {cli._command_line(PLAN)}", cli._SWEEP_COLUMNS]
    for r, singular in enumerate(table.singular.tolist()):
        fields = ["" if singular and k in blank else format(float(c[r]), ".17g")
                  for k, c in enumerate(columns)]
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
       blank=st.sampled_from([(6,), (5, 6)]), rows=st.sampled_from(BATCH_SIZES))
def test_sweep_rows_match_naive_formatting(data, omegas, betas, flat, blank, rows):
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
    arg_t = draw(float, floats) if blank == (5, 6) else None
    text = with_batch_rows(rows, lambda: "".join(cli._sweep_chunks(PLAN, table, arg_t, blank)))
    assert first_difference(text, reference_csv(table, arg_t, blank)) is None


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(6, 16), span=st.floats(1e-6, 1e6),
       rows=st.sampled_from([1, 7, 4096, cli._BATCH_ROWS]))
def test_time_axis_matches_float_array(bits, span, rows):
    grid = SpectralGrid(2 ** bits, 1.0, span)
    text = with_batch_rows(rows, cli._time_axis, grid)
    assert first_difference(text, cli._float_array(grid.times())) is None
    naive = "[" + ", ".join(format(t, ".17g") for t in grid.times().tolist()) + "]"
    assert first_difference(text, naive) is None
