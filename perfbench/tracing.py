"""Spans around the package's public functions, recorded from outside the package.

The tracer wraps each function listed in ``TRACED`` and rebinds the wrapper at
every ``weaklight`` module attribute that holds the original, because the
package imports many functions by name (``cli.contour_grid``,
``pulse.dft_forward``, ``weakmeas.phase_arrays``) and a call through an
unwrapped binding would silently vanish from its layer.  Spans are kept in
memory (name, start, end, parent span, op) and written out once, at the end.
"""

import functools
import os
import sys
import time
from array import array

import numpy as np

CTS = ("calls", "total_ms", "self_ms")
CT = ("calls", "total_ms")

# (layer module, function, per-layer quantities reported for it)
TRACED = [
    ("cli", "parse", CT),
    ("cli", "execute", CTS + ("out_bytes",)),
    ("weakmeas", "contour_grid", CTS),
    ("weakmeas", "sweep_angle", CTS),
    ("weakmeas", "phase_spectrum", CTS),
    ("weakmeas", "transfer_line", CTS),
    ("weakmeas", "find_singularities", CTS),
    ("weakmeas", "estimate_beta", CTS),
    ("weakmeas", "group_delay", CTS),
    ("weakmeas", "transfer", CTS),
    ("crystal", "phase_arrays", CT),
    ("crystal", "delay_arrays", CT),
    ("crystal", "phases", CT),
    ("crystal", "group_delays", CT),
    ("crystal", "load_tabulated", CT),
    ("backends", "bilinear_grid", CT + ("bytes_computed",)),
    ("backends", "fft_butterflies", CT + ("flops_computed",)),
    ("fourier", "dft_forward", CTS),
    # Wrapped so a future caller shows up in the span dump; no workload
    # reaches it (only PulseField.from_temporal does), so nothing is reported.
    ("fourier", "dft_inverse", ()),
    ("pulse", "gaussian_pulse", CTS),
    ("pulse", "propagate", CTS),
    ("pulse", "peak_time", CTS),
]

DERIVED = [
    ("weakmeas.find_singularities.transfer_calls_per_search", "count"),
    ("weakmeas.estimate_beta.group_delay_calls_per_inversion", "count"),
    ("trace.op_wall_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]

UNITS = {"calls": "count", "total_ms": "ms", "self_ms": "ms",
         "out_bytes": "bytes", "bytes_computed": "bytes",
         "flops_computed": "flop"}


def _out_bytes(plan):
    return os.path.getsize(plan.output) if plan.output else 0


def _bilinear_bytes(are, aim, bre, bim, p1re, *_):
    # four omega tables and four beta weight vectors read, two grids written
    nw, nb = are.shape[0], p1re.shape[0]
    return 8 * (4 * nw + 4 * nb + 2 * nw * nb)


def _butterfly_flops(re, *_):
    # (n/2) log2 n butterflies of 10 flops: a complex multiply and two adds
    n = re.shape[0]
    return 5 * n * (n.bit_length() - 1)


# quantity computed from a call's arguments after it returns
QUANTITY = {
    "cli.execute": ("out_bytes", _out_bytes),
    "backends.bilinear_grid": ("bytes_computed", _bilinear_bytes),
    "backends.fft_butterflies": ("flops_computed", _butterfly_flops),
}


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, fn, fields in TRACED:
        out.extend((f"{layer}.{fn}.{f}", UNITS[f]) for f in fields)
    return out + DERIVED


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "weaklight" or name.startswith("weaklight."))]


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.names = []
        self._index = {}
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = []
        self.op = -1
        self.quantity = {}
        self._wrappers = {}
        self._installed = []
        for layer, fn, _ in TRACED:
            module = sys.modules[f"weaklight.{layer}"]
            original = getattr(module, fn)
            self._wrappers[id(original)] = (original, self._wrap(f"{layer}.{fn}", original))

    def __len__(self):
        return len(self._start)

    def _ix(self, name):
        ix = self._index.get(name)
        if ix is None:
            ix = self._index[name] = len(self.names)
            self.names.append(name)
        return ix

    def _open(self, ix):
        sid = len(self._start)
        self._name.append(ix)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self.op)
        self._end.append(0)
        self._stack.append(sid)
        self._start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid):
        self._end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn):
        ix = self._ix(name)
        quantity = QUANTITY.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if quantity is not None:
                key, measure = quantity
                tracer.quantity[(name, key)] = \
                    tracer.quantity.get((name, key), 0) + measure(*args, **kwargs)
            return result

        return traced

    def call(self, name, fn):
        """Run fn() as the root span of the next op."""
        self.op += 1
        sid = self._open(self._ix(name))
        try:
            return fn()
        finally:
            self._close(sid)

    def install(self):
        """Bind every wrapper wherever the package holds its original."""
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _columns(self):
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=np.int64) \
            - np.frombuffer(self._start, dtype=np.int64)
        return name, parent, dur

    def _count_under(self, name, parent, child, ancestor):
        """Spans named `child` that have a span named `ancestor` above them."""
        if child not in self._index or ancestor not in self._index:
            return 0
        is_anc = name == self._index[ancestor]
        under = np.zeros(name.shape[0], dtype=bool)
        has_parent = parent >= 0
        while True:
            above = np.zeros_like(under)
            above[has_parent] = is_anc[parent[has_parent]] | under[parent[has_parent]]
            if np.array_equal(above, under):
                break
            under = above
        return int(np.sum(under & (name == self._index[child])))

    def layer_metrics(self, rounds, op_wall_ns, overhead_ratio):
        """Per-layer metrics, averaged per traced round of the op schedule."""
        name, parent, dur = self._columns()
        k = len(self.names)
        child = np.zeros(name.shape[0], dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)

        values = {}
        for layer, fn, fields in TRACED:
            qual = f"{layer}.{fn}"
            ix = self._index[qual]
            for f in fields:
                if f == "calls":
                    v = calls[ix] / rounds
                elif f == "total_ms":
                    v = total[ix] / rounds / 1e6
                elif f == "self_ms":
                    v = own[ix] / rounds / 1e6
                else:
                    v = self.quantity.get((qual, f), 0) / rounds
                values[f"{qual}.{f}"] = float(v)

        def per(child_name, parent_name):
            n = calls[self._index[parent_name]]
            under = self._count_under(name, parent, child_name, parent_name)
            return under / n if n else 0.0

        values["weakmeas.find_singularities.transfer_calls_per_search"] = \
            per("weakmeas.transfer", "weakmeas.find_singularities")
        values["weakmeas.estimate_beta.group_delay_calls_per_inversion"] = \
            per("weakmeas.group_delay", "weakmeas.estimate_beta")
        values["trace.op_wall_ms"] = op_wall_ns / rounds / 1e6
        values["trace.overhead_ratio"] = overhead_ratio
        units = dict(metric_names())
        return {n: {"value": values[n], "unit": units[n]} for n, _ in metric_names()}

    def calls_by_function(self):
        name, _, _ = self._columns()
        calls = np.bincount(name, minlength=len(self.names))
        return {self.names[i]: int(calls[i]) for i in range(len(self.names))}

    def write(self, path):
        """Dump every span as CSV: span, parent, op, name, start_ns, end_ns."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for i, (n, p, o, s, e) in enumerate(zip(self._name, self._parent, self._op,
                                                     self._start, self._end)):
                fh.write(f"{i},{p},{o},{names[n]},{s},{e}\n")
