"""Outside-in span tracer for one benchmark iteration.

Each public function is wrapped under the name its caller looks it up by:
``flow.py`` binds ``det_field`` and ``rfftn`` at import, so the flow's calls
go through ``maflow.flow.det_field`` and ``maflow.flow.rfftn``, while the
Hessian's own FFTs go through ``maflow.spectral.fftn``.  Nothing under
``src/`` changes; ``installed()`` puts every original back and checks that
it did.

A span is (name, start, end, parent).  Spans stay in memory and are written
out once, after the run.  Self time is a span's duration minus the time its
child spans cover, so the self times of every span under a root add up to
the root's duration exactly.
"""

from __future__ import annotations

import csv
import importlib
import statistics
import time
from contextlib import contextmanager

# (module, attribute as that module's callers look it up, span name)
PATCHES = (
    ("maflow.runner", "build_metric", "presets.build_metric"),
    ("maflow.runner", "build_forcing", "presets.build_forcing"),
    ("maflow.presets", "random_band_limited", "presets.random_band_limited"),
    ("maflow.runner", "run", "flow.run"),
    ("maflow.flow", "step", "flow.step"),
    ("maflow.flow", "flow_rhs", "flow.flow_rhs"),
    ("maflow.flow", "rfftn", "spectral.rfftn"),
    ("maflow.flow", "irfftn", "spectral.irfftn"),
    ("maflow.spectral", "fftn", "spectral.fftn"),
    ("maflow.spectral", "ifftn", "spectral.ifftn"),
    ("maflow.spectral", "rfftn", "spectral.rfftn"),
    ("maflow.spectral", "irfftn", "spectral.irfftn"),
    ("maflow.elliptic", "rfftn", "spectral.rfftn"),
    ("maflow.elliptic", "irfftn", "spectral.irfftn"),
    ("maflow.flow", "complex_hessian_values", "spectral.complex_hessian_values"),
    ("maflow.monitors", "complex_hessian_values", "spectral.complex_hessian_values"),
    ("maflow.elliptic", "complex_hessian_values", "spectral.complex_hessian_values"),
    ("maflow.presets", "complex_hessian_values", "spectral.complex_hessian_values"),
    ("maflow.monitors", "holo_gradient", "spectral.holo_gradient"),
    ("maflow.flow", "spectral_tail", "spectral.spectral_tail"),
    ("maflow.flow", "det_field", "grid.det_field"),
    ("maflow.grid", "det_field", "grid.det_field"),
    ("maflow.flow", "min_eig_field", "grid.min_eig_field"),
    ("maflow.grid", "min_eig_field", "grid.min_eig_field"),
    ("maflow.elliptic", "min_eig_field", "grid.min_eig_field"),
    ("maflow.flow", "integrate_values", "grid.integrate_values"),
    ("maflow.monitors", "integrate_values", "grid.integrate_values"),
    ("maflow.runner", "integrate_values", "grid.integrate_values"),
    ("maflow.elliptic", "integrate_values", "grid.integrate_values"),
    ("maflow.presets", "integrate_values", "grid.integrate_values"),
    ("maflow.flow", "volume_weights", "grid.volume_weights"),
    ("maflow.runner", "volume_weights", "grid.volume_weights"),
    ("maflow.elliptic", "volume_weights", "grid.volume_weights"),
    ("maflow.presets", "volume_weights", "grid.volume_weights"),
    ("maflow.monitors", "inverse_stack", "hermitian.inverse_stack"),
    ("maflow.elliptic", "inverse_stack", "hermitian.inverse_stack"),
    ("maflow.hermitian", "inverse_stack", "hermitian.inverse_stack"),
    ("maflow.elliptic", "log_det_ratio", "hermitian.log_det_ratio"),
    ("maflow.presets", "log_det_ratio", "hermitian.log_det_ratio"),
    ("maflow.flow", "trace_inverse", "hermitian.trace_inverse"),
    ("maflow.monitors", "generalized_eig_range", "hermitian.generalized_eig_range"),
    ("maflow.monitors", "trace_pair", "hermitian.trace_pair"),
    ("maflow.monitors", "MonitorSeries.emit", "monitors.emit"),
    ("maflow.monitors", "MonitorSeries.finalize", "monitors.finalize"),
    ("maflow.monitors", "MonitorSeries.to_csv", "monitors.to_csv"),
    ("maflow.runner", "contraction_and_decay", "monitors.contraction_and_decay"),
    ("maflow.runner", "solve", "elliptic.solve"),
    ("maflow.elliptic", "_residual_field", "elliptic.residual_field"),
    ("maflow.elliptic", "_Linearization.__init__", "elliptic.linearize"),
    ("maflow.elliptic", "_bicgstab", "elliptic.bicgstab"),
    ("maflow.elliptic", "_Linearization.apply", "elliptic.apply"),
    ("maflow.elliptic", "_Linearization.precondition", "elliptic.precondition"),
)

FFT_SPANS = ("spectral.fftn", "spectral.ifftn", "spectral.rfftn", "spectral.irfftn")
HESSIAN = "spectral.complex_hessian_values"
SETUP_ROOT = "runner.setup"
WALL_ROOT = "runner.wall"


def _resolve(module_name, attr_path):
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans of one process, kept in parallel lists indexed by span id."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.raised = set()
        self.step_dt = {}         # flow.step span id -> accepted step size
        self.hessian_bytes = {}   # Hessian span id -> input + output array bytes
        self._stack = [-1]
        self.restored = False     # set when installed() has put every original back

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        if name == "flow.step":
            def after(idx, args, new_state):
                self.step_dt[idx] = new_state.t - args[0].t
        elif name == HESSIAN:
            def after(idx, args, out):
                self.hessian_bytes[idx] = args[0].nbytes + out.nbytes
        else:
            after = None

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised.add(idx)
                raise
            finally:
                self._close(idx)
            if after is not None:
                after(idx, args, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every PATCHES entry; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr_path, name in PATCHES:
                owner, attr = _resolve(module_name, attr_path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.restored = all(owner.__dict__[attr] is original
                                for owner, attr, original in saved)

    # -- analysis ---------------------------------------------------------

    def analyze(self):
        """Duration, self time, root id and 'inside finalize' flag per span."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        root = list(range(n))
        in_finalize = [False] * n
        for i in range(n):  # a parent always precedes its children
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
                in_finalize[i] = in_finalize[p] or self.names[p] == "monitors.finalize"
        self_t = [dur[i] - child[i] for i in range(n)]
        return dur, self_t, root, in_finalize

    def _root(self, name):
        return next(i for i, nm in enumerate(self.names)
                    if self.parents[i] < 0 and nm == name)

    def layer_metrics(self):
        """Per-layer metrics of the traced set-up and solve.

        presets.* come from the set-up root and everything else from the
        wall root, so set-up work (volume weights, a manufactured forcing's
        Hessian) is not counted against the solve.
        """
        dur, self_t, root, in_fin = self.analyze()
        setup_root, wall_root = self._root(SETUP_ROOT), self._root(WALL_ROOT)
        ids = {}
        for i, nm in enumerate(self.names):
            ids.setdefault((root[i], nm), []).append(i)

        def pick(*names, under=wall_root):
            return [i for nm in names for i in ids.get((under, nm), ())]

        def total(spans, values=dur):
            return float(sum(values[i] for i in spans))

        def p_us(spans, q=0.5):
            if not spans:
                return 0.0
            vals = sorted(dur[i] for i in spans)
            return 1e6 * vals[min(len(vals) - 1, int(q * len(vals)))]

        steps = pick("flow.step")
        rhs = pick("flow.flow_rhs")
        ffts = pick(*FFT_SPANS)
        hess = pick(HESSIAN)
        dts = sorted(self.step_dt[i] for i in steps)
        wall = dur[wall_root]
        return {
            "presets.build_metric_s": total(pick("presets.build_metric", under=setup_root)),
            "presets.build_forcing_s": total(pick("presets.build_forcing", under=setup_root)),
            "flow.steps": len(steps),
            "flow.rhs_calls": len(rhs),
            "flow.halvings": sum(1 for i in rhs if i in self.raised
                                 and self.names[self.parents[i]] == "flow.step"),
            "flow.dt_min": dts[0] if dts else 0.0,
            "flow.dt_median": statistics.median(dts) if dts else 0.0,
            "flow.dt_max": dts[-1] if dts else 0.0,
            "flow.step_us_p50": p_us(steps),
            "flow.step_us_p95": p_us(steps, 0.95),
            "flow.rhs_us_p50": p_us(rhs),
            "flow.rhs_us_p95": p_us(rhs, 0.95),
            "flow.step_self_s": total(steps, self_t),
            "flow.rhs_self_s": total(rhs, self_t),
            "spectral.fft_calls": len(ffts),
            "spectral.fft_us_p50": p_us(ffts),
            "spectral.fft_self_s": total(ffts, self_t),
            "spectral.hessian_calls": len(hess),
            "spectral.hessian_us_p50": p_us(hess),
            "spectral.hessian_self_s": total(hess, self_t),
            "spectral.hessian_bytes": sum(self.hessian_bytes[i] for i in hess),
            "spectral.tail_s": total(pick("spectral.spectral_tail")),
            "grid.det_field_calls": len(pick("grid.det_field")),
            "grid.det_field_us_p50": p_us(pick("grid.det_field")),
            "grid.min_eig_field_calls": len(pick("grid.min_eig_field")),
            "grid.min_eig_field_us_p50": p_us(pick("grid.min_eig_field")),
            "grid.integrate_values_s": total(pick("grid.integrate_values")),
            "hermitian.inverse_stack_calls": len(pick("hermitian.inverse_stack")),
            "hermitian.inverse_stack_us_p50": p_us(pick("hermitian.inverse_stack")),
            "hermitian.log_det_ratio_us_p50": p_us(pick("hermitian.log_det_ratio")),
            "hermitian.trace_inverse_us_p50": p_us(pick("hermitian.trace_inverse")),
            "hermitian.generalized_eig_range_s": total(pick("hermitian.generalized_eig_range")),
            "monitors.emit_calls": len(pick("monitors.emit")),
            "monitors.emit_us_p50": p_us(pick("monitors.emit")),
            "monitors.finalize_s": total(pick("monitors.finalize")),
            "monitors.finalize_hessian_calls": sum(1 for i in hess if in_fin[i]),
            "elliptic.krylov_applies": len(pick("elliptic.apply")),
            "elliptic.precond_calls": len(pick("elliptic.precondition")),
            "elliptic.residual_evals": len(pick("elliptic.residual_field")),
            "elliptic.apply_us_p50": p_us(pick("elliptic.apply")),
            "elliptic.precondition_us_p50": p_us(pick("elliptic.precondition")),
            "runner.summary_s": wall - total(pick("flow.run", "elliptic.solve")),
        }

    def self_time_by_layer(self):
        """Traced wall time and the self times under it, per layer and per span."""
        _, self_t, root, _ = self.analyze()
        wall_root = self._root(WALL_ROOT)
        by_layer, by_span = {}, {}
        for i, nm in enumerate(self.names):
            if root[i] == wall_root:
                layer = nm.split(".", 1)[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + self_t[i]
                by_span[nm] = by_span.get(nm, 0.0) + self_t[i]
        return self.ends[wall_root] - self.starts[wall_root], by_layer, by_span

    def write_spans(self, path):
        """One CSV row per span: id, parent, name, start, end, self time, raised."""
        _, self_t, _, _ = self.analyze()
        t0 = min(self.starts, default=0.0)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "name", "start_s", "end_s", "self_s", "raised"))
            for i, nm in enumerate(self.names):
                out.writerow((i, self.parents[i], nm, repr(self.starts[i] - t0),
                              repr(self.ends[i] - t0), repr(self_t[i]),
                              int(i in self.raised)))
