"""Run configuration: flat key-value text with dotted sections.

Example::

    mode = flow
    grid.n = 1
    grid.N = 64
    metric.preset = hermitian_nonkahler
    metric.eps = 0.2
    metric.scale = 0.25
    forcing.kind = manufactured
    forcing.amplitude = 0.04
    flow.horizon = 30
    step.dt_max = 0.05
    rng_seed = 11

Lines starting with '#' are comments.  Unknown keys are rejected so typos
fail loudly; every parsed run embeds the exact key-value mapping it used in
its JSON summary.

``_KEYS`` is the one table of keys: each names the object that takes its
value (a section such as ``StepControl``, or ``RunConfig`` itself), the
constructor argument and the reader of its text.  A key left out of a config
is not passed, so every default lives once, in the constructor that takes
it; ``forcing.seed`` and the Hoelder sampler's seed default to ``rng_seed``.
The monitors' constants (``monitors.Q_A``, ``LIYAU_ALPHA``, ``HOLDER_*``)
and the demo's eigenvalue range (``runner.DEMO_EIG_RANGE``) are not keys.
Each constructor checks its own values and raises ValueError on a bad one,
which config_from_kv turns into a ConfigError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .elliptic import NEWTON_TOL
from .errors import ConfigError
from .flow import StepControl
from .grid import MAX_POINTS, TorusGrid
from .monitors import MonitorSuite
from .presets import ForcingPreset, MetricPreset

MODES = ("flow", "solve-elliptic", "verify", "decompose-demo", "normal-frame-demo")
MAX_EMITS = 100_000        # emissions per run; acceptance run 1 has 601
# Planned steps per run, flow.horizon / step.dt_max, before any halving: ten
# per emission at MAX_EMITS.  Acceptance run 1 plans 300.  A step costs at
# least one flow_rhs, so a run over this budget would not end in any useful
# time (step.dt_max = 1e-9 on the default horizon plans 5e9 steps).
MAX_STEPS = 10 * MAX_EMITS
MAX_DEMO_COUNT = 10_000    # instances per demo; criteria 7 and 8 use 1000 and 100


@dataclass
class RunConfig:
    """Fully materialized run configuration."""

    mode: str = "flow"
    rng_seed: int = 0
    out_dir: Optional[str] = None
    grid: TorusGrid = field(default_factory=TorusGrid)
    metric: MetricPreset = field(default_factory=MetricPreset)
    forcing: ForcingPreset = field(default_factory=ForcingPreset)
    horizon: float = 5.0
    step: StepControl = field(default_factory=StepControl)
    monitors: MonitorSuite = field(default_factory=MonitorSuite)
    elliptic_tol: float = NEWTON_TOL
    verify_criteria: tuple = ()
    demo_count: int = 100
    dump_fields: bool = False
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        horizon, emit_dt = self.horizon, self.monitors.emit_dt
        emits = self.monitors.emissions(horizon)
        steps = horizon / self.step.dt_max
        modes = (2 * self.forcing.max_mode + 1) ** self.grid.real_dim
        for ok, what in (
            (self.mode in MODES, f"unknown mode '{self.mode}' (expected one of {MODES})"),
            (self.rng_seed >= 0, f"rng_seed must be non-negative, got {self.rng_seed}"),
            (emits <= MAX_EMITS,
             f"flow.horizon / monitors.emit_dt is {emits:.6g} emissions, "
             f"above the budget of {MAX_EMITS}"),
            (steps <= MAX_STEPS,
             f"flow.horizon / step.dt_max is {steps:.6g} steps, "
             f"above the budget of {MAX_STEPS}"),
            # a seeded forcing takes one coefficient per mode of its cube
            (modes <= MAX_POINTS,
             f"forcing.max_mode {self.forcing.max_mode} spans (2 max_mode + 1)^"
             f"{self.grid.real_dim} modes, above the budget of {MAX_POINTS}"),
            # the contraction and decay fit of a flow run needs 3 emissions
            # spanning at least two unit times; reject a shorter run up front
            (self.mode != "flow" or horizon >= max(2.0, 2.0 * emit_dt),
             f"flow.horizon {horizon} must be at least 2 and at least "
             f"2 * monitors.emit_dt ({2.0 * emit_dt}) in mode flow"),
            # solve() rejects a tolerance below attainable round-off
            (1e-12 <= self.elliptic_tol < math.inf,
             f"elliptic.tol must be finite and >= 1e-12, got {self.elliptic_tol}"),
            (all(1 <= k <= 11 for k in self.verify_criteria),
             f"verify.criteria must name criteria 1-11, got {self.verify_criteria}"),
            (1 <= self.demo_count <= MAX_DEMO_COUNT,
             f"demo.count must lie in [1, {MAX_DEMO_COUNT}], got {self.demo_count}"),
        ):
            if not ok:
                raise ValueError(what)


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _bool(raw: str) -> bool:
    if raw.lower() not in _BOOLS:
        raise ValueError("expected true or false")
    return _BOOLS[raw.lower()]


def _criteria(raw: str) -> tuple:
    return tuple(int(x) for x in raw.split(",") if x.strip())


# key -> (object that takes the value, its constructor argument, reader)
_KEYS = {
    "mode": (RunConfig, "mode", str),
    "rng_seed": (RunConfig, "rng_seed", int),
    "out.dir": (RunConfig, "out_dir", str),
    "grid.n": (TorusGrid, "complex_dim", int),
    "grid.N": (TorusGrid, "points_per_axis", int),
    "metric.preset": (MetricPreset, "name", str),
    "metric.eps": (MetricPreset, "eps", float),
    "metric.amp": (MetricPreset, "amp", float),
    "metric.scale": (MetricPreset, "scale", float),
    "forcing.kind": (ForcingPreset, "kind", str),
    "forcing.value": (ForcingPreset, "value", float),
    "forcing.amplitude": (ForcingPreset, "amplitude", float),
    "forcing.max_mode": (ForcingPreset, "max_mode", int),
    "forcing.seed": (ForcingPreset, "seed", int),
    "forcing.psi_kind": (ForcingPreset, "psi_kind", str),
    "flow.horizon": (RunConfig, "horizon", float),
    "step.dt_max": (StepControl, "dt_max", float),
    "monitors.emit_dt": (MonitorSuite, "emit_dt", float),
    "monitors.field_interval": (MonitorSuite, "field_interval", float),
    "elliptic.tol": (RunConfig, "elliptic_tol", float),
    "verify.criteria": (RunConfig, "verify_criteria", _criteria),
    "demo.count": (RunConfig, "demo_count", int),
    "dump.fields": (RunConfig, "dump_fields", _bool),
}


def parse_kv_text(text: str) -> dict:
    """Parse the flat key = value format into a string-to-string dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown configuration key '{key}'")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        out[key] = value
    return out


def config_from_kv(kv: dict) -> RunConfig:
    args = {target: {} for target, _, _ in _KEYS.values()}
    for key, raw in kv.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key '{key}'")
        target, arg, read = _KEYS[key]
        try:
            args[target][arg] = read(raw)
        except ValueError as e:
            raise ConfigError(f"bad value for {key}: {raw!r} ({e})") from e
    seed = args[RunConfig].get("rng_seed", RunConfig.rng_seed)
    args[ForcingPreset].setdefault("seed", seed)
    args[MonitorSuite].setdefault("holder_seed", seed)
    try:
        return RunConfig(
            grid=TorusGrid(**args[TorusGrid]),
            metric=MetricPreset(**args[MetricPreset]),
            forcing=ForcingPreset(**args[ForcingPreset]),
            step=StepControl(**args[StepControl]),
            monitors=MonitorSuite(**args[MonitorSuite]),
            raw=dict(kv),
            **args[RunConfig],
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
