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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .flow import StepControl
from .grid import LAMBDA_FLOOR, MAX_POINTS, TorusGrid
from .monitors import HolderConfig, MonitorSuite
from .presets import FORCING_PRESETS, METRIC_PRESETS, ForcingPreset, MetricPreset

MODES = ("flow", "solve-elliptic", "verify", "decompose-demo", "normal-frame-demo")

_KNOWN_KEYS = {
    "mode",
    "rng_seed",
    "out.dir",
    "grid.n", "grid.N", "grid.max_points",
    "metric.preset", "metric.eps", "metric.amp", "metric.scale", "metric.lambda_floor",
    "forcing.kind", "forcing.value", "forcing.amplitude", "forcing.max_mode",
    "forcing.seed", "forcing.psi_kind",
    "flow.horizon",
    "step.dt_min", "step.dt_max", "step.eps_pd", "step.retry_limit",
    "monitors.emit_dt", "monitors.field_interval", "monitors.A", "monitors.alpha_ly",
    "monitors.shift_eps",
    "holder.alpha", "holder.epsilon", "holder.sample_pairs",
    "elliptic.tol", "elliptic.max_iters",
    "verify.criteria",
    "demo.count", "demo.eig_lo", "demo.eig_hi",
    "dump.fields",
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
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown configuration key '{key}'")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        out[key] = value
    return out


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _get(kv, key, default, cast):
    if key not in kv:
        return default
    raw = kv[key]
    try:
        if cast is bool:
            return _BOOLS[raw.lower()]
        return cast(raw)
    except KeyError as e:
        raise ConfigError(f"bad value for {key}: {raw!r} (expected true or false)") from e
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {raw!r}") from e


@dataclass
class RunConfig:
    """Fully materialized run configuration."""

    mode: str = "flow"
    rng_seed: int = 0
    out_dir: Optional[str] = None
    n: int = 1
    N: int = 32
    max_points: int = MAX_POINTS
    metric: MetricPreset = field(default_factory=lambda: MetricPreset("flat"))
    lambda_floor: float = LAMBDA_FLOOR
    forcing: ForcingPreset = field(default_factory=lambda: ForcingPreset("zero"))
    horizon: float = 5.0
    step: StepControl = field(default_factory=StepControl)
    monitors: MonitorSuite = field(default_factory=MonitorSuite)
    elliptic_tol: float = 1e-11
    elliptic_max_iters: int = 50
    verify_criteria: tuple = ()
    demo_count: int = 100
    demo_eig_range: tuple = (0.2, 5.0)
    dump_fields: bool = False
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        lo, hi = self.demo_eig_range
        for ok, what in (
            (self.rng_seed >= 0, f"rng_seed must be non-negative, got {self.rng_seed}"),
            (0 < self.lambda_floor < math.inf,
             f"metric.lambda_floor must be positive and finite, got {self.lambda_floor}"),
            # solve() rejects a tolerance below attainable round-off
            (1e-12 <= self.elliptic_tol < math.inf,
             f"elliptic.tol must be finite and >= 1e-12, got {self.elliptic_tol}"),
            (self.elliptic_max_iters >= 1,
             f"elliptic.max_iters must be at least 1, got {self.elliptic_max_iters}"),
            (all(1 <= k <= 11 for k in self.verify_criteria),
             f"verify.criteria must name criteria 1-11, got {self.verify_criteria}"),
            (self.demo_count >= 1, f"demo.count must be at least 1, got {self.demo_count}"),
            (0 < lo < hi < math.inf,
             f"need 0 < demo.eig_lo < demo.eig_hi, got {lo}, {hi}"),
        ):
            if not ok:
                raise ConfigError(what)

    def grid(self) -> TorusGrid:
        return TorusGrid(self.n, self.N, max_points=self.max_points)


def config_from_kv(kv: dict) -> RunConfig:
    mode = kv.get("mode", "flow")
    if mode not in MODES:
        raise ConfigError(f"unknown mode '{mode}' (expected one of {MODES})")
    metric_name = kv.get("metric.preset", "flat")
    if metric_name not in METRIC_PRESETS:
        raise ConfigError(f"unknown metric preset '{metric_name}'")
    forcing_kind = kv.get("forcing.kind", "zero")
    if forcing_kind not in FORCING_PRESETS:
        raise ConfigError(f"unknown forcing preset '{forcing_kind}'")

    seed = _get(kv, "rng_seed", 0, int)
    metric = MetricPreset(
        name=metric_name,
        eps=_get(kv, "metric.eps", 0.3, float),
        amp=_get(kv, "metric.amp", 0.4, float),
        scale=_get(kv, "metric.scale", 1.0, float),
    )
    forcing = ForcingPreset(
        kind=forcing_kind,
        value=_get(kv, "forcing.value", 0.0, float),
        amplitude=_get(kv, "forcing.amplitude", 0.05, float),
        max_mode=_get(kv, "forcing.max_mode", 2, int),
        seed=_get(kv, "forcing.seed", seed, int),
        psi_kind=_get(kv, "forcing.psi_kind", "seeded", str),
    )
    n = _get(kv, "grid.n", 1, int)
    N = _get(kv, "grid.N", 32, int)
    max_points = _get(kv, "grid.max_points", MAX_POINTS, int)
    horizon = _get(kv, "flow.horizon", 5.0, float)
    # the constructors validate their own values; a bad value is a config error
    try:
        TorusGrid(n, N, max_points=max_points)
        step = StepControl(
            dt_min=_get(kv, "step.dt_min", 1e-12, float),
            dt_max=_get(kv, "step.dt_max", 0.1, float),
            eps_pd=_get(kv, "step.eps_pd", 1e-6, float),
            retry_limit=_get(kv, "step.retry_limit", 20, int),
        )
        holder = HolderConfig(
            alpha=_get(kv, "holder.alpha", 0.5, float),
            epsilon=_get(kv, "holder.epsilon", 0.5, float),
            sample_pairs=_get(kv, "holder.sample_pairs", 20000, int),
            rng_seed=seed,
        )
        monitors = MonitorSuite(
            emit_dt=_get(kv, "monitors.emit_dt", 0.1, float),
            field_interval=_get(kv, "monitors.field_interval", 0.5, float),
            A=_get(kv, "monitors.A", 2.0, float),
            alpha_ly=_get(kv, "monitors.alpha_ly", 1.5, float),
            shift_eps=_get(kv, "monitors.shift_eps", 0.5, float),
            holder=holder,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    emits = horizon / monitors.emit_dt
    if not (math.isfinite(emits) and emits >= 0.5
            and abs(round(emits) * monitors.emit_dt - horizon) <= 1e-9):
        raise ConfigError(f"flow.horizon {horizon} must be a positive multiple of "
                          f"monitors.emit_dt {monitors.emit_dt}")
    criteria = ()
    if "verify.criteria" in kv:
        try:
            criteria = tuple(int(x) for x in kv["verify.criteria"].split(",") if x.strip())
        except ValueError as e:
            raise ConfigError(f"bad verify.criteria: {kv['verify.criteria']!r}") from e
    return RunConfig(
        mode=mode,
        rng_seed=seed,
        out_dir=kv.get("out.dir"),
        n=n,
        N=N,
        max_points=max_points,
        metric=metric,
        lambda_floor=_get(kv, "metric.lambda_floor", LAMBDA_FLOOR, float),
        forcing=forcing,
        horizon=horizon,
        step=step,
        monitors=monitors,
        elliptic_tol=_get(kv, "elliptic.tol", 1e-11, float),
        elliptic_max_iters=_get(kv, "elliptic.max_iters", 50, int),
        verify_criteria=criteria,
        demo_count=_get(kv, "demo.count", 100, int),
        demo_eig_range=(_get(kv, "demo.eig_lo", 0.2, float),
                        _get(kv, "demo.eig_hi", 5.0, float)),
        dump_fields=_get(kv, "dump.fields", False, bool),
        raw=dict(kv),
    )

