import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from maflow import monitors
from maflow.cli import main
from maflow.config import _KEYS, RunConfig, config_from_kv, parse_kv_text
from maflow.errors import ConfigError, MaflowError
from maflow.flow import StepControl
from maflow.grid import TorusGrid
from maflow.monitors import MonitorSuite
from maflow.presets import ForcingPreset, MetricPreset
from maflow.io import dump_scalar_field, load_scalar_field
from conftest import field_from


# ----------------------------------------------------------------- dumps

def test_scalar_field_roundtrip(tmp_path, grid1):
    f = field_from(grid1, lambda c: np.sin(c[0]) + 0.2 * np.cos(c[1]))
    path = tmp_path / "f.dump"
    dump_scalar_field(path, f)
    loaded = load_scalar_field(path)
    assert loaded.grid == grid1
    assert np.array_equal(loaded.values, f.values)


def test_write_json_numpy_bool(tmp_path):
    # a finiteness check that fails chains passed to np.False_, which the
    # report must write as false, not raise on
    from maflow.io import write_json
    from maflow.verification import CriterionResult

    path = tmp_path / "report.json"
    write_json(path, CriterionResult(5, "finite", True and np.isfinite(np.inf)).as_dict())
    assert '"passed": false' in path.read_text()
    assert json.loads(path.read_text())["passed"] is False


def test_scalar_dump_header_format(tmp_path, grid1):
    f = field_from(grid1, lambda c: np.cos(c[0]))
    path = tmp_path / "f.dump"
    dump_scalar_field(path, f)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        payload = fh.read()
    assert header["dtype"] == "f64"
    assert header["byte_order"] == "little"
    assert header["layout"] == "row-major"
    assert header["shape"] == [16, 16]
    assert header["grid"]["complex_dim"] == 1
    assert len(payload) == 16 * 16 * 8
    assert header["grid"]["period"] == 2 * math.pi


def test_scalar_dump_rejects_other_period(tmp_path, grid1):
    f = field_from(grid1, lambda c: np.cos(c[0]))
    path = tmp_path / "f.dump"
    dump_scalar_field(path, f)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        payload = fh.read()
    header["grid"]["period"] = 5.0
    path.write_bytes((json.dumps(header) + "\n").encode() + payload)
    with pytest.raises(ValueError, match="period"):
        load_scalar_field(path)


# ----------------------------------------------------------------- config

def test_parse_kv_roundtrip():
    text = """
    # comment line
    mode = flow
    grid.n = 2
    grid.N = 8
    metric.preset = kahler_bump   # trailing comment
    metric.amp = 0.35
    flow.horizon = 2.5
    rng_seed = 42
    """
    kv = parse_kv_text(text)
    cfg = config_from_kv(kv)
    assert cfg.mode == "flow"
    assert cfg.grid.complex_dim == 2 and cfg.grid.points_per_axis == 8
    assert cfg.metric.name == "kahler_bump"
    assert cfg.metric.amp == 0.35
    assert cfg.horizon == 2.5
    assert cfg.rng_seed == 42
    assert cfg.grid == TorusGrid(2, 8)


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_kv_text("grid.m = 3")
    # config_from_kv checks its keys too: a caller may skip parse_kv_text
    with pytest.raises(ConfigError, match="unknown configuration key 'grid.m'"):
        config_from_kv({"grid.m": "3"})


def test_parse_rejects_duplicate_and_bad_values():
    with pytest.raises(ConfigError):
        parse_kv_text("grid.n = 1\ngrid.n = 2")
    with pytest.raises(ConfigError):
        config_from_kv({"grid.n": "one"})


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError) as exc:
        config_from_kv({"metric.preset": "wobbly"})
    assert "wobbly" in str(exc.value)


def test_defaults():
    cfg = config_from_kv({})
    assert cfg.mode == "flow"
    assert cfg.step.dt_max == 0.1
    # the witnesses' constants, as README states them
    assert (monitors.Q_A, monitors.LIYAU_ALPHA) == (2.0, 1.5)
    assert (monitors.HOLDER_ALPHA, monitors.HOLDER_EPSILON, monitors.HOLDER_PAIRS) \
        == (0.5, 0.5, 20000)


def test_absent_keys_take_the_constructor_defaults():
    cfg = config_from_kv({})
    assert cfg.step == StepControl()
    assert cfg.monitors == MonitorSuite()
    assert cfg.metric == MetricPreset("flat")
    assert cfg.forcing == ForcingPreset("zero", seed=0)
    assert cfg.grid == TorusGrid(1, 32)
    assert cfg.horizon == RunConfig.horizon and cfg.elliptic_tol == RunConfig.elliptic_tol
    assert cfg == RunConfig()


def test_seeds_default_to_rng_seed():
    cfg = config_from_kv({"rng_seed": "5"})
    assert cfg.forcing.seed == 5 and cfg.monitors.holder_seed == 5
    cfg = config_from_kv({"rng_seed": "5", "forcing.seed": "3"})
    assert cfg.forcing.seed == 3 and cfg.monitors.holder_seed == 5


@pytest.mark.parametrize("kv", [
    {"monitors.emit_dt": "1e-9", "monitors.field_interval": "1e-8"},  # 2e9 emissions
    {"monitors.emit_dt": "1e-6"},                                     # 2e6 emissions
    {"demo.count": "1000000000000"},
])
def test_work_budgets_rejected_before_any_work(kv):
    # config_from_kv only: on a program without the budgets the CLI would start the work
    with pytest.raises(ConfigError):
        config_from_kv({"flow.horizon": "2", **kv})
    config_from_kv({"flow.horizon": "2", "monitors.emit_dt": "0.0001"})   # 20,000: fine


# a valid non-default value for every key, with the value it must land as
NON_DEFAULT = {
    "mode": ("verify", "verify"),
    "rng_seed": ("5", 5),
    "out.dir": ("elsewhere", "elsewhere"),
    "grid.n": ("2", 2),
    "grid.N": ("16", 16),
    "metric.preset": ("kahler_bump", "kahler_bump"),
    "metric.eps": ("0.2", 0.2),
    "metric.amp": ("0.25", 0.25),
    "metric.scale": ("0.5", 0.5),
    "forcing.kind": ("modes", "modes"),
    "forcing.value": ("0.5", 0.5),
    "forcing.amplitude": ("0.02", 0.02),
    "forcing.max_mode": ("3", 3),
    "forcing.seed": ("7", 7),
    "forcing.psi_kind": ("peaked", "peaked"),
    "flow.horizon": ("7.5", 7.5),
    "step.dt_max": ("0.05", 0.05),
    "monitors.emit_dt": ("0.05", 0.05),
    "monitors.field_interval": ("1.0", 1.0),
    "elliptic.tol": ("1e-9", 1e-9),
    "verify.criteria": ("7,8", (7, 8)),
    "demo.count": ("3", 3),
    "dump.fields": ("yes", True),
}


def _owner(cfg, target):
    return next(v for v in (cfg, *vars(cfg).values()) if isinstance(v, target))


@pytest.mark.parametrize("key", sorted(_KEYS))
def test_each_key_lands_on_its_argument(key):
    target, arg, _ = _KEYS[key]
    text, value = NON_DEFAULT[key]
    cfg = config_from_kv({key: text})
    assert getattr(_owner(cfg, target), arg) == value
    assert getattr(_owner(config_from_kv({}), target), arg) != value
    assert cfg.raw == {key: text}


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_counts_the_keys():
    # README states the size of the key table; a key added or removed must
    # update it
    counts = re.findall(r"`_KEYS`, (\d+) keys", README.read_text())
    assert counts == [str(len(_KEYS))]


def test_readme_example_config_parses():
    # the example config block must use live keys with valid values
    blocks = re.findall(r"Example:\n\n```\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    kv = parse_kv_text(blocks[0])
    assert len(kv) >= 10
    assert config_from_kv(kv).raw == kv


# ----------------------------------------------------------------- CLI

FLOW_CFG = """
grid.n = 1
grid.N = 16
metric.preset = hermitian_nonkahler
metric.eps = 0.2
metric.scale = 0.4
forcing.kind = modes
forcing.amplitude = 0.05
forcing.max_mode = 2
flow.horizon = 2
rng_seed = 9
"""


def test_cli_flow_writes_artifacts(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FLOW_CFG)
    out = tmp_path / "out"
    code = main(["flow", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    csv_text = (out / "monitors.csv").read_text()
    assert csv_text.startswith("t,sup_dphidt,osc_u,")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "flow"
    assert "delta" in summary and "eta" in summary and "C_star" in summary
    assert summary["config"]["rng_seed"] == "9"


def test_cli_reproducibility(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FLOW_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["flow", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["flow", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert (out_a / "monitors.csv").read_bytes() == (out_b / "monitors.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_cli_solve_elliptic(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FLOW_CFG)
    out = tmp_path / "out"
    code = main(["solve-elliptic", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["residual_sup"] <= 1e-10
    sol = load_scalar_field(out / "phi_tilde_inf.dump")
    assert sol.grid == TorusGrid(1, 16)


def test_cli_unknown_preset_exit_2(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("metric.preset = nosuchmetric\n")
    code = main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_missing_config_exit_2(tmp_path):
    code = main(["flow", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2


# horizon reachable only through the cone boundary: huge constant-free forcing
HARD_CFG = """
grid.n = 1
grid.N = 16
metric.preset = flat
forcing.kind = modes
forcing.amplitude = 80.0
forcing.max_mode = 1
flow.horizon = 2
step.dt_max = 0.05
rng_seed = 3
"""


def test_cli_step_failure_exit_3(tmp_path):
    cfg_path = tmp_path / "hard.cfg"
    cfg_path.write_text(HARD_CFG)
    code = main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 3


def test_cli_step_failure_at_halving_floor_names_its_halvings(tmp_path, capsys):
    # the accepted steps shrink towards the cone boundary, each first trying
    # its predecessor's size, until a step fails at 0.05 * 2^-18, 2^-19 and
    # 2^-20, the halving floor; the message counts those three rejected
    # tries and names the last size tried
    cfg_path = tmp_path / "hard.cfg"
    cfg_path.write_text(HARD_CFG)
    code = main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: step failed after 3 rejected tries at t=0.048311 ")
    assert f"(last dt={0.05 * 2 ** -20:.3e})" in err


def test_cli_step_budget_exit_2_before_any_step(tmp_path, capsys):
    # the default horizon of 5 at step.dt_max = 1e-9 plans 5e9 steps; without
    # a budget the run would step on for hours and write nothing
    cfg_path = tmp_path / "tiny_dt.cfg"
    cfg_path.write_text("step.dt_max = 1e-9\n")
    out = tmp_path / "o"
    start = time.perf_counter()
    code = main(["flow", "--config", str(cfg_path), "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err == ("config error: flow.horizon / step.dt_max is 5e+09 steps, "
                   "above the budget of 1000000\n")


def test_cli_flow_on_a_tiny_flat_metric_is_stationary(tmp_path):
    # zero forcing keeps phi = 0 on a flat metric at any scale: the cone guard
    # follows the metric's own eigenvalues (1e-7 here), not a fixed 1e-6
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text("metric.scale = 1e-7\n")
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = (out / "monitors.csv").read_text().splitlines()
    header = rows[0].split(",")
    u_columns = [header.index("sup_dphidt"), header.index("osc_u")]
    assert len(rows) == 52
    assert all(float(row.split(",")[i]) == 0.0 for row in rows[1:] for i in u_columns)


def test_cli_flow_on_a_small_metric_needs_no_second_key(tmp_path):
    # a metric need only be positive definite: FLOW_CFG's metric at scale
    # 0.05, below any fixed eigenvalue floor of 0.1, runs as it is, and
    # decays faster than at 0.4 (eta 4.9 against 0.78): the flow's time
    # scale goes with the metric's
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(FLOW_CFG.replace("metric.scale = 0.4", "metric.scale = 0.05"))
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["eta"] > 4


def test_cli_non_positive_definite_metric_exit_2(tmp_path, capsys):
    # a bump of amplitude 10 takes g = 1 - 2.5 (cos x + 0.5 sin y) below 0:
    # a config error that names the grid point, before any step
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("metric.preset = kahler_bump\nmetric.amp = 10\n")
    out = tmp_path / "o"
    code = main(["flow", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("config error: metric eigenvalue -")
    assert "not positive at grid point (" in err
    assert "Traceback" not in err and not out.exists()


def _error_classes(cls=MaflowError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


# the exit-code contract, written out: config errors 2, solver and step
# failures 3, every other package error (a failed verification) 1
EXIT_CODES = {
    "MaflowError": 1, "ConfigError": 2, "SolverFailure": 3,
    "PositivityViolation": 3, "TailAlarm": 3, "StepFailure": 3, "LineSearchFailure": 3,
    "MaxIterationsExceeded": 3, "LinearSolveStagnation": 3,
    "EigRangeViolation": 1, "ShiftFailure": 1, "NonPositiveU": 1, "MonitorOverflow": 1,
    "InsufficientSnapshots": 1, "SeriesTooShort": 1,
}
LABELS = {1: "verification failure: ", 2: "config error: ", 3: "solver failure: "}


def test_every_maflow_error_has_one_exit_code(tmp_path, monkeypatch, capsys):
    import maflow.runner

    classes = [MaflowError, *_error_classes()]
    assert sorted(cls.__name__ for cls in classes) == sorted(EXIT_CODES)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FLOW_CFG)
    for cls in classes:
        def fail(cfg, observers=(), cls=cls):
            raise cls(f"forced {cls.__name__}")

        monkeypatch.setattr(maflow.runner, "execute_flow", fail)
        code = main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CODES[cls.__name__], cls
        err = capsys.readouterr().err
        assert err == f"{LABELS[code]}forced {cls.__name__}\n", cls


@pytest.mark.parametrize("line", [
    "grid.n = 3",             # TorusGrid: complex_dim must be 1 or 2
    "grid.period = nan",      # every axis has period 2 pi: grid.period is an unknown key
    "grid.period = inf",
    "grid.period = 1e-300",
    "flow.horizon = 0.33",    # not a multiple of monitors.emit_dt
    "step.dt_min = 0",        # step.dt_max is the only step setting:
    "step.eps_pd = -1",       # the others are unknown keys
    "step.retry_limit = -1",
    "step.dt_max = inf",      # StepControl: dt_max must be finite
    "step.dt_max = 1e-320",   # and dt_max * 2^-20 must not underflow to 0
    "forcing.max_mode = -1",
    "forcing.amplitude = nan",
    "forcing.kind = const\nforcing.value = nan",
    "forcing.seed = -5",
    "forcing.psi_kind = bogus",
    "rng_seed = -5",
    "metric.scale = -1",
    "metric.eps = nan",
    "monitors.emit_dt = nan",
    "monitors.field_interval = inf",
    "monitors.field_interval = 1e-11",  # a ratio to emit_dt that rounds to 0
    "demo.count = -1",
    "verify.criteria = 12",
    "elliptic.tol = 1e-13",
    "elliptic.tol = nan",
    "dump.fields = maybe",
    "grid.max_points = 5000000",  # the memory budget is a constant: an unknown key
    # a metric need only be positive definite, and the Li-Yau shift, the
    # Newton budget, Q's A, the Hoelder sampler and the demo's eigenvalue
    # range are constants: these are unknown keys too
    "metric.lambda_floor = -1",
    "metric.lambda_floor = 5",
    "monitors.shift_eps = -2",
    "elliptic.max_iters = -1",
    "holder.sample_pairs = -1",
    "holder.sample_pairs = 1000000000000",
    "holder.epsilon = nan",
    "monitors.A = nan",
    "demo.eig_lo = 5\ndemo.eig_hi = 1",
    # valid values whose metric or manufactured forcing fails during set-up
    "metric.preset = hermitian_nonkahler\nmetric.eps = 0.9",
    "forcing.kind = manufactured\nforcing.amplitude = 50",
    "grid.n 2",               # a line without '='
])
def test_cli_bad_config_value_exit_2(tmp_path, capsys, line):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(line + "\n")
    code = main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


# Generated bad values: each key takes every one of these.  1e-320 is a tiny
# (subnormal) positive float, 1e-9 a small normal one (as step.dt_max it plans
# 5e9 steps, past config.MAX_STEPS) and 1e300 the huge one; an int key reads
# it as a wrong type, so HUGE_INT is its huge value.
HUGE_INT = "1000000000000"
GENERATED = ("nan", "inf", "-1", "0", "1e-320", "1e-9", "1e300", HUGE_INT, "abc", "")
SEEDS = "any non-negative integer seeds numpy's generator"
SHAPE = ("finite; a metric it makes not positive definite is a config error at "
         "set-up (the flat default does not read it)")
# key -> (the generated values config_from_kv accepts, why each is valid)
ACCEPTED = {
    "rng_seed": (("0", HUGE_INT), SEEDS),
    "out.dir": (GENERATED, "any text names a directory; empty means maflow-out"),
    "metric.eps": (("-1", "0", "1e-320", "1e-9", "1e300", HUGE_INT), SHAPE),
    "metric.amp": (("-1", "0", "1e-320", "1e-9", "1e300", HUGE_INT), SHAPE),
    "metric.scale": (("1e-9", HUGE_INT), "inside presets.SCALE_RANGE"),
    "forcing.value": (("-1", "0", "1e-320", "1e-9", "1e300", HUGE_INT),
                      "finite; a constant F only moves phi by -F t"),
    "forcing.amplitude": (("-1", "0", "1e-320", "1e-9", "1e300", HUGE_INT),
                          "finite; a manufactured g + Hess(psi) outside the cone is a "
                          "config error at set-up, a forcing the flow cannot follow a "
                          "step failure (exit 3)"),
    "forcing.max_mode": (("0",), "no modes: the seeded forcing is zero"),
    "forcing.seed": (("0", HUGE_INT), SEEDS),
    "step.dt_max": (("1e300", HUGE_INT),
                    "a finite upper bound; each step is clipped to land on an emission "
                    "(a small one plans more than config.MAX_STEPS steps)"),
    "monitors.field_interval": (("1e300", HUGE_INT),
                                "a multiple of monitors.emit_dt: t = 0 is the only "
                                "field snapshot"),
    "elliptic.tol": (("1e-9", "1e300", HUGE_INT), "an upper bound on the Newton residual, "
                     "at least 1e-12"),
    "verify.criteria": (("",), "an empty list selects every criterion"),
    "dump.fields": (("0",), "reads as false"),
}


# keys that became constants: every value of theirs is an unknown key
REMOVED_KEYS = ("metric.lambda_floor", "monitors.shift_eps", "elliptic.max_iters",
                "monitors.A", "monitors.alpha_ly", "holder.alpha", "holder.epsilon",
                "holder.sample_pairs", "demo.eig_lo", "demo.eig_hi")


@pytest.mark.parametrize("key", sorted(_KEYS) + list(REMOVED_KEYS))
def test_generated_values_are_rejected_or_listed(tmp_path, capsys, key):
    # an accepted value only goes through config_from_kv: no mode runs on it,
    # so a work budget it would break is never started
    assert set(ACCEPTED) <= set(_KEYS) and not set(REMOVED_KEYS) & set(_KEYS)
    accepted = ACCEPTED.get(key, ((), ""))[0]
    for value in GENERATED:
        try:
            config_from_kv({key: value})
        except ConfigError:
            assert value not in accepted, (key, value)
        else:
            assert value in accepted, (key, value)
            continue
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"{key} = {value}\n")
        out = tmp_path / "o"
        if key == "mode":
            # the CLI reads the mode from its first argument, which argparse checks
            code = main([value, "--config", str(cfg_path), "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 2 and "invalid choice" in err, (key, value)
        else:
            code = main(["flow", "--config", str(cfg_path), "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 2 and err.startswith("config error:"), (key, value, err)
            assert (key in _KEYS) != ("unknown configuration key" in err), (key, value, err)
        assert "Traceback" not in err and not out.exists(), (key, value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_q_max_overflow_exit_1(tmp_path, capsys, monkeypatch):
    # with a huge A, exp(A (sup phi_tilde - phi_tilde)) overflows once
    # phi_tilde varies: the flow stops at that emission, with no numpy
    # warning before the error line
    monkeypatch.setattr(monitors, "Q_A", 1e300)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FLOW_CFG)
    out = tmp_path / "o"
    code = main(["flow", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("verification failure: Q_max = inf at t = 0.1:")
    assert "A = monitors.Q_A = 1e+300" in err and "Traceback" not in err
    assert not (out / "monitors.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_liyau_shift_overflow_exit_1(tmp_path, capsys):
    # a huge finite F is a valid config value, but the Li-Yau shift 1.5 sup|F|
    # is inf, and u + inf would turn the Li-Yau column into nan: the series
    # refuses it before the first step, with one error line and no warning
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("grid.n = 1\ngrid.N = 16\nmetric.preset = hermitian_nonkahler\n"
                        "forcing.kind = const\nforcing.value = 1.5e308\nflow.horizon = 2\n")
    out = tmp_path / "o"
    code = main(["flow", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert err == ("verification failure: Li-Yau shift 1.5 sup|F| = inf overflows "
                   "with sup|F| = 1.5e+308\n")
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert not (out / "monitors.csv").exists()


def test_cli_newton_iteration_cap_exit_3(tmp_path, capsys):
    # a strong forcing that direct Newton does not solve from zero (N = 8 has
    # no half grid): its residual is still 3.5 when the budget of
    # elliptic.NEWTON_MAX_ITERS = 50 iterations runs out
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("grid.n = 2\ngrid.N = 8\nmetric.preset = hermitian_nonkahler\n"
                        "metric.eps = 0.3\nforcing.kind = modes\nforcing.amplitude = 8\n"
                        "forcing.max_mode = 2\nforcing.seed = 3\n")
    out = tmp_path / "o"
    code = main(["solve-elliptic", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "solver failure: residual 3.496e+00 after 50 Newton iterations\n"
    assert not (out / "summary.json").exists()


def test_cli_flow_dumps_final_fields(tmp_path):
    # dump.fields = true writes the final phi_tilde and u, the same bytes on a repeat
    from maflow.runner import execute_flow

    text = FLOW_CFG + "dump.fields = true\n"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["flow", "--config", str(cfg_path), "--out", str(out)]) == 0
    final = execute_flow(config_from_kv(parse_kv_text(text))).result.final
    for name, field in (("phi_tilde_final.dump", final.phi_tilde),
                        ("dphi_dt_final.dump", final.dphi_dt)):
        loaded = load_scalar_field(outs[0] / name)
        assert loaded.grid == field.grid, name
        assert np.array_equal(loaded.values, field.values), name
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_execute_flow_builds_the_volume_weights_once(monkeypatch):
    # b_flow integrates against the run's own omega^n weights (FlowRun.w);
    # a modes forcing builds none of its own
    import maflow.flow
    import maflow.presets
    import maflow.runner
    from maflow.grid import volume_weights as real
    from maflow.runner import execute_flow

    calls = []
    for module in (maflow.flow, maflow.presets, maflow.runner):
        monkeypatch.setattr(module, "volume_weights", lambda g: calls.append(g) or real(g))
    art = execute_flow(config_from_kv(parse_kv_text(FLOW_CFG)))
    assert len(calls) == 1 and calls[0] is art.g


def test_cli_solve_elliptic_repeats_byte_identical(tmp_path):
    # a small n = 2 oracle whose half-grid start runs (N = 16)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FLOW_CFG.replace("grid.n = 1", "grid.n = 2")
                        .replace("metric.scale = 0.4", "metric.scale = 0.35"))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["solve-elliptic", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in ("summary.json", "phi_tilde_inf.dump"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_flow_n2_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the n = 2 flow's Hessian is BLAS matmuls: run 2 to horizon 2 must write
    # the same monitors.csv on one OpenBLAS thread and on two (each run is a
    # fresh process, since OpenBLAS reads the setting when numpy loads)
    import os
    import subprocess
    import sys

    from maflow.verification import RUN2_KV

    kv = dict(RUN2_KV, **{"flow.horizon": "2"})
    cfg_path = tmp_path / "run2.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items() if k != "mode"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    csv = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-m", "maflow.cli", "flow", "--config",
                               str(cfg_path), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300, check=False)
        assert proc.returncode == 0, proc.stderr
        csv.append((out / "monitors.csv").read_bytes())
    assert csv[0] == csv[1]


def test_cli_solve_elliptic_bad_forcing_exit_2(tmp_path, capsys):
    # g + Hess(psi) of a too strong manufactured psi leaves the cone: a config
    # error that names the grid point, not a solver failure
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("forcing.kind = manufactured\nforcing.amplitude = 50\n")
    out = tmp_path / "o"
    code = main(["solve-elliptic", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "grid point (" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("lines", [
    "flow.horizon = 1",
    "flow.horizon = 0.5",
    "flow.horizon = 2\nmonitors.emit_dt = 2\nmonitors.field_interval = 2",
])
def test_cli_flow_too_short_for_decay_fit_exit_2(tmp_path, capsys, lines):
    # the decay fit needs 3 emissions spanning two unit times: a shorter
    # flow is a config error before any step runs, not a late failure
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FLOW_CFG.replace("flow.horizon = 2", lines))
    out = tmp_path / "o"
    code = main(["flow", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "flow.horizon" in err
    assert "Traceback" not in err and not out.exists()


def test_cli_grid_period_key_exit_2(tmp_path, capsys):
    # every axis has period 2 pi and no key sets it: the line is an unknown key
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("grid.n = 1\ngrid.period = 5.0\n")
    code = main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'grid.period'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", "0"])
def test_cli_ignores_maflow_threads(tmp_path, monkeypatch, value):
    # the FFTs run on one worker whatever the environment says
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FLOW_CFG)
    monkeypatch.delenv("MAFLOW_THREADS", raising=False)
    assert main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "unset")]) == 0
    monkeypatch.setenv("MAFLOW_THREADS", value)
    assert main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "set")]) == 0
    assert ((tmp_path / "set" / "monitors.csv").read_bytes()
            == (tmp_path / "unset" / "monitors.csv").read_bytes())


def test_package_exports_resolve():
    import maflow
    assert [name for name in maflow.__all__ if not hasattr(maflow, name)] == []


def test_cli_decompose_demo(tmp_path):
    cfg_path = tmp_path / "demo.cfg"
    cfg_path.write_text("demo.count = 50\nrng_seed = 1\n")
    out = tmp_path / "out"
    code = main(["decompose-demo", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "decompose-demo.json").read_text())
    assert report["passed"]
    assert report["worst_reconstruction"] <= 1e-12


def test_cli_normal_frame_demo(tmp_path):
    cfg_path = tmp_path / "demo.cfg"
    cfg_path.write_text("demo.count = 20\nrng_seed = 2\n")
    out = tmp_path / "out"
    code = main(["normal-frame-demo", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "normal-frame-demo.json").read_text())
    assert report["passed"]


def test_cli_verify_quick_criteria(tmp_path):
    cfg_path = tmp_path / "verify.cfg"
    cfg_path.write_text("verify.criteria = 7,8,9,7\n")
    out = tmp_path / "out"
    code = main(["verify", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    nums = [c["number"] for c in report["criteria"]]
    assert nums == [7, 8, 9]
    assert report["all_passed"]
    # the output location is not part of the result, as in every other mode
    assert report["config"] == {"verify.criteria": "7,8,9,7", "mode": "verify"}


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FLOW_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["flow", "--config", str(cfg_path), "--out", str(out_a), "--seed", "77"])
    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["config"]["rng_seed"] == "77"


def test_cli_flow_zero_forcing_degenerate(tmp_path):
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text("""
grid.n = 1
grid.N = 16
metric.preset = flat
forcing.kind = zero
flow.horizon = 3
rng_seed = 0
""")
    out = tmp_path / "out"
    code = main(["flow", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fit_degenerate"] is True
    assert summary["delta"] == 0.0


def test_cli_unknown_preset_echoes_name(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("metric.preset = nosuchmetric\n")
    code = main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nosuchmetric" in capsys.readouterr().err


def test_cli_verify_manufactured_report(tmp_path):
    cfg_path = tmp_path / "verify.cfg"
    cfg_path.write_text("verify.criteria = 1\n")
    out = tmp_path / "out"
    code = main(["verify", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    c1 = report["criteria"][0]
    assert c1["number"] == 1 and c1["passed"]
    assert c1["measured"]["phi_tilde_sup_error"] <= 1e-6
