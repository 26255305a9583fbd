import json
import math

import numpy as np
import pytest

from maflow.cli import main
from maflow.config import config_from_kv, parse_kv_text
from maflow.errors import ConfigError
from maflow.grid import TorusGrid
from maflow.io import dump_scalar_field, load_scalar_field
from conftest import field_from


# ----------------------------------------------------------------- dumps

def test_scalar_field_roundtrip(tmp_path, grid1):
    f = field_from(grid1, lambda c: np.sin(c[0]) + 0.2 * np.cos(c[1]))
    path = tmp_path / "f.dump"
    dump_scalar_field(path, f)
    loaded = load_scalar_field(path)
    assert loaded.grid.same_as(grid1)
    assert np.array_equal(loaded.values, f.values)


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
    assert cfg.n == 2 and cfg.N == 8
    assert cfg.metric.name == "kahler_bump"
    assert cfg.metric.amp == 0.35
    assert cfg.horizon == 2.5
    assert cfg.rng_seed == 42
    assert cfg.grid().same_as(TorusGrid(2, 8))


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_kv_text("grid.m = 3")


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
    assert cfg.step.eps_pd == 1e-6
    assert cfg.step.retry_limit == 20
    assert cfg.monitors.holder.alpha == 0.5
    assert cfg.monitors.holder.epsilon == 0.5
    assert cfg.monitors.holder.sample_pairs == 20000
    assert cfg.monitors.alpha_ly == 1.5


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
holder.sample_pairs = 2000
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
    assert sol.grid.same_as(TorusGrid(1, 16))


def test_cli_unknown_preset_exit_2(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("metric.preset = nosuchmetric\n")
    code = main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_missing_config_exit_2(tmp_path):
    code = main(["flow", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2


def test_cli_step_failure_exit_3(tmp_path):
    # horizon reachable only through the cone boundary: huge constant-free forcing
    cfg_path = tmp_path / "hard.cfg"
    cfg_path.write_text("""
grid.n = 1
grid.N = 16
metric.preset = flat
forcing.kind = modes
forcing.amplitude = 80.0
forcing.max_mode = 1
flow.horizon = 2
step.retry_limit = 2
step.dt_min = 1e-3
step.dt_max = 0.05
rng_seed = 3
""")
    code = main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 3


@pytest.mark.parametrize("line", [
    "grid.n = 3",             # TorusGrid: complex_dim must be 1 or 2
    "grid.period = nan",      # every axis has period 2 pi: grid.period is an unknown key
    "grid.period = inf",
    "grid.period = 1e-300",
    "flow.horizon = 0.33",    # not a multiple of monitors.emit_dt
    "step.dt_min = 0",        # StepControl: need 0 < dt_min
    "step.eps_pd = -1",
    "step.retry_limit = -1",
    "holder.sample_pairs = -1",
    "holder.epsilon = nan",
    "forcing.max_mode = -1",
    "forcing.amplitude = nan",
    "forcing.kind = const\nforcing.value = nan",
    "forcing.seed = -5",
    "forcing.psi_kind = bogus",
    "rng_seed = -5",
    "metric.scale = -1",
    "metric.eps = nan",
    "metric.lambda_floor = -1",
    "monitors.A = nan",
    "monitors.shift_eps = -2",
    "monitors.emit_dt = nan",
    "monitors.field_interval = inf",
    "demo.eig_lo = 5\ndemo.eig_hi = 1",
    "demo.count = -1",
    "verify.criteria = 12",
    "elliptic.tol = 1e-13",
    "elliptic.tol = nan",
    "elliptic.max_iters = -1",
    "dump.fields = maybe",
])
def test_cli_bad_config_value_exit_2(tmp_path, capsys, line):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(line + "\n")
    code = main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_cli_grid_period_key_exit_2(tmp_path, capsys):
    # every axis has period 2 pi and no key sets it: the line is an unknown key
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("grid.n = 1\ngrid.period = 5.0\n")
    code = main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'grid.period'" in err
    assert "Traceback" not in err


def test_cli_decompose_demo(tmp_path):
    cfg_path = tmp_path / "demo.cfg"
    cfg_path.write_text("demo.count = 50\ndemo.eig_lo = 0.2\ndemo.eig_hi = 5.0\nrng_seed = 1\n")
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
    cfg_path.write_text("verify.criteria = 7,8,9\n")
    out = tmp_path / "out"
    code = main(["verify", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    nums = [c["number"] for c in report["criteria"]]
    assert nums == [7, 8, 9]
    assert report["all_passed"]


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
