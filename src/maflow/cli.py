"""Batch front door: parse config, orchestrate runs, persist artifacts.

Usage::

    maflow <mode> --config <path> [--out <dir>] [--seed <u64>]

Modes: flow, solve-elliptic, verify, decompose-demo, normal-frame-demo.
Exit codes: 0 success, 1 verification failure, 2 config error, 3 solver or
step failure.  The env var MAFLOW_THREADS sets the FFT worker count; unset
or 0 means scipy's default of one worker, and a value that is not a
non-negative integer is a config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import MODES, RunConfig, config_from_kv, parse_kv_text
from .errors import ConfigError, MaflowError, StepFailure
from .errors import (
    LinearSolveStagnation,
    LineSearchFailure,
    MaxIterationsExceeded,
    PositivityViolation,
    TailAlarm,
)
from .io import dump_scalar_field, write_json, write_text
from .spectral import _workers

_SOLVER_ERRORS = (StepFailure, PositivityViolation, LineSearchFailure,
                  MaxIterationsExceeded, LinearSolveStagnation, TailAlarm)


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir or "maflow-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_flow(cfg: RunConfig) -> int:
    from .runner import execute_flow

    art = execute_flow(cfg)
    out = _outdir(cfg)
    write_text(out / "monitors.csv", art.csv_text)
    write_json(out / "summary.json", art.summary)
    if cfg.dump_fields:
        dump_scalar_field(out / "phi_tilde_final.dump", art.result.final.phi_tilde)
        dump_scalar_field(out / "dphi_dt_final.dump", art.result.final.dphi_dt)
    print(f"flow: horizon {cfg.horizon}, {art.summary['steps']} steps, "
          f"eta {art.summary['eta']:.4g}, delta {art.summary['delta']:.4g}, "
          f"wrote {out}/monitors.csv")
    return 0


def _run_elliptic(cfg: RunConfig) -> int:
    from .runner import execute_elliptic

    art = execute_elliptic(cfg)
    out = _outdir(cfg)
    write_json(out / "summary.json", art.summary)
    dump_scalar_field(out / "phi_tilde_inf.dump", art.solution.phi_tilde_inf)
    print(f"solve-elliptic: b = {art.solution.b:.12g}, residual "
          f"{art.solution.residual_sup:.3e}, {art.solution.newton_iters} Newton iters")
    return 0


def _run_verify(cfg: RunConfig) -> int:
    from .runner import embedded_config
    from .verification import run_criteria

    results = run_criteria(cfg.verify_criteria or None)
    out = _outdir(cfg)
    payload = {
        "mode": "verify",
        "criteria": [r.as_dict() for r in results],
        "all_passed": all(r.passed for r in results),
        "config": embedded_config(cfg),
    }
    write_json(out / "verify_report.json", payload)
    for r in results:
        print(f"criterion {r.number:2d} [{'PASS' if r.passed else 'FAIL'}] {r.name}")
        for key, val in r.measured.items():
            print(f"    {key} = {val}")
    return 0 if payload["all_passed"] else 1


def _run_demo(cfg: RunConfig) -> int:
    from .runner import decompose_demo, normal_frame_demo

    report = decompose_demo(cfg) if cfg.mode == "decompose-demo" else normal_frame_demo(cfg)
    out = _outdir(cfg)
    write_json(out / f"{cfg.mode}.json", report)
    for key, val in report.items():
        if key != "config":
            print(f"{key} = {val}")
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="maflow", description=__doc__)
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        text = Path(args.config).read_text()
    except OSError as e:
        print(f"config error: cannot read {args.config}: {e}", file=sys.stderr)
        return 2

    try:
        kv = parse_kv_text(text)
        kv["mode"] = args.mode
        if args.seed is not None:
            kv["rng_seed"] = str(args.seed)
        if args.out is not None:
            kv["out.dir"] = args.out
        cfg = config_from_kv(kv)
        _workers()  # a bad MAFLOW_THREADS fails here, before any work
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        if cfg.mode == "flow":
            return _run_flow(cfg)
        if cfg.mode == "solve-elliptic":
            return _run_elliptic(cfg)
        if cfg.mode == "verify":
            return _run_verify(cfg)
        return _run_demo(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3
    except MaflowError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
