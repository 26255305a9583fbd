"""Acceptance suite: every criterion at its stated tolerance.

Runs the two frozen reference runs once (session scope) and checks all
eleven criteria, printing one pass/fail line per criterion.  Expect about
20 s of wall time; the heavy pieces are the n=2 flow run, its Newton
cross-check and its byte-identical repeat, each executed once.
"""

import numpy as np
import pytest

from maflow.verification import CRITERIA, VerificationContext, run_criteria


@pytest.fixture(scope="session")
def ctx():
    return VerificationContext()


def _check(number, ctx):
    res = CRITERIA[number](ctx)
    print(f"\ncriterion {res.number:2d} [{'PASS' if res.passed else 'FAIL'}] "
          f"{res.name}")
    for key, val in res.measured.items():
        print(f"    {key} = {val}")
    assert res.passed, f"criterion {number} failed: {res.measured}"
    return res


def test_criterion_01_manufactured_convergence(ctx):
    res = _check(1, ctx)
    assert res.measured["phi_tilde_sup_error"] <= 1e-6
    assert res.measured["b_error"] <= 1e-8
    assert res.measured["flow_wall_time_s"] <= 60.0
    # the flow's own bound osc_u(T) / eta on its distance to the limit holds
    assert res.measured["phi_tilde_sup_error"] <= res.measured["flow_limit_bound"]
    assert res.measured["flow_limit_bound_ratio"] >= 1


def test_criterion_02_flow_newton_agreement(ctx):
    res = _check(2, ctx)
    assert res.measured["phi_tilde_gap"] <= 1e-5
    assert res.measured["b_gap"] <= 1e-6
    assert res.measured["wall_time_s"] <= 600.0
    assert res.measured["phi_tilde_gap"] <= res.measured["flow_limit_bound"]
    assert res.measured["flow_limit_bound_ratio"] >= 1
    # the half-grid resolution witness is reported (not gated) on run 2
    assert np.isfinite(res.measured["half_grid_b_gap"])
    assert np.isfinite(res.measured["half_grid_phi_tilde_gap"])
    assert res.measured["krylov_applies"] > 0 and res.measured["half_grid_krylov_applies"] > 0
    # one record per Newton iteration on each grid, which sum to the applies
    for prefix in ("", "half_grid_"):
        steps = res.measured[prefix + "newton_steps"]
        assert sum(s["krylov_applies"] for s in steps) == res.measured[prefix + "krylov_applies"]
        assert all(s["krylov_rel"] <= 10 * s["forcing"] for s in steps)
        residuals = [s["residual_sup"] for s in steps]
        assert residuals == sorted(residuals, reverse=True)
    assert len(res.measured["newton_steps"]) == res.measured["newton_iters"]
    assert res.measured["shell_decay_factor"] > 1
    # b and the residual from a fresh Hessian of the returned phi_tilde_inf
    assert res.measured["b_recomputed_gap"] <= 1e-12
    assert res.measured["residual_recomputed_sup"] <= ctx.run2_newton.config.elliptic_tol


def test_criterion_03_exponential_decay(ctx):
    res = _check(3, ctx)
    assert res.measured["eta"] > 0
    assert res.measured["r_squared"] >= 0.99
    assert 0 <= res.measured["delta"] < 1


def test_criterion_04_maximum_principle(ctx):
    res = _check(4, ctx)
    assert res.measured["run1_max_principle_slack"] <= 1e-8
    assert res.measured["run2_max_principle_slack"] <= 1e-8
    for tag in ("run1", "run2"):
        assert np.isfinite(res.measured[f"{tag}_max_principle_margin"])
    assert res.measured["run1_mean_phitilde_max"] <= 1e-12
    assert res.measured["run2_mean_phitilde_max"] <= 1e-12


def test_criterion_05_parabolicity_witnesses(ctx):
    res = _check(5, ctx)
    for tag in ("run1", "run2"):
        assert res.measured[f"{tag}_eig_min"] >= 0.01
        assert res.measured[f"{tag}_trace_identity_residual"] <= 1e-10


def test_criterion_06_holder_boundedness(ctx):
    res = _check(6, ctx)
    assert res.measured["relative_growth"] <= 0.05


def test_criterion_07_frame_decomposition(ctx):
    res = _check(7, ctx)
    assert res.measured["worst_reconstruction"] <= 1e-12
    assert res.measured["min_beta"] >= res.measured["beta_floor"]
    assert res.measured["frame_contains_basis"]
    assert res.measured["runtime_s"] <= 5.0


def test_criterion_08_normal_frame(ctx):
    res = _check(8, ctx)
    assert res.measured["worst_metric_identity"] <= 1e-10
    assert res.measured["worst_hessian_offdiag"] <= 1e-10
    assert res.measured["worst_fd_diag_derivative"] <= 1e-6
    assert res.measured["runtime_s"] <= 10.0


def test_criterion_09_linearization(ctx):
    res = _check(9, ctx)
    assert res.measured["worst_relative_error"] <= 1e-5
    assert res.measured["worst_preconditioned_apply_gap"] <= 1e-12


def test_criterion_10_liyau_harnack(ctx):
    res = _check(10, ctx)
    assert res.measured["nonpositive_triggers"] == 0
    assert res.measured["envelope_holds"]
    assert np.isfinite(res.measured["envelope_C1"])
    assert np.isfinite(res.measured["envelope_C2"])


def test_criterion_11_determinism(ctx):
    res = _check(11, ctx)
    assert res.measured["csv_identical"]
    assert res.measured["json_identical"]


def test_full_report(ctx):
    # one-line-per-criterion summary at the end of the suite
    results = run_criteria(None, ctx=ctx)
    print()
    for r in results:
        print(f"criterion {r.number:2d} [{'PASS' if r.passed else 'FAIL'}] {r.name}")
    assert all(r.passed for r in results)
