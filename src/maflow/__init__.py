"""maflow: spectral lab for the parabolic complex Monge-Ampere flow on Hermitian tori.

Integrates d(phi)/dt = log det(g + Hess phi)/det g - F on flat 2n-tori,
solves the limiting elliptic equation with an independent damped Newton
method, and turns the flow's a priori estimates (maximum principle, metric
equivalence, Hoelder bounds, Li-Yau/Harnack quantities, oscillation
contraction) into measured runtime witnesses.
"""

from . import errors
from .grid import (
    MetricField,
    ScalarField,
    TorusGrid,
    VolumeWeights,
    form_factor,
    volume_weights,
)
from .spectral import spectral_tail
from .hermitian import (
    FrameDecomposition,
    NormalFrame,
    frame_decompose,
    log_det_ratio,
    normal_frame,
    trace_pair,
)
from .presets import ForcingPreset, MetricPreset, build_forcing, build_metric
from .flow import FlowState, StepControl, flow_rhs, run, step
from .elliptic import EllipticSolution, linearization_check, solve
from .monitors import (
    DecayFit,
    MonitorSuite,
    contraction_and_decay,
    harnack_check,
    monitor_Q,
    monitor_basic,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "TorusGrid", "ScalarField", "MetricField", "VolumeWeights",
    "form_factor", "volume_weights", "spectral_tail",
    "log_det_ratio", "trace_pair", "normal_frame", "frame_decompose",
    "NormalFrame", "FrameDecomposition",
    "MetricPreset", "ForcingPreset", "build_metric", "build_forcing",
    "FlowState", "StepControl", "flow_rhs", "step", "run",
    "EllipticSolution", "solve", "linearization_check",
    "MonitorSuite", "DecayFit",
    "monitor_basic", "monitor_Q", "harnack_check", "contraction_and_decay",
]
