"""DCTCP / DT-DCTCP fluid models: nonlinear DDE simulation and linearisation."""

from repro.fluid.delay_buffer import DelayBuffer
from repro.fluid.integrator import FluidTrace, simulate
from repro.fluid.linearization import (
    LinearizedModel,
    linearize,
    paper_rhs,
    queue_response,
)
from repro.fluid.model import FluidModel, FluidState, fluid_model
from repro.fluid.multiclass import (
    FlowClass,
    MultiClassModel,
    MultiClassTrace,
    simulate_multiclass,
)

__all__ = [
    "DelayBuffer",
    "FlowClass",
    "FluidModel",
    "FluidState",
    "FluidTrace",
    "LinearizedModel",
    "MultiClassModel",
    "MultiClassTrace",
    "fluid_model",
    "linearize",
    "paper_rhs",
    "queue_response",
    "simulate",
    "simulate_multiclass",
]
