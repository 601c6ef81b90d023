"""Second-order Crank-Nicolson stepping of the auxiliary-variable system.

Each step is a direct linear solve: the half-point nonlinearity is frozen at
the extrapolant fbar = (3 phi^n - phi^{n-1}) / 2 (fbar = phi^n on the very
first step), the diagonal resolvent inverts the stiff part, and the rank-one
auxiliary coupling is resolved by one scalar equation.  The scheme decays the
modified energy  1/2 ||G phi||^2 + R^2 - c1  for every positive step size.

The state carries the collocation samples of phi^n and phi^{n-1}.  Sampling
is linear, so the samples of fbar are the same combination of them, and a
step costs two transforms: the forward transform of N'(fbar) and the
inverse transform of phi^{n+1}, whose samples give the bulk mean of the
energy row and the next extrapolant.

The auxiliary scalar R is stored as its deviation from sqrt(c1): for shifts
as large as 1e16 the deviation carries the full precision that R^2 - c1
needs, which a plain float R would lose to cancellation.

The zero mode of the ratio field u is removed inside the step, which makes
the flow the mean-constrained gradient flow and conserves mass exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import BulkPositivityError, NumericalError
from .field import (
    PhysicalField,
    SpectralField,
    _coeff_inner,
    hermitian_violation,
    project_mean,
    to_physical,
)
from .lattice import OperatorSymbol
from .model import ModelParams, bulk_mean_of_samples, sav_ingredients, sqrt_f1_deviation

__all__ = [
    "StepperState",
    "StepReport",
    "init_state",
    "initial_report",
    "cn_step",
    "modified_energy",
    "evolve",
]

_MEAN_TOL = 1e-13


@dataclass
class StepperState:
    """Integrator state: current and previous field, auxiliary scalar, time.

    `samples` and `prev_samples` are the collocation samples of phi and
    phi_prev, on the grid the step samples on (refined when dealiasing); a
    step samples whichever is missing or on the other grid.  `sqrt_f1` is
    sqrt(F1(fbar)) as frozen by the step that produced the state, None
    before the first step.
    """

    phi: SpectralField
    phi_prev: Optional[SpectralField]
    r_dev: float
    sqrt_c1: float
    t: float
    samples: Optional[PhysicalField] = None
    prev_samples: Optional[PhysicalField] = None
    sqrt_f1: Optional[float] = None

    @property
    def r(self) -> float:
        return self.sqrt_c1 + self.r_dev


@dataclass
class StepReport:
    modified_energy: float
    original_energy: float
    r_value: float
    w_norm_sq: float


def init_state(
    phi0: SpectralField,
    symbol: OperatorSymbol,
    params: ModelParams,
    dealias: bool = False,
    t0: float = 0.0,
) -> StepperState:
    """Start a trajectory: R0 = sqrt(F1(phi0)), no previous field yet.

    phi0 is sampled once; its samples feed the first step."""
    cmax = float(np.abs(phi0.half).max())
    if hermitian_violation(phi0) > 1e-11 * max(1.0, cmax):
        raise ValueError("initial field is not conjugate-symmetric")
    if abs(phi0.half.ravel()[phi0.grid.zero_index]) > _MEAN_TOL:
        raise ValueError("initial field must have zero mean")
    samples = to_physical(phi0, dealias)
    nu = bulk_mean_of_samples(samples, params)
    if not nu + params.c1 > 0.0:
        raise BulkPositivityError(
            f"shifted bulk energy {nu + params.c1:.6e} is not positive; increase c1"
        )
    return StepperState(
        phi=phi0,
        phi_prev=None,
        r_dev=float(sqrt_f1_deviation(nu, params.c1)),
        sqrt_c1=float(np.sqrt(params.c1)),
        t=float(t0),
        samples=samples,
    )


def initial_report(
    state: StepperState, symbol: OperatorSymbol, params: ModelParams, dealias: bool = False
) -> StepReport:
    """Energy row of a state's field as an initial node, from its samples."""
    nu = bulk_mean_of_samples(_samples(state.phi, state.samples, dealias), params)
    return _node_report(state.phi, None, 0.0, state.r_dev, state.sqrt_c1, nu, symbol)


def _samples(f: SpectralField, carried: Optional[PhysicalField], dealias: bool) -> PhysicalField:
    """The carried samples of f if they are on the grid a step with this
    `dealias` samples on, else one inverse transform of f."""
    if carried is not None and (carried.factor > 1) == dealias:
        return carried
    return to_physical(f, dealias)


@dataclass
class _StepInternals:
    u: SpectralField
    s_value: float


def _node_report(
    phi: SpectralField, prev: Optional[SpectralField], tau: float, r_dev: float,
    sqrt_c1: float, nu: float, symbol: OperatorSymbol,
) -> StepReport:
    """Energy row of node field phi, reached from prev (None at the initial
    node) over a step tau, with auxiliary deviation r_dev and bulk mean nu."""
    gc = symbol.g_half * phi.half
    grad = 0.5 * _coeff_inner(gc, gc)
    if prev is None:
        w_norm_sq = 0.0
    else:
        diff = phi.half - prev.half
        w_norm_sq = _coeff_inner(diff, diff) / (tau * tau)
    return StepReport(
        modified_energy=grad + r_dev * (2.0 * sqrt_c1 + r_dev),
        original_energy=grad + nu,
        r_value=sqrt_c1 + r_dev,
        w_norm_sq=w_norm_sq,
    )


def _frozen_ratio(state: StepperState, params: ModelParams, dealias: bool):
    """Samples v of the state's field, and the mean-free ratio field u and
    sqrt(F1) at its extrapolant, whose samples are combined from the carried
    ones: one forward transform.  Returns (v, u coefficients, sqrt_f1)."""
    v = _samples(state.phi, state.samples, dealias)
    if state.phi_prev is None:
        vbar = v
    else:
        vbar = 1.5 * v - 0.5 * _samples(state.phi_prev, state.prev_samples, dealias)
    u, sqrt_f1 = sav_ingredients(vbar, params)
    return v, project_mean(u).half, sqrt_f1  # mass constraint: u acts in the mean-zero space


def _advance(
    state: StepperState, v: PhysicalField, u_c: np.ndarray, sqrt_f1: float,
    phi_new: SpectralField, tau: float, symbol: OperatorSymbol, params: ModelParams,
    dealias: bool,
):
    """The state and energy row at phi_new, reached from `state` (whose field
    has samples v) over a step tau with the ratio field u frozen.  The
    increment of R is taken on the stored fields, so an SDC refreeze of the
    node fields reproduces it exactly; phi_new is sampled once."""
    r_inc = 0.5 * _coeff_inner(phi_new.half - state.phi.half, u_c)
    v_new = to_physical(phi_new, dealias)
    new_state = StepperState(
        phi=phi_new,
        phi_prev=state.phi,
        r_dev=state.r_dev + r_inc,
        sqrt_c1=state.sqrt_c1,
        t=state.t + tau,
        samples=v_new,
        prev_samples=v,
        sqrt_f1=sqrt_f1,
    )
    report = _node_report(
        phi_new, state.phi, tau, new_state.r_dev, state.sqrt_c1,
        bulk_mean_of_samples(v_new, params), symbol,
    )
    return new_state, report


def _cn_step_full(
    state: StepperState,
    tau: float,
    symbol: OperatorSymbol,
    params: ModelParams,
    dealias: bool = False,
):
    if tau <= 0:
        raise ValueError("tau must be positive")
    grid = state.phi.grid
    v, u_c, sqrt_f1 = _frozen_ratio(state, params, dealias)

    phi_c = state.phi.half
    u_phi = _coeff_inner(u_c, phi_c)

    g2 = symbol.g2_half
    denom = 1.0 + (0.5 * tau) * g2
    c = phi_c * (1.0 - 0.5 * tau * g2) + (0.25 * tau * u_phi - tau * state.r) * u_c

    gamma = _coeff_inner(u_c / denom, u_c)
    s = _coeff_inner(c / denom, u_c) / (1.0 + 0.25 * tau * gamma)
    # Real diagonal maps of conjugate-symmetric data stay symmetric, so the
    # new field needs no symmetrization.
    phi_new = SpectralField(grid, (c - 0.25 * tau * s * u_c) / denom)
    phi_new.half.ravel()[grid.zero_index] = 0.0

    new_state, report = _advance(state, v, u_c, sqrt_f1, phi_new, tau, symbol, params, dealias)
    checks = (sqrt_f1, gamma, s, new_state.r_dev, report.original_energy, report.w_norm_sq)
    if not np.all(np.isfinite(checks)):
        raise NumericalError(
            "non-finite values in the step (check the step size and c1): "
            + repr(checks)
        )
    return new_state, report, _StepInternals(u=SpectralField(grid, u_c), s_value=s)


def cn_step(
    state: StepperState,
    tau: float,
    symbol: OperatorSymbol,
    params: ModelParams,
    dealias: bool = False,
):
    """Advance one step of size tau; returns (new_state, report)."""
    new_state, report, _ = _cn_step_full(state, tau, symbol, params, dealias=dealias)
    return new_state, report


def modified_energy(state: StepperState, symbol: OperatorSymbol, params: ModelParams) -> float:
    """1/2 ||G phi||^2 + R^2 - c1, the quantity the stepper provably decays."""
    return _node_report(state.phi, None, 0.0, state.r_dev, state.sqrt_c1, 0.0, symbol).modified_energy


def evolve(
    state: StepperState,
    times,
    symbol: OperatorSymbol,
    params: ModelParams,
    dealias: bool = False,
    on_step: Optional[Callable[[int, StepperState, StepReport], None]] = None,
):
    """Step through the node times (uniform or not); returns (state, reports).

    `times` must start at the state's current time and increase strictly.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a 1-d sequence of node times")
    if abs(times[0] - state.t) > 1e-12 * max(1.0, abs(state.t)):
        raise ValueError(f"times must start at t={state.t}, got {times[0]}")
    if np.any(np.diff(times) <= 0):
        raise ValueError("node times must increase strictly")

    reports = []
    for i in range(times.size - 1):
        tau = float(times[i + 1] - times[i])
        state, report = cn_step(state, tau, symbol, params, dealias=dealias)
        state = replace(state, t=float(times[i + 1]))  # pin to the exact node time
        reports.append(report)
        if on_step is not None:
            on_step(i + 1, state, report)
    return state, reports
