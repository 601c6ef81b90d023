"""Second-order Crank-Nicolson stepping of the auxiliary-variable system.

Each step is a direct linear solve: the half-point nonlinearity is frozen at
the extrapolant fbar = (3 phi^n - phi^{n-1}) / 2 (fbar = phi^n on the very
first step), the diagonal resolvent inverts the stiff part, and the rank-one
auxiliary coupling is resolved by one scalar equation.  The scheme decays the
modified energy  1/2 ||G phi||^2 + R^2 - c1  for every positive step size.

A state carries phi^n and the collocation samples of phi^n and phi^{n-1},
on the grid `init_state` chose (refined for alias-free products on request);
every later state keeps it.  Sampling is linear, so the samples of fbar are
the same combination of them, and a step costs two transforms: the forward
transform of N'(fbar) and the inverse transform of phi^{n+1}, whose samples
give the bulk mean of the energy row and the next extrapolant.

R is stored as its deviation r_dev from sqrt(c1), c1 read from the params
every call takes: for shifts as large as 1e16 the deviation carries the full
precision that R^2 - c1 needs, which a plain float R would lose to
cancellation.

The zero mode of the ratio field u is removed inside the step, which makes
the flow the mean-constrained gradient flow and conserves mass exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._kernels import blocks, extrapolate, leading
from .errors import NumericalError
from .field import (
    PhysicalField,
    SpectralField,
    _coeff_inner,
    hermitian_violation,
    to_physical,
)
from .lattice import OperatorSymbol
from .model import ModelParams, _shifted_bulk, bulk_mean, sav_ingredients, sqrt_f1_deviation

__all__ = [
    "StepperState",
    "StepReport",
    "init_state",
    "restart_state",
    "initial_report",
    "cn_step",
    "modified_energy",
    "evolve",
]

_MEAN_TOL = 1e-13


@dataclass
class StepperState:
    """Integrator state: field, samples, auxiliary deviation, time.

    `samples` and `prev_samples` are the collocation samples of phi^n and
    phi^{n-1} (None before the first step); every step from this state
    samples on their grid.  Only `init_state`, `restart_state` and
    `_advance` build states.
    `sqrt_f1` is sqrt(F1(fbar)) as frozen by the step that produced the
    state, None before the first step.
    """

    phi: SpectralField
    r_dev: float
    t: float
    samples: PhysicalField
    prev_samples: Optional[PhysicalField] = None
    sqrt_f1: Optional[float] = None


@dataclass
class StepReport:
    modified_energy: float
    original_energy: float
    r_value: float
    w_norm_sq: float
    tau: float  # the step that reached the node, 0 at the initial node


def init_state(
    phi0: SpectralField,
    symbol: OperatorSymbol,
    params: ModelParams,
    dealias: bool = False,
) -> StepperState:
    """Start a trajectory at t = 0: R0 = sqrt(F1(phi0)), no previous field
    yet.

    phi0 is sampled once, on the grid refined for products when `dealias`
    is set; the trajectory keeps that grid."""
    cmax = float(np.abs(phi0.half).max())
    if hermitian_violation(phi0) > 1e-11 * max(1.0, cmax):
        raise ValueError("initial field is not conjugate-symmetric")
    if abs(phi0.half.ravel()[phi0.grid.zero_index]) > _MEAN_TOL:
        raise ValueError("initial field must have zero mean")
    samples = to_physical(phi0, dealias)
    nu = bulk_mean(samples, params)
    _shifted_bulk(nu, params)  # raises unless the shifted bulk energy is positive
    return StepperState(
        phi=phi0,
        r_dev=float(sqrt_f1_deviation(nu, params.c1)),
        t=0.0,
        samples=samples,
    )


def restart_state(state: StepperState, params: ModelParams) -> StepperState:
    """Start a new trajectory at t = 0 from a state's field and its samples,
    taken as they are: R restarts from sqrt(F1(phi)) and there is no
    previous field, as `init_state(state.phi, ...)` would give, without
    its checks of the field or its inverse transform."""
    nu = bulk_mean(state.samples, params)
    _shifted_bulk(nu, params)  # raises unless the shifted bulk energy is positive
    return StepperState(
        phi=state.phi,
        r_dev=float(sqrt_f1_deviation(nu, params.c1)),
        t=0.0,
        samples=state.samples,
    )


def initial_report(state: StepperState, symbol: OperatorSymbol, params: ModelParams) -> StepReport:
    """Energy row of a state's field as an initial node, from its samples."""
    nu = bulk_mean(state.samples, params)
    return _node_report(state.phi, 0.0, 0.0, state.r_dev, nu, symbol, params)


def _node_report(
    phi: SpectralField, w_norm_sq: float, tau: float, r_dev: float,
    nu: float, symbol: OperatorSymbol, params: ModelParams, work=None,
) -> StepReport:
    """Energy row of node field phi, reached over a step tau with squared
    rate norm w_norm_sq (both 0 at the initial node), with auxiliary
    deviation r_dev and bulk mean nu.  g phi goes to a new array or the
    buffer `work`."""
    sqrt_c1 = math.sqrt(params.c1)
    gc = np.multiply(symbol.g_half, phi.half, out=_half_view(work, phi.half))
    grad = 0.5 * _coeff_inner(gc, gc)
    return StepReport(
        modified_energy=grad + r_dev * (2.0 * sqrt_c1 + r_dev),
        original_energy=grad + nu,
        r_value=sqrt_c1 + r_dev,
        w_norm_sq=w_norm_sq,
        tau=tau,
    )


def _half_view(work, half: np.ndarray):
    """A half-layout array shaped like `half` in the buffer `work`, or None
    (a new array) without one."""
    return None if work is None else leading(work, half.shape, np.complex128)


def _work_buffer(state: StepperState) -> np.ndarray:
    """A work buffer for a step from `state`: complex, as large as the half
    layout of the grid its samples are on, so that it holds any of the
    step's samples or half-layout temporaries."""
    shape = state.samples.values.shape
    return np.empty(math.prod(shape[:-1]) * (shape[-1] // 2 + 1), dtype=np.complex128)


def _work_buffers(state: StepperState):
    """The two work buffers A and B of a step from `state`."""
    return _work_buffer(state), _work_buffer(state)


def _frozen_ratio(state: StepperState, params: ModelParams, a=None, b=None):
    """The mean-free ratio field u and sqrt(F1) at the state's extrapolant,
    whose samples are combined from the carried ones: one forward transform.
    The extrapolant's samples and then u take the work buffer a (on a
    refined grid u is truncated out of it into a new array); the samples of
    the bulk density and of N' take b.  Without buffers it takes its own.
    Returns (u coefficients, sqrt_f1)."""
    if a is None:
        a, b = _work_buffers(state)
    v = state.samples
    if state.prev_samples is None:
        vbar = v
    else:
        vbar_values = extrapolate(v.values, state.prev_samples.values, out=leading(a, v.values.shape))
        vbar = PhysicalField(v.grid, vbar_values, v.factor)
    u, sqrt_f1 = sav_ingredients(vbar, params, out=a, work=b)
    u.half.ravel()[u.grid.zero_index] = 0.0  # mass constraint: u acts in the mean-zero space
    return u.half, sqrt_f1


def _increments(state: StepperState, u_c: np.ndarray, phi_new: SpectralField, tau: float, work):
    """The increment 1/2 <phi_new - phi, u> of R over a step tau from
    `state` to phi_new with the ratio field u frozen, and the step's squared
    rate norm ||(phi_new - phi) / tau||^2.  Taken on the stored fields, so
    an SDC refreeze of the node fields reproduces them exactly; the
    difference goes to the buffer `work`."""
    diff = np.subtract(phi_new.half, state.phi.half, out=_half_view(work, phi_new.half))
    return 0.5 * _coeff_inner(diff, u_c), _coeff_inner(diff, diff) / (tau * tau)


def _advance(
    state: StepperState, r_inc: float, w_norm_sq: float, sqrt_f1: float,
    phi_new: SpectralField, tau: float, symbol: OperatorSymbol, params: ModelParams, work,
):
    """The state and energy row at phi_new, reached from `state` over a step
    tau with the `_increments` r_inc and w_norm_sq.  phi_new is sampled
    once, on the grid of the state's samples; callers drop u before this
    inverse transform.  The buffer `work` takes the transform's working
    array, then the samples of the bulk density, then g phi_new: the new
    field and its samples are the only arrays a node adds.

    Every step and every SDC node passes here, so this is where a
    non-finite node raises NumericalError, naming the node time and the
    quantities that are not finite.  A non-finite field reaches the energy
    row through its bulk mean."""
    v_new = to_physical(phi_new, state.samples.factor > 1, work=work)
    new_state = StepperState(
        phi=phi_new,
        r_dev=state.r_dev + r_inc,
        t=state.t + tau,
        samples=v_new,
        prev_samples=state.samples,
        sqrt_f1=sqrt_f1,
    )
    nu = bulk_mean(v_new, params, work)
    report = _node_report(phi_new, w_norm_sq, tau, new_state.r_dev, nu, symbol, params, work)
    checks = dict(sqrt_f1=sqrt_f1, r_dev=new_state.r_dev,
                  original_energy=report.original_energy, w_norm_sq=report.w_norm_sq)
    bad = ", ".join(f"{k} = {v!r}" for k, v in checks.items() if not math.isfinite(v))
    if bad:
        raise NumericalError(f"non-finite values at the node t = {new_state.t!r}: {bad}")
    return new_state, report


def _resolvent_inverse(g2: np.ndarray, tau: float) -> np.ndarray:
    """1 / (1 + tau/2 g2) of one block of g2, in a new block: the solve and
    the SDC sweep form it in cache at each use rather than hold it."""
    inv = np.multiply(0.5 * tau, g2)
    np.add(1.0, inv, out=inv)
    return np.reciprocal(inv, out=inv)


def _resolvent_terms(phi_c, u_c, g2, tau: float, k: float, u_inv):
    """The solve's first terms, block by block, with inv = 1 / (1 + tau/2 g2):
    c = (1 - tau/2 g2) phi + k u, a new array, and u * inv, into u_inv.
    Dividing by the real resolvent is multiplying by inv: numpy divides by
    d + 0j as (re + im * 0) * (1/d), the same values.  Returns c."""
    c = np.empty_like(u_c)
    flat = [x.reshape(-1) for x in (c, u_inv, phi_c, u_c, g2)]
    for b in blocks(c.size, c.itemsize):
        c_b, u_inv_b, phi_b, u_b, g2_b = (x[b] for x in flat)
        half_g2 = (0.5 * tau) * g2_b
        np.multiply(phi_b, np.subtract(1.0, half_g2, out=half_g2), out=c_b)
        c_b += k * u_b
        np.multiply(u_b, _resolvent_inverse(g2_b, tau), out=u_inv_b)
    return c


def _times_inverse(x, g2, tau: float, out, k: float = 0.0, u=None):
    """(x - k u) * inv block by block, into out (which may be x), with inv
    = 1 / (1 + tau/2 g2); without u, x * inv."""
    flat = [a.reshape(-1) for a in (x, out, g2)]
    u_flat = None if u is None else u.reshape(-1)
    for b in blocks(out.size, out.itemsize):
        x_b, out_b, g2_b = (a[b] for a in flat)
        if u_flat is not None:
            x_b -= k * u_flat[b]
        np.multiply(x_b, _resolvent_inverse(g2_b, tau), out=out_b)
    return out


def cn_step(state: StepperState, tau: float, symbol: OperatorSymbol, params: ModelParams):
    """Advance one step of size tau; returns (new_state, report).

    Beside the new field and its samples, which it returns, the step works
    in two buffers of the half layout's size (see `_work_buffers`): A holds
    the extrapolant's samples, then u; B the samples of the bulk density
    and of N', u * inv, c * inv, phi^{n+1} - phi^n, the inverse transform's
    working array, the new samples' bulk density and g phi^{n+1}.  A and its
    views go before the inverse transform."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    grid = state.phi.grid
    a, b = _work_buffers(state)
    u_c, sqrt_f1 = _frozen_ratio(state, params, a, b)

    phi_c = state.phi.half
    u_phi = _coeff_inner(u_c, phi_c)

    # (I + tau/2 G^2) phi^{n+1} = c - tau/4 s u, with both diagonals real.
    # The diagonal 1 / (1 + tau/2 G^2) is formed block by block, in cache,
    # at each use.
    k = 0.25 * tau * u_phi - tau * (math.sqrt(params.c1) + state.r_dev)
    scratch = _half_view(b, phi_c)
    c = _resolvent_terms(phi_c, u_c, symbol.g2_half, tau, k, scratch)
    gamma = _coeff_inner(scratch, u_c)
    s = _coeff_inner(_times_inverse(c, symbol.g2_half, tau, scratch), u_c) / (1.0 + 0.25 * tau * gamma)
    _times_inverse(c, symbol.g2_half, tau, c, 0.25 * tau * s, u_c)
    # Real diagonal maps of conjugate-symmetric data stay symmetric, so the
    # new field needs no symmetrization.
    phi_new = SpectralField(grid, c)
    phi_new.half.ravel()[grid.zero_index] = 0.0

    r_inc, w_norm_sq = _increments(state, u_c, phi_new, tau, b)
    del u_c, a
    return _advance(state, r_inc, w_norm_sq, sqrt_f1, phi_new, tau, symbol, params, b)


_cn_step_full = cn_step  # the name the benchmark's tracer wraps


def modified_energy(state: StepperState, symbol: OperatorSymbol, params: ModelParams) -> float:
    """1/2 ||G phi||^2 + R^2 - c1, the quantity the stepper provably decays."""
    return _node_report(state.phi, 0.0, 0.0, state.r_dev, 0.0, symbol, params).modified_energy


def evolve(
    state: StepperState,
    times,
    symbol: OperatorSymbol,
    params: ModelParams,
    on_step: Optional[Callable[[int, StepperState, StepReport], None]] = None,
):
    """Step through the node times (uniform or not); returns (state, reports).

    `times` must start at the state's current time and increase strictly.
    on_step(i, state, report), if given, is called after each step i with
    the state's time pinned to times[i]; `sdc.sdc_solve` reports the same way.
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
        state, report = cn_step(state, tau, symbol, params)
        state = replace(state, t=float(times[i + 1]))  # pin to the exact node time
        reports.append(report)
        if on_step is not None:
            on_step(i + 1, state, report)
    return state, reports
