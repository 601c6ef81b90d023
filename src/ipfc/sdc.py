"""Spectral deferred correction on Chebyshev nodes.

The predictor is the Crank-Nicolson stepper run over the clustered node set
t_n = T/2 - T/2 cos(n pi / N_T); interpolatory quadrature of the node
right-hand sides then feeds a linear correction sweep that solves an error
equation interval by interval.  One sweep lifts the global order from two
to four.

`_refreeze` is the one place node fields become an `SdcTrajectory`: it
stores each node's samples, its right-hand side (a row of one nodes x modes
array) when a sweep follows, its auxiliary-scalar deviation and its energy
row, and each interval's frozen ratio coefficient.  After the predictor it
takes all but the right-hand sides from the stepper's states, so a
predicted node costs the stepper's two transforms plus one.  After a sweep
it re-runs the stepper's update on the corrected fields, at two transforms
per node, plus one for the right-hand side unless the sweep was the last.
The sweep itself forms the extrapolants' samples by linearity and costs two
transforms per interval past the first, so a one-sweep node costs fewer
than seven.  The energy rows of the final pass are the run's records.

Large node counts are handled by partitioning [0, T] into blocks of at most
`block` intervals (4096 by default, at least two per block), applying
predictor + sweeps per block and chaining the endpoint states.  A block
holds, per node, its field and right-hand side in the half layout
(16 (N/2 + 1) / N bytes per mode each, N the last axis size: 8.7 at
N = 24) and its samples (8 bytes per mode, more when dealiasing).  The
closed-form quadrature needs no node-count guard: it matches exact
interval integrals to round-off at thousands of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import NumericalError
from .field import PhysicalField, SpectralField, enforce_hermitian, project_mean, to_physical
from .lattice import OperatorSymbol
from .model import ModelParams, nprime_increment, nprime_of_samples
from .sav_cn import (
    StepperState,
    StepReport,
    _advance,
    _frozen_ratio,
    _samples,
    evolve,
    init_state,
    initial_report,
)

__all__ = [
    "ChebGrid",
    "IntegrationMatrix",
    "SdcTrajectory",
    "cheb_nodes",
    "integration_matrix",
    "predict",
    "correct",
    "sdc_solve",
]


@dataclass(frozen=True, eq=False)
class ChebGrid:
    """Chebyshev time nodes on [0, T], endpoints exact, symmetric about T/2."""

    T: float
    nodes: np.ndarray
    taus: np.ndarray


def cheb_nodes(T: float, n_t: int) -> ChebGrid:
    if T <= 0:
        raise ValueError("T must be positive")
    if n_t < 2:
        raise ValueError("need at least two intervals")
    n = np.arange(n_t + 1)
    nodes = 0.5 * T - 0.5 * T * np.cos(np.pi * n / n_t)
    nodes[0] = 0.0
    nodes[-1] = T
    taus = np.diff(nodes)
    if np.any(taus <= 0):
        raise ValueError("node times failed to increase strictly")
    nodes.setflags(write=False)
    taus.setflags(write=False)
    return ChebGrid(T=float(T), nodes=nodes, taus=taus)


@dataclass(frozen=True, eq=False)
class IntegrationMatrix:
    """S[n, j] = integral of the j-th Lagrange cardinal over [t_n, t_{n+1}].

    Row sums equal the interval lengths; quadrature with these weights is
    exact for polynomials up to the node-count degree.
    """

    S: np.ndarray


def integration_matrix(grid: ChebGrid) -> IntegrationMatrix:
    """Interpolatory weights, built by expanding each nodal cardinal in the
    Chebyshev basis and integrating term-wise.

    At these clustered nodes the cardinal coefficients are a plain cosine
    transform, a[k, j] = 2 cos(k j pi / N) / (N c_k c_j) with c_0 = c_N = 2,
    so the construction involves no ill-conditioned solve and stays accurate
    to round-off for thousands of nodes.
    """
    n = grid.nodes.size - 1
    theta = np.pi * np.arange(n + 1) / n
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    k = np.arange(n + 1)
    A = 2.0 * np.cos(np.outer(k, k) * (np.pi / n)) / (n * np.outer(c, c))

    # Antiderivatives of T_k at the nodes y = cos(theta); T_k(y) = cos(k theta).
    anti = np.empty((n + 1, n + 1))
    anti[:, 0] = np.cos(theta)
    anti[:, 1] = 0.25 * np.cos(2.0 * theta)
    if n >= 2:
        ks = np.arange(2, n + 1)
        anti[:, 2:] = 0.5 * (
            np.cos(np.outer(theta, ks + 1)) / (ks + 1)
            - np.cos(np.outer(theta, ks - 1)) / (ks - 1)
        )
    # y decreases as t increases; the sign of dt = -T/2 dy is folded in here.
    diff = anti[:-1, :] - anti[1:, :]
    S = np.ascontiguousarray(0.5 * grid.T * (diff @ A))
    S.setflags(write=False)
    return IntegrationMatrix(S=S)


@dataclass(eq=False)
class SdcTrajectory:
    """One block's node fields with what the correction sweep and the energy
    rows need along them; built only by `_refreeze`."""

    grid: ChebGrid
    phis: List[SpectralField]
    samples: List[PhysicalField]  # collocation samples per node
    r_devs: np.ndarray           # R - sqrt(c1) per node
    ws: Optional[np.ndarray]     # (nodes, modes): mean-free G^2 phi + N'(phi) per node, if built
    kappas: np.ndarray           # frozen R^{n+1/2} / sqrt(F1(fbar)) per interval
    reports: List[StepReport]    # energy row per node


def _start_state(start, symbol: OperatorSymbol, params: ModelParams, dealias: bool) -> StepperState:
    if isinstance(start, StepperState):
        return start
    return init_state(start, symbol, params, dealias=dealias)


def predict(
    start,
    grid: ChebGrid,
    symbol: OperatorSymbol,
    params: ModelParams,
    dealias: bool = False,
) -> SdcTrajectory:
    """Run the Crank-Nicolson stepper over the node set and build the
    trajectory from its states.  `start` is the initial field, or the state
    `init_state` built from it."""
    state = _start_state(start, symbol, params, dealias)
    states: List[StepperState] = []
    _, reports = evolve(
        state, grid.nodes, symbol, params, dealias=dealias,
        on_step=lambda i, st, report: states.append(st),
    )
    phis = [state.phi] + [st.phi for st in states]
    return _refreeze(state, phis, grid, symbol, params, dealias, stepped=(states, reports))


def correct(
    traj: SdcTrajectory,
    grid: ChebGrid,
    S: IntegrationMatrix,
    symbol: OperatorSymbol,
    params: ModelParams,
    dealias: bool = False,
) -> List[SpectralField]:
    """One linear correction sweep; returns the corrected fields at all nodes.

    Marching from eps^0 = 0, each interval solves

        (I + tau/2 G^2) eps^{n+1} = (I - tau/2 G^2) eps^n - Q^n
            - (phi^{n+1} - phi^n)
            - tau * kappa^n * [N'(fbar^n + ebar^n) - N'(fbar^n)]

    with Q^n the quadrature of the captured right-hand sides over the
    interval and ebar the same two-point extrapolant the predictor uses
    (ebar = eps^0 = 0 on the first interval, where the bracket vanishes).
    The ratio coefficient kappa is frozen from the predictor; only the
    argument of N' sees the error.  The bracket is formed pointwise from
    samples: those of fbar combine the stored node samples, those of ebar
    the samples of eps^n and eps^{n-1}.
    """
    n_t = grid.taus.size
    if len(traj.phis) != n_t + 1:
        raise ValueError("trajectory does not match the node grid")
    g2 = symbol.g2_half
    grid0 = traj.phis[0].grid
    zero = grid0.zero_index
    s = traj.samples

    eps = SpectralField(grid0, np.zeros_like(traj.phis[0].half))
    e_prev = None  # samples of eps^{n-1}; eps^0 = 0 is never sampled
    out = [traj.phis[0]]
    for n in range(n_t):
        tau = float(grid.taus[n])
        rhs = (
            eps.half * (1.0 - 0.5 * tau * g2)
            - (S.S[n] @ traj.ws).reshape(grid0.half_sizes)
            - (traj.phis[n + 1].half - traj.phis[n].half)
        )
        if n:
            e = to_physical(eps, dealias)
            ebar = 1.5 * e if e_prev is None else 1.5 * e - 0.5 * e_prev
            bracket = nprime_increment(1.5 * s[n] - 0.5 * s[n - 1], ebar, params)
            rhs -= tau * traj.kappas[n] * project_mean(bracket).half
            e_prev = e
        # The quadrature product (one BLAS call) need not round mirrored
        # modes alike.
        eps_new = enforce_hermitian(SpectralField(grid0, rhs / (1.0 + 0.5 * tau * g2)))
        zc = eps_new.half.ravel()[zero]
        if not abs(zc) <= 1e-13:  # also trips on a non-finite correction
            raise NumericalError(f"the correction moved the zero mode to {zc!r}")
        eps_new.half.ravel()[zero] = 0.0

        out.append(traj.phis[n + 1] + eps_new)
        eps = eps_new
    return out


def _restep(
    start: StepperState,
    phis: List[SpectralField],
    grid: ChebGrid,
    symbol: OperatorSymbol,
    params: ModelParams,
    dealias: bool,
):
    """The states and energy rows past `start` that the stepper passes
    through when its solves land on the given node fields: each interval
    freezes u at the extrapolant and takes the increment of R on the stored
    fields, with the stepper's own code, so along the predictor's fields
    this reproduces the stepper bit for bit.  Two transforms per interval."""
    states, reports = [], []
    state = start
    for n in range(1, len(phis)):
        v, u_c, sqrt_f1 = _frozen_ratio(state, params, dealias)
        state, report = _advance(
            state, v, u_c, sqrt_f1, phis[n], float(grid.taus[n - 1]), symbol, params, dealias
        )
        states.append(state)
        reports.append(report)
    return states, reports


def _refreeze(
    start: StepperState,
    phis: List[SpectralField],
    grid: ChebGrid,
    symbol: OperatorSymbol,
    params: ModelParams,
    dealias: bool = False,
    stepped=None,
    rhs: bool = True,
) -> SdcTrajectory:
    """Build the trajectory along node fields phis from the block's initial
    state `start`, whose field is phis[0].

    `stepped` is (states, reports) as the stepper produced them past the
    initial node, when phis are its fields; otherwise `_restep` rebuilds
    them.  With `rhs`, for a sweep to follow, each node's right-hand side
    then takes one forward transform of N' of its samples; without, `ws` is
    None."""
    states, reports = stepped or _restep(start, phis, grid, symbol, params, dealias)
    states = [start] + states
    reports = [initial_report(start, symbol, params, dealias)] + reports
    samples = [_samples(st.phi, st.samples, dealias) for st in states]
    ws = None
    if rhs:
        ws = np.empty((len(phis), phis[0].half.size), dtype=complex)
        for n, (phi, p) in enumerate(zip(phis, samples)):
            # The stepped flow is the mean-constrained one, so its right-hand
            # side carries no zero mode.
            ws[n] = (phi.half * symbol.g2_half + nprime_of_samples(p, params).half).ravel()
            ws[n, phis[0].grid.zero_index] = 0.0
    r_devs = np.array([st.r_dev for st in states])
    sqrt_f1s = np.array([st.sqrt_f1 for st in states[1:]])
    kappas = (start.sqrt_c1 + 0.5 * (r_devs[:-1] + r_devs[1:])) / sqrt_f1s
    return SdcTrajectory(
        grid=grid, phis=phis, samples=samples, r_devs=r_devs, ws=ws, kappas=kappas,
        reports=reports,
    )


def _sdc_blocks(n_t: int, sweeps: int, block: int) -> List[int]:
    """Interval counts of the blocks an SDC run of n_t intervals is split
    into, after checking its settings: each block needs two intervals."""
    if sweeps < 0:
        raise ValueError("sweeps must be >= 0")
    if block < 2:
        raise ValueError("block must be >= 2")
    n_blocks = max(1, -(-n_t // block))  # ceil
    base, rem = divmod(n_t, n_blocks)
    if base < 2:
        raise ValueError(
            f"nt = {n_t} in blocks of at most {block} intervals leaves a block of "
            f"{base}; each SDC block needs at least two intervals"
        )
    return [base + 1] * rem + [base] * (n_blocks - rem)


def sdc_solve(
    start,
    T: float,
    n_t: int,
    symbol: OperatorSymbol,
    params: ModelParams,
    sweeps: int = 1,
    block: int = 4096,
    dealias: bool = False,
    node_hook: Optional[Callable[[int, float, float, StepReport, SpectralField], None]] = None,
):
    """Predictor plus `sweeps` correction sweeps over [0, T] with n_t intervals.

    `start` is the initial field, or the state `init_state` built from it.
    Returns (final_field, records) where records is a list of
    (t, tau, StepReport) tuples along the corrected trajectory, including the
    initial node.  With sweeps=0 this reduces to plain predictor stepping on
    the Chebyshev nodes.  Horizons with more than `block` intervals are split
    into near-equal blocks chained at their endpoints; lower `block` when the
    per-node trajectory storage would not fit in memory.  Avoid very deep
    chains (hundreds of blocks): the predictor leaves an undamped ringing
    component in strongly damped modes, and re-seeding it across many blocks
    lets the sweep amplify what a single grid keeps at round-off.

    node_hook(step, t, tau, report, phi), if given, is called for every node
    after the initial one as soon as its block is corrected.
    """
    counts = _sdc_blocks(int(n_t), int(sweeps), int(block))
    records: List[tuple] = []
    matrices: dict = {}

    state = _start_state(start, symbol, params, dealias)
    traj = None
    t_offset = 0.0
    for count in counts:
        if traj is not None:  # a later block starts at the previous block's last node
            state = init_state(traj.phis[-1], symbol, params, dealias=dealias)
        t_b = T * count / float(n_t)
        grid_b = cheb_nodes(t_b, count)
        key = (count, t_b)
        if key not in matrices:
            matrices[key] = integration_matrix(grid_b)
        S = matrices[key]

        traj = predict(state, grid_b, symbol, params, dealias=dealias)
        for sweep in range(1, sweeps + 1):
            phis = correct(traj, grid_b, S, symbol, params, dealias=dealias)
            del traj  # free the old block storage before the new one is built
            traj = _refreeze(state, phis, grid_b, symbol, params, dealias, rhs=sweep < sweeps)

        # A later block's first node is the previous block's last one.
        for n in range(1 if records else 0, count + 1):
            t_node = t_offset + float(grid_b.nodes[n])
            tau = float(grid_b.taus[n - 1]) if n else 0.0
            records.append((t_node, tau, traj.reports[n]))
            if node_hook is not None and n:
                node_hook(len(records) - 1, t_node, tau, traj.reports[n], traj.phis[n])
        t_offset += t_b
    return traj.phis[-1], records
