"""Spectral deferred correction on Chebyshev nodes.

A low-order predictor trajectory is produced by the Crank-Nicolson stepper on
the clustered node set t_n = T/2 - T/2 cos(n pi / N_T); interpolatory
quadrature of the captured right-hand sides then feeds a linear correction
sweep that solves an error equation interval by interval.  One sweep lifts
the global order from two to four.

Large node counts are handled by partitioning [0, T] into blocks of at most
`block` intervals (4096 by default), applying predictor + sweeps per block
and chaining the endpoint states.  `sdc_solve` raises the 64-node guard of
`integration_matrix` to the block size, so a single grid interpolates over
up to `block` intervals; the closed-form quadrature stays accurate to about
1e-12 beyond 2000 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import NumericalError
from .field import SpectralField, _coeff_inner, enforce_hermitian, project_mean
from .lattice import OperatorSymbol
from .model import (
    ModelParams,
    bulk_mean,
    nprime,
    sav_ingredients,
    sqrt_f1_deviation,
    variational_derivative,
)
from .sav_cn import StepReport, _cn_step_full, _grad_part, init_state

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

MAX_QUADRATURE_NODES = 64


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


def integration_matrix(grid: ChebGrid, max_nodes: int = MAX_QUADRATURE_NODES) -> IntegrationMatrix:
    """Interpolatory weights, built by expanding each nodal cardinal in the
    Chebyshev basis and integrating term-wise.

    At these clustered nodes the cardinal coefficients are a plain cosine
    transform, a[k, j] = 2 cos(k j pi / N) / (N c_k c_j) with c_0 = c_N = 2,
    so the construction involves no ill-conditioned solve and stays accurate
    far beyond the default node guard (raise `max_nodes` deliberately for
    single-grid runs with many intervals).
    """
    n = grid.nodes.size - 1
    if n > max_nodes:
        raise ValueError(
            f"{n} intervals exceed the {max_nodes}-node guard; "
            "partition the horizon into blocks or raise max_nodes"
        )
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
    """Predictor snapshots: fields, auxiliary-scalar deviations and full
    right-hand sides at every node, plus the frozen per-interval ratio
    coefficients the correction sweep reuses."""

    grid: ChebGrid
    phis: List[SpectralField]
    r_devs: np.ndarray
    ws: List[SpectralField]      # mean-free G^2 phi + N'(phi) per node
    kappas: np.ndarray           # frozen R^{n+1/2} / sqrt(F1(fbar)) per interval
    sqrt_c1: float


def _w_node(
    phi: SpectralField, symbol: OperatorSymbol, params: ModelParams, dealias: bool
) -> SpectralField:
    # The stepped flow is the mean-constrained one, so its right-hand side
    # carries no zero mode.
    return project_mean(variational_derivative(phi, symbol, params, dealias=dealias))


def predict(
    phi0: SpectralField,
    grid: ChebGrid,
    symbol: OperatorSymbol,
    params: ModelParams,
    dealias: bool = False,
) -> SdcTrajectory:
    """Run the Crank-Nicolson stepper over the node set, capturing the
    trajectory data the correction sweep needs."""
    state = init_state(phi0, symbol, params, dealias=dealias)
    phis = [phi0]
    r_devs = [state.r_dev]
    ws = [_w_node(phi0, symbol, params, dealias)]
    kappas = []
    for tau in grid.taus:
        new_state, _, internals = _cn_step_full(state, float(tau), symbol, params, dealias=dealias)
        r_half = state.sqrt_c1 + 0.5 * (state.r_dev + new_state.r_dev)
        kappas.append(r_half / internals.sqrt_f1)
        phis.append(new_state.phi)
        r_devs.append(new_state.r_dev)
        ws.append(_w_node(new_state.phi, symbol, params, dealias))
        state = new_state
    return SdcTrajectory(
        grid=grid,
        phis=phis,
        r_devs=np.asarray(r_devs),
        ws=ws,
        kappas=np.asarray(kappas),
        sqrt_c1=state.sqrt_c1,
    )


def _fbar(phis: List[SpectralField], n: int) -> SpectralField:
    if n == 0:
        return phis[0]
    return 1.5 * phis[n] - 0.5 * phis[n - 1]


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
    (ebar = eps^0 on the first interval).  The ratio coefficient kappa is
    frozen from the predictor; only the argument of N' sees the error.
    """
    n_t = grid.taus.size
    if len(traj.phis) != n_t + 1:
        raise ValueError("trajectory does not match the node grid")
    g2 = symbol.g2
    grid0 = traj.phis[0].grid
    zero = grid0.zero_index
    # All interval quadratures at once: rows of S against the stacked
    # right-hand sides.
    w_mat = np.stack([w.coeffs.ravel() for w in traj.ws])
    q_all = S.S @ w_mat

    eps_prev: Optional[SpectralField] = None
    eps = SpectralField(grid0, np.zeros_like(traj.phis[0].coeffs))
    out = [traj.phis[0]]
    for n in range(n_t):
        tau = float(grid.taus[n])
        q_n = q_all[n].reshape(grid0.sizes)

        if n == 0 or eps_prev is None:
            ebar = eps
        else:
            ebar = 1.5 * eps - 0.5 * eps_prev
        fb = _fbar(traj.phis, n)
        bracket = nprime(fb + ebar, params, dealias=dealias) - nprime(fb, params, dealias=dealias)
        bracket_c = bracket.coeffs.copy()
        bracket_c.ravel()[zero] = 0.0

        rhs = (
            eps.coeffs * (1.0 - 0.5 * tau * g2)
            - q_n
            - (traj.phis[n + 1].coeffs - traj.phis[n].coeffs)
            - tau * traj.kappas[n] * bracket_c
        )
        eps_new = enforce_hermitian(SpectralField(grid0, rhs / (1.0 + 0.5 * tau * g2)))
        zc = eps_new.coeffs.ravel()[zero]
        if not abs(zc) <= 1e-13:  # also trips on a non-finite correction
            raise NumericalError(f"the correction moved the zero mode to {zc!r}")
        eps_new.coeffs.ravel()[zero] = 0.0

        out.append(traj.phis[n + 1] + eps_new)
        eps_prev, eps = eps, eps_new
    return out


def _refreeze(
    phis: List[SpectralField],
    grid: ChebGrid,
    symbol: OperatorSymbol,
    params: ModelParams,
    dealias: bool = False,
) -> SdcTrajectory:
    """Rebuild trajectory data along given node fields: recompute the
    right-hand sides and re-run the auxiliary-scalar update to re-freeze the
    ratio coefficients (used between sweeps and for reporting)."""
    nu0 = bulk_mean(phis[0], params, dealias=dealias)
    sqrt_c1 = float(np.sqrt(params.c1))
    r_devs = [float(sqrt_f1_deviation(nu0, params.c1))]
    ws = [_w_node(phis[0], symbol, params, dealias)]
    kappas = []
    zero = phis[0].grid.zero_index
    for n in range(grid.taus.size):
        fb = _fbar(phis, n)
        u, sqrt_f1 = sav_ingredients(fb, params, dealias=dealias)
        u_c = u.coeffs.copy()
        u_c.ravel()[zero] = 0.0
        inc = 0.5 * _coeff_inner(phis[n + 1].coeffs - phis[n].coeffs, u_c)
        r_devs.append(r_devs[-1] + inc)
        r_half = sqrt_c1 + 0.5 * (r_devs[-2] + r_devs[-1])
        kappas.append(r_half / sqrt_f1)
        ws.append(_w_node(phis[n + 1], symbol, params, dealias))
    return SdcTrajectory(
        grid=grid,
        phis=list(phis),
        r_devs=np.asarray(r_devs),
        ws=ws,
        kappas=np.asarray(kappas),
        sqrt_c1=sqrt_c1,
    )


def _block_counts(n_t: int, block: int) -> List[int]:
    if n_t <= block:
        return [n_t]
    n_blocks = -(-n_t // block)  # ceil
    base, rem = divmod(n_t, n_blocks)
    return [base + 1] * rem + [base] * (n_blocks - rem)


def sdc_solve(
    phi0: SpectralField,
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
    if sweeps < 0:
        raise ValueError("sweeps must be >= 0")
    if block < 2:
        raise ValueError("block must be >= 2")
    counts = _block_counts(int(n_t), int(block))
    records: List[tuple] = []
    matrices: dict = {}

    phi = phi0
    t_offset = 0.0
    first = True
    for count in counts:
        t_b = T * count / float(n_t)
        grid_b = cheb_nodes(t_b, count)
        key = (count, t_b)
        if key not in matrices:
            matrices[key] = integration_matrix(grid_b, max_nodes=max(count, MAX_QUADRATURE_NODES))
        S = matrices[key]

        traj = predict(phi, grid_b, symbol, params, dealias=dealias)
        for _ in range(sweeps):
            phis = correct(traj, grid_b, S, symbol, params, dealias=dealias)
            traj = _refreeze(phis, grid_b, symbol, params, dealias=dealias)

        for n, phi_n in enumerate(traj.phis):
            t_node = t_offset + float(grid_b.nodes[n])
            if n == 0:
                if not first:
                    continue
                tau = 0.0
                w_norm = 0.0
            else:
                tau = float(grid_b.taus[n - 1])
                diff = phi_n.coeffs - traj.phis[n - 1].coeffs
                w_norm = float(np.vdot(diff, diff).real) / (tau * tau)
            grad = _grad_part(phi_n.coeffs, symbol)
            r_dev = float(traj.r_devs[n])
            report = StepReport(
                modified_energy=grad + r_dev * (2.0 * traj.sqrt_c1 + r_dev),
                original_energy=grad + bulk_mean(phi_n, params, dealias=dealias),
                r_value=traj.sqrt_c1 + r_dev,
                w_norm_sq=w_norm,
            )
            records.append((t_node, tau, report))
            if node_hook is not None and len(records) > 1:
                node_hook(len(records) - 1, t_node, tau, report, phi_n)

        phi = traj.phis[-1]
        t_offset += t_b
        first = False
    return phi, records
