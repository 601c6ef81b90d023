"""Spectral deferred correction on Chebyshev nodes.

The predictor is the Crank-Nicolson stepper run over the clustered node set
t_n = T/2 - T/2 cos(n pi / N_T); interpolatory quadrature of the node
right-hand sides then feeds a linear correction sweep that solves an error
equation interval by interval.  One sweep lifts the global order from two
to four.

`_refreeze` is the one place node fields become an `SdcTrajectory`: in one
pass it stores each node's right-hand side (a row of one nodes x modes
array), its auxiliary-scalar deviation and its energy row, and each
interval's frozen ratio coefficient.  It runs after the predictor and after
every sweep, and the energy rows of the final pass are the run's records.

Large node counts are handled by partitioning [0, T] into blocks of at most
`block` intervals (4096 by default, at least two per block), applying
predictor + sweeps per block and chaining the endpoint states.  The
closed-form quadrature needs no node-count guard: it matches exact interval
integrals to round-off at thousands of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import NumericalError
from .field import SpectralField, _coeff_inner, enforce_hermitian, project_mean
from .lattice import OperatorSymbol
from .model import ModelParams, _nprime_and_bulk_mean, nprime, sav_ingredients, sqrt_f1_deviation
from .sav_cn import StepReport, _node_report, evolve, init_state

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
    r_devs: np.ndarray           # R - sqrt(c1) per node
    ws: np.ndarray               # (nodes, modes): mean-free G^2 phi + N'(phi) per node
    kappas: np.ndarray           # frozen R^{n+1/2} / sqrt(F1(fbar)) per interval
    reports: List[StepReport]    # energy row per node


def predict(
    phi0: SpectralField,
    grid: ChebGrid,
    symbol: OperatorSymbol,
    params: ModelParams,
    dealias: bool = False,
) -> SdcTrajectory:
    """Run the Crank-Nicolson stepper over the node set and build the
    trajectory along its fields."""
    phis = [phi0]
    evolve(
        init_state(phi0, symbol, params, dealias=dealias), grid.nodes, symbol, params,
        dealias=dealias, on_step=lambda i, state, report: phis.append(state.phi),
    )
    return _refreeze(phis, grid, symbol, params, dealias)


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
    # All interval quadratures at once: rows of S against the node
    # right-hand sides.
    q_all = S.S @ traj.ws

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

        rhs = (
            eps.coeffs * (1.0 - 0.5 * tau * g2)
            - q_n
            - (traj.phis[n + 1].coeffs - traj.phis[n].coeffs)
            - tau * traj.kappas[n] * project_mean(bracket).coeffs
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
    """Build the trajectory along given node fields in one pass.

    Each node field is sampled once for its right-hand side and its bulk
    mean.  Each interval re-runs the stepper's auxiliary-scalar update on the
    same operands (u frozen at the extrapolant, the increment taken on the
    stored fields) and freezes its ratio coefficient, so along the
    predictor's own fields this reproduces the stepper bit for bit."""
    grid0 = phis[0].grid
    sqrt_c1 = float(np.sqrt(params.c1))
    ws = np.empty((len(phis), grid0.total), dtype=complex)
    r_devs = np.empty(len(phis))
    kappas = np.empty(len(phis) - 1)
    reports = []
    for n, phi in enumerate(phis):
        npf, nu = _nprime_and_bulk_mean(phi, params, dealias)
        # The stepped flow is the mean-constrained one, so its right-hand
        # side carries no zero mode.
        ws[n] = (phi.coeffs * symbol.g2 + npf.coeffs).ravel()
        ws[n, grid0.zero_index] = 0.0
        if n == 0:
            prev, tau = None, 0.0
            r_devs[0] = sqrt_f1_deviation(nu, params.c1)
        else:
            prev, tau = phis[n - 1], float(grid.taus[n - 1])
            u, sqrt_f1 = sav_ingredients(_fbar(phis, n - 1), params, dealias=dealias)
            u_c = project_mean(u).coeffs
            r_devs[n] = r_devs[n - 1] + 0.5 * _coeff_inner(phi.coeffs - prev.coeffs, u_c)
            kappas[n - 1] = (sqrt_c1 + 0.5 * (r_devs[n - 1] + r_devs[n])) / sqrt_f1
        reports.append(_node_report(phi, prev, tau, float(r_devs[n]), sqrt_c1, nu, symbol))
    return SdcTrajectory(grid=grid, phis=phis, r_devs=r_devs, ws=ws, kappas=kappas, reports=reports)


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
    counts = _sdc_blocks(int(n_t), int(sweeps), int(block))
    records: List[tuple] = []
    matrices: dict = {}

    phi = phi0
    t_offset = 0.0
    for count in counts:
        t_b = T * count / float(n_t)
        grid_b = cheb_nodes(t_b, count)
        key = (count, t_b)
        if key not in matrices:
            matrices[key] = integration_matrix(grid_b)
        S = matrices[key]

        traj = predict(phi, grid_b, symbol, params, dealias=dealias)
        for _ in range(sweeps):
            phis = correct(traj, grid_b, S, symbol, params, dealias=dealias)
            traj = _refreeze(phis, grid_b, symbol, params, dealias=dealias)

        # A later block's first node is the previous block's last one.
        for n in range(1 if records else 0, count + 1):
            t_node = t_offset + float(grid_b.nodes[n])
            tau = float(grid_b.taus[n - 1]) if n else 0.0
            records.append((t_node, tau, traj.reports[n]))
            if node_hook is not None and n:
                node_hook(len(records) - 1, t_node, tau, traj.reports[n], traj.phis[n])

        phi = traj.phis[-1]
        t_offset += t_b
    return phi, records
