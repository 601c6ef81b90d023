"""Spectral deferred correction on Chebyshev nodes.

The predictor is the Crank-Nicolson stepper run over the clustered node set
t_n = T/2 - T/2 cos(n pi / N_T); interpolatory quadrature of the node
right-hand sides then feeds a linear correction sweep that solves an error
equation interval by interval.  One sweep lifts the global order from two
to four.

An `SdcTrajectory` is a block's node states and energy rows.  A state holds
its node's field, the samples of that field and of the previous node's, the
auxiliary-scalar deviation and the sqrt(F1) its step froze, so the sweep
reads each interval's frozen ratio coefficient off the two states that bound
it and sqrt(c1) off the model parameters.  Inside a block, states keep the
time since the block's start.  `predict` builds the trajectory from the
stepper's own states, so a predicted node costs the stepper's two
transforms; after a sweep `_refreeze` re-runs the stepper's update on the
corrected fields, at two transforms per node.  Both pass every node through
`sav_cn._advance`, which raises NumericalError on a non-finite one.  The
sweep's corrections are conjugate-symmetric by construction and need no
projection.  Every state samples on the grid of the block's initial state,
which `init_state` chose.  Each sweep builds the node right-hand sides (one
forward transform each, into a row of one nodes x modes array), forms the
extrapolants' samples by linearity and costs two transforms per interval
past the first, so a one-sweep node costs fewer than seven.
`sdc_solve` reports the states and energy rows of each block's final pass
through the same `on_step(i, state, report)` callback as `sav_cn.evolve`,
and returns `(state, reports)` as it does.

Large node counts are handled by partitioning [0, T] into blocks of at most
`block` intervals (4096 by default, at least two per block), applying
predictor + sweeps per block and chaining the endpoint states.  A block
holds three arrays per node: its field in the half layout (16 (N/2 + 1) / N
bytes per mode, N the last axis size: 8.7 at N = 24), its samples (8 bytes
per mode, 2^n times that on the refined product grid of an n-axis index
grid) and, during a sweep, its row of the sweep's array in the half layout.
That row holds the node's right-hand side, then an interval quadrature, then
a corrected field, which the next pass takes as its node field: 8.4 MB per
node on the 24^4 grid.  Beside that array a sweep holds three field-size
arrays, whatever the node count: one buffer that takes the correction
eps^n, then (once the inverse transform has consumed it) ebar's samples,
and then the bracket's transform; the samples of eps^n; and those of
eps^{n-1}, which take fbar's.  Its peak is about three field sizes (8.7 MB
at 24^4).  `sdc_solve` checks
`block_bytes` against physical memory before a block is predicted.  The
closed-form quadrature needs no node-count guard: it matches exact interval
integrals to round-off at thousands of nodes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from ._kernels import blocks, extrapolate, leading
from .errors import ConfigError, NumericalError
from .field import PhysicalField, SpectralField, to_physical, to_spectral
from .lattice import OperatorSymbol
from .model import ModelParams, nprime, nprime_increment
from .sav_cn import (
    StepperState, StepReport, _advance, _frozen_ratio, _increments, _resolvent_inverse,
    _work_buffer, _work_buffers, evolve, restart_state,
)

__all__ = [
    "ChebGrid",
    "SdcTrajectory",
    "cheb_nodes",
    "integration_matrix",
    "block_bytes",
    "predict",
    "correct",
    "sdc_solve",
]

# Floats of every node row the quadrature forms at a time: its scratch is
# nodes x QUAD_BLOCK floats, 64 KiB per node.
QUAD_BLOCK = 8192


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


def integration_matrix(grid: ChebGrid) -> np.ndarray:
    """The read-only interpolatory weights S[n, j], the integral of the j-th
    Lagrange cardinal over [t_n, t_{n+1}]: quadrature exact for polynomials
    up to the node-count degree, with row sums the interval lengths.  Built
    by expanding each cardinal in the Chebyshev basis and integrating
    term-wise.

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
    return S


@dataclass(eq=False)
class SdcTrajectory:
    """One block's node states and energy rows, built by `predict` from the
    stepper's states and by `_refreeze` after a sweep; the sweep reads each
    node's facts off its state.

    `ws` is the (nodes, modes) array of the last `correct` along the
    trajectory, None before one.  `correct` fills it with each node's
    mean-free G^2 phi + N'(phi) and leaves in it, for n < M - 1, node n+1's
    corrected field in row n (the returned fields view those rows); rows
    M - 1 and M hold spent values."""

    grid: ChebGrid
    states: List[StepperState]   # stepper state per node, sampled on the block's grid
    reports: List[StepReport]    # energy row per node past the initial one
    ws: Optional[np.ndarray] = None  # the sweep's working array; see above

    @property
    def phis(self) -> tuple:
        """The node fields, read off the states."""
        return tuple(st.phi for st in self.states)


def predict(
    state: StepperState, grid: ChebGrid, symbol: OperatorSymbol, params: ModelParams
) -> SdcTrajectory:
    """Run the Crank-Nicolson stepper from `state`, at t = 0, over the node
    set and build the trajectory from its states."""
    states = [state]
    _, reports = evolve(
        state, grid.nodes, symbol, params, on_step=lambda i, st, report: states.append(st)
    )
    return SdcTrajectory(grid=grid, states=states, reports=reports)


def correct(
    traj: SdcTrajectory, S: np.ndarray, symbol: OperatorSymbol, params: ModelParams
) -> List[SpectralField]:
    """One linear correction sweep over the trajectory's nodes, with S the
    integration matrix of `traj.grid`; returns the corrected fields at all
    nodes.

    Marching from eps^0 = 0, each interval solves

        (I + tau/2 G^2) eps^{n+1} = (I - tau/2 G^2) eps^n - Q^n
            - (phi^{n+1} - phi^n)
            - tau * kappa^n * [N'(fbar^n + ebar^n) - N'(fbar^n)]

    with Q^n the quadrature of the captured right-hand sides over the
    interval and ebar the same two-point extrapolant the predictor uses
    (ebar = eps^0 = 0 on the first interval, where the bracket vanishes).
    The ratio coefficient kappa^n = R^{n+1/2} / sqrt(F1(fbar^n)) stays as the
    states froze it; only the argument of N' sees the error.  The bracket is
    formed pointwise from samples: those of fbar combine the samples the node
    states carry, those of ebar the samples of eps^n and eps^{n-1}, taken on
    the same grid.

    The sweep works in one nodes x modes array, `traj.ws`, rebuilt on every
    call: it takes the node right-hand sides (one forward transform each),
    then rows 0 .. M-1 are overwritten by the quadratures Q^n, and row n by
    the corrected field of node n+1 once interval n has read Q^n.  The
    returned fields of the inner nodes are views of those rows; the first is
    the initial state's field and the last has an array of its own, so the
    next block, which starts from that field alone, does not keep `ws`
    alive.  The trajectory's states are not modified.
    """
    taus = traj.grid.taus
    n_t = taus.size
    g2 = symbol.g2_half.reshape(-1)
    states = traj.states
    grid0 = states[0].phi.grid
    zero = grid0.zero_index
    traj.ws = ws = np.empty((n_t + 1, states[0].phi.half.size), dtype=complex)
    for row, st in zip(ws, states):
        # The stepped flow is the mean-constrained one, so its right-hand
        # side carries no zero mode.
        np.multiply(st.phi.half.ravel(), g2, out=row)
        row += nprime(st.samples, params).half.ravel()
        row[zero] = 0.0
    _quadratures_in_place(ws, S)

    factor = states[0].samples.factor
    # eps^n, then (once sampled) ebar's samples and the bracket's transform,
    # then eps^{n+1}
    buf = _work_buffer(states[0])
    eps = leading(buf, ws.shape[1:], complex)
    eps.fill(0)
    e_prev = None  # samples of eps^{n-1}; eps^0 = 0 is never sampled
    out = [states[0].phi]
    for n in range(n_t):
        tau = float(taus[n])
        a, b = states[n], states[n + 1]
        new, old = b.phi.half.reshape(-1), a.phi.half.reshape(-1)
        # Q^n's row takes the right-hand side, formed block by block in
        # cache, then eps^{n+1}
        rhs = ws[n]
        for blk in blocks(rhs.size, rhs.itemsize):
            r = rhs[blk]
            np.subtract(eps[blk] * (1.0 - (0.5 * tau) * g2[blk]), r, out=r)
            r -= new[blk] - old[blk]
        bracket = None
        if n:
            # eps^n is spent once sampled (eps^{n+1} is formed in rhs), so
            # the inverse transform works in its array, which then takes
            # ebar's samples; fbar's take the spent samples of eps^{n-1}.
            e = to_physical(SpectralField(grid0, eps), factor > 1, consume=True).values
            del eps
            ebar = leading(buf, e.shape)
            if e_prev is None:
                np.multiply(e, 1.5, out=ebar)
            else:
                extrapolate(e, e_prev, out=ebar)
            fbar = extrapolate(a.samples.values, states[n - 1].samples.values, out=e_prev)
            e_prev = e
            # the increment takes fbar's array and the spent sum ebar's, which
            # the bracket's transform overwrites
            inc = nprime_increment(
                PhysicalField(grid0, fbar, factor), PhysicalField(grid0, ebar, factor), params
            )
            del fbar, ebar
            bracket = to_spectral(inc, out=buf).half.reshape(-1)
            del inc
            bracket[zero] = 0.0
            kappa = (np.sqrt(params.c1) + 0.5 * (a.r_dev + b.r_dev)) / b.sqrt_f1
        for blk in blocks(rhs.size, rhs.itemsize):
            r = rhs[blk]
            if bracket is not None:
                r -= bracket[blk] * (tau * kappa)
            r *= _resolvent_inverse(g2[blk], tau)  # as cn_step inverts it
        del bracket
        # Every term above is a real diagonal map or a real-weighted sum of
        # exactly symmetric data that is zero off the live modes, so both
        # members of a pair round alike: the correction is symmetric and
        # masked by construction.  It leaves the row, which takes the field,
        # for the buffer; the last row is spent, so the last correction
        # stays in it.
        if n < n_t - 1:
            eps = leading(buf, rhs.shape, complex)
            eps[...] = rhs
        else:
            eps = rhs
        zc = eps[zero]
        if not abs(zc) <= 1e-13:  # also trips on a non-finite correction
            raise NumericalError(f"the correction moved the zero mode to {zc!r}")
        eps[zero] = 0.0

        # Q^n is spent, so its row takes node n+1's corrected field.
        field = np.add(new, eps, out=None if n == n_t - 1 else rhs)
        out.append(SpectralField(grid0, field))
    return out


def _quadratures_in_place(ws: np.ndarray, S: np.ndarray) -> None:
    """Overwrite rows 0 .. M-1 of the (M+1) x modes array ws with the
    interval quadratures S[n] . ws, QUAD_BLOCK floats of every row at a
    time, so the scratch is M x QUAD_BLOCK floats whatever the mode count.

    The sums over nodes run by numpy's own loops on the float view, not by
    a threaded BLAS product, so they do not depend on the thread count, and
    each column sums in the same order whatever block it falls in."""
    wf = ws.view(np.float64)
    n_t = S.shape[0]
    q = np.empty((n_t, min(QUAD_BLOCK, wf.shape[1])))
    for lo in range(0, wf.shape[1], QUAD_BLOCK):
        cols = wf[:, lo : lo + QUAD_BLOCK]
        qb = q[:, : cols.shape[1]]
        for n in range(n_t):
            np.einsum("m,mk->k", S[n], cols, out=qb[n])
        cols[:n_t] = qb


def _refreeze(
    start: StepperState,
    phis: Sequence[SpectralField],
    grid: ChebGrid,
    symbol: OperatorSymbol,
    params: ModelParams,
) -> SdcTrajectory:
    """Build the trajectory along the corrected node fields phis from the
    block's initial state `start`, whose field is phis[0].

    Each interval freezes u at the extrapolant and takes the increment of R
    on the stored fields with the stepper's own code, so along the
    predictor's fields this reproduces the stepper bit for bit, and each
    node meets the stepper's finiteness check; two transforms per
    interval, in the two work buffers a step takes."""
    states, reports = [start], []
    a, b = _work_buffers(start)
    for n in range(1, len(phis)):
        tau = float(grid.taus[n - 1])
        u_c, sqrt_f1 = _frozen_ratio(states[-1], params, a, b)
        increments = _increments(states[-1], u_c, phis[n], tau, b)
        del u_c
        state, report = _advance(states[-1], *increments, sqrt_f1, phis[n], tau, symbol, params, b)
        states.append(state)
        reports.append(report)
    return SdcTrajectory(grid=grid, states=states, reports=reports)


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


def block_bytes(state: StepperState, count: int, sweeps: int) -> int:
    """Bytes of node storage an SDC block of `count` intervals from `state`
    holds at once: per node its half-layout field and its samples, plus,
    when it sweeps, one row of the sweep's nodes x modes array."""
    row = state.phi.half.nbytes if sweeps else 0
    return (count + 1) * (state.phi.half.nbytes + state.samples.values.nbytes + row)


def _physical_memory() -> Optional[int]:
    """Physical memory in bytes, None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_block_memory(state: StepperState, count: int, sweeps: int) -> None:
    """Raise ConfigError when a block of `count` intervals would not fit in
    physical memory, naming the largest block that would."""
    memory = _physical_memory()
    need = block_bytes(state, count, sweeps)
    if memory is None or need <= memory:
        return
    fit = memory // block_bytes(state, 0, sweeps) - 1  # nodes that fit, less one
    advice = f"set block <= {fit}" if fit >= 2 else "no block of two intervals fits"
    raise ConfigError(
        f"an SDC block of {count} intervals stores {need / 2**30:.1f} GiB of node "
        f"fields and samples, more than the {memory / 2**30:.1f} GiB of physical "
        f"memory; {advice}"
    )


def sdc_solve(
    state: StepperState,
    T: float,
    n_t: int,
    symbol: OperatorSymbol,
    params: ModelParams,
    sweeps: int = 1,
    block: int = 4096,
    on_step: Optional[Callable[[int, StepperState, StepReport], None]] = None,
):
    """Predictor plus `sweeps` correction sweeps over [0, T] with n_t
    intervals, from `state` at t = 0 as `init_state` built it; every block
    samples on that state's grid.  Returns (state, reports) as `evolve`
    does: the final node's state and one energy row per node past the
    initial one, along the corrected trajectory.  With sweeps=0 this reduces
    to plain predictor stepping on the Chebyshev nodes.

    Horizons with more than `block` intervals are split into near-equal
    blocks chained at their endpoints: a later block starts from the last
    state's field and samples, with R reset to sqrt(F1) (`restart_state`).  A block whose node storage
    (`block_bytes`) exceeds physical memory raises ConfigError before
    anything is predicted, naming the largest `block` that fits; the run is
    not re-blocked, because chaining changes results.  Avoid very deep chains
    (hundreds of blocks): the predictor leaves an undamped ringing component
    in strongly damped modes, and re-seeding it across many blocks lets the
    sweep amplify what a single grid keeps at round-off.

    on_step(i, state, report), if given, is called for every node i after
    the initial one as soon as its block is corrected, with the node's
    state on the corrected trajectory and its time set to the node time.
    """
    counts = _sdc_blocks(int(n_t), int(sweeps), int(block))
    _check_block_memory(state, counts[0], sweeps)  # the first block is the largest
    matrices: dict = {}  # t_b is a function of count
    reports: List[StepReport] = []
    t_offset = 0.0
    for count in counts:
        if reports:  # a later block starts at the previous block's last node
            state = restart_state(state, params)
        t_b = T * count / float(n_t)
        grid_b = cheb_nodes(t_b, count)
        if count not in matrices:
            matrices[count] = integration_matrix(grid_b)

        start = state
        traj = predict(start, grid_b, symbol, params)
        for _ in range(sweeps):
            phis = correct(traj, matrices[count], symbol, params)
            del traj  # free the old block storage before the new one is built
            traj = _refreeze(start, phis, grid_b, symbol, params)

        for n, report in enumerate(traj.reports, 1):
            state = replace(traj.states[n], t=t_offset + float(grid_b.nodes[n]))
            reports.append(report)
            if on_step is not None:
                on_step(len(reports), state, report)
        del traj  # the next block keeps only this block's last state
        t_offset += t_b
    return state, reports
