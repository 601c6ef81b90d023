"""Rescaled free energy of the multi-length-scale crystal model.

Bulk density N(v) = eps/2 v^2 - alpha/3 v^3 + 1/4 v^4, total energy
1/2 ||G phi||^2 + <N(phi), 1> with G the product of (Laplacian + q_j^2)
factors.  The auxiliary-variable machinery shifts the bulk part by a
positive constant c1 so its square root is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import poly_increment
from .errors import BulkPositivityError, NumericalError
from .field import (
    PhysicalField,
    SpectralField,
    apply_symbol,
    inner_ap,
    pointwise_poly_mean,
    poly_samples,
    to_physical,
    to_spectral,
)
from .lattice import OperatorSymbol, length_scales

__all__ = [
    "ModelParams",
    "nprime",
    "bulk_mean",
    "energy",
    "variational_derivative",
    "sav_ingredients",
    "sqrt_f1_deviation",
]


@dataclass(frozen=True)
class ModelParams:
    """Length scales and bulk coefficients.  c1 is the positive shift that
    keeps the bulk energy strictly positive along the flow."""

    q: tuple
    eps: float
    alpha: float
    c1: float = 1e16

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", length_scales(self.q))
        if not self.c1 > 0:
            raise ValueError("c1 must be positive")
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "c1", float(self.c1))


def _nprime_terms(params: ModelParams):
    return ((1, params.eps), (2, -params.alpha), (3, 1.0))


def _bulk_terms(params: ModelParams):
    return ((2, 0.5 * params.eps), (3, -params.alpha / 3.0), (4, 0.25))


def nprime(p: PhysicalField, params: ModelParams) -> SpectralField:
    """Derivative of the bulk density, eps*phi - alpha*phi^2 + phi^3, of the
    field sampled by p (on either grid): one forward transform."""
    return to_spectral(poly_samples(p, _nprime_terms(params)))


def bulk_mean(p: PhysicalField, params: ModelParams) -> float:
    """Spatial mean of the bulk density (no shift) of the field sampled by p."""
    return pointwise_poly_mean(p, _bulk_terms(params))


def _shifted_bulk(nu: float, params: ModelParams) -> float:
    value = nu + params.c1
    if not value > 0.0:
        raise BulkPositivityError(
            f"shifted bulk energy {value:.6e} is not positive; increase c1"
        )
    return value


def energy(f: SpectralField, symbol: OperatorSymbol, params: ModelParams) -> float:
    """Total free energy, 1/2 ||G phi||^2 + <N(phi), 1> (no shift), with the
    bulk part from samples on the embedding grid."""
    gf = apply_symbol(f, symbol, power=1)
    grad = 0.5 * inner_ap(gf, gf)
    if not grad >= -1e-15:
        raise NumericalError(f"gradient part of the energy is {grad!r}, not nonnegative")
    return grad + bulk_mean(to_physical(f), params)


def variational_derivative(
    f: SpectralField, symbol: OperatorSymbol, params: ModelParams
) -> SpectralField:
    """G^2 phi + N'(phi), the gradient of the energy, with N' from samples
    on the embedding grid."""
    return apply_symbol(f, symbol, power=2) + nprime(to_physical(f), params)


def nprime_increment(fbar: PhysicalField, ebar: PhysicalField, params: ModelParams) -> SpectralField:
    """N'(fbar + ebar) - N'(fbar) of the fields sampled by fbar and ebar,
    formed pointwise: one forward transform.  Consumes both sample arrays,
    which hold the sum and the increment."""
    inc = poly_increment(fbar.values, ebar.values, _nprime_terms(params))
    return to_spectral(PhysicalField(fbar.grid, inc, fbar.factor))


def sav_ingredients(fbar, params: ModelParams):
    """The auxiliary-variable ratio field u = N'(fbar)/sqrt(F1(fbar)) together
    with sqrt(F1(fbar)).  fbar is a SpectralField, sampled on the embedding
    grid, or its samples (a PhysicalField, on either grid), which saves the
    inverse transform."""
    p = fbar if isinstance(fbar, PhysicalField) else to_physical(fbar)
    sqrt_f1 = float(np.sqrt(_shifted_bulk(bulk_mean(p, params), params)))
    u = nprime(p, params)
    u.half *= 1.0 / sqrt_f1
    return u, sqrt_f1


def sqrt_f1_deviation(nu: float, c1: float) -> float:
    """sqrt(c1 + nu) - sqrt(c1), evaluated without cancellation.

    The auxiliary scalar is tracked as this deviation so that its square
    minus c1 keeps full precision even for c1 ~ 1e16.
    """
    return nu / (np.sqrt(c1 + nu) + np.sqrt(c1))
