"""Ground-state and protocol models: collective-spin ferromagnet across its
phase transition, extreme-squeezing curves, and conditional squeezing by
probe measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import SymmetricState, _check_n, _parity_ground, moments
from .metrics import SqueezingReport, compute_report

__all__ = [
    "LMGSpec",
    "QNDSpec",
    "lmg_ground",
    "lmg_thermo_xi",
    "extreme_squeezing_curve",
    "qnd_conditional",
    "QNDResult",
    "qnd_monte_carlo",
]


@dataclass(frozen=True)
class LMGSpec:
    """Collective ferromagnet H = -(1/N)(Jx^2 + gamma Jy^2) - h Jz."""

    n: int
    h: float
    gamma_aniso: float
    lambda_coupling: float = 1.0

    def __post_init__(self):
        n = _check_n(self.n)
        if n < 2:
            raise ValueError("need N >= 2")
        object.__setattr__(self, "n", n)
        for name in ("h", "lambda_coupling"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.gamma_aniso <= 1.0:
            raise ValueError("anisotropy must lie in [0, 1]")


def lmg_ground(spec: LMGSpec) -> tuple[SymmetricState, SqueezingReport]:
    """Ground state of the collective ferromagnet and its squeezing report.

    The Hamiltonian conserves parity, so the spectrum is solved per parity
    block; on numerical near-degeneracy (symmetry-broken phase at large N)
    the even-parity representative is returned. In Dicke index k each block
    is real and tridiagonal: Jx^2 + gamma Jy^2 = (1+gamma)/2 (J^2 - Jz^2) +
    (1-gamma)/4 (J_+^2 + J_-^2), so only k and k+2 couple, and only the
    lowest eigenpair of each block is computed.
    """
    n = spec.n
    g = spec.lambda_coupling / n
    j = n / 2.0
    a = g * (1.0 + spec.gamma_aniso) / 2.0
    c = -g * (1.0 - spec.gamma_aniso) / 4.0
    state = _parity_ground(n, (-a * j * (j + 1.0), a, -spec.h, c))
    return state, compute_report(moments(state))


def lmg_thermo_xi(h: float, gamma_aniso: float) -> float:
    """Thermodynamic-limit squeezing of the ferromagnet ground state.

    sqrt((h-1)/(h-gamma)) in the polarized phase (h >= 1) and
    sqrt((1-h^2)/(1-gamma)) in the broken phase (h < 1, gamma != 1); both
    branches vanish at the critical point h = 1.
    """
    if h < 0.0:
        raise ValueError("field must be non-negative")
    if not 0.0 <= gamma_aniso <= 1.0:
        raise ValueError("anisotropy must lie in [0, 1]")
    if h == 1.0:
        return 0.0
    if h > 1.0:
        return math.sqrt((h - 1.0) / (h - gamma_aniso))
    if gamma_aniso == 1.0:
        raise ValueError("isotropic broken phase: formula singular at gamma = 1")
    return math.sqrt((1.0 - h * h) / (1.0 - gamma_aniso))


def extreme_squeezing_curve(j: int, mu_grid) -> list[tuple[float, float]]:
    """Boundary of reachable (x, variance) pairs for one spin j.

    For each Lagrange multiplier mu the ground state of mu*Jz + Jx^2 yields a
    point (x, F) with x = <Jz>/j and F = (Delta Jx)^2 / j; separable states
    of many spin-j particles can never dip below this convex curve. Integer
    j only; for half-integer spins the minimizer of the variance no longer
    minimizes <Jx^2> and this Lagrangian route breaks down.
    """
    if j != int(j) or j < 1:
        raise ValueError("extreme-squeezing curve is defined for integer spins j >= 1")
    n = 2 * int(j)
    const = j * (j + 1.0) / 2.0  # Jx^2 = j(j+1)/2 - Jz^2/2 + (J+^2 + J-^2)/4
    out = []
    for mu in mu_grid:
        mu = float(mu)
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu}")
        mset = moments(_parity_ground(n, (const, -0.5, mu, 0.25)))
        out.append((float(mset.mean[2]) / j, float(mset.cov[0, 0]) / j))
    return out


@dataclass(frozen=True)
class QNDSpec:
    """Dispersive probe measurement of J_z: N atoms, n photons, interaction
    angle chi, fractional coherence loss eta."""

    n_atoms: int
    n_photons: int
    chi: float
    eta: float = 0.0

    def __post_init__(self):
        if self.n_atoms < 1 or self.n_photons < 1:
            raise ValueError("need at least one atom and one photon")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("loss fraction must lie in [0, 1)")
        if not math.isfinite(self.chi):
            raise ValueError("coupling chi must be finite")
        # chi * chi overflows to inf where chi**2 in kappa2 would raise
        if not math.isfinite(self.n_photons * self.n_atoms * self.chi * self.chi):
            raise ValueError("kappa^2 = n N chi^2 / 4 must be finite; coupling chi is too large")

    @property
    def kappa2(self) -> float:
        return self.n_photons * self.n_atoms * self.chi**2 / 4.0


class QNDResult(NamedTuple):
    xi_r2: float
    xi_r2_with_loss: float
    kappa2: float
    gaussian_regime: bool


def qnd_conditional(spec: QNDSpec) -> QNDResult:
    """Conditional squeezing 1/(1 + kappa^2) and its loss-degraded value.

    ``gaussian_regime`` reports whether |chi| N / 2 < 0.3, the linearized
    readout regime in which the closed forms hold.
    """
    k2 = spec.kappa2
    xi = 1.0 / (1.0 + k2)
    xi_loss = 1.0 / ((1.0 - spec.eta) ** 2 * (1.0 + k2))
    gaussian = abs(spec.chi) * spec.n_atoms / 2.0 < 0.3
    return QNDResult(xi, xi_loss, k2, gaussian)


def qnd_monte_carlo(spec: QNDSpec, trials: int, seed: int) -> tuple[float, float]:
    """Sampled conditional variance of J_z after the probe readout.

    Draws atomic projections M from the binomial projection-noise profile,
    probe readouts m from the shifted Gaussian, forms the posterior-mean
    estimate of M and returns (ratio, stderr) where ratio is the empirical
    conditional variance divided by the coherent-state variance N/4.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    n_atoms, n_photons = spec.n_atoms, spec.n_photons
    big_m = rng.binomial(n_atoms, 0.5, size=trials) - n_atoms / 2.0
    m = rng.normal(spec.chi * big_m * n_photons / 2.0, math.sqrt(n_photons) / 2.0)
    xi = 1.0 / (1.0 + spec.kappa2)
    posterior_mean = spec.chi * m * xi * n_atoms / 2.0
    resid2 = (big_m - posterior_mean) ** 2
    ratio = float(np.mean(resid2)) / (n_atoms / 4.0)
    stderr = float(np.std(resid2, ddof=1)) / math.sqrt(trials) / (n_atoms / 4.0)
    return ratio, stderr
