"""Squeezing generation: one-axis twisting, driven and two-axis variants,
and the quantum kicked top.

The one-axis twisted state exp(-i theta J_x^2 / 2)|j,-j> admits closed-form
pair moments; everything else is evolved exactly in the Dicke basis through
real tridiagonal eigendecompositions. One-axis twisting about x squares the
eigenvalues of J_x; two-axis twisting and twisting in a transverse field are
quadratic in J, so each splits into two parity blocks coupling Dicke index k
only to k +- 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .states import (
    LocalMoments,
    SymmetricState,
    _axis_eigensystem,
    _check_n,
    _moment_tables,
    _parity_eigensystem,
    _propagate,
    collective_from_local,
    dicke,
    moments,
)
from .metrics import SqueezingReport, compute_report, min_transverse_variance

__all__ = [
    "OAT_X",
    "OAT_Z",
    "TAT",
    "OAT_TRANSVERSE",
    "HamiltonianSpec",
    "KickedTopSpec",
    "evolve",
    "oat_closed_form",
    "oat_concurrence",
    "oat_xi_s2",
    "oat_state",
    "optimal_oat",
    "OptimalOAT",
    "tat_minimum",
    "kicked_top_trajectory",
    "KickedTopResult",
]

OAT_X = "oat_x"
OAT_Z = "oat_z"
TAT = "tat"
OAT_TRANSVERSE = "oat_transverse"

_KINDS = (OAT_X, OAT_Z, TAT, OAT_TRANSVERSE)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Twisting Hamiltonian: chi*Jx^2, chi*Jz^2, chi*(JxJy+JyJx) or
    chi*Jx^2 + B*Jz."""

    kind: str
    chi: float
    field_b: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")
        if not math.isfinite(self.chi):
            raise ValueError("coupling chi must be finite")
        if not math.isfinite(self.field_b):
            raise ValueError("field_b must be finite")
        if self.kind != OAT_TRANSVERSE and self.field_b != 0.0:
            raise ValueError("transverse field only allowed for kind 'oat_transverse'")


@dataclass(frozen=True)
class KickedTopSpec:
    """Floquet kicked top: twist exp(-i kappa/(2j) Jz^2) after a J_y kick."""

    kappa: float
    j: float
    p: float = math.pi / 2.0

    def __post_init__(self):
        if self.j <= 0 or abs(2 * self.j - round(2 * self.j)) > 1e-9:
            raise ValueError("spin size j must be a positive (half-)integer")
        if not math.isfinite(self.kappa):
            raise ValueError("kick strength kappa must be finite")
        # the largest twist phase, kappa/(2j) m^2 at m = +-j
        if not math.isfinite(self.kappa / (2.0 * self.j) * (self.j * self.j)):
            raise ValueError(
                f"kick strength kappa={self.kappa!r} overflows the twist phase kappa j/2"
            )
        if not math.isfinite(self.p):
            raise ValueError("kick angle p must be finite")


def _eigensystem(n: int, h: HamiltonianSpec) -> tuple:
    """(blocks, gauge) with H = diag(gauge) B diag(gauge)^*, B the direct sum of
    the real blocks (start, stride, w, v) that ``_propagate`` takes.

    chi*Jx^2 squares the cached J_x eigenvalues, which is more accurate than
    solving it as a quadratic generator. chi*Jx^2 + B*Jz = chi j(j+1)/2 -
    chi/2 Jz^2 + B Jz + chi/4 (J+^2 + J-^2) is real as it stands, and
    chi*(JxJy + JyJx) = chi*(J+^2 - J-^2)/(2i) becomes the real
    chi/2 (J+^2 + J-^2) under the gauge e^{i pi k/4} on the k-th Dicke index.
    """
    if h.kind == OAT_X:
        w, v, gauge = _axis_eigensystem(n, (1.0, 0.0, 0.0))
        return [(0, 1, h.chi * w**2, v)], gauge
    if h.kind == TAT:
        coeffs = (0.0, 0.0, 0.0, h.chi / 2.0)
        gauge = np.exp(0.25j * np.pi * np.arange(n + 1))
    else:  # OAT_TRANSVERSE
        j = n / 2.0
        coeffs = (h.chi * j * (j + 1.0) / 2.0, -h.chi / 2.0, h.field_b, h.chi / 4.0)
        gauge = np.ones(n + 1, dtype=complex)
    return _parity_eigensystem(n, coeffs), gauge


def evolve(state: SymmetricState, h: HamiltonianSpec, t: float) -> SymmetricState:
    """Unitary evolution exp(-i H t) via exact eigendecomposition, reused for
    every evolution under the same Hamiltonian at the same N."""
    n = state.n_particles
    # |chi| j(j+1) + |B| j bounds the entries of the generator and |H| for
    # every kind, so it is checked before either the generator or the phases
    # are built, on Python floats, which reach inf without a NumPy warning
    j = n / 2.0
    top = abs(float(h.chi)) * j * (j + 1.0) + abs(float(h.field_b)) * j
    if not math.isfinite(top) or not math.isfinite(top * float(t)):
        raise ValueError(
            f"chi*t = {float(h.chi) * float(t)!r} at N = {n} gives non-finite evolution phases"
        )
    c = state.amplitudes
    if h.kind == OAT_Z:
        return SymmetricState(n, np.exp(-1j * h.chi * t * _moment_tables(n)[1]) * c)
    blocks, gauge = _eigensystem(n, h)
    return SymmetricState(n, _propagate(c, gauge, blocks, t))


def oat_state(n_particles: int, theta: float) -> SymmetricState:
    """One-axis twisted state exp(-i theta Jx^2 / 2) |j,-j>."""
    south = dicke(n_particles, -n_particles / 2.0)
    return evolve(south, HamiltonianSpec(OAT_X, 0.5), theta)


def oat_closed_form(n_particles: int, theta: float) -> LocalMoments:
    """Closed-form pair moments of the one-axis twisted state at angle
    theta = 2*chi*t."""
    n = _check_n(n_particles)
    if n < 2:
        raise ValueError("one-axis twisting pair moments need N >= 2")
    if not math.isfinite(theta):
        raise ValueError("twist angle theta must be finite")
    half = theta / 2.0
    cos_n1 = math.cos(half) ** (n - 1)
    cos_n2 = math.cos(theta) ** (n - 2)
    cos_half_n2 = math.cos(half) ** (n - 2)
    return LocalMoments(
        n_particles=n,
        sz=-cos_n1,
        szsz=0.5 * (1.0 + cos_n2),
        spsm=0.125 * (1.0 - cos_n2),
        smsm=-0.125 * (1.0 - cos_n2) - 0.5j * math.sin(half) * cos_half_n2,
        sdots=1.0,
    )


def oat_concurrence(n_particles: int, theta: float) -> float:
    """Pairwise concurrence of the one-axis twisted state."""
    n = _check_n(n_particles)
    if n < 2:
        raise ValueError("concurrence needs N >= 2")
    a = 1.0 - math.cos(theta) ** (n - 2)
    b2 = 16.0 * math.sin(theta / 2.0) ** 2 * math.cos(theta / 2.0) ** (2 * n - 4)
    return 0.25 * (math.sqrt(a * a + b2) - a)


def oat_xi_s2(n_particles: int, theta: float) -> float:
    return 1.0 - (n_particles - 1) * oat_concurrence(n_particles, theta)


class OptimalOAT(NamedTuple):
    theta_star: float
    xi_s2_star: float
    delta_star: float


def _scan_minimum(f, grid: np.ndarray) -> tuple[float, float]:
    """(x, f(x)) at the minimum of f: the scan over ``grid`` brackets the dip
    between the neighbours of its lowest point, and bounded scalar
    minimization refines it to 1e-12."""
    from scipy.optimize import minimize_scalar  # deferred: no command needs it

    k = int(np.argmin([f(x) for x in grid]))
    lo = grid[max(0, k - 1)]
    hi = grid[min(len(grid) - 1, k + 1)]
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return float(res.x), float(res.fun)


def optimal_oat(n_particles: int) -> OptimalOAT:
    """Twist angle minimizing xi_S^2, the minimum, and the squeezing angle there.

    Uses the closed forms, a coarse scan bracketing the dip, then bounded
    scalar minimization.
    """
    n = _check_n(n_particles)
    if n < 10:
        raise ValueError("optimal-angle search assumes N >= 10")
    theta0 = 12.0 ** (1.0 / 6.0) * (n / 2.0) ** (-2.0 / 3.0)
    hi = min(math.pi, 10.0 * theta0)
    theta_star, xi_star = _scan_minimum(
        lambda th: oat_xi_s2(n, th), np.linspace(theta0 / 50.0, hi, 400)
    )
    mset = collective_from_local(oat_closed_form(n, theta_star))
    _, angle = min_transverse_variance(mset)
    # tilt of the squeezed direction away from the second transverse axis,
    # i.e. the arctan(B/A)/2 angle that shrinks like N^(-1/3)
    delta = abs(math.pi / 2.0 - angle)
    return OptimalOAT(theta_star, xi_star, delta)


# points of the coarse chi*t scan that brackets the two-axis twisting dip
_TAT_COARSE = 200


def tat_minimum(n_particles: int) -> tuple[float, float]:
    """Minimum of xi_S^2 over chi*t in [0.1/N, pi/2] for two-axis twisting.

    A coarse scan, log-spaced from 0.1/N to pi/2 because the dip moves in
    roughly like ln(N)/N, locates the dip, and bounded scalar minimization
    polishes it. The TAT decomposition is fetched once for the whole search.
    Returns (chi_t_star, xi_s2_min).
    """
    n = _check_n(n_particles)
    south = dicke(n, -n / 2.0).amplitudes
    blocks, gauge = _eigensystem(n, HamiltonianSpec(TAT, 1.0))

    def xi_at(chi_t: float) -> float:
        psi = SymmetricState(n, _propagate(south, gauge, blocks, chi_t))
        return compute_report(moments(psi)).xi_S2

    return _scan_minimum(xi_at, np.geomspace(0.1 / n, math.pi / 2.0, _TAT_COARSE))


class KickedTopResult(NamedTuple):
    reports: list
    means: np.ndarray
    vanishing_step: Optional[int]


def kicked_top_trajectory(
    initial: SymmetricState, spec: KickedTopSpec, n_kicks: int
) -> KickedTopResult:
    """Stroboscopic squeezing of the kicked top.

    Applies the Floquet map (rotate by p about y, then twist by kappa/(2j)
    about z, in that order on the state) for ``n_kicks`` steps and reports
    the squeezing parameters after each kick. ``vanishing_step`` is the kick
    index from which xi_S^2 stays at or above 1 for the rest of the simulated
    trajectory (transient blips above 1 with later revivals do not count), or
    None when the state is still squeezed at the final kick.
    """
    if n_kicks < 1:
        raise ValueError("need at least one kick")
    n = initial.n_particles
    if abs(spec.j - n / 2.0) > 1e-9:
        raise ValueError(f"spec.j={spec.j} does not match the state (N={n})")
    twist_phases = np.exp(-1j * spec.kappa / (2.0 * spec.j) * _moment_tables(n)[1])
    # the J_y kick is the same every step, so its decomposition is fetched once
    w, v, gauge = _axis_eigensystem(n, (0.0, 1.0, 0.0))
    kick = [(0, 1, w, v)]
    psi = initial
    reports: list[SqueezingReport] = []
    means = np.zeros((n_kicks, 3))
    last_squeezed = 0
    for step in range(1, n_kicks + 1):
        psi = SymmetricState(n, twist_phases * _propagate(psi.amplitudes, gauge, kick, spec.p))
        mset = moments(psi)
        rep = compute_report(mset)
        reports.append(rep)
        means[step - 1] = mset.mean
        if rep.xi_S2 is not None and rep.xi_S2 < 1.0:
            last_squeezed = step
    vanishing = None if last_squeezed == n_kicks else last_squeezed + 1
    return KickedTopResult(reports, means, vanishing)
