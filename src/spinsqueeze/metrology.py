"""Quantum Fisher information, the N/F criterion, and Ramsey phase estimation.

The interferometer sequence is modeled by the unitary
U = exp(-i phi J_y) exp(-i pi J_x). Since exp(-i pi J_x)|j,m> =
e^{-i pi j}|j,-m>, the pi pulse only reverses the amplitude vector, and it
maps (J_x, J_y, J_z) to (J_x, -J_y, -J_z). One readout function gives the
signal <O>, its variance and its slope d<O>/dphi, from which
Delta phi = Delta O / |d<O>/dphi|: population readout (O = J_z) propagates
the initial-state moments, parity readout evaluates the evolved state. The
quantum Fisher information of the sequence is 4 (Delta J_y)^2 of the initial
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .states import (
    SymmetricState,
    _density_eigh,
    _ladder_index,
    _moment_tables,
    dicke,
    moments,
    rotate,
)

__all__ = [
    "EstimationResult",
    "qfi_rotation",
    "chi_criterion",
    "ramsey_sensitivity",
    "ghz_y",
    "sss_andre",
]

_EIG_CUTOFF = 1e-12

StateOrRho = Union[SymmetricState, np.ndarray]


@dataclass(frozen=True)
class EstimationResult:
    phase_variance: float
    omega_variance: Optional[float]
    readout: str
    qfi: float
    chi2: Optional[float]
    n_repeats: int

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _dimension(state_or_rho: StateOrRho) -> int:
    if isinstance(state_or_rho, SymmetricState):
        return state_or_rho.n_particles + 1
    return np.shape(state_or_rho)[0]


def _as_matrix(generator, state_or_rho: StateOrRho) -> np.ndarray:
    """The generator as a dense matrix, refused unless it is (N+1)x(N+1)."""
    gen = np.asarray(generator, dtype=complex)
    dim = _dimension(state_or_rho)
    if gen.shape != (dim, dim):
        raise ValueError(f"generator must have shape {(dim, dim)}, got {gen.shape}")
    return gen


def qfi_rotation(state_or_rho: StateOrRho, generator) -> float:
    """Quantum Fisher information for rotations generated by ``generator``.

    Pure states use F = 4 (Delta J_n)^2; density matrices use the spectral
    double sum with eigenvalues below 1e-12 treated as zero.
    """
    gen = _as_matrix(generator, state_or_rho)
    if isinstance(state_or_rho, SymmetricState):
        c = state_or_rho.amplitudes
        gc = gen @ c
        mean = np.vdot(c, gc).real
        second = np.vdot(gc, gc).real
        return float(4.0 * (second - mean**2))
    p, v = _density_eigh(state_or_rho)
    p = np.where(p < _EIG_CUTOFF, 0.0, p)
    a = v.conj().T @ gen @ v
    pi = p[:, None]
    pj = p[None, :]
    denom = pi + pj
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(denom > _EIG_CUTOFF, 2.0 * (pi - pj) ** 2 / denom, 0.0)
    np.fill_diagonal(weight, 0.0)
    return float(np.sum(weight * np.abs(a) ** 2))


def chi_criterion(state_or_rho: StateOrRho, generator):
    """N/F for a rotation family; (chi2, entangled_flag). chi2 < 1 detects
    entanglement (with a -1e-12 guard so unentangled boundary states do not
    flicker). F = 0 yields chi2 = None and flag False."""
    n = _dimension(state_or_rho) - 1
    f = qfi_rotation(state_or_rho, generator)
    if f <= 0.0:
        return None, False
    chi2 = n / f
    return chi2, chi2 < 1.0 - 1e-12


def _pi_pulse(state: SymmetricState) -> SymmetricState:
    """exp(-i pi J_x) applied to the state: e^{-i pi j} times the reversed
    amplitude vector."""
    n = state.n_particles
    return SymmetricState(n, np.exp(-0.5j * math.pi * n) * state.amplitudes[::-1])


def _readout(initial: SymmetricState, phi: float, readout: str, m0=None) -> tuple:
    """(signal, variance, slope) of the readout observable O after
    exp(-i phi J_y) exp(-i pi J_x): <O>, (Delta O)^2 and d<O>/dphi.
    ``m0`` is ``moments(initial)`` when the caller already has it.

    The slope is None where |d<O>/dphi| < 1e-12 max(1, N), since such an
    operating point carries no phase information.
    """
    if readout not in ("jz", "parity"):
        raise ValueError(f"unknown readout {readout!r}")
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    n = initial.n_particles
    if readout == "jz":
        # U^dagger J_z U = -J_x sin(phi) - J_z cos(phi) on the initial state
        m0 = moments(initial) if m0 is None else m0
        cos, sin = math.cos(phi), math.sin(phi)
        signal = -m0.mean[0] * sin - m0.mean[2] * cos
        variance = cos**2 * m0.cov[2, 2] + sin**2 * m0.cov[0, 0]
        variance = max(variance + math.sin(2.0 * phi) * m0.cov[0, 2], 0.0)
        slope = m0.mean[2] * sin - m0.mean[0] * cos
    else:
        c = rotate(_pi_pulse(initial), np.array([0.0, 1.0, 0.0]), phi).amplitudes
        prob = np.abs(c) ** 2
        # parity (-1)^(N-k): +1 on Dicke indices k = N mod 2, N mod 2 + 2, ...
        even, odd = float(prob[n % 2 :: 2].sum()), float(prob[1 - n % 2 :: 2].sum())
        signal = even - odd
        variance = 4.0 * even * odd  # 1 - <P>^2, without cancellation near |<P>| = 1
        # d<P>/dphi = i<[J_y, P]> = 2 Re sum_k c_k^* c_{k+1} <k|J_+|k+1> (-1)^(N-k-1)
        near = np.conj(c[:-1]) * c[1:]
        near[n % 2 :: 2] *= -1.0
        slope = 2.0 * float((near @ _moment_tables(n)[2]).real)
    if abs(slope) < 1e-12 * max(1.0, n):
        slope = None
    return signal, variance, slope


def ramsey_sensitivity(
    initial: SymmetricState, phi: float, readout: str = "jz", n_repeats: int = 1
) -> EstimationResult:
    """Phase sensitivity (Delta O / |d<O>/dphi|)^2 / n_repeats of a Ramsey
    sequence at operating point ``phi``, with O = J_z for ``readout`` "jz" and
    the parity for "parity". A vanishing signal slope raises, since the
    operating point carries no phase information.
    """
    if n_repeats < 1:
        raise ValueError("need n_repeats >= 1")
    m0 = moments(initial)
    _, variance, slope = _readout(initial, phi, readout, m0)
    if slope is None:
        raise ValueError("zero signal slope: unusable operating point")
    n = initial.n_particles
    # pure-state QFI for the J_y phase; the pi pulse only flips the sign of J_y
    qfi = 4.0 * float(m0.cov[1, 1])
    return EstimationResult(
        phase_variance=float(variance / (n_repeats * slope**2)),
        omega_variance=None,
        readout=readout,
        qfi=qfi,
        chi2=(n / qfi) if qfi > 0 else None,
        n_repeats=n_repeats,
    )


def ramsey_signal(initial: SymmetricState, phi: float, readout: str = "jz"):
    """(signal, standard deviation) of the readout observable at phi."""
    signal, variance, _ = _readout(initial, phi, readout)
    return signal, math.sqrt(variance)


def ghz_y(n_particles: int) -> SymmetricState:
    """GHZ state (|j,j>_y + |j,-j>_y)/sqrt(2) with |m>_y = e^{i pi/2 J_x}|m>."""
    n = n_particles
    up = dicke(n, n / 2.0).amplitudes
    down = dicke(n, -n / 2.0).amplitudes
    base = SymmetricState.normalized(n, up + down)
    return rotate(base, np.array([1.0, 0.0, 0.0]), -math.pi / 2.0)


def sss_andre(n_particles: int) -> SymmetricState:
    """Spin-squeezed benchmark state built from J_x eigenstates:
    [|j,0>_x - (|j,1>_x + |j,-1>_x)/sqrt(2)] / sqrt(2).

    Needs integer j (even N). Its mean spin points along +z with
    <J_z> = sqrt(j(j+1)/2) and (Delta J_x)^2 = 1/2.
    """
    n = n_particles
    if n % 2 != 0:
        raise ValueError("this benchmark state needs integer j (even N)")
    amp = np.zeros(n + 1, dtype=complex)
    amp[_ladder_index(n, 0)] = 1.0 / math.sqrt(2.0)
    amp[_ladder_index(n, 1)] = -0.5
    amp[_ladder_index(n, -1)] = -0.5
    base = SymmetricState(n, amp)
    # J_x eigenbasis convention fixed so that <J_z> = +sqrt(j(j+1)/2)
    return rotate(base, np.array([0.0, 1.0, 0.0]), math.pi / 2.0)
