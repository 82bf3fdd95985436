"""Quantum Fisher information, the N/F criterion, and Ramsey phase estimation.

The interferometer sequence is modeled by the unitary
U = exp(-i phi J_y) exp(-i pi J_x); population readout uses exact error
propagation on the initial-state moments, parity readout evaluates the
evolved state directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .states import (
    CollectiveOperator,
    SymmetricState,
    _apply_jm,
    _apply_jp,
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
        return {
            "phase_variance": self.phase_variance,
            "omega_variance": self.omega_variance,
            "readout": self.readout,
            "qfi": self.qfi,
            "chi2": self.chi2,
            "n_repeats": self.n_repeats,
        }


def _as_matrix(generator) -> np.ndarray:
    if isinstance(generator, CollectiveOperator):
        return np.asarray(generator.matrix)
    return np.asarray(generator, dtype=complex)


def _validate_rho(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError("density matrix does not have unit trace")
    lo = np.linalg.eigvalsh(rho)[0]
    if lo < -1e-9:
        raise ValueError(f"density matrix is not positive semidefinite ({lo:.3e})")
    return rho


def qfi_rotation(state_or_rho: StateOrRho, generator) -> float:
    """Quantum Fisher information for rotations generated by ``generator``.

    Pure states use F = 4 (Delta J_n)^2; density matrices use the spectral
    double sum with eigenvalues below 1e-12 treated as zero.
    """
    gen = _as_matrix(generator)
    if isinstance(state_or_rho, SymmetricState):
        c = state_or_rho.amplitudes
        gc = gen @ c
        mean = np.vdot(c, gc).real
        second = np.vdot(gc, gc).real
        return float(4.0 * (second - mean**2))
    rho = _validate_rho(state_or_rho)
    p, v = np.linalg.eigh(rho)
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
    if isinstance(state_or_rho, SymmetricState):
        n = state_or_rho.n_particles
    else:
        n = np.asarray(state_or_rho).shape[0] - 1
    f = qfi_rotation(state_or_rho, generator)
    if f <= 0.0:
        return None, False
    chi2 = n / f
    return chi2, chi2 < 1.0 - 1e-12


def _parity_signs(n: int) -> np.ndarray:
    return (-1.0) ** (n - np.arange(n + 1))


def ramsey_sensitivity(
    initial: SymmetricState, phi: float, readout: str = "jz", n_repeats: int = 1
) -> EstimationResult:
    """Phase sensitivity of a Ramsey sequence at operating point ``phi``.

    ``readout`` selects the measured observable: "jz" propagates the
    initial-state moments through <J_z>_t = <J_x>_0 sin(phi) - <J_z>_0
    cos(phi); "parity" evaluates the parity expectation of the evolved state.
    A vanishing signal slope raises, since the operating point carries no
    phase information.
    """
    if readout not in ("jz", "parity"):
        raise ValueError(f"unknown readout {readout!r}")
    if n_repeats < 1:
        raise ValueError("need n_repeats >= 1")
    n = initial.n_particles
    after_pi = rotate(initial, np.array([1.0, 0.0, 0.0]), math.pi)
    # pure-state QFI for the J_y phase: 4 (Delta J_y)^2 after the pi pulse
    qfi = 4.0 * float(moments(after_pi).cov[1, 1])
    chi2 = (n / qfi) if qfi > 0 else None

    if readout == "jz":
        m0 = moments(initial)
        mean_x, mean_z = m0.mean[0], m0.mean[2]
        var_x, var_z = m0.cov[0, 0], m0.cov[2, 2]
        cov_xz = m0.cov[0, 2]
        slope = mean_x * math.cos(phi) + mean_z * math.sin(phi)
        if abs(slope) < 1e-12 * max(1.0, n):
            raise ValueError("zero signal slope: unusable operating point")
        var_t = (
            math.cos(phi) ** 2 * var_z
            + math.sin(phi) ** 2 * var_x
            - math.sin(2.0 * phi) * cov_xz
        )
        phase_var = var_t / (n_repeats * slope**2)
    else:
        psi = rotate(after_pi, np.array([0.0, 1.0, 0.0]), phi)
        signs = _parity_signs(n)
        probs = np.abs(psi.amplitudes) ** 2
        p_mean = float(signs @ probs)
        # slope d<P>/dphi = i <[J_y, P]> on the evolved state
        c = psi.amplitudes
        pc = signs * c
        jy_pc = (_apply_jp(pc, n) - _apply_jm(pc, n)) / 2.0j
        slope = float((1j * (np.vdot(c, jy_pc) - np.vdot(jy_pc, c))).real)
        if abs(slope) < 1e-12 * max(1.0, n):
            raise ValueError("zero signal slope: unusable operating point")
        phase_var = (1.0 - p_mean**2) / (n_repeats * slope**2)

    return EstimationResult(
        phase_variance=float(phase_var),
        omega_variance=None,
        readout=readout,
        qfi=qfi,
        chi2=chi2,
        n_repeats=n_repeats,
    )


def ramsey_signal(initial: SymmetricState, phi: float, readout: str = "jz"):
    """(signal, standard deviation) of the readout observable at phi."""
    n = initial.n_particles
    if readout == "jz":
        m0 = moments(initial)
        mean = m0.mean[0] * math.sin(phi) - m0.mean[2] * math.cos(phi)
        var = (
            math.cos(phi) ** 2 * m0.cov[2, 2]
            + math.sin(phi) ** 2 * m0.cov[0, 0]
            - math.sin(2.0 * phi) * m0.cov[0, 2]
        )
        return mean, math.sqrt(max(var, 0.0))
    psi = rotate(rotate(initial, np.array([1.0, 0.0, 0.0]), math.pi),
                 np.array([0.0, 1.0, 0.0]), phi)
    signs = _parity_signs(n)
    probs = np.abs(psi.amplitudes) ** 2
    mean = float(signs @ probs)
    return mean, math.sqrt(max(1.0 - mean**2, 0.0))


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
    j = n // 2
    amp[_m_index(n, 0)] = 1.0 / math.sqrt(2.0)
    amp[_m_index(n, 1)] = -0.5
    amp[_m_index(n, -1)] = -0.5
    base = SymmetricState(n, amp)
    # J_x eigenbasis convention fixed so that <J_z> = +sqrt(j(j+1)/2)
    return rotate(base, np.array([0.0, 1.0, 0.0]), math.pi / 2.0)


def _m_index(n: int, m: float) -> int:
    return int(round(n / 2.0 - m))
