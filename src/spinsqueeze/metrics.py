"""Spin-squeezing parameters computed from collective moments.

Implements the full family of squeezing measures: the Heisenberg-relation
parameters, the minimal-transverse-variance parameter, the phase-sensitivity
ratio, the entanglement-witness variants, their rotation-invariant tilde
forms built from the smallest eigenvalue of Gamma = (N-1)*gamma + C,
parity-state shortcut formulas, and the bosonic principal-squeezing
correspondence.

A value below 1 signals squeezing for every parameter except xi_H2/xi_Hprime2,
which can dip below 1 even for coherent states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from .states import LocalMoments, MomentSet, _rows_to_csv, to_json_text

__all__ = [
    "SqueezingReport",
    "REPORT_FIELDS",
    "mean_spin_direction",
    "transverse_frame",
    "min_transverse_variance",
    "compute_report",
    "parity_shortcuts",
    "ParityShortcuts",
    "bosonic_principal",
    "xi_h2_directional",
    "xi_hprime2_directional",
    "xi_rprime2_directional",
    "xi_d2_directional",
    "xi_e2_directional",
]

# below this mean-spin length the MSD (and every parameter that divides by
# it) is reported as absent instead of blowing up near GHZ-like states
MSD_EPS_PER_PARTICLE = 1e-9


def mean_spin_direction(mset: MomentSet):
    """Polar/azimuthal angles of <J>, with a defined-flag.

    Returns (theta, phi, defined). When |<J>| <= 1e-9 * N the direction is
    reported undefined and the angles are zero placeholders. For a mean spin
    along +-z the azimuth is 0 by convention.
    """
    length = mset.mean_length
    if length <= MSD_EPS_PER_PARTICLE * mset.n_particles:
        return 0.0, 0.0, False
    jx, jy, jz = mset.mean
    theta = math.acos(min(1.0, max(-1.0, jz / length)))
    sin_theta = math.sin(theta)
    if sin_theta * length <= MSD_EPS_PER_PARTICLE * mset.n_particles:
        return (0.0 if jz > 0 else math.pi), 0.0, True
    c = min(1.0, max(-1.0, jx / (length * sin_theta)))
    phi = math.acos(c) if jy > 0 else 2.0 * math.pi - math.acos(c)
    return theta, phi % (2.0 * math.pi), True


def transverse_frame(theta: float, phi: float):
    """Orthonormal frame (n0, n1, n2) with n0 along (theta, phi)."""
    n0 = np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )
    n1 = np.array([-math.sin(phi), math.cos(phi), 0.0])
    n2 = np.array(
        [math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi), -math.sin(theta)]
    )
    return n0, n1, n2


def _variance(mset: MomentSet, n: np.ndarray) -> float:
    return float(n @ mset.cov @ n)


class _Frame(NamedTuple):
    """The squeezing frame: MSD angles, the transverse frame (n0 along the
    MSD), and the smallest transverse variance with the angle of its
    direction n1*cos + n2*sin."""

    theta: float
    phi: float
    n0: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    lam_minus: float
    angle: float


def _squeezing_frame(mset: MomentSet) -> Optional[_Frame]:
    """The squeezing frame, or None when the mean-spin direction is undefined."""
    theta, phi, ok = mean_spin_direction(mset)
    if not ok:
        return None
    n0, n1, n2 = transverse_frame(theta, phi)
    v11 = _variance(mset, n1)
    v22 = _variance(mset, n2)
    v12 = float(n1 @ mset.cov @ n2)
    a = v11 - v22
    b = 2.0 * v12
    hyp = math.hypot(a, b)
    lam_minus = 0.5 * (v11 + v22 - hyp)
    if hyp <= 1e-14 * max(1.0, v11 + v22):
        angle = 0.0
    else:
        half = 0.5 * math.acos(min(1.0, max(-1.0, -a / hyp)))
        angle = half if b <= 0 else math.pi - half
    return _Frame(theta, phi, n0, n1, n2, lam_minus, angle)


def min_transverse_variance(mset: MomentSet):
    """Smallest variance in the plane normal to the mean-spin direction.

    Returns (lambda_minus, opt_angle) where opt_angle is the angle of the
    minimizing direction n1*cos + n2*sin in the transverse frame. Raises if
    the mean-spin direction is undefined.
    """
    frame = _squeezing_frame(mset)
    if frame is None:
        raise ValueError("mean-spin direction undefined; transverse plane is ambiguous")
    return frame.lam_minus, frame.angle


@dataclass(frozen=True, kw_only=True)
class SqueezingReport:
    """Every squeezing parameter of one state; absent values are None.

    Directional parameters are evaluated on the canonical frame: n1 is the
    variance-minimizing transverse direction and n2 the mean-spin direction.
    Fields needing the MSD default to None, their value when ``msd_defined``
    is False; the tilde parameters, xi_singlet2 and lambda_min survive
    regardless.
    """

    xi_H2: Optional[float] = None
    xi_Hprime2: Optional[float] = None
    xi_Hdoubleprime2: Optional[float] = None
    xi_S2: Optional[float] = None
    xi_R2: Optional[float] = None
    xi_Rprime2: Optional[float] = None
    xi_D2: Optional[float] = None
    xi_E2: Optional[float] = None
    tilde_xi_Rprime2: Optional[float] = None
    tilde_xi_D2: float
    tilde_xi_E2: float
    xi_singlet2: float
    msd_theta: Optional[float] = None
    msd_phi: Optional[float] = None
    opt_angle: Optional[float] = None
    lambda_min: float
    lambda_min_degenerate: bool
    mean_spin_length: float
    msd_defined: bool

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_FIELDS}

    def to_json(self) -> str:
        return to_json_text(self.to_dict())

    def to_csv(self) -> str:
        return _rows_to_csv(REPORT_FIELDS, [self.to_dict()])


REPORT_FIELDS = tuple(f.name for f in fields(SqueezingReport))


def compute_report(mset: MomentSet) -> SqueezingReport:
    """Evaluate every squeezing parameter for one moment set."""
    n = mset.n_particles
    length = mset.mean_length
    frame = _squeezing_frame(mset)

    lam = np.linalg.eigvalsh(mset.gamma_big)
    lam_min = float(lam[0])
    scale = max(1.0, float(np.max(np.abs(lam))))
    degenerate = bool(lam[1] - lam[0] <= 1e-9 * scale)

    tilde_d = 4.0 * lam_min / n**2
    denom_e = mset.j_squared - n / 2.0
    tilde_e = lam_min / denom_e
    singlet = float(np.trace(mset.cov)) / (n / 2.0)

    msd = {}  # without a frame the MSD fields keep their None default
    if frame is not None:
        lam_minus = frame.lam_minus
        n_min = math.cos(frame.angle) * frame.n1 + math.sin(frame.angle) * frame.n2
        mean_along_min = float(mset.mean @ n_min)
        msd = dict(
            xi_H2=2.0 * lam_minus / length,  # canonical n2 = MSD
            xi_Hprime2=2.0 * lam_minus / length,  # third-axis mean vanishes on the frame
            xi_Hdoubleprime2=2.0 * lam_minus / length,
            xi_S2=4.0 * lam_minus / n,
            xi_R2=n * lam_minus / length**2,
            xi_Rprime2=n * lam_minus / length**2,
            xi_D2=n * lam_minus / (n**2 / 4.0 - mean_along_min**2),
            xi_E2=n * lam_minus / (mset.j_squared - n / 2.0 - mean_along_min**2),
            tilde_xi_Rprime2=lam_min / length**2,
            msd_theta=frame.theta,
            msd_phi=frame.phi,
            opt_angle=frame.angle,
        )
    return SqueezingReport(
        **msd,
        tilde_xi_D2=tilde_d,
        tilde_xi_E2=tilde_e,
        xi_singlet2=singlet,
        lambda_min=lam_min,
        lambda_min_degenerate=degenerate,
        mean_spin_length=length,
        msd_defined=frame is not None,
    )


# --- caller-supplied direction variants (the canonical report above fixes
# n1 = minimizing transverse direction, n2 = MSD) ---------------------------


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("direction vector has zero length")
    return v / nrm


def xi_h2_directional(mset: MomentSet, n1, n2) -> float:
    n1, n2 = _unit(n1), _unit(n2)
    return 2.0 * _variance(mset, n1) / abs(float(mset.mean @ n2))


def xi_hprime2_directional(mset: MomentSet, n1, n2, n3) -> float:
    n1, n2, n3 = _unit(n1), _unit(n2), _unit(n3)
    denom = math.hypot(float(mset.mean @ n2), float(mset.mean @ n3))
    return 2.0 * _variance(mset, n1) / denom


def xi_rprime2_directional(mset: MomentSet, n1, n2, n3) -> float:
    n1, n2, n3 = _unit(n1), _unit(n2), _unit(n3)
    denom = float(mset.mean @ n2) ** 2 + float(mset.mean @ n3) ** 2
    return mset.n_particles * _variance(mset, n1) / denom


def xi_d2_directional(mset: MomentSet, n) -> float:
    n = _unit(n)
    num = mset.n_particles * _variance(mset, n)
    return num / (mset.n_particles**2 / 4.0 - float(mset.mean @ n) ** 2)


def xi_e2_directional(mset: MomentSet, n) -> float:
    n = _unit(n)
    num = mset.n_particles * _variance(mset, n)
    return num / (mset.j_squared - mset.n_particles / 2.0 - float(mset.mean @ n) ** 2)


class ParityShortcuts(NamedTuple):
    xi_S2: float
    xi_R2: Optional[float]
    tilde_xi_E2: float
    varsigma2: float


def parity_shortcuts(lm: LocalMoments) -> ParityShortcuts:
    """Closed-form squeezing parameters for parity + exchange-symmetric states.

    The caller asserts that the underlying state has definite parity (mean
    spin along z, no z-transverse correlations). xi_R2 is None when the mean
    spin vanishes, matching its divergence for GHZ-like states.
    """
    n = lm.n_particles
    xi_s2 = 1.0 - 2.0 * (n - 1) * (abs(lm.smsm) - lm.spsm)
    xi_r2 = xi_s2 / lm.sz**2 if abs(lm.sz) > MSD_EPS_PER_PARTICLE else None
    varsigma2 = 1.0 + (n - 1) * (lm.szsz - lm.sz**2)
    denom = (1.0 - 1.0 / n) * lm.sdots + 1.0 / n
    tilde_e = min(xi_s2, varsigma2) / denom
    return ParityShortcuts(xi_s2, xi_r2, tilde_e, varsigma2)


def bosonic_principal(a_mean: complex, a2_mean: complex, n_mean: float) -> float:
    """Principal quadrature squeezing of a bosonic mode.

    zeta_B^2 = 1 + 2(<a+a> - |<a>|^2) - 2|<a^2> - <a>^2|; below 1 means the
    minimal quadrature variance beats the vacuum.
    """
    if n_mean < 0:
        raise ValueError("mean occupation must be non-negative")
    a_mean = complex(a_mean)
    return float(1.0 + 2.0 * (n_mean - abs(a_mean) ** 2) - 2.0 * abs(complex(a2_mean) - a_mean**2))
