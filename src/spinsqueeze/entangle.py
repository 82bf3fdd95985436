"""Concurrence, pairwise correlation functions, and moment-based
entanglement criteria.

The two-qubit reduced density matrix of a parity + exchange-symmetric state
is block diagonal in the basis {|00>, |11>, |01>, |10>}; its four independent
elements follow directly from collective moments, which is what experiments
measure.

The three-qubit inequalities need third moments along frame directions. J_x,
J_y and J_z reach at most one Dicke index away, so the 27 entries
T_abc = <J_a J_b J_c> are inner products <J_a c | J_b J_c c> of twelve O(N)
ladder applications; every direction triad is then a contraction of T with
three frame vectors, and no (N+1)x(N+1) matrix is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .states import (
    MomentSet,
    SymmetricState,
    _apply_jm,
    _apply_jp,
    _density_eigh,
    _moment_tables,
    local_from_moments,
    moments,
    to_json_text,
)
from .metrics import _squeezing_frame

__all__ = [
    "TwoQubitRDM",
    "TwoModeMoments",
    "CriteriaReport",
    "rdm_from_collective",
    "concurrence_general",
    "concurrence_symmetric",
    "pairwise_correlation",
    "pairwise_correlation_matrix",
    "min_pairwise_correlation",
    "evaluate_criteria",
]


@dataclass(frozen=True)
class TwoQubitRDM:
    """Block-diagonal two-qubit state: diag block (v_plus, v_minus) coupled
    by u in {|00>, |11>}, and the symmetric block [[w, y], [y, w]]."""

    v_plus: float
    v_minus: float
    w: float
    y: float
    u: complex

    def __post_init__(self):
        if abs(self.v_plus + self.v_minus + 2.0 * self.w - 1.0) > 1e-12:
            raise ValueError("two-qubit matrix elements do not sum to unit trace")
        if min(self.v_plus, self.v_minus, self.w) < -1e-12:
            raise ValueError("negative population in two-qubit matrix")
        if math.sqrt(max(self.v_plus, 0.0) * max(self.v_minus, 0.0)) < abs(self.u) - 1e-12:
            raise ValueError("coherence u exceeds sqrt(v+ v-): matrix not positive")
        if self.w < abs(self.y) - 1e-12:
            raise ValueError("coherence y exceeds w: matrix not positive")

    def to_matrix(self) -> np.ndarray:
        """4x4 matrix in the block basis {|00>, |11>, |01>, |10>}."""
        out = np.zeros((4, 4), dtype=complex)
        out[0, 0], out[1, 1] = self.v_plus, self.v_minus
        out[1, 0], out[0, 1] = self.u, np.conj(self.u)
        out[2, 2] = out[3, 3] = self.w
        out[2, 3] = out[3, 2] = self.y
        return out

    def to_matrix_standard(self) -> np.ndarray:
        """Same state in the computational order {|00>, |01>, |10>, |11>}."""
        perm = [0, 2, 3, 1]
        block = self.to_matrix()
        return block[np.ix_(perm, perm)]


def rdm_from_collective(mset: MomentSet) -> TwoQubitRDM:
    """Two-qubit reduced density matrix from collective moments.

    Valid for parity + exchange-symmetric states (caller-asserted). The
    elements follow from the pair moments of ``local_from_moments``:
    v+- = (1 +- 2 s_z + s_zz)/4, w = (1 - s_zz)/4, y = s_+-, u = conj(s_--).
    A positivity violation beyond 1e-9 signals a non-physical moment set
    and raises.
    """
    lm = local_from_moments(mset)
    v_plus = (1.0 + 2.0 * lm.sz + lm.szsz) / 4.0
    v_minus = (1.0 - 2.0 * lm.sz + lm.szsz) / 4.0
    w = (1.0 - lm.szsz) / 4.0
    y = lm.spsm
    u = lm.smsm.conjugate()
    viol = max(
        -(min(v_plus, v_minus, w)),
        abs(u) - math.sqrt(max(v_plus, 0.0) * max(v_minus, 0.0)),
        abs(y) - w,
        abs(v_plus + v_minus + 2 * w - 1.0),
    )
    if viol > 1e-9:
        raise ValueError(f"moment set maps to a non-positive pair state (violation {viol:.3e})")
    # snap numerical dust so the dataclass invariants hold exactly
    v_plus, v_minus, w = max(v_plus, 0.0), max(v_minus, 0.0), max(w, 0.0)
    cap = math.sqrt(v_plus * v_minus)
    if abs(u) > cap:
        u = u * (cap / abs(u)) if abs(u) > 0 else 0.0
    y = min(max(y, -w), w)
    shift = (1.0 - (v_plus + v_minus + 2 * w)) / 2.0
    return TwoQubitRDM(v_plus, v_minus, w + shift, y, u)


def concurrence_general(rho: np.ndarray) -> float:
    """Wootters concurrence of an arbitrary two-qubit density matrix.

    ``rho`` is 4x4 in the computational basis {|00>, |01>, |10>, |11>}.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("density matrix must be 4x4")
    evals, vecs = _density_eigh(rho)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    flip = np.kron(sy, sy)
    # the flip-map eigenvalues are the singular values of
    # sqrt(rho) (sy x sy) sqrt(rho)^*, which keeps full precision
    root = (vecs * np.sqrt(np.maximum(evals, 0.0))) @ vecs.conj().T
    lam = np.linalg.svd(root @ flip @ root.conj(), compute_uv=False)
    lam.sort()
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def concurrence_symmetric(r: TwoQubitRDM) -> float:
    """Concurrence from the block-diagonal elements:
    2 max(0, |u| - w, |y| - sqrt(v+ v-)).

    States built from collective moments always have y >= 0, where this is
    the familiar 2 max(0, |u| - w, y - sqrt(v+ v-)); taking |y| extends it
    exactly (X-state concurrence) to the rest of the valid element domain.
    """
    return float(
        2.0
        * max(
            0.0,
            abs(r.u) - r.w,
            abs(r.y) - math.sqrt(max(r.v_plus, 0.0) * max(r.v_minus, 0.0)),
        )
    )


def pairwise_correlation(mset: MomentSet, direction) -> float:
    """Two-site correlation G along a direction from collective moments."""
    n = mset.n_particles
    if n < 2:
        raise ValueError("pairwise correlation needs N >= 2")
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    var = float(d @ mset.cov @ d)
    mean = float(mset.mean @ d)
    return 4.0 * (n * var + mean**2) / (n**2 * (n - 1)) - 1.0 / (n - 1)


def pairwise_correlation_matrix(mset: MomentSet) -> np.ndarray:
    """Matrix G = 4 Gamma / (N^2 (N-1)) - I/(N-1); G(n) = n.G.n."""
    n = mset.n_particles
    return 4.0 * mset.gamma_big / (n**2 * (n - 1)) - np.eye(3) / (n - 1)


def min_pairwise_correlation(mset: MomentSet) -> float:
    return float(np.linalg.eigvalsh(pairwise_correlation_matrix(mset))[0])


@dataclass(frozen=True)
class TwoModeMoments:
    """Joint moments of two addressable sub-ensembles for the two-mode test."""

    var_jz_plus: float
    var_jy_minus: float
    mean_jx_plus: float


_VIOLATION_TOL = 1e-12


@dataclass(frozen=True)
class CriteriaReport:
    """Entanglement criteria margins; negative margin = violation = detected.

    Margins carry the natural units of each inequality (see the module docs).
    The booleans apply a guard so separable states that saturate an
    inequality exactly do not flicker into "violated" through rounding. It
    is 1e-12 times the size of the margin's terms: max(1, N/2) for the
    two-qubit and singlet margins, max(1, (N/2)^3) for the three
    third-moment margins (GHZ and both three-qubit inequalities), the largest
    second moment for the spin-j margin, and 1 for the two-mode margin.
    """

    two_qubit_violated: bool
    two_qubit_margin: float
    ghz3_violated: bool
    ghz3_margin: float
    threeq_violated_a: bool
    threeq_margin_a: float
    threeq_violated_b: bool
    threeq_margin_b: float
    singlet_xi2: float
    singlet_violated: bool
    spin_j_Fj_violated: bool
    spin_j_Fj_margin: float
    two_mode_violated: Optional[bool]
    two_mode_margin: Optional[float]

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return to_json_text(self.to_dict())


def _candidate_frames(frame) -> list:
    """MSD-aligned triad of the squeezing ``frame`` (None when the MSD is
    undefined) plus the coordinate axes, as orthonormal triads."""
    frames = [np.eye(3)]
    if frame is not None:
        c, s = math.cos(frame.angle), math.sin(frame.angle)
        nmin = c * frame.n1 + s * frame.n2
        nperp = -s * frame.n1 + c * frame.n2
        frames.append(np.array([nmin, nperp, frame.n0]))
    return frames


def _spin_j_criterion(mset: MomentSet, frame) -> tuple[float, bool]:
    """(margin, violated) of the spin-j variance bound with the spin-1/2
    floor F_{1/2}(x) = x^2/2: minimal transverse variance >= <J>^2 / N for
    separable states; ``frame`` is the squeezing frame of ``mset``.

    The margin is a difference of second moments of size up to N^2/4, and
    its rounding grows with them, so the guard is scaled by the largest.
    """
    if frame is not None:
        margin = frame.lam_minus - mset.mean_length**2 / mset.n_particles
    else:
        margin = float(np.linalg.eigvalsh(mset.cov)[0])
    tol = _VIOLATION_TOL * max(1.0, float(np.max(np.abs(mset.corr))))
    return margin, margin < -tol


def _spin_components(x: np.ndarray, n: int) -> np.ndarray:
    """(J_x x, J_y x, J_z x) stacked on a new first axis; x is one Dicke
    vector or a stack of them along its last axis."""
    up, down = _apply_jp(x, n), _apply_jm(x, n)
    return np.stack([(up + down) / 2.0, (up - down) / 2.0j, _moment_tables(n)[0] * x])


def _third_moments(state: SymmetricState) -> np.ndarray:
    """Re <J_a J_b J_c> for a, b, c in (x, y, z), as a 3x3x3 array.

    u_c = J_c c and J_b u_c take twelve banded ladder applications, and
    T_abc = <u_a | J_b u_c> since J_a is Hermitian. Every triad the criteria
    use (J_1^3, J_2 J_1 J_2, ...) is Hermitian, so only the real part counts.
    """
    n = state.n_particles
    u = _spin_components(np.asarray(state.amplitudes, dtype=complex), n)
    uu = _spin_components(u, n).reshape(9, n + 1)
    return (u.conj() @ uu.T).real.reshape(3, 3, 3)


def _third_moment_margins(tensor: np.ndarray, mset: MomentSet, frame) -> tuple:
    """(ghz3, threeq_a, threeq_b) margins, each the smallest over the six
    orderings of the orthonormal ``frame`` rows as directions 1, 2, 3."""
    n = mset.n_particles
    f = np.asarray(frame, dtype=float)
    t = np.einsum("abc,ia,jb,kc->ijk", tensor, f, f, f).tolist()
    sq = np.einsum("ia,ab,ib->i", f, mset.corr, f).tolist()
    mean = (f @ mset.mean).tolist()
    ghz3 = threeq_a = threeq_b = math.inf
    for p1, p2, p3 in itertools.permutations(range(3)):
        j1_cub, j3_cub = t[p1][p1][p1], t[p3][p3][p3]
        j212, j232, j131 = t[p2][p1][p2], t[p2][p3][p2], t[p1][p3][p1]
        j1_sq, j2_sq, j3_sq = sq[p1], sq[p2], sq[p3]
        common = -j1_cub / 3.0 + j212 - (n - 2) / 2.0 * j3_sq + mean[p1] / 3.0
        ghz3 = min(ghz3, common + n * (n - 1) * (5 * n - 2) / 24.0)
        threeq_b = min(threeq_b, common + n**2 * (n - 2) / 8.0)
        threeq_a = min(
            threeq_a,
            j3_cub
            - 2.0 * j232
            - 2.0 * j131
            - (n - 2) / 2.0 * (2.0 * j1_sq + 2.0 * j2_sq - j3_sq)
            - (n**2 - 4 * n + 8) / 4.0 * mean[p3]
            + n * (n - 2) * (13 * n - 4) / 24.0,
        )
    return ghz3, threeq_a, threeq_b


def evaluate_criteria(
    state: SymmetricState, aux: Optional[TwoModeMoments] = None
) -> CriteriaReport:
    """Evaluate the moment-based entanglement criteria on one state.

    Directional inequalities are tried on the MSD-aligned frame and on the
    coordinate axes, over all axis permutations; the strongest violation
    (smallest margin) is reported. The two-mode entry needs ``aux`` and is
    absent otherwise.
    """
    n = state.n_particles
    mset = moments(state)
    frame = _squeezing_frame(mset)
    frames = _candidate_frames(frame)
    directions = [row for f in frames for row in f]

    # two-qubit inequality, symmetric-state form:
    # 1 - 4<J_n>^2/N^2 >= 4 (Delta J_n)^2 / N for separable symmetric states
    two_qubit_margin = math.inf
    for d in directions:
        mean = float(mset.mean @ d)
        var = float(d @ mset.cov @ d)
        margin = 1.0 - 4.0 * mean**2 / n**2 - 4.0 * var / n
        two_qubit_margin = min(two_qubit_margin, margin)

    # three-qubit inequalities: third moments along every frame triad
    tensor = _third_moments(state)
    ghz3_margin, threeq_a_margin, threeq_b_margin = (
        min(col) for col in zip(*(_third_moment_margins(tensor, mset, f) for f in frames))
    )

    singlet_xi2 = float(np.trace(mset.cov)) / (n / 2.0)

    fj_margin, fj_violated = _spin_j_criterion(mset, frame)

    if aux is None:
        tm_margin = None
        tm_violated = None
    else:
        tm_margin = aux.var_jz_plus + aux.var_jy_minus - aux.mean_jx_plus
        tm_violated = tm_margin < -_VIOLATION_TOL

    # the guards grow with the rounding of each margin: the two-qubit and
    # singlet margins are second moments (up to N^2/4) divided by N/2, the
    # third-moment margins differences of terms up to (N/2)^3
    def hit(margin: float, scale: float) -> bool:
        return margin < -_VIOLATION_TOL * max(1.0, scale)

    half = n / 2.0
    return CriteriaReport(
        two_qubit_violated=hit(two_qubit_margin, half),
        two_qubit_margin=two_qubit_margin,
        ghz3_violated=hit(ghz3_margin, half**3),
        ghz3_margin=ghz3_margin,
        threeq_violated_a=hit(threeq_a_margin, half**3),
        threeq_margin_a=threeq_a_margin,
        threeq_violated_b=hit(threeq_b_margin, half**3),
        threeq_margin_b=threeq_b_margin,
        singlet_xi2=singlet_xi2,
        singlet_violated=hit(singlet_xi2 - 1.0, half),
        spin_j_Fj_violated=fj_violated,
        spin_j_Fj_margin=fj_margin,
        two_mode_violated=tm_violated,
        two_mode_margin=tm_margin,
    )
