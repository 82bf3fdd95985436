"""Symmetric N-qubit states in the Dicke basis and banded collective-spin kernels.

States of N spin-1/2 particles restricted to the maximal angular-momentum
sector j = N/2 are stored as complex amplitude vectors of length N + 1.
Index 0 holds the amplitude of m = +j and index N holds m = -j; every file
format written by this package uses the same descending-m order.

Conventions
-----------
* A coherent spin state ``css(N, 0, phi)`` is the fully polarized state
  |j, +j>, so that <J_z> = (N/2) cos(theta) for general theta.
* The parity operator is diagonal with entries (-1)**(j + m).
* All operations are pure functions; returned arrays are marked read-only.
"""

from __future__ import annotations

import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "SymmetricState",
    "MomentSet",
    "LocalMoments",
    "m_values",
    "css",
    "dicke",
    "rotate",
    "moments",
    "local_moments",
    "local_from_moments",
    "collective_from_local",
    "husimi_q",
    "gauss_sphere_grid",
    "state_to_json",
    "state_from_json",
    "state_to_csv",
    "state_from_csv",
    "fmt_float",
    "csv_cell",
    "to_json_text",
]

_NORM_TOL = 1e-12


def _check_n(n_particles: int) -> int:
    n = int(n_particles)
    if n < 1 or n != n_particles:
        raise ValueError(f"invalid system size N={n_particles!r}; need integer N >= 1")
    return n


def m_values(n_particles: int) -> np.ndarray:
    """J_z eigenvalues in storage order: +j, j-1, ..., -j with j = N/2."""
    n = _check_n(n_particles)
    return n / 2.0 - np.arange(n + 1)


@dataclass(frozen=True)
class SymmetricState:
    """Normalized amplitude vector over the Dicke basis of N qubits."""

    n_particles: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = _check_n(self.n_particles)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (n + 1,):
            raise ValueError(
                f"amplitude vector has length {amps.shape}, expected ({n + 1},)"
            )
        norm2 = float(np.vdot(amps, amps).real)
        # a NaN amplitude makes norm2 NaN, which no comparison rejects
        if not math.isfinite(norm2) and not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        if abs(norm2 - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm^2 = {norm2!r} is not 1 within tolerance")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, n_particles: int, amplitudes: np.ndarray) -> "SymmetricState":
        amps = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if not math.isfinite(norm) and not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(n_particles, amps / norm)

    @property
    def j(self) -> float:
        return self.n_particles / 2.0

    def norm_error(self) -> float:
        return abs(float(np.vdot(self.amplitudes, self.amplitudes).real) - 1.0)


def _density_eigh(rho) -> tuple:
    """(p, v) from one ``eigh`` of a density matrix, refused unless it is
    square, Hermitian and of unit trace within 1e-9 and has no eigenvalue
    below -1e-9."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError("density matrix does not have unit trace")
    p, v = np.linalg.eigh(rho)
    if p[0] < -1e-9:
        raise ValueError(f"density matrix is not positive semidefinite ({p[0]:.3e})")
    return p, v


def _log_binom(n: int, k: np.ndarray) -> np.ndarray:
    from scipy.special import gammaln  # deferred: no command needs it at start-up

    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def _css_magnitudes(n: int, theta: np.ndarray) -> np.ndarray:
    """|<k|theta, 0>| = sqrt(C(N, k)) cos(theta/2)^(N-k) sin(theta/2)^k, one row
    per polar angle in ``theta`` and one column per Dicke index k.

    Evaluated in log space so arbitrary N does not overflow; at the poles the
    vanishing powers give exact zeros.
    """
    j = n / 2.0
    m = m_values(n)
    exp_c = (j + m)[None, :]
    exp_s = (j - m)[None, :]
    c_half = np.cos(theta / 2.0)[:, None]
    s_half = np.sin(theta / 2.0)[:, None]
    zero = ((c_half == 0.0) & (exp_c > 0)) | ((s_half == 0.0) & (exp_s > 0))
    log_mag = (
        0.5 * _log_binom(n, exp_s)
        + np.where(exp_c > 0, exp_c * np.log(np.maximum(c_half, 1e-300)), 0.0)
        + np.where(exp_s > 0, exp_s * np.log(np.maximum(s_half, 1e-300)), 0.0)
    )
    return np.where(zero, 0.0, np.exp(log_mag))


def css(n_particles: int, theta: float, phi: float) -> SymmetricState:
    """Coherent spin state with mean spin along (theta, phi).

    Amplitudes follow the binomial profile
    c_m = sqrt(C(N, j-m)) cos(theta/2)^(j+m) sin(theta/2)^(j-m) e^{i (j-m) phi},
    evaluated in log space so arbitrary N does not overflow.
    """
    n = _check_n(n_particles)
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"polar angle theta={theta!r} outside [0, pi]")
    amps = _css_magnitudes(n, np.array([theta]))[0] * np.exp(1j * np.arange(n + 1) * phi)
    return SymmetricState.normalized(n, amps)


def dicke(n_particles: int, m: float) -> SymmetricState:
    """Dicke state |j, m>, the J_z eigenstate with eigenvalue m."""
    n = _check_n(n_particles)
    amps = np.zeros(n + 1, dtype=complex)
    amps[_ladder_index(n, m)] = 1.0
    return SymmetricState(n, amps)


def _ladder_index(n: int, m: float) -> int:
    """Dicke index j - m of the J_z eigenvalue m, refused unless m lies on the
    ladder -j..j within 1e-9."""
    j = n / 2.0
    idx = j - m
    # the range test comes first: it also refuses NaN and inf before round()
    if not -j - 1e-9 <= m <= j + 1e-9 or abs(idx - round(idx)) > 1e-9:
        raise ValueError(f"m={m!r} is not in the ladder -j..j for j={j}")
    return int(round(idx))


def _apply_jp(c: np.ndarray, n: int) -> np.ndarray:
    """J_+ applied along the last axis of c (one or a stack of vectors)."""
    f = _moment_tables(n)[2]
    out = np.zeros_like(c)
    out[..., :-1] = f * c[..., 1:]
    return out


def _apply_jm(c: np.ndarray, n: int) -> np.ndarray:
    """J_- applied along the last axis of c (one or a stack of vectors)."""
    f = _moment_tables(n)[2]
    out = np.zeros_like(c)
    out[..., 1:] = f * c[..., :-1]
    return out


class _EigenCache:
    """Least-recently-used map from a key to a tuple of read-only arrays.

    The bound is on the bytes of array data held, so a few large-N entries
    cannot pin more memory than many small ones. An entry larger than the
    whole bound is built and returned but not kept. Library callers may
    share the module cache across their own threads, hence the lock; two
    threads missing on the same key both build it, which costs time but not
    correctness.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._entries: OrderedDict = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key, build):
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                return hit
        value = tuple(build())
        for arr in value:
            arr.setflags(write=False)
        size = sum(arr.nbytes for arr in value)
        if size > self.max_bytes:
            return value
        with self._lock:
            if key not in self._entries:
                self._entries[key] = value
                self._bytes += size
                while self._bytes > self.max_bytes:
                    _, old = self._entries.popitem(last=False)
                    self._bytes -= sum(arr.nbytes for arr in old)
        return value


# The one cache for reuse across calls: every generator decomposition (rotation
# axes and quadratic Hamiltonians alike) and the per-N ladder weights. 32 MiB
# holds about a hundred N = 200 generators, or one at N = 2000; a loop over one
# generator holds its decomposition itself rather than relying on this bound
_EIGEN_CACHE_BYTES = 32 * 2**20
_GENERATOR_EIGEN = _EigenCache(_EIGEN_CACHE_BYTES)


def _moment_tables(n: int) -> tuple:
    """Per-N ladder weights, cached and read-only: m_k, m_k^2,
    f_k = <k|J_+|k+1>, f_k (m_k + m_{k+1})/2 and f_k f_{k+1} = <k|J_+^2|k+2>.

    Every banded kernel in the package reads m and the J_+- weights here.
    """

    def build():
        m = m_values(n)
        j = n / 2.0
        # <j,m+1| J_+ |j,m> = sqrt(j(j+1) - m(m+1)) for m = m_{k+1}
        f = np.sqrt(np.maximum(j * (j + 1) - m[1:] * (m[1:] + 1), 0.0))
        return m, m * m, f, f * (m[:-1] + m[1:]) / 2.0, f[:-1] * f[1:]

    return _GENERATOR_EIGEN.get(("tables", n), build)


def _real_matmul(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a @ c for a real matrix a and a complex vector c.

    The real and imaginary parts go through one real product with two
    columns: BLAS multiplies a real matrix by a complex vector only after
    promoting the matrix to complex, which is several times slower.
    """
    pairs = np.ascontiguousarray(c, dtype=complex).view(np.float64).reshape(-1, 2)
    return (a @ pairs).view(complex).reshape(-1)


def _propagate(c: np.ndarray, gauge: np.ndarray, blocks, t: float) -> np.ndarray:
    """exp(-i t H) c for H = diag(gauge) B diag(gauge)^*, where B is the direct
    sum of v diag(w) v^T over ``blocks`` of (start, stride, w, v), each with a
    real orthogonal v acting on the Dicke indices start::stride.
    """
    d = np.conj(gauge) * c
    for start, stride, w, v in blocks:  # disjoint index sets, so d is updated in place
        tmp = _real_matmul(v.T, d[start::stride])
        d[start::stride] = _real_matmul(v, np.exp(-1j * t * w) * tmp)
    return gauge * d


def _axis_eigensystem(n: int, axis: tuple) -> tuple:
    """(w, v, gauge) with J.axis = diag(gauge) v diag(w) v^T diag(gauge)^*.

    J.axis is tridiagonal in the Dicke basis; the diagonal phase gauge makes
    its off-diagonal real, so v comes from a real tridiagonal eigensolver.
    Results are cached per (N, axis) and read-only.
    """

    def build():
        m, _, f, _, _ = _moment_tables(n)
        t = 0.5 * (axis[0] - 1j * axis[1]) * f  # couples index i to i-1
        phases = np.zeros(n + 1)
        phases[1:] = -np.cumsum(np.angle(t))
        w, v = eigh_tridiagonal(axis[2] * m, np.abs(t))
        return w, v, np.exp(1j * phases)

    return _GENERATOR_EIGEN.get(("axis", n, axis), build)


def _parity_bands(n: int, coeffs: tuple) -> list:
    """[(start, diag, off)] for the two parity blocks of the quadratic generator
    const + a J_z^2 + b J_z + c (J_+^2 + J_-^2), coeffs = (const, a, b, c).

    J_+^2 couples Dicke index k only to k + 2, so each block is real and
    tridiagonal on the indices start::2. Parity (-1)^(j+m) = (-1)^(N-k), so
    the even block, listed first, starts at k = N mod 2.
    """
    const, a, b, c = coeffs
    m, m2, _, _, f2 = _moment_tables(n)
    diag = const + a * m2 + b * m
    off = c * f2
    return [(start, diag[start::2], off[start::2]) for start in (n % 2, 1 - n % 2)]


def _parity_eigensystem(n: int, coeffs: tuple) -> list:
    """[(start, 2, w, v)] per parity block of the quadratic generator, for
    ``_propagate``; cached per (N, coeffs) and read-only."""

    def build():
        return [x for _, d, e in _parity_bands(n, coeffs) for x in eigh_tridiagonal(d, e)]

    w0, v0, w1, v1 = _GENERATOR_EIGEN.get(("parity", n, coeffs), build)
    return [(n % 2, 2, w0, v0), (1 - n % 2, 2, w1, v1)]


def _parity_ground(n: int, coeffs: tuple) -> SymmetricState:
    """Lowest eigenstate of the quadratic generator (real amplitudes).

    Only the lowest eigenpair of each block is computed, and nothing is
    cached. On a near-tie between the blocks (odd lower by no more than
    1e-10 max(1, |E|)) the even-parity state is returned.
    """
    best = None
    for start, d, e in _parity_bands(n, coeffs):
        w, v = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        energy = float(w[0])
        if best is None or energy < best[0] - 1e-10 * max(1.0, abs(energy)):
            vec = np.zeros(n + 1, dtype=complex)
            vec[start::2] = v[:, 0]
            best = (energy, vec)
    return SymmetricState.normalized(n, best[1])


def rotate(state: SymmetricState, axis, angle: float) -> SymmetricState:
    """Apply exp(-i * angle * J.axis) to the state.

    The generator is tridiagonal in the Dicke basis, so the propagator is
    evaluated exactly through a real symmetric tridiagonal eigendecomposition
    (a diagonal phase gauge removes the complex off-diagonal phases), reused
    for every rotation about the same axis at the same N.
    """
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,):
        raise ValueError("rotation axis must be a 3-vector")
    norm = np.linalg.norm(ax)
    if norm == 0.0:
        raise ValueError("rotation axis has zero length")
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"rotation axis norm {norm!r} is not 1 within 1e-10")
    n = state.n_particles
    c = state.amplitudes
    if ax[0] ** 2 + ax[1] ** 2 < 1e-30:
        # pure J_z rotation, diagonal
        out = np.exp(-1j * angle * ax[2] * _moment_tables(n)[0]) * c
        return SymmetricState(n, out)
    w, v, gauge = _axis_eigensystem(n, (float(ax[0]), float(ax[1]), float(ax[2])))
    return SymmetricState(n, _propagate(c, gauge, [(0, 1, w, v)], angle))


def _scale(a: list) -> float:
    """max(1, max |a_kl|) of a 3x3 matrix given as nested lists; on Python
    floats because numpy's per-call cost dominates at 3x3."""
    return max(1.0, *map(abs, a[0] + a[1] + a[2]))


@dataclass(frozen=True)
class MomentSet:
    """First and symmetrized second moments of the collective spin.

    The record stores the mean spin ``mean`` = <J> and ``corr``
    C_kl = <J_l J_k + J_k J_l>/2. The rest is derived from these once, at
    construction: the covariance ``cov`` gamma_kl = C_kl - <J_k><J_l>,
    ``gamma_big`` = (N-1) gamma + C, whose smallest eigenvalue drives the
    rotation-invariant squeezing parameters, and ``j_squared`` = <J^2> = tr C.
    """

    n_particles: int
    mean: np.ndarray
    corr: np.ndarray
    cov: np.ndarray = field(init=False)
    gamma_big: np.ndarray = field(init=False)
    j_squared: float = field(init=False)

    def __post_init__(self):
        n = _check_n(self.n_particles)
        mean = np.array(self.mean, dtype=float)
        corr = np.asarray(self.corr, dtype=float)
        if mean.shape != (3,) or corr.shape != (3, 3):
            raise ValueError("mean must be a 3-vector and corr a 3x3 matrix")
        a = corr.tolist()
        asym = max(abs(a[0][1] - a[1][0]), abs(a[0][2] - a[2][0]), abs(a[1][2] - a[2][1]))
        if asym > 1e-10 * _scale(a):
            raise ValueError("corr matrix is not symmetric")
        corr = (corr + corr.T) / 2.0
        cov = corr - mean[:, None] * mean
        gamma_big = (n - 1) * cov + corr
        for name, arr in (("mean", mean), ("corr", corr), ("cov", cov), ("gamma_big", gamma_big)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "j_squared", float(corr.trace()))
        lo = np.linalg.eigvalsh(cov)[0]
        # cov = C - <J><J>^T cancels terms of size max|C| ~ N^2/4, so its
        # rounding error scales with C, not with cov
        if lo < -1e-10 * _scale(a):
            raise ValueError(f"covariance matrix has negative eigenvalue {lo!r}")

    @property
    def mean_length(self) -> float:
        return float(np.linalg.norm(self.mean))


def moments(state: SymmetricState) -> MomentSet:
    """All first and second collective moments of a symmetric state.

    Every moment is a sum over at most three diagonals of the Dicke basis:
    <J_+> = <J_x> + i<J_y>, <J_+^2> gives the transverse second moments,
    <{J_+, J_z}>/2 the xz and yz ones, and J_x^2 + J_y^2 = J^2 - J_z^2.
    """
    n = state.n_particles
    m, m2, f, fz, f2 = _moment_tables(n)
    c = np.asarray(state.amplitudes, dtype=complex)
    prob = c.real * c.real + c.imag * c.imag
    jz = float(m @ prob)
    jz2 = float(m2 @ prob)
    near = np.conj(c[:-1]) * c[1:]
    jp = complex(near @ f)
    jpz = complex(near @ fz)
    jp2 = complex((np.conj(c[:-2]) * c[2:]) @ f2)
    j_squared = n / 2.0 * (n / 2.0 + 1.0) * float(prob.sum())
    perp = (j_squared - jz2) / 2.0
    mean = [jp.real, jp.imag, jz]
    corr = [
        [perp + jp2.real / 2.0, jp2.imag / 2.0, jpz.real],
        [jp2.imag / 2.0, perp - jp2.real / 2.0, jpz.imag],
        [jpz.real, jpz.imag, jz2],
    ]
    return MomentSet(n, mean, corr)


@dataclass(frozen=True)
class LocalMoments:
    """One- and two-site Pauli expectations of an exchange-symmetric state."""

    n_particles: int
    sz: float
    szsz: float
    spsm: float
    smsm: complex
    sdots: float

    def __post_init__(self):
        n = _check_n(self.n_particles)
        if n < 2:
            raise ValueError("local pair moments need N >= 2")
        slack = 1e-9
        if abs(self.sz) > 1.0 + slack or abs(self.szsz) > 1.0 + slack:
            raise ValueError("single/two-site z moments outside [-1, 1]")
        if abs(self.sdots) > 3.0 + slack:
            raise ValueError("|<sigma1.sigma2>| exceeds 3")
        if abs(complex(self.spsm).imag) > slack or abs(self.spsm) > 0.5 + slack:
            raise ValueError("<sigma1+ sigma2-> must be real with modulus <= 1/2")
        object.__setattr__(self, "spsm", float(np.real(self.spsm)))
        object.__setattr__(self, "smsm", complex(self.smsm))


def local_from_moments(mset: MomentSet) -> LocalMoments:
    """Invert the collective <-> pair-moment relations of a symmetric state."""
    n = mset.n_particles
    if n < 2:
        raise ValueError("no pair exists for N = 1")
    # on Python floats: numpy's per-scalar cost dominates at 3x3
    jz = mset.mean.tolist()[2]
    c = mset.corr.tolist()
    jz2 = c[2][2]
    jperp2 = c[0][0] + c[1][1]
    # J_-^2 = J_x^2 - J_y^2 - i (J_x J_y + J_y J_x)
    jm2 = (c[0][0] - c[1][1]) - 2.0j * c[0][1]
    nn1 = n * (n - 1)
    return LocalMoments(
        n_particles=n,
        sz=2.0 * jz / n,
        szsz=(4.0 * jz2 - n) / nn1,
        spsm=(2.0 * jperp2 - n) / (2.0 * nn1),
        smsm=jm2 / nn1,
        sdots=(4.0 * mset.j_squared - 3.0 * n) / nn1,
    )


def local_moments(state: SymmetricState) -> LocalMoments:
    return local_from_moments(moments(state))


def collective_from_local(lm: LocalMoments) -> MomentSet:
    """Rebuild collective moments from pair moments of a parity-symmetric state.

    Valid when the mean spin is along z and z-transverse correlations vanish,
    which holds for every state with definite parity.
    """
    n = lm.n_particles
    nn1 = n * (n - 1)
    jz = n * lm.sz / 2.0
    jz2 = (n + nn1 * lm.szsz) / 4.0
    jperp2 = n / 2.0 + nn1 * lm.spsm
    jm2 = nn1 * complex(lm.smsm)
    cxx = (jperp2 + jm2.real) / 2.0
    cyy = (jperp2 - jm2.real) / 2.0
    cxy = -jm2.imag / 2.0
    return MomentSet(n, [0.0, 0.0, jz], [[cxx, cxy, 0.0], [cxy, cyy, 0.0], [0.0, 0.0, jz2]])


_HUSIMI_CHUNK = 1024  # grid points per contraction on a scattered grid


def husimi_q(state: SymmetricState, grid) -> np.ndarray:
    """Husimi function Q(theta0, phi0) = |<theta0, phi0 | state>|^2 on a grid.

    ``grid`` is a (P, 2) array or a sequence of (theta0, phi0) pairs; an empty
    grid yields an empty array.

    The overlap factorises over the angles: sum_k A_k(theta0) e^{-i k phi0}
    with A_k(theta0) = |<k|theta0, 0>| c_k. One table of A over the distinct
    polar angles (magnitudes in log space) and one of the phases over the
    distinct azimuths serve every point. When the grid is no larger than the
    product of its distinct angles, as every product grid is, Q is one matrix
    product of the two tables; otherwise each point contracts its own pair of
    table rows, so a scattered grid never builds the product.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.size == 0:
        return np.zeros(0)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("grid must be a sequence of (theta, phi) pairs")
    if not np.isfinite(pts).all():
        raise ValueError("grid angles must be finite")
    th, ph = pts[:, 0], pts[:, 1]
    if np.any((th < -1e-12) | (th > np.pi + 1e-12)):
        raise ValueError("grid polar angles must lie in [0, pi]")
    th_u, th_idx = np.unique(th, return_inverse=True)
    ph_u, ph_idx = np.unique(ph, return_inverse=True)
    n = state.n_particles
    amp = _css_magnitudes(n, th_u) * state.amplitudes  # n_theta x (N+1)
    phase = np.multiply.outer(-1j * np.arange(n + 1.0), ph_u)  # (N+1) x n_phi, conj CSS phases
    np.exp(phase, out=phase)
    if th_u.size * ph_u.size <= th.size:
        # the sum over k runs in blocks of about sqrt(N) terms: one product
        # over all N+1 terms accumulates them in one chain and lands up to
        # twice as far from the exact sum as the per-point overlap does
        step = math.isqrt(n) + 1
        table = sum(amp[:, i : i + step] @ phase[i : i + step] for i in range(0, n + 1, step))
        overlap = table[th_idx, ph_idx]
    else:
        # a chunk of points at a time, so the gathered table rows stay small
        overlap = np.empty(th.size, dtype=complex)
        for i in range(0, th.size, _HUSIMI_CHUNK):
            rows = slice(i, i + _HUSIMI_CHUNK)
            overlap[rows] = (amp[th_idx[rows]] * phase.T[ph_idx[rows]]).sum(axis=1)
    return np.abs(overlap) ** 2


def gauss_sphere_grid(n_theta: int, n_phi: int):
    """Gauss-Legendre x uniform-phi quadrature grid on the sphere.

    Returns (points, weights) with points an (n_theta*n_phi, 2) array of
    (theta, phi) and weights summing to 4*pi.
    """
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * np.pi / n_phi
    pts = np.column_stack(
        [np.repeat(theta, n_phi), np.tile(phi, n_theta)]
    )
    weights = np.repeat(wx * wphi, n_phi)
    return pts, weights


# ---------------------------------------------------------------------------
# serialization: the package's one text encoder. Every table, report and
# state is written through these functions; states are binary-free, JSON
# {n, re, im} or CSV m,re,im rows
# ---------------------------------------------------------------------------


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(float(v))
    return str(v)


def to_json_text(obj) -> str:
    """JSON in the number format of ``csv_cell``; None, NaN and inf are null."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return fmt_float(x)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, dict):
        items = ", ".join(f"{to_json_text(str(k))}: {to_json_text(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(to_json_text(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _rows_to_csv(columns, rows) -> str:
    """Header and one line per row dict; a missing key is an empty cell."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(csv_cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def state_to_json(state: SymmetricState) -> str:
    c = state.amplitudes
    return to_json_text({"n": state.n_particles, "re": c.real.tolist(), "im": c.imag.tolist()})


def state_from_json(text: str) -> SymmetricState:
    obj = json.loads(text)
    amps = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    return SymmetricState(int(obj["n"]), amps)


def state_to_csv(state: SymmetricState) -> str:
    # rows ordered m = +j down to -j, matching the amplitude storage order
    names, c = ("m", "re", "im"), state.amplitudes
    values = zip(m_values(state.n_particles).tolist(), c.real.tolist(), c.imag.tolist())
    return _rows_to_csv(names, [dict(zip(names, v)) for v in values])


def state_from_csv(text: str) -> SymmetricState:
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("m,")]
    rows = [ln.split(",") for ln in lines]
    n = len(rows) - 1
    amps = np.zeros(n + 1, dtype=complex)
    seen = set()
    for m_s, re_s, im_s in rows:
        m = float(m_s)
        idx = _ladder_index(n, m)
        if idx in seen:
            raise ValueError(f"m={m!r} appears in more than one row")
        seen.add(idx)
        amps[idx] = float(re_s) + 1j * float(im_s)
    return SymmetricState(n, amps)
