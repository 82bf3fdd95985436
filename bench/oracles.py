"""Reference computations the benchmark checks the program against.

Everything here is written from the paper's formulas and the conventions the
package documents (Dicke amplitudes in descending-m order, the OAT state
exp(-i theta Jx^2 / 2)|j,-j>, the ADC decaying toward sigma_z = -1). Nothing is
imported from ``spinsqueeze``, so agreement is a real check and not a
comparison of the program with itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import eigh, expm


class CheckError(AssertionError):
    """A program output disagrees with the reference or violates a property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(got, want, rel: float, abs_: float = 0.0) -> bool:
    return got is not None and abs(got - want) <= max(rel * abs(want), abs_)


# ---------------------------------------------------------------------------
# symmetric (Dicke) sector, dimension N + 1
# ---------------------------------------------------------------------------


def spin_ops(n: int):
    """Dense Jx, Jy, Jz of spin j = N/2, basis m = +j down to -j."""
    j = n / 2.0
    m = j - np.arange(n + 1)
    # <m+1|J_+|m> = sqrt((j - m)(j + m + 1)); row i holds m_i = j - i
    up = np.sqrt((j - m[1:]) * (j + m[1:] + 1.0))
    jp = np.diag(up, 1).astype(complex)
    jm = jp.conj().T
    return (jp + jm) / 2.0, (jp - jm) / 2.0j, np.diag(m).astype(complex)


def coherent(n: int, theta: float, phi: float) -> np.ndarray:
    """Coherent spin state along (theta, phi): binomial Dicke amplitudes."""
    k = np.arange(n + 1)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    logc = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                     for i in k]) / 2.0
    with np.errstate(divide="ignore"):
        logc = logc + (n - k) * np.log(c) + k * np.log(s)
    amps = np.exp(logc) * np.exp(1j * k * phi)
    return amps / np.linalg.norm(amps)


def south_pole(n: int) -> np.ndarray:
    amps = np.zeros(n + 1, dtype=complex)
    amps[n] = 1.0
    return amps


def oat_twisted(n: int, theta: float) -> np.ndarray:
    """exp(-i theta Jx^2 / 2)|j,-j> by dense diagonalisation of Jx."""
    jx, _, _ = spin_ops(n)
    w, v = eigh(jx.real)
    amps = v @ (np.exp(-0.5j * theta * w**2) * (v.T @ south_pole(n)))
    return amps / np.linalg.norm(amps)


def mean_cov(psi: np.ndarray, ops):
    """<J> and the symmetrised covariance of a pure state or density matrix.

    For Hermitian A, B: <{A, B}>/2 = Re <A psi|B psi> = Re tr(rho A B).
    """
    if psi.ndim == 1:
        vecs = [a @ psi for a in ops]
        mean = np.array([np.vdot(psi, v).real for v in vecs])
        second = np.array([[np.vdot(va, vb).real for vb in vecs] for va in vecs])
    else:
        rho_a = [psi @ a for a in ops]
        mean = np.array([np.trace(x).real for x in rho_a])
        second = np.array([[np.sum(x * b.T).real for b in ops] for x in rho_a])
    return mean, second - np.outer(mean, mean)


def transverse_min_variance(mean: np.ndarray, cov: np.ndarray) -> float:
    """Smallest variance over directions normal to the mean spin."""
    n0 = mean / np.linalg.norm(mean)
    helper = np.eye(3)[int(np.argmin(np.abs(n0)))]
    e1 = np.cross(n0, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n0, e1)
    basis = np.array([e1, e2])
    return float(np.linalg.eigvalsh(basis @ cov @ basis.T)[0])


def xi_s2_r2(n: int, mean: np.ndarray, cov: np.ndarray):
    """Kitagawa-Ueda xi_S^2 = 4 min Var_perp / N and Wineland xi_R^2."""
    lam = transverse_min_variance(mean, cov)
    return 4.0 * lam / n, n * lam / float(mean @ mean)


def xi_s2_state(psi: np.ndarray, n: int, ops=None) -> tuple[np.ndarray, float]:
    ops = ops if ops is not None else spin_ops(n)
    mean, cov = mean_cov(psi, ops)
    return mean, xi_s2_r2(n, mean, cov)[0]


def oat_xi_s2(n: int, mu: float) -> float:
    """Kitagawa-Ueda closed form for the one-axis twisted state, mu = 2 chi t.

    xi^2 = 1 + (N-1)/4 [A - sqrt(A^2 + B^2)], A = 1 - cos^(N-2) mu,
    B = 4 sin(mu/2) cos^(N-2)(mu/2); A - sqrt(A^2 + B^2) is rewritten as
    -B^2 / (A + sqrt(A^2 + B^2)) to avoid cancellation at small mu.
    """
    a = 1.0 - math.cos(mu) ** (n - 2)
    b = 4.0 * math.sin(mu / 2.0) * math.cos(mu / 2.0) ** (n - 2)
    root = math.hypot(a, b)
    if root == 0.0:
        return 1.0
    return 1.0 - (n - 1) / 4.0 * b * b / (a + root)


def kicked_top_reference(psi0: np.ndarray, n: int, kappa: float, p: float, kicks: int):
    """Means and xi_S^2 after each of the first kicks of the Floquet map
    U = exp(-i kappa/(2j) Jz^2) exp(-i p Jy), propagated with dense expm."""
    ops = spin_ops(n)
    j = n / 2.0
    m = j - np.arange(n + 1)
    u = np.diag(np.exp(-1j * kappa / (2.0 * j) * m**2)) @ expm(-1j * p * ops[1])
    out = []
    psi = psi0
    for _ in range(kicks):
        psi = u @ psi
        out.append(xi_s2_state(psi, n, ops))
    return out


def tat_reference(n: int, chi_t: float):
    """Mean spin and xi_S^2 of exp(-i chi_t (JxJy + JyJx))|j,-j>."""
    ops = spin_ops(n)
    ham = ops[0] @ ops[1] + ops[1] @ ops[0]
    psi = expm(-1j * chi_t * ham) @ south_pole(n)
    return xi_s2_state(psi, n, ops)


def lmg_reference(n: int, h: float, gamma: float):
    """xi_S^2 of the ground state of H = -(Jx^2 + gamma Jy^2)/N - h Jz in each
    parity block, as [(energy, xi_S2), ...] sorted by energy.

    Parity is conserved, so each block's ground state is a parity eigenstate;
    a caller that sees two energies within rounding accepts either block.
    """
    ops = spin_ops(n)
    jx, jy, jz = ops
    ham = (-(jx @ jx + gamma * (jy @ jy)) / n - h * jz).real
    out = []
    for start in (0, 1):
        idx = np.arange(start, n + 1, 2)
        w, v = eigh(ham[np.ix_(idx, idx)])
        psi = np.zeros(n + 1, dtype=complex)
        psi[idx] = v[:, 0]
        out.append((float(w[0]), xi_s2_state(psi, n, ops)[1]))
    return sorted(out)


def qfi_pure(psi: np.ndarray, generator: np.ndarray) -> float:
    g = generator @ psi
    mean = np.vdot(psi, g).real
    return 4.0 * (np.vdot(g, g).real - mean**2)


def sphere_grid(n_theta: int, n_phi: int):
    """Gauss-Legendre in cos(theta) times a uniform phi grid; weights sum to 4 pi."""
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    pts = [(math.acos(xi), ph) for xi in x for ph in phi]
    weights = np.repeat(wx * (2.0 * np.pi / n_phi), n_phi)
    return pts, weights


# ---------------------------------------------------------------------------
# full 2^N tensor-product space (N <= 8): i.i.d. single-qubit channels
# ---------------------------------------------------------------------------

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.diag([1.0, -1.0]).astype(complex),
)


@functools.lru_cache(maxsize=None)
def _collective_full(n: int):
    ops = []
    for pauli in _PAULI:
        total = np.zeros((2**n, 2**n), dtype=complex)
        for site in range(n):
            total += np.kron(np.kron(np.eye(2**site), pauli), np.eye(2 ** (n - site - 1)))
        ops.append(total / 2.0)
    return ops


def _kraus(kind: str, p: float):
    """Single-qubit Kraus sets in the basis {|up>, |down>}."""
    s = 1.0 - p
    if kind == "adc":  # decay toward sigma_z = -1 (down)
        return [np.array([[math.sqrt(s), 0], [0, 1]], dtype=complex),
                np.array([[0, 0], [math.sqrt(p), 0]], dtype=complex)]
    if kind == "pdc":  # coherences shrink by s, populations untouched
        return [math.sqrt(s) * np.eye(2, dtype=complex),
                math.sqrt(p) * np.diag([1.0, 0.0]).astype(complex),
                math.sqrt(p) * np.diag([0.0, 1.0]).astype(complex)]
    if kind == "dpc":  # rho -> s rho + p I/2
        return [math.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2, dtype=complex)] + [
            math.sqrt(p / 4.0) * sig for sig in _PAULI]
    raise ValueError(f"unknown channel {kind!r}")


def _on_site(k: np.ndarray, x: np.ndarray, site: int, n: int) -> np.ndarray:
    """(1 x ... x k x ... x 1) @ x for the qubit ``site`` of 2^n-dim rows."""
    dim = x.shape[0]
    blocks = x.reshape(2**site, 2, (dim >> (site + 1)) * x.shape[1])
    return (k @ blocks).reshape(x.shape)


def channel_brute_force(kind: str, n: int, theta0: float, p: float):
    """(xi_S2, xi_R2) after the channel acts on every qubit of the 2^N-dim
    one-axis twisted state exp(-i theta0 Jx^2 / 2)|down...down>.

    Jx = H Jz H with H the N-fold Hadamard, so the twist is diagonal there.
    """
    ops = _collective_full(n)
    hadamard = np.ones((1, 1))
    for _ in range(n):
        hadamard = np.kron(hadamard, np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
    jz_diag = ops[2].diagonal().real
    down = np.zeros(2**n, dtype=complex)
    down[-1] = 1.0
    psi = hadamard @ (np.exp(-0.5j * theta0 * jz_diag**2) * (hadamard @ down))
    rho = np.outer(psi, psi.conj())
    for site in range(n):
        new = np.zeros_like(rho)
        for k in _kraus(kind, p):
            left = _on_site(k, rho, site, n)
            new += _on_site(k, left.conj().T, site, n).conj().T
        rho = new
    mean, cov = mean_cov(rho, ops)
    return xi_s2_r2(n, mean, cov)
