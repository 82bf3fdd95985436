"""Brute-force reference implementations used to validate the Dicke-basis code.

Everything here works in the full 2^N tensor-product space or with dense
(N+1)x(N+1) spin matrices, and imports nothing from the package, so
agreement between the two routes is a real check.
"""

import math
from math import comb

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SP = (SX + 1j * SY) / 2.0
SM = (SX - 1j * SY) / 2.0
ID2 = np.eye(2, dtype=complex)


def spin_matrices(j: float) -> dict:
    """Dense J_x, J_y, J_z, J_+ and J_- of one spin of size j, in the basis
    order m = +j down to -j, from <j,m+1| J_+ |j,m> = sqrt(j(j+1) - m(m+1))."""
    dim = int(round(2 * j)) + 1
    if j <= 0 or abs(2 * j - (dim - 1)) > 1e-9:
        raise ValueError(f"spin size j={j!r} must be a positive integer or half-integer")
    m = j - np.arange(dim)
    jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    jm = jp.conj().T
    jz = np.diag(m).astype(complex)
    return {"jx": (jp + jm) / 2.0, "jy": (jp - jm) / 2.0j, "jz": jz, "jp": jp, "jm": jm}


def site_op(op: np.ndarray, i: int, n: int) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for k in range(n):
        out = np.kron(out, op if k == i else ID2)
    return out


def collective_ops(n: int):
    jx = sum(site_op(SX, i, n) for i in range(n)) / 2.0
    jy = sum(site_op(SY, i, n) for i in range(n)) / 2.0
    jz = sum(site_op(SZ, i, n) for i in range(n)) / 2.0
    return jx, jy, jz


def dicke_to_full(state) -> np.ndarray:
    """Embed a Dicke-basis amplitude vector into the 2^N product space."""
    n = state.n_particles
    out = np.zeros(2**n, dtype=complex)
    for b in range(2**n):
        k = bin(b).count("1")  # number of down spins
        out[b] = state.amplitudes[k] / math.sqrt(comb(n, k))
    return out


def full_mean_corr(psi: np.ndarray, n: int):
    ops = collective_ops(n)
    mean = np.array([np.vdot(psi, o @ psi).real for o in ops])
    corr = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            corr[a, b] = np.vdot(psi, (ops[a] @ ops[b] + ops[b] @ ops[a]) @ psi).real / 2.0
    return mean, corr


def rdm2_standard(rho_or_psi: np.ndarray, n: int) -> np.ndarray:
    """Two-qubit reduced state of qubits (0, 1) in the basis {00,01,10,11}."""
    if rho_or_psi.ndim == 1:
        rho = np.outer(rho_or_psi, rho_or_psi.conj())
    else:
        rho = rho_or_psi
    d = 2 ** (n - 2)
    r = rho.reshape(2, 2, d, 2, 2, d)
    return np.einsum("abi cdi -> abcd", r).reshape(4, 4)


def reduced_rho(psi: np.ndarray, n: int, keep: int) -> np.ndarray:
    """Reduced state of the first ``keep`` qubits of a pure N-qubit state."""
    rest = 2 ** (n - keep)
    m = psi.reshape(2**keep, rest)
    return m @ m.conj().T


def local_from_rdm2(rho2: np.ndarray) -> dict:
    val = lambda a: complex(np.trace(rho2 @ a))
    return {
        "sz": val(np.kron(SZ, ID2)).real,
        "szsz": val(np.kron(SZ, SZ)).real,
        "spsm": val(np.kron(SP, SM)).real,
        "smsm": val(np.kron(SM, SM)),
        "sdots": sum(val(np.kron(s, s)).real for s in (SX, SY, SZ)),
    }


def apply_kraus_iid(rho: np.ndarray, kraus: list, n: int) -> np.ndarray:
    """Apply a single-qubit channel independently to every qubit."""
    for i in range(n):
        acc = np.zeros_like(rho)
        for k in kraus:
            kf = site_op(k, i, n)
            acc += kf @ rho @ kf.conj().T
        rho = acc
    return rho


def mixed_mean_corr(rho: np.ndarray, n: int):
    ops = collective_ops(n)
    mean = np.array([np.trace(rho @ o).real for o in ops])
    corr = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            corr[a, b] = np.trace(rho @ (ops[a] @ ops[b] + ops[b] @ ops[a])).real / 2.0
    return mean, corr


def min_variance_scan(mean: np.ndarray, cov_fn, n_samples: int, rng) -> float:
    """Minimum variance over randomly sampled transverse directions."""
    length = np.linalg.norm(mean)
    n0 = mean / length
    # an orthonormal transverse pair
    trial = np.array([1.0, 0.0, 0.0])
    if abs(trial @ n0) > 0.9:
        trial = np.array([0.0, 1.0, 0.0])
    e1 = trial - (trial @ n0) * n0
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n0, e1)
    angles = rng.uniform(0.0, math.pi, size=n_samples)
    best = math.inf
    for a in angles:
        d = math.cos(a) * e1 + math.sin(a) * e2
        best = min(best, cov_fn(d))
    return best


def min_direction_scan(fn, coarse: int = 200, zooms: int = 3) -> float:
    """Minimum of fn(direction) over the sphere by a zooming grid scan."""

    def direction(theta, phi):
        return np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )

    t_lo, t_hi, p_lo, p_hi = 0.0, math.pi, 0.0, 2.0 * math.pi
    best = (math.inf, 0.0, 0.0)
    for _ in range(zooms + 1):
        ts = np.linspace(t_lo, t_hi, coarse)
        ps = np.linspace(p_lo, p_hi, coarse)
        for t in ts:
            for p in ps:
                v = fn(direction(t, p))
                if v < best[0]:
                    best = (v, t, p)
        dt, dp = (t_hi - t_lo) / coarse, (p_hi - p_lo) / coarse
        t_lo, t_hi = best[1] - 2 * dt, best[1] + 2 * dt
        p_lo, p_hi = best[2] - 2 * dp, best[2] + 2 * dp
    return best[0]


def dense_triad_margins(state, frame):
    """(ghz3, threeq_a, threeq_b) margins on one frame from dense spin
    matrices and explicit operator products, each the smallest over the six
    orderings of the frame rows: the reference for the banded third moments.
    """
    import itertools

    n = state.n_particles
    mats = spin_matrices(n / 2.0)
    c = state.amplitudes

    def jmat(direction):
        return (
            direction[0] * mats["jx"] + direction[1] * mats["jy"] + direction[2] * mats["jz"]
        )

    def expect(matrix) -> float:
        return float(np.vdot(c, matrix @ c).real)

    ghz3_margin = threeq_a_margin = threeq_b_margin = math.inf
    for perm in itertools.permutations(range(3)):
        j1 = jmat(frame[perm[0]])
        j2 = jmat(frame[perm[1]])
        j3 = jmat(frame[perm[2]])
        j1_m, j3_m = expect(j1), expect(j3)
        j1_sq, j2_sq, j3_sq = expect(j1 @ j1), expect(j2 @ j2), expect(j3 @ j3)
        j1_cub = expect(j1 @ j1 @ j1)
        j3_cub = expect(j3 @ j3 @ j3)
        j212 = expect(j2 @ j1 @ j2)
        j232 = expect(j2 @ j3 @ j2)
        j131 = expect(j1 @ j3 @ j1)
        ghz3 = (
            -j1_cub / 3.0
            + j212
            - (n - 2) / 2.0 * j3_sq
            + j1_m / 3.0
            + n * (n - 1) * (5 * n - 2) / 24.0
        )
        th_a = (
            j3_cub
            - 2.0 * j232
            - 2.0 * j131
            - (n - 2) / 2.0 * (2.0 * j1_sq + 2.0 * j2_sq - j3_sq)
            - (n**2 - 4 * n + 8) / 4.0 * j3_m
            + n * (n - 2) * (13 * n - 4) / 24.0
        )
        th_b = (
            -j1_cub / 3.0
            + j212
            - (n - 2) / 2.0 * j3_sq
            + j1_m / 3.0
            + n**2 * (n - 2) / 8.0
        )
        ghz3_margin = min(ghz3_margin, ghz3)
        threeq_a_margin = min(threeq_a_margin, th_a)
        threeq_b_margin = min(threeq_b_margin, th_b)
    return ghz3_margin, threeq_a_margin, threeq_b_margin


def dense_two_qubit_margin(state, directions) -> float:
    """Smallest 1 - 4<J_n>^2/N^2 - 4 (Delta J_n)^2/N over ``directions``,
    from dense spin matrices."""
    n = state.n_particles
    mats = spin_matrices(n / 2.0)
    c = state.amplitudes
    best = math.inf
    for d in directions:
        j = d[0] * mats["jx"] + d[1] * mats["jy"] + d[2] * mats["jz"]
        mean = float(np.vdot(c, j @ c).real)
        var = float(np.vdot(c, j @ j @ c).real) - mean**2
        best = min(best, 1.0 - 4.0 * mean**2 / n**2 - 4.0 * var / n)
    return best


def husimi_per_point(state, grid) -> np.ndarray:
    """Husimi Q by the per-point log-space formula: one coherent-state row
    of magnitudes and phases per grid point, then one overlap each."""
    from scipy.special import gammaln

    pts = np.asarray(list(grid), dtype=float)
    if pts.size == 0:
        return np.zeros(0)
    th, ph = pts[:, 0], pts[:, 1]
    n = state.n_particles
    j = n / 2.0
    k = np.arange(n + 1, dtype=float)
    m = j - k
    logb = 0.5 * (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))
    c_half = np.cos(th / 2.0)[:, None]
    s_half = np.sin(th / 2.0)[:, None]
    exp_c = (j + m)[None, :]
    exp_s = k[None, :]
    zero = ((c_half == 0.0) & (exp_c > 0)) | ((s_half == 0.0) & (exp_s > 0))
    log_mag = (
        logb[None, :]
        + np.where(exp_c > 0, exp_c * np.log(np.maximum(c_half, 1e-300)), 0.0)
        + np.where(exp_s > 0, exp_s * np.log(np.maximum(s_half, 1e-300)), 0.0)
    )
    mag = np.where(zero, 0.0, np.exp(log_mag))
    phase = np.exp(-1j * k[None, :] * ph[:, None])
    overlap = (mag * phase) @ state.amplitudes
    return np.abs(overlap) ** 2
