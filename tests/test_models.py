import math

import numpy as np
import pytest
import scipy.linalg

import spinsqueeze as sq
import spinsqueeze.models
import spinsqueeze.states
import spinsqueeze.twist
from spinsqueeze.models import (
    LMGSpec,
    QNDSpec,
    extreme_squeezing_curve,
    lmg_ground,
    lmg_thermo_xi,
    qnd_conditional,
    qnd_monte_carlo,
)

from oracles import spin_matrices


class TestLmgGround:
    def test_isotropic_polarized_phase(self):
        # gamma = 1, h > 1: the ground state is the fully polarized ladder state
        st, rep = lmg_ground(LMGSpec(20, 1.5, 1.0))
        m = sq.moments(st)
        assert abs(m.mean[2] - 10.0) < 1e-10
        assert rep.xi_S2 >= 1.0 - 1e-10
        assert rep.tilde_xi_E2 <= 1.0 + 1e-12

    def test_isotropic_broken_phase_is_ladder_state(self):
        n, h = 40, 0.5
        st, rep = lmg_ground(LMGSpec(n, h, 1.0))
        m = sq.moments(st)
        m_star = round(h * n / 2.0)
        assert abs(m.mean[2] - m_star) < 1e-10
        assert abs(m.cov[2, 2]) < 1e-10
        assert abs(rep.tilde_xi_D2 - (m_star / (n / 2.0)) ** 2) < 1e-10

    def test_factorization_point_is_coherent(self):
        for n, gamma in ((64, 0.4), (100, 0.25)):
            h0 = (n - 1) / n * math.sqrt(gamma)
            _, rep = lmg_ground(LMGSpec(n, h0, gamma))
            assert abs(rep.xi_S2 - 1.0) < 1e-6

    def test_definite_parity_when_anisotropic(self):
        signs = None
        for n, h, gamma in ((30, 0.3, 0.0), (30, 1.4, 0.5), (64, 0.7, 0.2)):
            st, _ = lmg_ground(LMGSpec(n, h, gamma))
            signs = (-1.0) ** (n - np.arange(n + 1))
            par = float(signs @ (np.abs(st.amplitudes) ** 2))
            assert abs(abs(par) - 1.0) < 1e-10

    def test_thermo_convergence_gamma0(self):
        target = math.sqrt(0.5)
        devs = []
        for n in (2**7, 2**8, 2**9):
            _, rep = lmg_ground(LMGSpec(n, 2.0, 0.0))
            devs.append(abs(rep.xi_S2 - target) / target)
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 0.05

    def test_critical_point_attracts_minimum(self):
        # argmin_h xi_S^2 drifts monotonically toward h = 1 as N grows
        hs = np.linspace(0.5, 1.5, 41)
        argmins = []
        for n in (2**5, 2**6, 2**7, 2**8, 2**9):
            vals = [lmg_ground(LMGSpec(n, h, 0.0))[1].xi_S2 for h in hs]
            argmins.append(hs[int(np.argmin(vals))])
        gaps = [abs(a - 1.0) for a in argmins]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_squeezed_near_critical_point(self):
        _, rep = lmg_ground(LMGSpec(128, 1.0, 0.0))
        assert rep.xi_S2 < 1.0


def _dense_lmg_reference(n, h, gamma):
    """Dense real H and the lowest eigenpair of each parity block, by energy."""
    mats = spin_matrices(n / 2.0)
    jx, jy, jz = mats["jx"], mats["jy"], mats["jz"]
    ham = (-(jx @ jx + gamma * (jy @ jy)) / n - h * jz).real
    blocks = []
    for start in (0, 1):
        idx = np.arange(start, n + 1, 2)
        w, v = scipy.linalg.eigh(ham[np.ix_(idx, idx)])
        psi = np.zeros(n + 1)
        psi[idx] = v[:, 0]
        blocks.append((float(w[0]), psi))
    return ham, (jx, jy, jz), sorted(blocks, key=lambda b: b[0])


def _dense_xi_s2(psi, ops, n):
    """4 min perpendicular variance / N from dense operators; None without a mean spin."""
    mean = np.array([np.vdot(psi, op @ psi).real for op in ops])
    length = float(np.linalg.norm(mean))
    if length <= 1e-9 * n:
        return None
    cov = np.array(
        [[np.vdot(a @ psi, b @ psi).real for b in ops] for a in ops]
    ) - np.outer(mean, mean)
    perp = scipy.linalg.null_space((mean / length)[None, :])
    return 4.0 * float(np.linalg.eigvalsh(perp.T @ cov @ perp)[0]) / n


class TestLmgTridiagonal:
    def test_matches_dense_parity_blocks(self):
        # sizes interleaved so cached and fresh per-N tables alternate
        for gamma in (0.0, 0.37, 1.0):
            for n in (20, 2, 200, 3, 37):
                for h in (0.0, (n - 1) / n * math.sqrt(gamma), 0.9, 1.6):
                    st, rep = lmg_ground(LMGSpec(n, h, gamma))
                    ham, ops, ((e0, psi0), (e1, psi1)) = _dense_lmg_reference(n, h, gamma)
                    scale = max(1.0, abs(e0))
                    tied = e1 - e0 <= 1e-9 * scale
                    amps = st.amplitudes
                    assert np.max(np.abs(amps.imag)) == 0.0
                    candidates = [(e0, psi0)] + ([(e1, psi1)] if tied else [])
                    dist = [
                        min(np.linalg.norm(amps.real - psi), np.linalg.norm(amps.real + psi))
                        for _, psi in candidates
                    ]
                    k = int(np.argmin(dist))
                    energy, psi = candidates[k]
                    case = (n, gamma, h)
                    assert dist[k] < 1e-9, case
                    assert abs(float(amps.real @ ham @ amps.real) - energy) <= 1e-12 * scale, case
                    want = _dense_xi_s2(psi, ops, n)
                    if want is None:
                        assert rep.xi_S2 is None, case
                    else:
                        assert abs(rep.xi_S2 - want) <= 1e-9 * max(1.0, want), case

    def test_even_parity_wins_ties(self):
        # exact level crossings (gamma = 1 ladder states, factorization point)
        # and the numerically degenerate broken phase at large N
        for n, h, gamma in ((20, 0.95, 1.0), (64, 63 / 64 * 0.5, 0.25), (200, 0.0, 0.0), (37, 0.0, 0.37)):
            st, _ = lmg_ground(LMGSpec(n, h, gamma))
            signs = (-1.0) ** (n - np.arange(n + 1))
            assert abs(float(signs @ (np.abs(st.amplitudes) ** 2)) - 1.0) < 1e-10

    def test_uses_tridiagonal_solver_only(self, monkeypatch):
        def no_dense(*args, **kwargs):
            raise AssertionError("dense eigh called")

        calls = []
        tridiagonal = spinsqueeze.states.eigh_tridiagonal

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return tridiagonal(*args, **kwargs)

        # no module of the package binds a dense eigh, and the library ones raise
        for module in (spinsqueeze.models, spinsqueeze.states, spinsqueeze.twist):
            assert not hasattr(module, "eigh")
        monkeypatch.setattr(scipy.linalg, "eigh", no_dense)
        monkeypatch.setattr(np.linalg, "eigh", no_dense)
        monkeypatch.setattr(spinsqueeze.states, "eigh_tridiagonal", counting)
        for n in (2, 3, 64):
            calls.clear()
            lmg_ground(LMGSpec(n, 0.8, 0.3))
            want = [n // 2, n // 2 + 1] if n % 2 == 0 else [(n + 1) // 2] * 2
            assert sorted(calls) == want

    def test_non_finite_inputs_rejected(self):
        for kwargs, field in (
            ({"h": math.nan}, "h"),
            ({"h": -math.inf}, "h"),
            ({"lambda_coupling": math.inf}, "lambda_coupling"),
            ({"lambda_coupling": math.nan}, "lambda_coupling"),
        ):
            args = {"n": 20, "h": 0.5, "gamma_aniso": 0.3, **kwargs}
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                LMGSpec(**args)
        with pytest.raises(ValueError, match="anisotropy"):
            LMGSpec(20, 0.5, math.nan)


class TestLmgThermo:
    def test_critical_point_zero(self):
        assert lmg_thermo_xi(1.0, 0.3) == 0.0

    def test_polarized_limit(self):
        assert abs(lmg_thermo_xi(1e6, 0.3) - 1.0) < 1e-3

    def test_reference_value(self):
        assert abs(lmg_thermo_xi(2.0, 0.0) - math.sqrt(0.5)) < 1e-15

    def test_branches_continuous_at_critical_point(self):
        eps = 1e-8
        assert lmg_thermo_xi(1.0 + eps, 0.5) < 1e-3
        assert lmg_thermo_xi(1.0 - eps, 0.5) < 1e-3

    def test_isotropic_broken_rejected(self):
        with pytest.raises(ValueError):
            lmg_thermo_xi(0.5, 1.0)

    def test_finite_n_trend_matches(self):
        # finite-size values approach the closed form from above
        h, gamma = 1.8, 0.3
        want = lmg_thermo_xi(h, gamma)
        _, rep = lmg_ground(LMGSpec(2**9, h, gamma))
        assert abs(rep.xi_S2 - want) / want < 0.05


class TestExtremeSqueezing:
    def test_polarized_limit(self):
        pts = extreme_squeezing_curve(3, [1e7])
        x, f = pts[0]
        assert abs(x + 1.0) < 1e-6
        assert abs(f - 0.5) < 1e-6

    @pytest.mark.parametrize("mu_grid", [[math.nan], [math.inf], [0.5, -math.inf]])
    def test_non_finite_mu_rejected(self, mu_grid):
        with pytest.raises(ValueError, match="^mu must be finite"):
            extreme_squeezing_curve(2, mu_grid)

    def test_mu_zero_minimizes_variance_alone(self):
        j = 3
        pts = extreme_squeezing_curve(j, [0.0])
        _, f = pts[0]
        mats = spin_matrices(float(j))
        evals = np.linalg.eigvalsh(mats["jx"] @ mats["jx"])
        assert f >= evals[0] / j - 1e-12

    def test_curve_convex(self):
        mu = np.linspace(-8.0, 8.0, 41)
        pts = extreme_squeezing_curve(2, mu)
        pts = sorted(pts)
        xs = np.array([p[0] for p in pts])
        fs = np.array([p[1] for p in pts])
        for i in range(1, len(pts) - 1):
            lam = (xs[i] - xs[i - 1]) / (xs[i + 1] - xs[i - 1])
            chord = (1 - lam) * fs[i - 1] + lam * fs[i + 1]
            assert fs[i] <= chord + 1e-9

    def test_lower_bounds_random_states(self):
        j = 2
        mu = np.linspace(-30.0, 30.0, 41)
        pts = sorted(extreme_squeezing_curve(j, mu))
        xs = np.array([p[0] for p in pts])
        fs = np.array([p[1] for p in pts])
        mats = spin_matrices(float(j))
        jx, jz = mats["jx"], mats["jz"]
        jx2 = jx @ jx
        rng = np.random.default_rng(5)
        for _ in range(10**4):
            psi = rng.normal(size=5) + 1j * rng.normal(size=5)
            psi /= np.linalg.norm(psi)
            x = float(np.vdot(psi, jz @ psi).real) / j
            var = (np.vdot(psi, jx2 @ psi).real - np.vdot(psi, jx @ psi).real ** 2) / j
            mask = np.abs(xs - x) <= 0.01
            if not mask.any():
                continue
            assert var >= fs[mask].min() - 1e-9

    def test_matches_dense_ground_states(self):
        # spins interleaved so cached and fresh per-N tables alternate
        mu_grid = np.linspace(-30.0, 30.0, 61)
        for j in (1, 4, 2, 6, 3):
            m = j - np.arange(2 * j + 1.0)
            jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)
            jx = (jp + jp.T) / 2.0
            jz = np.diag(m)
            for mu, (x, f) in zip(mu_grid, extreme_squeezing_curve(j, mu_grid)):
                w, v = np.linalg.eigh(mu * jz + jx @ jx)
                assert w[1] - w[0] > 1e-6, (j, mu)  # the dense ground state is unique
                g = v[:, 0]
                want_x = g @ jz @ g / j
                want_f = (g @ jx @ jx @ g - (g @ jx @ g) ** 2) / j
                assert abs(x - want_x) < 1e-12, (j, mu)
                assert abs(f - want_f) < 1e-12, (j, mu)

    def test_half_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            extreme_squeezing_curve(1.5, [0.0])


class TestQnd:
    def test_no_measurement_no_squeezing(self):
        res = qnd_conditional(QNDSpec(100, 1, 0.0))
        assert res.xi_r2 == 1.0

    def test_reference_decibels(self):
        # kappa^2 = 1.6 gives a 4.1 dB projection-noise reduction
        spec = QNDSpec(10000, 256000, 5e-5, 0.0)
        res = qnd_conditional(spec)
        assert abs(res.kappa2 - 1.6) < 1e-12
        db = 10.0 * math.log10(1.0 / res.xi_r2)
        assert abs(db - 4.0) < 0.2
        assert res.gaussian_regime

    def test_loss_degraded_value(self):
        spec = QNDSpec(10000, 256000, 5e-5, 0.14)
        res = qnd_conditional(spec)
        db = 10.0 * math.log10(1.0 / res.xi_r2_with_loss)
        assert abs(db - 2.8) < 0.1

    def test_eta_bounds(self):
        with pytest.raises(ValueError):
            QNDSpec(10, 10, 0.1, 1.0)

    def test_monte_carlo_matches_closed_form(self):
        spec = QNDSpec(10000, 256000, 5e-5, 0.0)
        ratio, stderr = qnd_monte_carlo(spec, 10**5, seed=20240707)
        want = qnd_conditional(spec).xi_r2
        assert abs(ratio - want) <= 3.0 * stderr

    def test_monte_carlo_deterministic(self):
        spec = QNDSpec(4000, 64000, 1e-4, 0.0)
        a = qnd_monte_carlo(spec, 2000, seed=7)
        b = qnd_monte_carlo(spec, 2000, seed=7)
        assert a == b
