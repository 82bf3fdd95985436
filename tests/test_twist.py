import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import spinsqueeze as sq
from spinsqueeze import states, twist
from spinsqueeze.states import dicke, local_moments, moments
from spinsqueeze.metrics import compute_report, parity_shortcuts
from spinsqueeze.twist import (
    OAT_TRANSVERSE,
    OAT_X,
    OAT_Z,
    TAT,
    HamiltonianSpec,
    KickedTopSpec,
    evolve,
    kicked_top_trajectory,
    oat_closed_form,
    oat_concurrence,
    oat_state,
    optimal_oat,
    tat_minimum,
)

from oracles import collective_ops, dicke_to_full, local_from_rdm2, rdm2_standard, spin_matrices


class TestOatClosedForm:
    @pytest.mark.parametrize("closed_form", [oat_closed_form, oat_concurrence])
    def test_fractional_n_refused(self, closed_form):
        with pytest.raises(ValueError, match="integer N"):
            closed_form(6.5, 0.3)
        assert closed_form(6.0, 0.3) == closed_form(6, 0.3)

    def test_untwisted_is_south_pole(self):
        lm = oat_closed_form(8, 0.0)
        assert lm.sz == -1.0
        assert lm.szsz == 1.0
        assert lm.spsm == 0.0
        assert lm.smsm == 0.0

    def test_matches_dicke_numerics_n12(self):
        lm = oat_closed_form(12, 0.3)
        got = local_moments(oat_state(12, 0.3))
        assert abs(got.sz - lm.sz) < 1e-12
        assert abs(got.szsz - lm.szsz) < 1e-12
        assert abs(got.spsm - lm.spsm) < 1e-12
        assert abs(got.smsm - lm.smsm) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_tensor_oracle(self, n):
        theta = 1.234
        psi = dicke_to_full(oat_state(n, theta))
        want = local_from_rdm2(rdm2_standard(psi, n))
        lm = oat_closed_form(n, theta)
        assert abs(lm.sz - want["sz"]) < 1e-12
        assert abs(lm.szsz - want["szsz"]) < 1e-12
        assert abs(lm.spsm - want["spsm"]) < 1e-12
        assert abs(lm.smsm - want["smsm"]) < 1e-12

    def test_sweep_against_numerics(self):
        for n in (2, 3, 17, 60):
            for theta in np.linspace(0.1, 3.0, 7):
                lm = oat_closed_form(n, theta)
                got = local_moments(oat_state(n, theta))
                assert abs(got.smsm - lm.smsm) < 1e-10
                assert abs(got.sz - lm.sz) < 1e-10


class TestOatConcurrence:
    def test_zero_at_origin(self):
        assert oat_concurrence(7, 0.0) == 0.0

    def test_xi_identity_sweep(self):
        for n in (4, 9, 30):
            for theta in np.linspace(0.05, 2 * math.pi - 0.05, 13):
                xi = parity_shortcuts(oat_closed_form(n, theta)).xi_S2
                assert abs(xi - (1.0 - (n - 1) * oat_concurrence(n, theta))) < 1e-12

    def test_matches_spin_flip_concurrence(self):
        # compare against the general spin-flip eigenvalue route at N=4
        n, theta = 4, 0.5
        rho2 = rdm2_standard(dicke_to_full(oat_state(n, theta)), n)
        want = sq.concurrence_general(rho2)
        assert abs(oat_concurrence(n, theta) - want) < 1e-9


class TestEvolve:
    def test_zero_time_identity(self):
        st = sq.css(6, 0.9, 0.4)
        out = evolve(st, HamiltonianSpec(OAT_X, 1.0), 0.0)
        assert np.max(np.abs(out.amplitudes - st.amplitudes)) < 1e-14

    def test_oat_z_is_diagonal_phase(self):
        st = sq.css(5, 1.0, 0.0)
        out = evolve(st, HamiltonianSpec(OAT_Z, 0.7), 0.9)
        from spinsqueeze.states import m_values

        m = m_values(5)
        want = np.exp(-1j * 0.7 * 0.9 * m**2) * st.amplitudes
        assert np.max(np.abs(out.amplitudes - want)) < 1e-13

    def test_oat_x_against_tensor_oracle(self):
        n, chi_t = 5, 0.37
        st = evolve(dicke(n, -n / 2.0), HamiltonianSpec(OAT_X, 1.0), chi_t)
        jx, _, _ = collective_ops(n)
        w, v = np.linalg.eigh(jx)
        u = v @ np.diag(np.exp(-1j * chi_t * w**2)) @ v.conj().T
        want = u @ dicke_to_full(dicke(n, -n / 2.0))
        got = dicke_to_full(st)
        phase = want[np.argmax(np.abs(want))] / got[np.argmax(np.abs(want))]
        assert np.max(np.abs(got * phase - want)) < 1e-12

    def test_norm_preserved(self):
        st = dicke(40, -20.0)
        for kind, b in ((OAT_X, 0.0), (TAT, 0.0), (OAT_TRANSVERSE, 1.5)):
            out = evolve(st, HamiltonianSpec(kind, 1.0, b), 0.31)
            assert out.norm_error() < 1e-12

    def test_nonfinite_rejected(self):
        st = dicke(4, -2.0)
        with pytest.raises(ValueError):
            evolve(st, HamiltonianSpec(OAT_X, 1.0), math.inf)

    @pytest.mark.parametrize("kind", [OAT_X, OAT_Z, TAT, OAT_TRANSVERSE])
    @pytest.mark.parametrize("chi, t", [(1e307, 1.0), (1.0, 1e307)])
    def test_overflowing_phase_rejected(self, kind, chi, t):
        # chi j(j+1) t overflows: refused before the generator or the phases
        # are built, so NumPy never warns
        st = dicke(20, -10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^chi\*t = "):
                evolve(st, HamiltonianSpec(kind, chi), t)

    @pytest.mark.parametrize("field_b", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field_b):
        # refused at the spec, before the parity-block solver sees it
        with pytest.raises(ValueError, match="^field_b must be finite"):
            HamiltonianSpec(OAT_TRANSVERSE, 1.0, field_b)

    def test_parity_conserved(self):
        n = 8
        st = dicke(n, -4.0)
        signs = (-1.0) ** (n - np.arange(n + 1))
        for kind in (OAT_X, TAT):
            out = evolve(st, HamiltonianSpec(kind, 1.0), 0.7)
            par = float(signs @ (np.abs(out.amplitudes) ** 2))
            assert abs(par - 1.0) < 1e-12

    def test_tat_constant_of_motion(self):
        n = 60
        st = dicke(n, -30.0)
        for chi_t in (0.1, 0.2, 0.3):
            out = evolve(st, HamiltonianSpec(TAT, 1.0), chi_t)
            m = moments(out)
            assert abs(2.0 * m.corr[0, 1]) < 1e-10  # <JxJy + JyJx> stays zero

    @pytest.mark.parametrize("kind, chi, field_b", [(TAT, 0.8, 0.0), (OAT_TRANSVERSE, 0.6, 1.7),
                                                    (OAT_X, 1.3, 0.0)])
    def test_matches_dense_expm(self, kind, chi, field_b):
        h = HamiltonianSpec(kind, chi, field_b)
        for n in (9, 24, 9):  # the second N = 9 pass reads the cached decomposition
            mats = spin_matrices(n / 2.0)
            jx, jy, jz = mats["jx"], mats["jy"], mats["jz"]
            ham = {TAT: chi * (jx @ jy + jy @ jx), OAT_TRANSVERSE: chi * jx @ jx + field_b * jz,
                   OAT_X: chi * jx @ jx}[kind]
            rng = np.random.default_rng(n)
            st = sq.SymmetricState.normalized(n, rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
            for t in (0.05, 0.4, 1.3, 7.0):
                want = expm(-1j * t * ham) @ st.amplitudes
                got = evolve(st, h, t).amplitudes
                assert np.max(np.abs(got - want)) < 1e-12 * n * max(1.0, chi * t)

    def test_cached_decomposition_read_only(self):
        for spec in (HamiltonianSpec(TAT, 1.0), HamiltonianSpec(OAT_TRANSVERSE, 1.0, 0.5)):
            blocks, _ = twist._eigensystem(11, spec)
            for arr in (arr for _, _, w, v in blocks for arr in (w, v)):
                assert not arr.flags.writeable

    def test_tat_optimal_angle_locked(self):
        n = 40
        st = dicke(n, -20.0)
        from spinsqueeze.metrics import min_transverse_variance

        for chi_t in np.linspace(0.005, 0.08, 6):
            m = moments(evolve(st, HamiltonianSpec(TAT, 1.0), chi_t))
            _, ang = min_transverse_variance(m)
            dist = min(abs(ang), abs(ang - math.pi / 2.0), abs(ang - math.pi))
            assert dist < 1e-6

    def test_driven_oat_improves_windowed_minimum(self):
        # documented parameter set: N=20, chi=1, B=2, window chi*t in (0, 3*theta_0]
        n = 20
        theta0 = 12.0 ** (1.0 / 6.0) * (n / 2.0) ** (-2.0 / 3.0)
        st = dicke(n, -10.0)
        ts = np.linspace(3.0 * theta0 / 200, 3.0 * theta0, 200)

        def windowed_min(spec):
            vals = []
            for t in ts:
                rep = compute_report(moments(evolve(st, spec, t)))
                vals.append(rep.xi_S2 if rep.xi_S2 is not None else math.inf)
            return min(vals)

        plain = windowed_min(HamiltonianSpec(OAT_X, 1.0))
        driven = windowed_min(HamiltonianSpec(OAT_TRANSVERSE, 1.0, 2.0))
        assert driven < plain


class TestOatScaling:
    def test_optimal_angle_near_prediction(self):
        n = 1000
        res = optimal_oat(n)
        theta0 = 12.0 ** (1.0 / 6.0) * (n / 2.0) ** (-2.0 / 3.0)
        assert abs(res.theta_star - theta0) / theta0 < 0.15

    def test_minimum_scaling_exponent(self):
        ns = [100, 316, 1000, 3162, 10000]
        mins = [optimal_oat(n).xi_s2_star for n in ns]
        slope = np.polyfit(np.log(ns), np.log(mins), 1)[0]
        assert -0.73 < slope < -0.60

    def test_squeezing_angle_scaling(self):
        # the tilt follows (1/2) arctan(c N^(-1/3)); the printed asymptotic
        # drops the order-one constant c, so assert the scaling law and a
        # factor-2 agreement instead of a tight match
        ns = [100, 1000, 10000]
        deltas = [optimal_oat(n).delta_star for n in ns]
        slope = np.polyfit(np.log(ns), np.log(deltas), 1)[0]
        assert -0.40 < slope < -0.27
        pred = 0.5 * math.atan(1000 ** (-1.0 / 3.0))
        assert pred < deltas[1] < 2.0 * pred

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            optimal_oat(4)


class TestOatProperties:
    def test_czz_nonnegative(self):
        for n in (3, 8, 25):
            for theta in np.linspace(0.0, 2.0 * math.pi, 41):
                lm = oat_closed_form(n, theta)
                czz = lm.szsz - lm.sz**2
                assert czz >= -1e-12

    def test_tilde_e_equals_xi_s(self):
        for theta in np.linspace(0.1, 2.0, 8):
            res = parity_shortcuts(oat_closed_form(14, theta))
            assert abs(res.tilde_xi_E2 - min(res.xi_S2, res.varsigma2)) < 1e-12
            if res.xi_S2 < 1.0:
                assert res.tilde_xi_E2 == pytest.approx(res.xi_S2, abs=1e-12)

    def test_closed_forms_wide_n(self):
        for n in (100, 200):
            for theta in np.linspace(0.02, 1.2, 5):
                got = local_moments(oat_state(n, theta))
                lm = oat_closed_form(n, theta)
                assert abs(got.smsm - lm.smsm) < 1e-10


def _count_decompositions(monkeypatch) -> list:
    """Shapes of the tridiagonal eigensolver calls made from now on, under a
    generator cache that keeps nothing."""
    calls = []
    real = states.eigh_tridiagonal

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(states, "eigh_tridiagonal", counting)
    monkeypatch.setattr(states, "_GENERATOR_EIGEN", states._EigenCache(1))
    return calls


class TestTat:
    def test_minimum_scaling(self):
        ns = [20, 60, 140, 200]
        mins = [tat_minimum(n)[1] for n in ns]
        slope = np.polyfit(np.log(ns), np.log(mins), 1)[0]
        assert -1.1 < slope < -0.9

    @pytest.mark.parametrize("n", [500, 1000])
    def test_minimum_matches_fine_log_scan(self, n):
        # the dip lies below chi*t = pi/400 here, where a linear scan from
        # pi/400 starts past it
        south = dicke(n, -n / 2.0)
        ham = HamiltonianSpec(TAT, 1.0)
        fine = min(
            compute_report(moments(evolve(south, ham, chi_t))).xi_S2
            for chi_t in np.geomspace(0.1 / n, math.pi / 2.0, 4000)
        )
        _, xi = tat_minimum(n)
        assert fine * (1.0 - 2e-5) < xi <= fine

    def test_search_decomposes_once(self, monkeypatch):
        want = tat_minimum(40)
        calls = _count_decompositions(monkeypatch)
        assert tat_minimum(40) == want
        assert calls == [(21,), (20,)]  # one per parity block


class TestKickedTop:
    def setup_method(self):
        self.spec = KickedTopSpec(kappa=3.0, j=25.0)

    def traj(self, phi0, kicks):
        initial = sq.css(50, 2.25, phi0)
        return kicked_top_trajectory(initial, self.spec, kicks)

    def test_deep_chaos_vanishes_by_two(self):
        res = self.traj(-1.0, 60)
        assert res.vanishing_step is not None and res.vanishing_step <= 2

    def test_shallow_chaos_vanishes_by_four_no_revival(self):
        res = self.traj(0.0, 60)
        assert res.vanishing_step == 4
        assert all(r.xi_S2 is None or r.xi_S2 >= 1.0 for r in res.reports[4:])

    def test_regular_region_long_lived(self):
        # revivals persist far beyond 100 kicks; the horizon must cover them
        res = self.traj(0.5, 400)
        assert res.vanishing_step is None or res.vanishing_step > 100

    def test_spec_must_match_state(self):
        with pytest.raises(ValueError):
            kicked_top_trajectory(sq.css(10, 2.25, 0.5), self.spec, 3)

    @pytest.mark.parametrize("field", ["kappa", "p"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_spec_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            KickedTopSpec(**{"kappa": 3.0, "j": 25.0, field: value})

    @pytest.mark.parametrize("kappa", [1e308, -1e308, 2e307])
    def test_overflowing_twist_phase_rejected(self, kappa):
        # kappa j/2 overflows although kappa itself is finite
        with pytest.raises(ValueError, match="kappa"):
            KickedTopSpec(kappa=kappa, j=25.0)
        KickedTopSpec(kappa=1e300, j=25.0)

    def test_reports_and_means_align(self):
        res = self.traj(0.63, 5)
        assert len(res.reports) == 5
        assert res.means.shape == (5, 3)

    def test_trajectory_holds_its_decomposition(self, monkeypatch):
        want = self.traj(0.63, 12)
        calls = _count_decompositions(monkeypatch)
        got = self.traj(0.63, 12)
        assert calls == [(51,)]
        assert got.reports == want.reports
        assert np.array_equal(got.means, want.means)
        assert got.vanishing_step == want.vanishing_step

    def test_one_decomposition_per_trajectory(self, monkeypatch):
        calls = []
        real = states.eigh_tridiagonal

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(states, "eigh_tridiagonal", counting)
        monkeypatch.setattr(states, "_GENERATOR_EIGEN", states._EigenCache(states._EIGEN_CACHE_BYTES))
        res = self.traj(0.63, 12)
        assert len(res.reports) == 12
        assert calls == [(51,)]
