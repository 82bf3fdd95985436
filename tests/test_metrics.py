import math

import numpy as np
import pytest

import spinsqueeze as sq
from spinsqueeze.states import MomentSet, collective_from_local
from spinsqueeze.metrics import (
    bosonic_principal,
    compute_report,
    mean_spin_direction,
    min_transverse_variance,
    parity_shortcuts,
    transverse_frame,
    xi_d2_directional,
    xi_e2_directional,
    xi_h2_directional,
    xi_hprime2_directional,
    xi_rprime2_directional,
)

from oracles import min_variance_scan


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return sq.SymmetricState.normalized(n, amps)


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis, rng.uniform(0.0, 2.0 * math.pi)


class TestMeanSpinDirection:
    def test_css_round_trip(self):
        for theta, phi in [(0.7, 0.3), (2.1, 4.4), (1.3, 5.9)]:
            m = sq.moments(sq.css(9, theta, phi))
            t, p, ok = mean_spin_direction(m)
            assert ok
            assert abs(t - theta) < 1e-9
            assert abs(p - phi) < 1e-9

    def test_ghz_undefined(self):
        m = sq.moments(sq.ghz_y(6))
        _, _, ok = mean_spin_direction(m)
        assert not ok

    def test_south_pole_convention(self):
        m = sq.moments(sq.css(5, math.pi, 0.9))
        t, p, ok = mean_spin_direction(m)
        assert ok
        assert abs(t - math.pi) < 1e-12
        assert p == 0.0


class TestMinTransverseVariance:
    def test_css_value(self):
        lam, _ = min_transverse_variance(sq.moments(sq.css(12, 1.0, 0.4)))
        assert abs(lam - 3.0) < 1e-10  # N/4

    def test_parity_state_formula(self):
        # lambda_- = (<Jx^2 + Jy^2> - |<J_-^2>|)/2 for parity states
        st = sq.oat_state(10, 0.6)
        m = sq.moments(st)
        lam, _ = min_transverse_variance(m)
        jperp2 = m.corr[0, 0] + m.corr[1, 1]
        jm2 = abs((m.corr[0, 0] - m.corr[1, 1]) - 2.0j * m.corr[0, 1])
        assert abs(lam - (jperp2 - jm2) / 2.0) < 1e-10

    def test_matches_dense_angle_scan(self):
        st = random_state(4, 77)
        m = sq.moments(st)
        lam, _ = min_transverse_variance(m)
        rng = np.random.default_rng(0)
        best = min_variance_scan(m.mean, lambda d: float(d @ m.cov @ d), 10**6, rng)
        assert lam <= best + 1e-12
        assert best - lam < 1e-8

    def test_undefined_msd_raises(self):
        with pytest.raises(ValueError):
            min_transverse_variance(sq.moments(sq.ghz_y(4)))

    def test_opt_angle_minimizes(self):
        st = random_state(6, 5)
        m = sq.moments(st)
        lam, ang = min_transverse_variance(m)
        t, p, _ = mean_spin_direction(m)
        _, n1, n2 = transverse_frame(t, p)
        d = math.cos(ang) * n1 + math.sin(ang) * n2
        assert abs(float(d @ m.cov @ d) - lam) < 1e-12


def count_direction_calls(monkeypatch) -> list:
    """Patch every module binding of mean_spin_direction with a counting
    wrapper; the returned list grows by one entry per call."""
    from spinsqueeze import entangle, metrics

    calls = []
    real = metrics.mean_spin_direction

    def counted(mset):
        calls.append(mset)
        return real(mset)

    for mod in (metrics, entangle):
        monkeypatch.setattr(mod, "mean_spin_direction", counted, raising=False)
    return calls


class TestSqueezingFrameOnce:
    def test_report_finds_direction_once(self, monkeypatch):
        calls = count_direction_calls(monkeypatch)
        rep = compute_report(sq.moments(sq.oat_state(12, 0.3)))
        assert rep.msd_defined and len(calls) == 1

    def test_criteria_find_direction_once(self, monkeypatch):
        calls = count_direction_calls(monkeypatch)
        sq.evaluate_criteria(sq.oat_state(12, 0.3))
        assert len(calls) == 1


class TestReportCss:
    def test_all_unit_parameters(self):
        rep = compute_report(sq.moments(sq.css(8, 1.0, 0.5)))
        for name in ("xi_S2", "xi_R2", "xi_Rprime2", "xi_D2", "xi_E2", "xi_Hdoubleprime2",
                     "tilde_xi_Rprime2", "tilde_xi_D2", "tilde_xi_E2"):
            assert abs(getattr(rep, name) - 1.0) < 1e-10, name
        assert abs(rep.xi_H2 - 1.0) < 1e-10
        assert abs(rep.xi_Hprime2 - 1.0) < 1e-10

    def test_directional_css_formulas(self):
        # general-direction variants reproduce the coherent-state columns
        n, theta, phi = 6, 1.1, 0.8
        m = sq.moments(sq.css(n, theta, phi))
        n0 = m.mean / np.linalg.norm(m.mean)
        rng = np.random.default_rng(3)
        for _ in range(20):
            n1 = rng.normal(size=3)
            n1 /= np.linalg.norm(n1)
            n2 = np.cross(n1, rng.normal(size=3))
            n2 /= np.linalg.norm(n2)
            n3 = np.cross(n1, n2)
            if min(abs(float(n0 @ n2)), abs(float(n0 @ n1))) < 1e-2:
                continue
            c01 = float(n0 @ n1)
            want_h = (1.0 - c01**2) / abs(float(n0 @ n2))
            assert abs(xi_h2_directional(m, n1, n2) - want_h) < 1e-9
            denom = math.hypot(float(n0 @ n2), float(n0 @ n3))
            want_hp = (1.0 - c01**2) / denom
            assert abs(xi_hprime2_directional(m, n1, n2, n3) - want_hp) < 1e-9
            want_rp = (1.0 - c01**2) / (float(n0 @ n2) ** 2 + float(n0 @ n3) ** 2)
            assert abs(xi_rprime2_directional(m, n1, n2, n3) - want_rp) < 1e-9
            assert abs(xi_d2_directional(m, n1) - 1.0) < 1e-9
            assert abs(xi_e2_directional(m, n1) - 1.0) < 1e-9


class TestReportDicke:
    def test_entangled_dicke_values(self):
        n, m_val = 8, 2.0
        j = n / 2.0
        rep = compute_report(sq.moments(sq.dicke(n, m_val)))
        assert abs(rep.tilde_xi_D2 - m_val**2 / j**2) < 1e-12
        assert abs(rep.tilde_xi_E2 - m_val**2 / j**2) < 1e-12
        assert abs(rep.tilde_xi_Rprime2 - 1.0) < 1e-12
        want_s = 1.0 + (j**2 - m_val**2) / j
        assert abs(rep.xi_S2 - want_s) < 1e-12
        assert abs(rep.xi_R2 - (j / m_val) ** 2 * want_s) < 1e-12
        assert rep.xi_R2 >= 1.0

    def test_central_dicke_partial_report(self):
        rep = compute_report(sq.moments(sq.dicke(4, 0.0)))
        assert not rep.msd_defined
        assert rep.xi_S2 is None and rep.xi_R2 is None
        assert abs(rep.tilde_xi_D2) < 1e-12  # m = 0
        assert rep.xi_singlet2 is not None

    def test_singlet_criterion_two_qubits(self):
        # two-qubit singlet: total variance zero, xi_singlet^2 = 0
        amps = np.zeros(3, dtype=complex)  # j=1 triplet sector has no singlet,
        # so build the criterion value from a synthetic moment set instead
        mean = np.zeros(3)
        corr = np.zeros((3, 3))
        mset = MomentSet(2, mean, corr)
        rep = compute_report(mset)
        assert abs(rep.xi_singlet2) < 1e-12


class TestOrderingAndInvariance:
    def test_ordering_chain(self):
        for seed in range(12):
            m = sq.moments(random_state(7, seed))
            rep = compute_report(m)
            for name in ("xi_S2", "xi_R2", "tilde_xi_D2", "tilde_xi_E2", "xi_singlet2",
                         "xi_D2", "xi_E2", "xi_H2", "xi_Hprime2", "xi_Hdoubleprime2"):
                value = getattr(rep, name)
                assert value is None or value >= 0.0
            if not rep.msd_defined:
                continue
            assert rep.xi_S2 <= rep.xi_Hdoubleprime2 + 1e-10
            assert rep.xi_Hdoubleprime2 <= rep.xi_R2 + 1e-10

    def test_heisenberg_bound(self):
        for seed in range(12):
            rep = compute_report(sq.moments(random_state(6, 50 + seed)))
            if rep.xi_R2 is not None:
                assert rep.xi_R2 >= 1.0 / 6.0 - 1e-10

    def test_rotation_invariance_of_tilde_family(self):
        rng = np.random.default_rng(8)
        st = sq.oat_state(8, 0.5)
        base = compute_report(sq.moments(st))
        for _ in range(6):
            axis, angle = random_rotation(rng)
            rot = compute_report(sq.moments(sq.rotate(st, axis, angle)))
            assert abs(rot.tilde_xi_D2 - base.tilde_xi_D2) < 1e-9
            assert abs(rot.tilde_xi_E2 - base.tilde_xi_E2) < 1e-9
            assert abs(rot.xi_singlet2 - base.xi_singlet2) < 1e-9
            assert abs(rot.lambda_min - base.lambda_min) < 1e-9

    def test_argmin_direction_co_rotates(self):
        # the minimizing transverse direction follows the state rotation
        st = sq.oat_state(10, 0.6)
        m = sq.moments(st)
        t, p, _ = mean_spin_direction(m)
        _, n1, n2 = transverse_frame(t, p)
        _, ang = min_transverse_variance(m)
        d = math.cos(ang) * n1 + math.sin(ang) * n2
        axis = np.array([0.3, -0.7, 0.648074069840786])
        axis /= np.linalg.norm(axis)
        angle = 1.234
        rot = sq.moments(sq.rotate(st, axis, angle))
        t2, p2, _ = mean_spin_direction(rot)
        _, m1, m2 = transverse_frame(t2, p2)
        lam2, ang2 = min_transverse_variance(rot)
        d2 = math.cos(ang2) * m1 + math.sin(ang2) * m2
        # rotate d with the classical rotation matrix and compare as lines
        k = axis
        d_rot = (
            d * math.cos(angle)
            + np.cross(k, d) * math.sin(angle)
            + k * (k @ d) * (1.0 - math.cos(angle))
        )
        assert min(np.linalg.norm(d2 - d_rot), np.linalg.norm(d2 + d_rot)) < 1e-6
        assert abs(float(d_rot @ rot.cov @ d_rot) - lam2) < 1e-9

    def test_tilde_e_matches_pairwise_correlation(self):
        # tilde_xi_E^2 - 1 = (N-1) G_m on symmetric states
        for seed in range(6):
            st = random_state(8, 90 + seed)
            m = sq.moments(st)
            rep = compute_report(m)
            g_m = sq.min_pairwise_correlation(m)
            assert abs((rep.tilde_xi_E2 - 1.0) / 7.0 - g_m) < 1e-10
            assert (rep.tilde_xi_E2 < 1.0) == (g_m < 0.0) or abs(g_m) < 1e-12


class TestParityShortcuts:
    def test_all_up_product(self):
        lm = sq.LocalMoments(6, 1.0, 1.0, 0.0, 0.0, 1.0)
        res = parity_shortcuts(lm)
        assert abs(res.xi_S2 - 1.0) < 1e-14
        assert abs(res.xi_R2 - 1.0) < 1e-14

    def test_oat_concurrence_identity(self):
        for theta in np.linspace(0.05, 2.8, 9):
            n = 11
            res = parity_shortcuts(sq.oat_closed_form(n, theta))
            want = 1.0 - (n - 1) * sq.oat_concurrence(n, theta)
            assert abs(res.xi_S2 - want) < 1e-12

    def test_maximal_j_tilde(self):
        lm = sq.oat_closed_form(9, 0.8)
        res = parity_shortcuts(lm)
        assert abs(res.tilde_xi_E2 - min(res.xi_S2, res.varsigma2)) < 1e-12

    def test_zero_mean_spin_flagged(self):
        lm = sq.LocalMoments(4, 0.0, 1.0, 0.0, 0.0, 1.0)
        assert parity_shortcuts(lm).xi_R2 is None

    def test_matches_report_on_parity_states(self):
        for theta in (0.2, 0.9, 1.7):
            st = sq.oat_state(8, theta)
            rep = compute_report(sq.moments(st))
            res = parity_shortcuts(sq.local_moments(st))
            assert abs(rep.tilde_xi_E2 - res.tilde_xi_E2) < 1e-10
            assert abs(rep.xi_S2 - res.xi_S2) < 1e-10


class TestBosonic:
    def test_vacuum(self):
        assert bosonic_principal(0.0, 0.0, 0.0) == 1.0

    def test_squeezed_vacuum_truncated_fock(self):
        # moments from an explicitly built squeezed vacuum in a Fock cutoff
        r = 0.9
        dim = 120
        n_idx = np.arange(dim)
        amps = np.zeros(dim)
        k = np.arange(dim // 2)
        lg = 0.5 * (np.vectorize(math.lgamma)(2 * k + 1)) - k * math.log(2.0) - np.vectorize(
            math.lgamma
        )(k + 1)
        amps[2 * k] = np.exp(lg) * (-math.tanh(r)) ** k / math.sqrt(math.cosh(r))
        a = np.diag(np.sqrt(n_idx[1:]), k=1)
        a_mean = amps @ a @ amps
        a2_mean = amps @ a @ a @ amps
        n_mean = amps @ np.diag(n_idx.astype(float)) @ amps
        zeta = bosonic_principal(a_mean, a2_mean, n_mean)
        assert abs(zeta - math.exp(-2.0 * r)) < 1e-10

    def test_oat_large_n_correspondence(self):
        # xi_S^2 approaches the bosonic value built from J_-/sqrt(2j) moments
        # in the weak-excitation regime <J_z + j> << j
        n = 1000
        theta = 0.002
        lm = sq.oat_closed_form(n, theta)
        xi = parity_shortcuts(lm).xi_S2
        m = collective_from_local(lm)
        j = n / 2.0
        n_op_mean = m.mean[2] + j  # <J_z + j>
        jz2 = m.corr[2, 2]
        # <J_+ J_-> = <J^2> - <J_z^2> + <J_z>
        jpjm = m.j_squared - jz2 + m.mean[2]
        jm2 = (m.corr[0, 0] - m.corr[1, 1]) - 2.0j * m.corr[0, 1]
        zeta = bosonic_principal(0.0, jm2 / (2.0 * j), jpjm / (2.0 * j))
        assert abs(zeta - xi) / xi < 0.02

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            bosonic_principal(0.0, 0.0, -1.0)


class TestReportSerialization:
    def test_json_has_fixed_field_names(self):
        rep = compute_report(sq.moments(sq.css(4, 1.0, 0.5)))
        text = rep.to_json()
        for key in ('"xi_S2"', '"xi_R2"', '"tilde_xi_E2"', '"msd_defined"'):
            assert key in text

    def test_absent_values_are_null_not_inf(self):
        rep = compute_report(sq.moments(sq.ghz_y(4)))
        text = rep.to_json()
        assert '"xi_R2": null' in text
        assert "inf" not in text.lower()

    def test_csv_single_row(self):
        rep = compute_report(sq.moments(sq.css(4, 1.0, 0.5)))
        lines = rep.to_csv().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split(",")[0] == "xi_H2"
