import math

import numpy as np
import pytest

import spinsqueeze as sq
from spinsqueeze.channels import (
    ADC,
    DPC,
    PDC,
    ChannelSpec,
    apply_channel,
    decohered_squeezing,
    dephased_ramsey_optimum,
    kraus_operators,
    particle_loss,
    sudden_death,
)
from spinsqueeze.states import MomentSet
from spinsqueeze.metrics import parity_shortcuts

from oracles import (
    apply_kraus_iid,
    dicke_to_full,
    local_from_rdm2,
    mixed_mean_corr,
    rdm2_standard,
    reduced_rho,
)

CHANNELS = (ADC, PDC, DPC)


def oat_lm(n, theta):
    return sq.oat_closed_form(n, theta)


class TestApplyChannel:
    def test_identity_at_zero_strength(self):
        lm = oat_lm(8, 0.7)
        for kind in CHANNELS:
            out = apply_channel(lm, ChannelSpec(kind, 0.0))
            assert out == lm

    def test_full_damping(self):
        lm = oat_lm(8, 0.7)
        out = apply_channel(lm, ChannelSpec(ADC, 1.0))
        assert abs(out.sz + 1.0) < 1e-12
        assert abs(out.szsz - 1.0) < 1e-12
        assert abs(out.spsm) < 1e-12 and abs(out.smsm) < 1e-12

    @pytest.mark.parametrize("kind", CHANNELS)
    def test_matches_kraus_oracle(self, kind):
        n, theta, p = 6, 0.5, 0.3
        st = sq.oat_state(n, theta)
        rho = np.outer(dicke_to_full(st), dicke_to_full(st).conj())
        rho_out = apply_kraus_iid(rho, kraus_operators(ChannelSpec(kind, p)), n)
        want = local_from_rdm2(rdm2_standard(rho_out, n))
        got = apply_channel(sq.local_moments(st), ChannelSpec(kind, p))
        assert abs(got.sz - want["sz"]) < 1e-10
        assert abs(got.szsz - want["szsz"]) < 1e-10
        assert abs(got.spsm - want["spsm"]) < 1e-10
        assert abs(got.smsm - want["smsm"]) < 1e-10
        assert abs(got.sdots - want["sdots"]) < 1e-10

    def test_full_grid_against_kraus(self):
        # all three channels, 11 strengths, N up to 6
        for n in (4, 6):
            st = sq.oat_state(n, 0.9)
            rho0 = np.outer(dicke_to_full(st), dicke_to_full(st).conj())
            lm0 = sq.local_moments(st)
            for kind in CHANNELS:
                for p in np.linspace(0.0, 1.0, 11):
                    rho = apply_kraus_iid(rho0, kraus_operators(ChannelSpec(kind, p)), n)
                    want = local_from_rdm2(rdm2_standard(rho, n))
                    got = apply_channel(lm0, ChannelSpec(kind, p))
                    assert abs(got.sz - want["sz"]) < 1e-10
                    assert abs(got.smsm - want["smsm"]) < 1e-10
                    assert abs(got.sdots - want["sdots"]) < 1e-10

    def test_phase_damping_semigroup(self):
        lm = oat_lm(10, 0.8)
        for kind in (PDC, DPC):
            p1, p2 = 0.25, 0.4
            once = apply_channel(apply_channel(lm, ChannelSpec(kind, p1)), ChannelSpec(kind, p2))
            combined = apply_channel(lm, ChannelSpec(kind, 1.0 - (1.0 - p1) * (1.0 - p2)))
            assert abs(once.sz - combined.sz) < 1e-12
            assert abs(once.szsz - combined.szsz) < 1e-12
            assert abs(once.spsm - combined.spsm) < 1e-12
            assert abs(once.smsm - combined.smsm) < 1e-12
            assert abs(once.sdots - combined.sdots) < 1e-12

    def test_adc_composition_against_kraus(self):
        # amplitude damping composes with s = s1 s2; checked via the oracle
        n = 4
        st = sq.oat_state(n, 0.6)
        rho0 = np.outer(dicke_to_full(st), dicke_to_full(st).conj())
        p1, p2 = 0.2, 0.35
        rho = apply_kraus_iid(rho0, kraus_operators(ChannelSpec(ADC, p1)), n)
        rho = apply_kraus_iid(rho, kraus_operators(ChannelSpec(ADC, p2)), n)
        want = local_from_rdm2(rdm2_standard(rho, n))
        got = apply_channel(
            apply_channel(sq.local_moments(st), ChannelSpec(ADC, p1)), ChannelSpec(ADC, p2)
        )
        assert abs(got.sz - want["sz"]) < 1e-12
        assert abs(got.smsm - want["smsm"]) < 1e-12

    def test_bad_strength_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(ADC, 1.5)
        with pytest.raises(ValueError):
            ChannelSpec("xyz", 0.5)


class TestDecoheredSqueezing:
    @pytest.mark.parametrize("kind", CHANNELS)
    def test_closed_forms_match_moment_route(self, kind):
        n, theta = 12, 0.5
        lm0 = oat_lm(n, theta)
        for p in np.linspace(0.0, 0.95, 12):
            fast = decohered_squeezing(lm0, ChannelSpec(kind, p))
            slow = parity_shortcuts(apply_channel(lm0, ChannelSpec(kind, p)))
            assert abs(fast.xi_S2 - slow.xi_S2) < 1e-10
            assert abs(fast.tilde_xi_E2 - slow.tilde_xi_E2) < 1e-10
            if fast.xi_R2 is not None and slow.xi_R2 is not None:
                assert abs(fast.xi_R2 - slow.xi_R2) < 1e-9

    def test_table_rows_pdc_dpc(self):
        lm0 = oat_lm(9, 0.6)
        c_r0 = 1.0 - parity_shortcuts(lm0).xi_S2
        n = 9
        for p in (0.2, 0.5, 0.8):
            s = 1.0 - p
            pdc = decohered_squeezing(lm0, ChannelSpec(PDC, p))
            assert abs(pdc.xi_S2 - (1.0 - s**2 * c_r0)) < 1e-12
            dpc = decohered_squeezing(lm0, ChannelSpec(DPC, p))
            want_e = (1.0 - s**2 * c_r0) / ((1.0 - 1.0 / n) * s**2 + 1.0 / n)
            assert abs(dpc.tilde_xi_E2 - want_e) < 1e-12

    def test_concurrence_against_kraus(self):
        # C_r' row agrees with the Wootters concurrence of the decohered pair
        n, theta = 6, 0.9
        st = sq.oat_state(n, theta)
        rho0 = np.outer(dicke_to_full(st), dicke_to_full(st).conj())
        lm0 = sq.local_moments(st)
        for kind in CHANNELS:
            for p in (0.1, 0.3, 0.6):
                rho = apply_kraus_iid(rho0, kraus_operators(ChannelSpec(kind, p)), n)
                c_oracle = sq.concurrence_general(rdm2_standard(rho, n))
                got = decohered_squeezing(lm0, ChannelSpec(kind, p))
                assert abs(max(0.0, got.c_r_prime) - (n - 1) * c_oracle) < 1e-9

    def test_no_sudden_death_for_small_twist_adc(self):
        lm0 = oat_lm(12, 0.1 * math.pi)
        for p in np.linspace(0.0, 0.999, 25):
            got = decohered_squeezing(lm0, ChannelSpec(ADC, p))
            assert got.c_r_prime > 0.0

    def test_xi_s_never_dies(self):
        # the minimal-variance parameter stays below 1 for every p < 1
        lm0 = oat_lm(10, 0.7)
        for kind in CHANNELS:
            for p in np.linspace(0.0, 0.999, 30):
                got = decohered_squeezing(lm0, ChannelSpec(kind, p))
                assert got.xi_S2 < 1.0


class TestSuddenDeath:
    def _bisect(self, f, lo, hi, tol=1e-12):
        flo = f(lo)
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if (f(mid) > 0.0) == (flo > 0.0):
                lo = mid
            else:
                hi = mid
            if hi - lo < tol:
                break
        return (lo + hi) / 2.0

    @pytest.mark.parametrize("kind", CHANNELS)
    def test_closed_forms_match_bisection(self, kind):
        lm0 = oat_lm(12, 0.5 * math.pi)
        rep = sudden_death(lm0, kind)

        def concurrence_curve(p):
            return decohered_squeezing(lm0, ChannelSpec(kind, p)).c_r_prime

        def xi_r_curve(p):
            v = decohered_squeezing(lm0, ChannelSpec(kind, p)).xi_R2
            return 1.0 - v if v is not None else -1.0

        def tilde_curve(p):
            return 1.0 - decohered_squeezing(lm0, ChannelSpec(kind, p)).tilde_xi_E2

        for curve, want in ((concurrence_curve, rep.p_c1), (xi_r_curve, rep.p_c2),
                            (tilde_curve, rep.p_c3)):
            if 0.0 < want < 1.0:
                got = self._bisect(curve, 0.0, 0.999999)
                assert abs(got - want) < 1e-8

    def test_unsqueezed_input_all_zero(self):
        lm0 = oat_lm(12, math.pi)  # xi_S^2 = 1, no squeezing
        for kind in CHANNELS:
            rep = sudden_death(lm0, kind)
            assert rep.p_c1 == rep.p_c2 == rep.p_c3 == 0.0

    def test_ordering_p_c3_largest(self):
        for kind in CHANNELS:
            for theta in np.linspace(0.1, 2.0 * math.pi - 0.1, 20):
                lm0 = oat_lm(12, theta)
                rep = sudden_death(lm0, kind)
                assert rep.p_c3 >= max(rep.p_c1, rep.p_c2) - 1e-9

    def test_pdc_symmetric_about_pi(self):
        for theta in np.linspace(0.2, math.pi - 0.2, 9):
            a = sudden_death(oat_lm(12, theta), PDC)
            b = sudden_death(oat_lm(12, 2.0 * math.pi - theta), PDC)
            assert abs(a.p_c1 - b.p_c1) < 1e-10
            assert abs(a.p_c2 - b.p_c2) < 1e-10
            assert abs(a.p_c3 - b.p_c3) < 1e-10


class TestParticleLoss:
    def test_keep_all_unchanged(self):
        xi_s, xi_r = particle_loss(0.4, 10, 10, [0.0, 0.0, 0.8])
        assert abs(xi_s - 0.4) < 1e-15

    def test_coherent_fixed_point(self):
        for n_r in (2, 5, 9):
            xi_s, _ = particle_loss(1.0, 10, n_r, [0.0, 0.0, 1.0])
            assert abs(xi_s - 1.0) < 1e-15

    def test_monotone_relaxation(self):
        vals = [particle_loss(0.3, 12, n_r, [0.0, 0.0, 0.9])[0] for n_r in range(12, 1, -1)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(v <= 1.0 + 1e-15 for v in vals)

    def test_against_partial_trace_oracle(self):
        n, theta = 8, 0.6
        st = sq.oat_state(n, theta)
        lm = sq.local_moments(st)
        full = dicke_to_full(st)
        xi_before = parity_shortcuts(lm).xi_S2
        sigma1 = np.array([0.0, 0.0, lm.sz])
        for n_r in (2, 4, 6):
            rho_r = reduced_rho(full, n, n_r)
            mean, corr = mixed_mean_corr(rho_r, n_r)
            mset = MomentSet(n_r, mean, corr)
            # minimal transverse variance of the reduced mixed state
            from spinsqueeze.metrics import min_transverse_variance

            lam, _ = min_transverse_variance(mset)
            xi_oracle = 4.0 * lam / n_r
            xi_s, _ = particle_loss(xi_before, n, n_r, sigma1)
            assert abs(xi_s - xi_oracle) < 1e-10

    def test_too_few_remaining_rejected(self):
        with pytest.raises(ValueError):
            particle_loss(0.5, 8, 1, [0, 0, 1.0])


class TestDephasedRamsey:
    def test_css_analytic_point(self):
        gamma, total = 0.8, 40.0
        n = 24
        m = sq.moments(sq.dicke(n, -12.0))
        res = dephased_ramsey_optimum(m, gamma, total)
        assert res.t_opt == 1.0 / (2.0 * gamma)
        assert abs(res.min_domega - math.sqrt(2.0 * gamma * math.e / (total * n))) < 1e-12
        assert res.phi_opt == math.pi / 2.0

    def test_root_residual(self):
        n = 100
        st = sq.oat_state(n, sq.optimal_oat(n).theta_star)
        m = sq.moments(st)
        from spinsqueeze.metrics import min_transverse_variance

        _, ang = min_transverse_variance(m)
        aligned = sq.rotate(st, np.array([0.0, 0.0, 1.0]), math.pi / 2.0 - ang)
        m2 = sq.moments(aligned)
        gamma = 0.6
        res = dephased_ramsey_optimum(m2, gamma, 30.0)
        xi_x2 = 4.0 * m2.corr[0, 0] / n
        u = 2.0 * gamma * res.t_opt
        assert abs((u - 1.0) * math.exp(u) + 1.0 - xi_x2) < 1e-10

    def test_squeezed_beats_css(self):
        n = 100
        gamma, total = 0.6, 30.0
        st = sq.oat_state(n, sq.optimal_oat(n).theta_star)
        m = sq.moments(st)
        from spinsqueeze.metrics import min_transverse_variance

        _, ang = min_transverse_variance(m)
        aligned = sq.rotate(st, np.array([0.0, 0.0, 1.0]), math.pi / 2.0 - ang)
        res = dephased_ramsey_optimum(sq.moments(aligned), gamma, total)
        css_value = math.sqrt(2.0 * gamma * math.e / (total * n))
        assert res.min_domega < css_value
        assert res.improvement_p > 0.0

    def test_absolute_improvement_limit(self):
        n = 100
        mean = np.array([0.0, 0.0, n / 2.0])
        limit = 1.0 - math.exp(-0.5)
        last = None
        for xi_x2 in (1e-2, 1e-4, 1e-6):
            corr = np.diag([xi_x2 * n / 4.0, n / 4.0, (n / 2.0) ** 2])
            mset = MomentSet(n, mean, corr)
            res = dephased_ramsey_optimum(mset, 1.0, 10.0)
            gap = abs(res.improvement_p - limit)
            if last is not None:
                assert gap < last
            last = gap
        assert last < 1e-3

    def test_preconditions(self):
        m = sq.moments(sq.dicke(8, -4.0))
        with pytest.raises(ValueError):
            dephased_ramsey_optimum(m, -1.0, 10.0)
        with pytest.raises(ValueError):
            dephased_ramsey_optimum(m, 1.0, 0.0)
