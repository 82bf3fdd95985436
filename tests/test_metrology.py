import math
import sys

import numpy as np
import pytest
from scipy.linalg import expm

import spinsqueeze as sq
from spinsqueeze import metrology
from spinsqueeze.cli import SweepConfig, sweep
from spinsqueeze.metrics import compute_report, mean_spin_direction, min_transverse_variance, transverse_frame
from spinsqueeze.metrology import (
    chi_criterion,
    ghz_y,
    qfi_rotation,
    ramsey_sensitivity,
    ramsey_signal,
    sss_andre,
)

from oracles import spin_matrices


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return sq.SymmetricState.normalized(n, amps)


def jmat(n, direction):
    mats = spin_matrices(n / 2.0)
    d = np.asarray(direction, dtype=float)
    return d[0] * mats["jx"] + d[1] * mats["jy"] + d[2] * mats["jz"]


class TestQfi:
    def test_css_equator(self):
        n = 14
        st = sq.css(n, math.pi / 2.0, 0.0)
        f = qfi_rotation(st, jmat(n, [0, 0, 1.0]))
        assert abs(f - n) < 1e-10

    def test_ghz_heisenberg(self):
        n = 10
        f = qfi_rotation(ghz_y(n), jmat(n, [0, 1.0, 0]))
        assert abs(f - n**2) < 1e-9

    def test_maximally_mixed_zero(self):
        n = 6
        rho = np.eye(n + 1) / (n + 1)
        assert qfi_rotation(rho, jmat(n, [0, 0, 1.0])) < 1e-12

    def test_pure_and_mixed_routes_agree(self):
        n = 8
        for seed in range(6):
            st = random_state(n, seed)
            gen = jmat(n, [0.48, -0.6, 0.64])
            f_pure = qfi_rotation(st, gen)
            rho = np.outer(st.amplitudes, st.amplitudes.conj())
            f_mixed = qfi_rotation(rho, gen)
            assert abs(f_pure - f_mixed) < 1e-9

    def test_bounded_by_n_squared(self):
        n = 7
        for seed in range(10):
            st = random_state(n, 30 + seed)
            for d in ([1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]):
                assert qfi_rotation(st, jmat(n, d)) <= n**2 + 1e-9

    def test_bures_finite_difference(self):
        n = 8
        gen = jmat(n, [0.0, 1.0, 0.0])
        delta = 1e-4
        for seed in range(4):
            st = random_state(n, 70 + seed)
            f = qfi_rotation(st, gen)
            w, v = np.linalg.eigh(gen)
            shifted = v @ (np.exp(-1j * delta * w) * (v.conj().T @ st.amplitudes))
            fd = 8.0 * (1.0 - abs(np.vdot(st.amplitudes, shifted))) / delta**2
            assert abs(f - fd) / max(f, 1.0) < 1e-4

    def test_invalid_density_matrix_rejected(self):
        with pytest.raises(ValueError):
            qfi_rotation(np.eye(5) * 0.5, jmat(4, [0, 0, 1.0]))

    def test_density_matrix_needs_one_eigendecomposition(self, monkeypatch):
        st = random_state(6, 4)
        rho = 0.7 * np.outer(st.amplitudes, st.amplitudes.conj()) + 0.3 * np.eye(7) / 7.0
        gen = jmat(6, [0.0, 1.0, 0.0])
        want = qfi_rotation(rho, gen)
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        assert qfi_rotation(rho, gen) == want
        assert len(calls) == 1

    @pytest.mark.parametrize("func", [qfi_rotation, chi_criterion])
    @pytest.mark.parametrize("mixed", [False, True], ids=["pure", "rho"])
    @pytest.mark.parametrize(
        "generator", [np.array([0.0, 0.0, 1.0]), jmat(5, [0, 0, 1.0])], ids=["3-vector", "wrong-n"]
    )
    def test_generator_shape_checked(self, func, mixed, generator):
        n = 6
        st = random_state(n, 3)
        arg = np.outer(st.amplitudes, st.amplitudes.conj()) if mixed else st
        with pytest.raises(ValueError, match=r"generator must have shape \(7, 7\), got \((3,|6, 6)\)"):
            func(arg, generator)


class TestChiCriterion:
    def test_css_unity(self):
        n = 12
        chi2, flag = chi_criterion(sq.css(n, math.pi / 2.0, 0.0), jmat(n, [0, 0, 1.0]))
        assert abs(chi2 - 1.0) < 1e-10
        assert not flag

    def test_ghz_reaches_floor(self):
        n = 8
        chi2, flag = chi_criterion(ghz_y(n), jmat(n, [0, 1.0, 0]))
        assert abs(chi2 - 1.0 / n) < 1e-10
        assert flag
        # while xi_R^2 is divergent/undefined for the same state
        assert compute_report(sq.moments(ghz_y(n))).xi_R2 is None

    def test_zero_information_flagged_absent(self):
        n = 4
        rho = np.eye(n + 1) / (n + 1)
        chi2, flag = chi_criterion(rho, jmat(n, [0, 0, 1.0]))
        assert chi2 is None and not flag

    def test_oat_bound(self):
        # chi^2 <= xi_R^2 with the correct transverse generator
        n = 100
        st = sq.oat_state(n, sq.optimal_oat(n).theta_star)
        m = sq.moments(st)
        rep = compute_report(m)
        t, p, _ = mean_spin_direction(m)
        n0, n1, n2 = transverse_frame(t, p)
        _, ang = min_transverse_variance(m)
        n_min = math.cos(ang) * n1 + math.sin(ang) * n2
        gen = jmat(n, np.cross(n0, n_min))
        chi2, flag = chi_criterion(st, gen)
        assert chi2 <= rep.xi_R2 + 1e-9
        assert chi2 < 1.0 and flag


class TestRamsey:
    def test_css_shot_noise(self):
        n = 20
        res = ramsey_sensitivity(sq.dicke(n, -n / 2.0), 1.1, "jz")
        assert abs(res.phase_variance - 1.0 / n) < 1e-9
        assert abs(res.qfi - n) < 1e-9

    def test_cramer_rao_floor(self):
        n = 10
        for seed in range(10):
            st = random_state(n, seed)
            for phi in (0.4, 1.0, 2.0):
                try:
                    res = ramsey_sensitivity(st, phi, "jz")
                except ValueError:
                    continue
                assert res.phase_variance >= 1.0 / (res.n_repeats * res.qfi) - 1e-9

    def test_sss_heisenberg_scaling(self):
        n = 20
        j = n / 2.0
        st = sss_andre(n)
        res = ramsey_sensitivity(st, math.pi / 2.0, "jz")
        assert abs(res.phase_variance - 1.0 / (j * (j + 1))) < 1e-9
        rep = compute_report(sq.moments(st))
        assert abs(rep.xi_R2 - 2.0 / (n / 2.0 + 1.0)) < 1e-9

    def test_sss_moments(self):
        n = 16
        j = n / 2.0
        m = sq.moments(sss_andre(n))
        assert abs(m.mean[2] - math.sqrt(j * (j + 1) / 2.0)) < 1e-9
        assert abs(m.cov[0, 0] - 0.5) < 1e-9
        assert abs(m.cov[1, 1] - (3.0 / 8.0 * j * (j + 1) - 0.25)) < 1e-9
        assert abs(m.cov[2, 2] - (j * (j + 1) / 8.0 - 0.25)) < 1e-9
        assert abs(m.cov[0, 2]) < 1e-9

    def test_ghz_parity_heisenberg(self):
        n = 12
        res = ramsey_sensitivity(ghz_y(n), math.pi / 2.0 / n, "parity")
        assert abs(res.phase_variance - 1.0 / n**2) < 1e-9
        assert res.readout == "parity"

    def test_ghz_parity_signal_shape(self):
        n = 8
        for phi in (0.05, 0.2, 0.37):
            mean, dev = ramsey_signal(ghz_y(n), phi, "parity")
            assert abs(mean - math.cos(n * phi)) < 1e-9

    def test_zero_slope_rejected(self):
        n = 8
        with pytest.raises(ValueError, match="slope"):
            ramsey_sensitivity(sq.dicke(n, -n / 2.0), 0.0, "jz")

    def test_repeats_scale_variance(self):
        n = 10
        one = ramsey_sensitivity(sq.dicke(n, -n / 2.0), 0.9, "jz", n_repeats=1)
        many = ramsey_sensitivity(sq.dicke(n, -n / 2.0), 0.9, "jz", n_repeats=25)
        assert abs(many.phase_variance - one.phase_variance / 25.0) < 1e-12

    def test_phase_error_equals_xi_r_over_n(self):
        # Delta phi = xi_R / sqrt(N) at pi/2 points for parity states whose
        # minimal variance has been rotated onto the x axis
        n = 12
        st = sq.oat_state(n, 0.5)
        m = sq.moments(st)
        _, ang = min_transverse_variance(m)
        # transverse frame at the south pole maps angle -> rotation about z
        st_aligned = sq.rotate(st, np.array([0.0, 0.0, 1.0]), math.pi / 2.0 - ang)
        m2 = sq.moments(st_aligned)
        assert abs(m2.cov[0, 2]) < 1e-9
        res = ramsey_sensitivity(st_aligned, math.pi / 2.0, "jz")
        rep = compute_report(m2)
        assert abs(res.phase_variance - rep.xi_R2 / n) < 1e-9

    def test_heisenberg_floor_on_samples(self):
        n = 8
        for seed in range(20):
            st = random_state(n, 200 + seed)
            rep = compute_report(sq.moments(st))
            if rep.xi_R2 is not None:
                assert rep.xi_R2 >= 1.0 / n - 1e-9
            try:
                res = ramsey_sensitivity(st, 1.3, "jz")
                assert res.phase_variance >= 1.0 / n**2 - 1e-9
            except ValueError:
                pass


def dense_readout(state, phi, readout):
    """(signal, variance, slope) of the readout after the dense sequence
    exp(-i phi J_y) exp(-i pi J_x)."""
    n = state.n_particles
    mats = spin_matrices(n / 2.0)
    psi = expm(-1j * phi * mats["jy"]) @ expm(-1j * math.pi * mats["jx"]) @ state.amplitudes
    obs = mats["jz"] if readout == "jz" else np.diag((-1.0) ** (n - np.arange(n + 1)))
    mean = np.vdot(psi, obs @ psi).real
    variance = np.vdot(psi, obs @ obs @ psi).real - mean**2
    # d<O>/dphi = i <[J_y, O]> on the evolved state
    comm = mats["jy"] @ obs - obs @ mats["jy"]
    return mean, variance, np.vdot(psi, 1j * comm @ psi).real


class TestReadout:
    """The single readout against the dense interferometer sequence."""

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 3, 120])
    def test_pi_pulse_is_index_reversal(self, n):
        st = random_state(n, 500 + n)
        dense = expm(-1j * math.pi * spin_matrices(n / 2.0)["jx"]) @ st.amplitudes
        assert np.max(np.abs(metrology._pi_pulse(st).amplitudes - dense)) < 1e-12

    @pytest.mark.parametrize("readout", ["jz", "parity"])
    def test_matches_dense_sequence(self, readout):
        for n in (1, 2, 7, 20, 3, 120):
            st = random_state(n, 600 + n)
            scale = n / 2.0 if readout == "jz" else 1.0
            slope_scale = n / 2.0 if readout == "jz" else float(n)
            for phi in (0.0, 0.3, 1.1, math.pi / 2.0, 2.9, -0.7):
                signal, variance, slope = metrology._readout(st, phi, readout)
                ref_signal, ref_variance, ref_slope = dense_readout(st, phi, readout)
                assert abs(signal - ref_signal) < 1e-12 * scale
                assert abs(variance - ref_variance) < 1e-12 * scale**2
                if slope is None:
                    assert abs(ref_slope) < 2e-12 * max(1.0, n)
                else:
                    assert abs(slope - ref_slope) < 1e-12 * slope_scale
                    res = ramsey_sensitivity(st, phi, readout)
                    assert res.phase_variance == variance / slope**2
                assert ramsey_signal(st, phi, readout) == (signal, math.sqrt(variance))

    def test_qfi_from_initial_moments(self):
        for n in (2, 7, 20):
            st = random_state(n, 700 + n)
            mats = spin_matrices(n / 2.0)
            psi = expm(-1j * math.pi * mats["jx"]) @ st.amplitudes
            jy = mats["jy"] @ psi
            dense = 4.0 * (np.vdot(jy, jy).real - np.vdot(psi, jy).real ** 2)
            assert abs(ramsey_sensitivity(st, 0.4, "parity").qfi - dense) < 1e-12 * n**2

    def test_jz_sensitivity_reads_moments_once(self, monkeypatch):
        st = random_state(20, 720)
        _, variance, slope = metrology._readout(st, 0.4, "jz")
        qfi = 4.0 * float(sq.moments(st).cov[1, 1])
        calls = []

        def counting(state):
            calls.append(state)
            return sq.moments(state)

        monkeypatch.setattr(metrology, "moments", counting)
        res = ramsey_sensitivity(st, 0.4, "jz")
        assert len(calls) == 1
        assert res.phase_variance == variance / slope**2
        assert res.qfi == qfi

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi_rejected(self, phi):
        st = sq.dicke(6, -3.0)
        for call in (ramsey_signal, ramsey_sensitivity):
            with pytest.raises(ValueError, match="phi must be finite"):
                call(st, phi, "parity")

    def test_sweep_makes_one_readout_per_point(self, monkeypatch):
        counts = {"rotate": 0, "moments": 0}
        for name in counts:
            original = getattr(sys.modules["spinsqueeze.states"], name)

            def counting(*args, _original=original, _name=name):
                counts[_name] += 1
                return _original(*args)

            for mod in list(sys.modules.values()):
                if mod is not None and mod.__name__.startswith("spinsqueeze") \
                        and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counting)
        grids = {"n": [40], "state": ["css", "sss", "ghz"], "readout": ["jz", "parity"],
                 "phi": [0.3, 0.9, 1.7, 2.4]}
        _, rows = sweep(SweepConfig("ramsey", grids))
        assert len(rows) == 24 and all(row["status"] == "ok" for row in rows)
        # 16 rotations prepare the sss and ghz states, one per parity point
        assert counts == {"rotate": 28, "moments": 12}
