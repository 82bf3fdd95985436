"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with -s to stream them)."""

import math
import time

import numpy as np

import spinsqueeze as sq
from spinsqueeze.channels import ChannelSpec, decohered_squeezing, kraus_operators, sudden_death
from spinsqueeze.cli import run_cli
from spinsqueeze.states import MomentSet
from spinsqueeze.metrics import (
    compute_report,
    mean_spin_direction,
    min_transverse_variance,
    parity_shortcuts,
    transverse_frame,
)
from spinsqueeze.metrology import chi_criterion, ghz_y, ramsey_sensitivity, sss_andre
from spinsqueeze.twist import (
    KickedTopSpec,
    kicked_top_trajectory,
    oat_closed_form,
    oat_concurrence,
    optimal_oat,
    tat_minimum,
)

from oracles import (
    apply_kraus_iid,
    dicke_to_full,
    full_mean_corr,
    local_from_rdm2,
    rdm2_standard,
    spin_matrices,
)


class Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and dt < self.budget else "FAIL"
        print(f"criterion {self.number} ({self.label}): {status} in {dt:.2f}s "
              f"(budget {self.budget}s)")
        if exc_type is None:
            assert dt < self.budget, f"criterion {self.number} exceeded its time budget"
        return False


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return sq.SymmetricState.normalized(n, amps)


def test_criterion_01_state_oracle_equivalence():
    with Criterion(1, "Dicke basis vs 2^N oracle", 10.0):
        for n in range(2, 9):
            st = random_state(n, 1000 + n)
            full = dicke_to_full(st)
            mean, corr = full_mean_corr(full, n)
            m = sq.moments(st)
            assert np.max(np.abs(m.mean - mean)) < 1e-10
            assert np.max(np.abs(m.corr - corr)) < 1e-10
            want = local_from_rdm2(rdm2_standard(full, n))
            lm = sq.local_moments(st)
            assert abs(lm.sz - want["sz"]) < 1e-10
            assert abs(lm.szsz - want["szsz"]) < 1e-10
            assert abs(lm.spsm - want["spsm"]) < 1e-10
            assert abs(lm.smsm - want["smsm"]) < 1e-10
            assert abs(lm.sdots - want["sdots"]) < 1e-10
            # the block RDM form needs a definite-parity state
            rng = np.random.default_rng(2000 + n)
            amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            amps[1::2] = 0.0
            par = sq.SymmetricState.normalized(n, amps)
            rdm = sq.rdm_from_collective(sq.moments(par))
            got = rdm.to_matrix_standard()
            ref = rdm2_standard(dicke_to_full(par), n)
            assert np.max(np.abs(np.abs(got) - np.abs(ref))) < 1e-10
            assert np.max(np.abs(np.diag(got) - np.diag(ref))) < 1e-10


def test_criterion_02_oat_closed_forms():
    with Criterion(2, "twisting closed forms vs unitary numerics", 5.0):
        from scipy.linalg import eigh_tridiagonal

        from spinsqueeze.states import _moment_tables

        thetas = np.linspace(0.02, 2.0 * math.pi - 0.02, 50)
        for n in range(2, 201):
            f = _moment_tables(n)[2]  # <k|J_+|k+1>
            w, v = eigh_tridiagonal(np.zeros(n + 1), f / 2.0)
            c0 = np.zeros(n + 1)
            c0[-1] = 1.0  # |j, -j>
            vc0 = v.T @ c0
            for theta in thetas:
                amps = v @ (np.exp(-1j * theta / 2.0 * w**2) * vc0)
                st = sq.SymmetricState(n, amps)
                lm = sq.local_moments(st)
                ref = oat_closed_form(n, theta)
                assert abs(lm.sz - ref.sz) < 1e-10
                assert abs(lm.szsz - ref.szsz) < 1e-10
                assert abs(lm.spsm - ref.spsm) < 1e-10
                assert abs(lm.smsm - ref.smsm) < 1e-10
                c_numeric = sq.concurrence_symmetric(sq.rdm_from_collective(sq.moments(st)))
                assert abs(c_numeric - oat_concurrence(n, theta)) < 1e-10


def test_criterion_03_scaling_laws():
    with Criterion(3, "optimal squeezing scaling laws", 60.0):
        ns = [100, 215, 464, 1000, 2154, 4641, 10000]
        mins, thetas = [], []
        for n in ns:
            res = optimal_oat(n)
            mins.append(res.xi_s2_star)
            thetas.append(res.theta_star)
        slope = np.polyfit(np.log(ns), np.log(mins), 1)[0]
        assert -0.73 < slope < -0.60
        for n, theta in zip(ns, thetas):
            theta0 = 12.0 ** (1.0 / 6.0) * (n / 2.0) ** (-2.0 / 3.0)
            assert abs(theta - theta0) / theta0 < 0.15
        tat_ns = [20, 45, 95, 200]
        tat_mins = [tat_minimum(n)[1] for n in tat_ns]
        tat_slope = np.polyfit(np.log(tat_ns), np.log(tat_mins), 1)[0]
        assert -1.1 < tat_slope < -0.9


def test_criterion_04_decoherence_closed_forms():
    with Criterion(4, "decoherence analytics vs Kraus and bisection", 30.0):
        # (a) channel rows and squeezing formulas against the Kraus oracle
        for n in (2, 3, 4, 5, 6):
            st = sq.oat_state(n, 0.8)
            full = dicke_to_full(st)
            rho0 = np.outer(full, full.conj())
            lm0 = sq.local_moments(st)
            for kind in ("adc", "pdc", "dpc"):
                for p in np.linspace(0.0, 1.0, 11):
                    ch = ChannelSpec(kind, p)
                    rho = apply_kraus_iid(rho0, kraus_operators(ch), n)
                    want = local_from_rdm2(rdm2_standard(rho, n))
                    got = sq.apply_channel(lm0, ch)
                    for name in ("sz", "szsz", "spsm", "sdots"):
                        assert abs(getattr(got, name) - want[name]) < 1e-10
                    assert abs(got.smsm - want["smsm"]) < 1e-10
                    if n >= 3:
                        fast = decohered_squeezing(lm0, ch)
                        slow = parity_shortcuts(got)
                        assert abs(fast.xi_S2 - slow.xi_S2) < 1e-10
                        assert abs(fast.tilde_xi_E2 - slow.tilde_xi_E2) < 1e-10
                        c_oracle = sq.concurrence_general(rdm2_standard(rho, n))
                        assert abs(max(0.0, fast.c_r_prime) - (n - 1) * c_oracle) < 1e-10

        # (b) critical strengths against bisection on the analytic curves
        def bisect(fn, lo, hi):
            flo = fn(lo)
            for _ in range(100):
                mid = (lo + hi) / 2.0
                if (fn(mid) > 0.0) == (flo > 0.0):
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2.0

        n = 12
        for kind in ("adc", "pdc", "dpc"):
            for theta0 in (0.3 * math.pi, 0.5 * math.pi, 0.8 * math.pi):
                lm0 = oat_closed_form(n, theta0)
                rep = sudden_death(lm0, kind)
                curves = {
                    "p_c1": lambda p: decohered_squeezing(lm0, ChannelSpec(kind, p)).c_r_prime,
                    "p_c2": lambda p: 1.0
                    - (decohered_squeezing(lm0, ChannelSpec(kind, p)).xi_R2 or 2.0),
                    "p_c3": lambda p: 1.0
                    - decohered_squeezing(lm0, ChannelSpec(kind, p)).tilde_xi_E2,
                }
                for name, curve in curves.items():
                    want = getattr(rep, name)
                    if 0.0 < want < 1.0:
                        assert abs(bisect(curve, 0.0, 0.999999) - want) < 1e-8
        for kind in ("adc", "pdc", "dpc"):
            for theta0 in np.linspace(0.1, 2.0 * math.pi - 0.1, 20):
                rep = sudden_death(oat_closed_form(12, theta0), kind)
                assert rep.p_c3 >= max(rep.p_c1, rep.p_c2) - 1e-9


def test_criterion_05_squeezing_entanglement_equivalence():
    with Criterion(5, "witness-concurrence equivalence", 5.0):
        counterexamples = 0
        n = 12
        for theta in np.linspace(0.01, 2.0 * math.pi - 0.01, 100):
            res = parity_shortcuts(oat_closed_form(n, theta))
            c = oat_concurrence(n, theta)
            squeezed = res.tilde_xi_E2 < 1.0 - 1e-9
            entangled = c > 1e-9
            if squeezed != entangled and not (
                abs(res.tilde_xi_E2 - 1.0) < 1e-8 or c < 1e-8
            ):
                counterexamples += 1
        for theta in np.linspace(0.01, math.pi - 0.01, 100):
            amps = np.zeros(4, dtype=complex)
            amps[3] = math.cos(theta)  # |3/2, -3/2>
            amps[1] = math.sin(theta)  # |3/2, +1/2>
            st = sq.SymmetricState(3, amps)
            m = sq.moments(st)
            rep = compute_report(m)
            c = sq.concurrence_symmetric(sq.rdm_from_collective(m))
            squeezed = rep.tilde_xi_E2 < 1.0 - 1e-9
            entangled = c > 1e-9
            if squeezed != entangled and not (
                abs(rep.tilde_xi_E2 - 1.0) < 1e-8 or c < 1e-8
            ):
                counterexamples += 1
        assert counterexamples == 0


def test_criterion_06_metrology_numbers():
    with Criterion(6, "phase estimation benchmarks", 10.0):
        n = 20
        j = n / 2.0
        res = ramsey_sensitivity(sq.dicke(n, -j), 1.2, "jz")
        assert abs(res.phase_variance - 1.0 / n) < 1e-9
        res = ramsey_sensitivity(sss_andre(n), math.pi / 2.0, "jz")
        assert abs(res.phase_variance - 1.0 / (j * (j + 1.0))) < 1e-9
        rep = compute_report(sq.moments(sss_andre(n)))
        assert abs(rep.xi_R2 - 2.0 / (j + 1.0)) < 1e-9
        res = ramsey_sensitivity(ghz_y(n), math.pi / 2.0 / n, "parity")
        assert abs(res.phase_variance - 1.0 / n**2) < 1e-9

        mats = spin_matrices(4.0)
        n8 = 8
        for seed in range(1000):
            st = random_state(n8, 5000 + seed)
            m = sq.moments(st)
            rep = compute_report(m)
            if rep.xi_R2 is None:
                continue
            t, p, _ = mean_spin_direction(m)
            n0, n1, n2 = transverse_frame(t, p)
            _, ang = min_transverse_variance(m)
            n_min = math.cos(ang) * n1 + math.sin(ang) * n2
            d = np.cross(n0, n_min)
            gen = d[0] * mats["jx"] + d[1] * mats["jy"] + d[2] * mats["jz"]
            chi2, _ = chi_criterion(st, gen)
            assert chi2 <= rep.xi_R2 + 1e-9


def test_criterion_07_dephased_ramsey():
    with Criterion(7, "dephased interrogation optimum", 2.0):
        gamma, total = 0.8, 40.0
        n = 24
        res = sq.dephased_ramsey_optimum(sq.moments(sq.dicke(n, -12.0)), gamma, total)
        assert res.t_opt == 1.0 / (2.0 * gamma)
        mean = np.array([0.0, 0.0, 50.0])
        corr = np.diag([1e-6 * 25.0, 25.0, 2500.0])
        mset = MomentSet(100, mean, corr)
        res = sq.dephased_ramsey_optimum(mset, 1.0, 10.0)
        assert abs(res.improvement_p - (1.0 - math.exp(-0.5))) < 1e-3
        u = 2.0 * res.t_opt
        assert abs((u - 1.0) * math.exp(u) + 1.0 - 1e-6) < 1e-10


def test_criterion_08_lmg_ground_state():
    with Criterion(8, "ferromagnet ground-state squeezing", 20.0):
        for n, gamma in ((64, 0.4), (100, 0.25)):
            h0 = (n - 1) / n * math.sqrt(gamma)
            _, rep = sq.lmg_ground(sq.LMGSpec(n, h0, gamma))
            assert abs(rep.xi_S2 - 1.0) < 1e-6
        target = math.sqrt(0.5)
        devs = []
        for n in (2**7, 2**8, 2**9):
            _, rep = sq.lmg_ground(sq.LMGSpec(n, 2.0, 0.0))
            devs.append(abs(rep.xi_S2 - target) / target)
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 0.05


def test_criterion_09_kicked_top():
    with Criterion(9, "kicked-top chaos signature", 10.0):
        spec = KickedTopSpec(kappa=3.0, j=25.0)
        for phi0, bound in ((0.0, 4), (-1.0, 4)):
            res = kicked_top_trajectory(sq.css(50, 2.25, phi0), spec, 60)
            assert res.vanishing_step is not None and res.vanishing_step <= bound
        res = kicked_top_trajectory(sq.css(50, 2.25, 0.5), spec, 400)
        assert res.vanishing_step is None or res.vanishing_step > 100


def test_criterion_10_qnd_conditional_squeezing():
    with Criterion(10, "probe-measurement squeezing", 30.0):
        spec = sq.QNDSpec(10000, 256000, 5e-5, 0.0)
        res = sq.qnd_conditional(spec)
        assert abs(res.kappa2 - 1.6) < 1e-12
        assert abs(10.0 * math.log10(1.0 / res.xi_r2) - 4.0) < 0.2
        spec_loss = sq.QNDSpec(10000, 256000, 5e-5, 0.14)
        res_loss = sq.qnd_conditional(spec_loss)
        assert abs(10.0 * math.log10(1.0 / res_loss.xi_r2_with_loss) - 2.8) < 0.1
        ratio, stderr = sq.qnd_monte_carlo(spec, 10**5, seed=90210)
        assert abs(ratio - res.xi_r2) <= 3.0 * stderr


def test_criterion_11_determinism_and_parallelism(tmp_path):
    with Criterion(11, "deterministic, run-independent output", 30.0):
        cfg_text = (
            "op = channel\ngrid.channel = adc\ngrid.n = 12\n"
            "grid.theta0 = 0.4,1.1\ngrid.p = 0:0.95:13\n"
        )
        outs = []
        for tag in ("a", "b", "c"):
            out = tmp_path / f"{tag}.csv"
            cfg = tmp_path / f"{tag}.cfg"
            cfg.write_text(cfg_text + f"out = {out}\n")
            assert run_cli(["sweep", "--config", str(cfg)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        qnd_args = ["qnd", "--n", "4000", "--photons", "64000", "--chi", "1e-4",
                    "--trials", "20000", "--seed", "5", "--format", "json"]
        a, b = tmp_path / "q1.json", tmp_path / "q2.json"
        assert run_cli(qnd_args + ["--out", str(a)]) == 0
        assert run_cli(qnd_args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
