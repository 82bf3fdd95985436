import importlib
import math
import pkgutil

import numpy as np
import pytest

import spinsqueeze as sq
import spinsqueeze.states
from spinsqueeze.entangle import (
    TwoModeMoments,
    TwoQubitRDM,
    _candidate_frames,
    _spin_j_criterion,
    _third_moment_margins,
    _third_moments,
    concurrence_general,
    concurrence_symmetric,
    evaluate_criteria,
    min_pairwise_correlation,
    pairwise_correlation,
    rdm_from_collective,
)
from spinsqueeze.metrics import _squeezing_frame, compute_report

from oracles import (
    dense_triad_margins,
    dense_two_qubit_margin,
    dicke_to_full,
    min_direction_scan,
    rdm2_standard,
    spin_matrices,
)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return sq.SymmetricState.normalized(n, amps)


def random_valid_rdm(rng) -> TwoQubitRDM:
    # sample populations on the simplex, then admissible coherences
    v_plus, v_minus, w = rng.dirichlet([1.0, 1.0, 2.0]) * np.array([1.0, 1.0, 0.5])
    w = (1.0 - v_plus - v_minus) / 2.0
    u_mag = rng.uniform(0.0, math.sqrt(v_plus * v_minus))
    u = u_mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    y = rng.uniform(-w, w)
    return TwoQubitRDM(v_plus, v_minus, w, y, u)


class TestRdmFromCollective:
    def test_south_pole_pair(self):
        r = rdm_from_collective(sq.moments(sq.css(6, math.pi, 0.0)))
        assert abs(r.v_minus - 1.0) < 1e-12
        assert abs(r.v_plus) < 1e-12 and abs(r.w) < 1e-12 and abs(r.u) < 1e-12

    def test_matches_partial_trace_oat(self):
        n, theta = 6, 0.4
        r = rdm_from_collective(sq.moments(sq.oat_state(n, theta)))
        want = rdm2_standard(dicke_to_full(sq.oat_state(n, theta)), n)
        # block basis {00, 11, 01, 10} -> standard {00, 01, 10, 11}
        got = r.to_matrix_standard()
        assert np.max(np.abs(np.abs(got) - np.abs(want))) < 1e-12
        assert np.max(np.abs(np.diag(got) - np.diag(want))) < 1e-12

    def test_dicke_center_u_vanishes(self):
        r = rdm_from_collective(sq.moments(sq.dicke(4, 0.0)))
        assert abs(r.u) < 1e-14

    def test_w_equals_y_in_maximal_sector(self):
        for seed in range(6):
            r = rdm_from_collective(sq.moments(random_state(7, seed)))
            assert abs(r.w - r.y) < 1e-12

    def test_nonphysical_moment_set_rejected(self):
        from spinsqueeze.states import MomentSet

        n = 4
        mean = np.array([0.0, 0.0, 1.9])
        corr = np.diag([0.05, 0.05, 4.0])  # transverse noise far below Heisenberg
        mset = MomentSet(n, mean, corr)
        object.__setattr__(mset, "j_squared", n / 2.0 * (n / 2.0 + 1.0))
        with pytest.raises(ValueError):
            rdm_from_collective(mset)


class TestConcurrenceGeneral:
    def test_bell_state(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        assert abs(concurrence_general(np.outer(psi, psi)) - 1.0) < 1e-12

    def test_product_state(self):
        psi = np.array([0.0, 1.0, 0.0, 0.0])
        assert concurrence_general(np.outer(psi, psi)) < 1e-12

    def test_pure_state_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            a, b, c, d = psi
            want = 2.0 * abs(a * d - b * c)
            got = concurrence_general(np.outer(psi, psi.conj()))
            assert abs(got - want) < 1e-9

    def test_invalid_inputs_named(self):
        with pytest.raises(ValueError, match="Hermitian"):
            concurrence_general(np.triu(np.ones((4, 4))) / 4.0)
        with pytest.raises(ValueError, match="trace"):
            concurrence_general(np.eye(4))
        bad = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="positive"):
            concurrence_general(bad)


class TestConcurrenceSymmetric:
    def test_equals_general_on_reconstruction(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(10**4):
            r = random_valid_rdm(rng)
            got = concurrence_symmetric(r)
            want = concurrence_general(r.to_matrix_standard())
            worst = max(worst, abs(got - want))
        assert worst < 1e-9

    def test_branches_mutually_exclusive(self):
        rng = np.random.default_rng(43)
        for _ in range(10**4):
            r = random_valid_rdm(rng)
            b1 = abs(r.u) - r.y
            b2 = r.y - math.sqrt(r.v_plus * r.v_minus)
            assert not (b1 > 1e-12 and b2 > 1e-12)

    def test_both_branches_closed(self):
        r = TwoQubitRDM(0.3, 0.3, 0.2, 0.1, 0.05)
        assert concurrence_symmetric(r) == 0.0

    def test_oat_family_identity(self):
        for theta in np.linspace(0.1, 1.4, 6):
            n = 8
            r = rdm_from_collective(sq.moments(sq.oat_state(n, theta)))
            assert abs(concurrence_symmetric(r) - sq.oat_concurrence(n, theta)) < 1e-10


class TestPairwiseCorrelation:
    def test_css_uncorrelated(self):
        m = sq.moments(sq.css(8, 1.2, 0.3))
        for d in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0.3, -0.4, 0.866])):
            assert abs(pairwise_correlation(m, d)) < 1e-12

    def test_transverse_minimum_links_to_xi_s(self):
        st = sq.oat_state(9, 0.5)
        m = sq.moments(st)
        rep = compute_report(m)
        # minimum over transverse directions
        from spinsqueeze.metrics import mean_spin_direction, transverse_frame

        t, p, _ = mean_spin_direction(m)
        _, n1, n2 = transverse_frame(t, p)
        best = min(
            pairwise_correlation(m, math.cos(a) * n1 + math.sin(a) * n2)
            for a in np.linspace(0.0, math.pi, 20001)
        )
        assert abs(best - (rep.xi_S2 - 1.0) / 8.0) < 1e-8

    def test_eigen_route_matches_sampled_minimum(self):
        st = random_state(6, 12)
        m = sq.moments(st)
        g_m = min_pairwise_correlation(m)
        best = min_direction_scan(lambda d: pairwise_correlation(m, d))
        assert g_m <= best + 1e-12
        assert best - g_m < 1e-8

    def test_eigen_route_links_to_tilde_e(self):
        for seed in range(5):
            m = sq.moments(random_state(8, 60 + seed))
            rep = compute_report(m)
            assert abs(min_pairwise_correlation(m) - (rep.tilde_xi_E2 - 1.0) / 7.0) < 1e-10


class TestCriteria:
    def test_css_not_violated(self):
        rep = evaluate_criteria(sq.css(6, 1.0, 0.5))
        assert not rep.two_qubit_violated
        assert not rep.ghz3_violated
        assert not rep.threeq_violated_a
        assert not rep.threeq_violated_b
        assert not rep.singlet_violated
        assert not rep.spin_j_Fj_violated
        assert rep.two_mode_violated is None

    @pytest.mark.parametrize("n", [60, 120, 150, 200])
    def test_css_directions_not_flagged_at_large_n(self, n):
        # a coherent state saturates the spin-j bound, margin exactly 0; its
        # rounding grows like eps N^2, beyond a fixed 1e-12 guard. The
        # three-qubit margin b is exactly 0 too, with rounding like eps N^3
        rng = np.random.default_rng(n)
        for _ in range(200):
            st = sq.css(n, rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
            mset = sq.moments(st)
            margin, violated = _spin_j_criterion(mset, _squeezing_frame(mset))
            assert abs(margin) < 1e-13 * n * n
            assert not violated
            rep = evaluate_criteria(st).to_dict()
            fired = [k for k, v in rep.items() if "violated" in k and v]
            assert not fired
        squeezed = sq.oat_state(n, sq.optimal_oat(n).theta_star)
        rep = evaluate_criteria(squeezed)
        assert rep.spin_j_Fj_violated and rep.spin_j_Fj_margin < -1.0

    def test_oat_optimum_two_qubit_violation(self):
        st = sq.oat_state(10, 0.45)  # near the optimal twist for N=10
        rep = evaluate_criteria(st)
        xi_r2 = compute_report(sq.moments(st)).xi_R2
        assert xi_r2 < 1.0
        assert rep.two_qubit_violated
        assert rep.two_qubit_margin < 0.0
        assert rep.spin_j_Fj_violated  # equivalent to xi_R^2 < 1 for qubits
        # cross-check by pairwise entanglement
        c = concurrence_symmetric(rdm_from_collective(sq.moments(st)))
        assert c > 0.0

    def test_two_mode_aux(self):
        aux = TwoModeMoments(var_jz_plus=0.4, var_jy_minus=0.5, mean_jx_plus=1.0)
        rep = evaluate_criteria(sq.css(4, 0.5, 0.5), aux=aux)
        assert rep.two_mode_violated
        assert abs(rep.two_mode_margin + 0.1) < 1e-12

    def test_margins_negative_iff_violated(self):
        st = sq.oat_state(8, 0.4)
        rep = evaluate_criteria(st)
        assert rep.two_qubit_violated == (rep.two_qubit_margin < 0)
        assert rep.ghz3_violated == (rep.ghz3_margin < 0)

    def test_json_serialization(self):
        text = evaluate_criteria(sq.css(4, 1.0, 0.0)).to_json()
        assert '"two_qubit_margin"' in text
        assert '"two_mode_margin": null' in text


class TestThirdMoments:
    def test_margins_match_dense_triads(self, monkeypatch):
        # random complex states (no parity symmetry), sizes interleaved so
        # cached and fresh per-N tables alternate
        fresh = spinsqueeze.states._EigenCache(4 * 2**20)
        monkeypatch.setattr(spinsqueeze.states, "_GENERATOR_EIGEN", fresh)
        worst = 0.0
        for seed, n in enumerate((2, 37, 3, 120, 7, 2, 37, 3, 120, 7)):
            st = random_state(n, 500 + seed)
            mset = sq.moments(st)
            frames = _candidate_frames(_squeezing_frame(mset))
            assert len(frames) == 2  # coordinate axes and the MSD frame
            scale = max(1.0, (n / 2.0) ** 3)
            tensor = _third_moments(st)
            got_frames = [_third_moment_margins(tensor, mset, f) for f in frames]
            want_frames = [dense_triad_margins(st, f) for f in frames]
            for got, want in zip(got_frames, want_frames):
                worst = max(worst, max(abs(g - w) for g, w in zip(got, want)) / scale)
            rep = evaluate_criteria(st)
            want = [min(col) for col in zip(*want_frames)]
            got = [rep.ghz3_margin, rep.threeq_margin_a, rep.threeq_margin_b]
            worst = max(worst, max(abs(g - w) for g, w in zip(got, want)) / scale)
            directions = [row for f in frames for row in f]
            assert abs(rep.two_qubit_margin - dense_two_qubit_margin(st, directions)) < 1e-12
        assert worst < 1e-14

    def test_tensor_matches_dense_products(self):
        for n in (1, 2, 9, 40):
            st = random_state(n, 700 + n)
            mats = spin_matrices(n / 2.0)
            ops = [mats["jx"], mats["jy"], mats["jz"]]
            c = st.amplitudes
            want = np.array(
                [[[np.vdot(c, a @ b @ cc @ c).real for cc in ops] for b in ops] for a in ops]
            )
            assert np.max(np.abs(_third_moments(st) - want)) < 1e-14 * max(1.0, n**3)


class TestNoDenseMatrices:
    def test_exports_resolve_and_no_dense_operators(self):
        # the dense spin matrices live in tests/oracles.py only
        removed = {"CollectiveOperator", "OperatorSet", "build_operators", "spin_matrices"}
        modules = [spinsqueeze] + [
            importlib.import_module(f"spinsqueeze.{info.name}")
            for info in pkgutil.iter_modules(spinsqueeze.__path__)
        ]
        assert len(modules) == 10  # the package, eight modules and __main__
        for mod in modules:
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"
            assert not removed & set(dir(mod)), mod.__name__

    def test_criteria_at_n_ten_thousand(self):
        # a dense (N+1)^2 complex matrix would take 1.6 GB here; no time budget
        import tracemalloc

        n = 10**4
        st = sq.css(n, 1.1, 0.4)
        tracemalloc.start()
        try:
            rep = evaluate_criteria(st).to_dict()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert not [k for k, v in rep.items() if "violated" in k and v]
        assert abs(rep["spin_j_Fj_margin"]) < 1e-13 * n * n


class TestSqueezingEntanglementEquivalence:
    def test_oat_family(self):
        n = 12
        for theta in np.linspace(0.01, 2.0 * math.pi - 0.01, 100):
            res = sq.parity_shortcuts(sq.oat_closed_form(n, theta))
            c = sq.oat_concurrence(n, theta)
            squeezed = res.tilde_xi_E2 < 1.0 - 1e-9
            entangled = c > 1e-9
            if squeezed != entangled:
                assert abs(res.tilde_xi_E2 - 1.0) < 1e-8 or c < 1e-8

    def test_dicke_superposition_family(self):
        # cos(t)|j,m> + e^{i phi} sin(t)|j,m+2> at N=3, m=-3/2
        n = 3
        for phi in (0.0, 1.1):
            for t in np.linspace(0.01, math.pi - 0.01, 100):
                amps = np.zeros(4, dtype=complex)
                amps[3] = math.cos(t)  # m = -3/2
                amps[1] = math.sin(t) * np.exp(1j * phi)  # m = +1/2
                st = sq.SymmetricState(n, amps)
                m = sq.moments(st)
                rep = compute_report(m)
                c = concurrence_symmetric(rdm_from_collective(m))
                squeezed = rep.tilde_xi_E2 < 1.0 - 1e-9
                entangled = c > 1e-9
                if squeezed != entangled:
                    assert abs(rep.tilde_xi_E2 - 1.0) < 1e-8 or c < 1e-8

    def test_dicke_superposition_closed_moments(self):
        # the analytic moments of the superposition family
        n, m_val = 3, -1.5
        j = 1.5
        t, phi = 0.7, 0.9
        amps = np.zeros(4, dtype=complex)
        amps[3] = math.cos(t)
        amps[1] = math.sin(t) * np.exp(1j * phi)
        mset = sq.moments(sq.SymmetricState(n, amps))
        assert abs(mset.mean[2] - (m_val + 2.0 * math.sin(t) ** 2)) < 1e-12
        jz2 = m_val**2 + 4.0 * (m_val + 1.0) * math.sin(t) ** 2
        assert abs(mset.corr[2, 2] - jz2) < 1e-12
        mu = (j + m_val + 1) * (j + m_val + 2) * (j - m_val) * (j - m_val - 1)
        jm2 = 0.5 * np.exp(1j * phi) * math.sin(2.0 * t) * math.sqrt(mu)
        got = (mset.corr[0, 0] - mset.corr[1, 1]) - 2.0j * mset.corr[0, 1]
        assert abs(got - jm2) < 1e-12
