import math

import numpy as np
import pytest
from scipy.linalg import expm

import spinsqueeze as sq
from spinsqueeze import states
from spinsqueeze.states import gauss_sphere_grid, m_values

from oracles import (
    dicke_to_full,
    full_mean_corr,
    husimi_per_point,
    local_from_rdm2,
    rdm2_standard,
    spin_matrices,
)

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])
ZHAT = np.array([0.0, 0.0, 1.0])


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return sq.SymmetricState.normalized(n, amps)


class TestOperators:
    """The dense reference spin matrices, and the package's ladder table
    against them."""

    def test_single_spin_jz(self):
        assert np.allclose(spin_matrices(0.5)["jz"], np.diag([0.5, -0.5]))

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            spin_matrices(0.0)
        with pytest.raises(ValueError):
            m_values(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_commutation_relations(self, n):
        mats = spin_matrices(n / 2.0)
        jx, jy, jz = mats["jx"], mats["jy"], mats["jz"]
        for a, b, c in [(jx, jy, jz), (jy, jz, jx), (jz, jx, jy)]:
            comm = a @ b - b @ a
            assert np.max(np.abs(comm - 1j * c)) < 1e-12

    def test_ladder_element_n2(self):
        # <j=1, m=0| J_+ |1, -1> = sqrt(2), cross-checked by explicit product
        mats = spin_matrices(1.0)
        jp = mats["jp"]
        assert abs(jp[1, 2] - math.sqrt(2.0)) < 1e-14
        # J_+ = J_x + i J_y elementwise
        assert np.max(np.abs(jp - (mats["jx"] + 1j * mats["jy"]))) < 1e-14

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_ladder_formula(self, n):
        jp = spin_matrices(n / 2.0)["jp"]
        j = n / 2.0
        m = m_values(n)
        for i in range(1, n + 1):
            want = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
            assert abs(jp[i - 1, i] - want) < 1e-12
        assert np.max(np.abs(states._moment_tables(n)[2] - np.diag(jp, 1))) < 1e-12

    def test_j_squared_is_casimir(self):
        mats = spin_matrices(3.0)
        j2 = sum(mats[a] @ mats[a] for a in ("jx", "jy", "jz"))
        j = 3.0
        assert np.max(np.abs(j2 - j * (j + 1) * np.eye(7))) < 1e-12


class TestCss:
    def test_north_pole(self):
        st = sq.css(5, 0.0, 0.3)
        assert abs(st.amplitudes[0] - 1.0) < 1e-15
        assert np.max(np.abs(st.amplitudes[1:])) == 0.0

    def test_mean_spin(self):
        n, theta, phi = 7, 1.1, 2.2
        m = sq.moments(sq.css(n, theta, phi))
        want = n / 2.0 * np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )
        assert np.max(np.abs(m.mean - want)) < 1e-12

    def test_variances_n4(self):
        # transverse variances N/4 = 1, variance along the mean spin 0
        m = sq.moments(sq.css(4, math.pi / 2.0, 0.0))
        assert abs(m.mean[0] - 2.0) < 1e-12
        evals = np.linalg.eigvalsh(m.cov)
        assert np.max(np.abs(np.sort(evals) - [0.0, 1.0, 1.0])) < 1e-10

    def test_against_product_state_oracle(self):
        # css(2, pi/3, pi/4) equals the two-qubit product state
        st = sq.css(2, math.pi / 3.0, math.pi / 4.0)
        single = np.array(
            [math.cos(math.pi / 6.0), np.exp(1j * math.pi / 4.0) * math.sin(math.pi / 6.0)]
        )
        assert np.max(np.abs(dicke_to_full(st) - np.kron(single, single))) < 1e-14

    def test_large_n_binomials(self):
        st = sq.css(4000, 1.0, 0.5)
        assert st.norm_error() < 1e-10

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            sq.css(4, -0.1, 0.0)
        with pytest.raises(ValueError):
            sq.css(4, 3.2, 0.0)


class TestDicke:
    def test_jz_eigenstate(self):
        st = sq.dicke(2, 1.0)
        jz = spin_matrices(1.0)["jz"]
        assert np.max(np.abs(jz @ st.amplitudes - 1.0 * st.amplitudes)) < 1e-14

    def test_poles_are_coherent(self):
        for m in (2.0, -2.0):
            lm = sq.local_moments(sq.dicke(4, m))
            xi = sq.parity_shortcuts(lm).xi_S2
            assert abs(xi - 1.0) < 1e-12

    def test_center_state_squeezing_value(self):
        # xi_S^2 = 1 + (j^2 - m^2)/j = 1 + j = 3 for N=4, m=0 (z-axis frame)
        lm = sq.local_moments(sq.dicke(4, 0.0))
        assert abs(sq.parity_shortcuts(lm).xi_S2 - 3.0) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sq.dicke(4, 2.5)
        with pytest.raises(ValueError):
            sq.dicke(3, 1.0)  # half-integer ladder for odd N

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_non_finite_m_refused_by_name(self, m):
        with pytest.raises(ValueError, match=r"m=.* is not in the ladder"):
            sq.dicke(4, m)


class TestRotate:
    def test_full_turn_integer_j(self):
        st = random_state(4, 11)
        out = sq.rotate(st, ZHAT, 2.0 * math.pi)
        phase = out.amplitudes[0] / st.amplitudes[0]
        assert np.max(np.abs(out.amplitudes - phase * st.amplitudes)) < 1e-12

    def test_rotation_builds_css(self):
        n, theta, phi = 9, 0.8, 1.9
        axis = np.array([-math.sin(phi), math.cos(phi), 0.0])
        got = sq.rotate(sq.css(n, 0.0, 0.0), axis, theta)
        assert np.max(np.abs(got.amplitudes - sq.css(n, theta, phi).amplitudes)) < 1e-10

    def test_quarter_turn_moves_pole_to_minus_y(self):
        st = sq.rotate(sq.css(6, 0.0, 0.0), XHAT, math.pi / 2.0)
        m = sq.moments(st)
        assert abs(m.mean[1] + 3.0) < 1e-12  # <J_y> = -N/2

    def test_x_rotation_preserves_zero_jx(self):
        st = sq.dicke(4, 0.0)
        for alpha in (0.3, 1.2, 2.9):
            out = sq.rotate(st, XHAT, alpha)
            assert abs(sq.moments(out).mean[0]) < 1e-12

    def test_matches_dense_expm(self):
        st = random_state(6, 3)
        axis = np.array([0.3, -0.5, 0.81])
        axis /= np.linalg.norm(axis)
        ops = spin_matrices(3.0)
        gen = axis[0] * ops["jx"] + axis[1] * ops["jy"] + axis[2] * ops["jz"]
        w, v = np.linalg.eigh(gen)
        u = v @ np.diag(np.exp(-1j * 0.77 * w)) @ v.conj().T
        got = sq.rotate(st, axis, 0.77)
        assert np.max(np.abs(got.amplitudes - u @ st.amplitudes)) < 1e-12

    def test_matches_expm_axes_and_interleaved_sizes(self, monkeypatch):
        # a fresh cache, and sizes in interleaved order, so that decompositions
        # are built, reused and looked up again after other sizes
        monkeypatch.setattr(states, "_GENERATOR_EIGEN", states._EigenCache(states._EIGEN_CACHE_BYTES))
        tilted = np.array([0.3, -0.5, 0.81])
        axes = [YHAT, -YHAT, XHAT, tilted / np.linalg.norm(tilted)]
        for n in (6, 13, 6, 40, 13, 6):
            st = random_state(n, 3 + n)
            ops = spin_matrices(n / 2.0)
            for axis in axes:
                gen = axis[0] * ops["jx"] + axis[1] * ops["jy"] + axis[2] * ops["jz"]
                for angle in (0.77, -2.4):
                    got = sq.rotate(st, axis, angle)
                    want = expm(-1j * angle * gen) @ st.amplitudes
                    assert np.max(np.abs(got.amplitudes - want)) < 1e-12 * n

    def test_cached_decomposition_read_only(self):
        for arr in states._axis_eigensystem(9, (0.0, 1.0, 0.0)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_cache_evicts_least_recent_within_byte_bound(self):
        cache = states._EigenCache(max_bytes=3 * 80)
        builds = []

        def build(key, size=10):
            def make():
                builds.append(key)
                return (np.full(size, float(key)),)

            return make

        for key in (1, 2, 3, 1, 4):  # 1 is used again, so 2 is the oldest when 4 arrives
            cache.get(key, build(key))
        cache.get(1, build(1))
        cache.get(2, build(2))
        assert builds == [1, 2, 3, 4, 2]
        big = cache.get(5, build(5, size=100))  # larger than the whole bound
        assert big[0].shape == (100,)
        cache.get(5, build(5, size=100))
        assert builds[-2:] == [5, 5]

    def test_norm_preserved(self):
        st = random_state(25, 5)
        out = sq.rotate(st, np.array([0.6, 0.0, 0.8]), 2.3)
        assert out.norm_error() < 1e-12

    def test_bad_axes(self):
        st = sq.css(3, 0.0, 0.0)
        with pytest.raises(ValueError):
            sq.rotate(st, np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            sq.rotate(st, np.array([1.0, 1.0, 0.0]), 1.0)


class TestMoments:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_matches_tensor_oracle(self, n):
        st = random_state(n, 100 + n)
        mean, corr = full_mean_corr(dicke_to_full(st), n)
        m = sq.moments(st)
        assert np.max(np.abs(m.mean - mean)) < 1e-10
        assert np.max(np.abs(m.corr - corr)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 37, 200])
    def test_matches_dense_spin_matrices(self, n):
        # interleave N so cached and freshly built moment tables alternate
        for size in (n, 5, n):
            st = random_state(size, 300 + size)
            ops = spin_matrices(size / 2.0)
            c = st.amplitudes
            vecs = [ops[a] @ c for a in ("jx", "jy", "jz")]
            mean = np.array([np.vdot(c, v).real for v in vecs])
            corr = np.array([[np.vdot(u, v).real for v in vecs] for u in vecs])
            m = sq.moments(st)
            scale = max(1.0, size**2)
            assert np.max(np.abs(m.mean - mean)) < 1e-12 * scale
            assert np.max(np.abs(m.corr - corr)) < 1e-12 * scale
            assert abs(m.j_squared - np.trace(corr)) < 1e-12 * scale

    def test_moment_set_derives_from_mean_and_corr(self):
        import dataclasses

        init = [f.name for f in dataclasses.fields(sq.MomentSet) if f.init]
        assert init == ["n_particles", "mean", "corr"]
        # interleave N so cached and freshly built moment tables alternate
        for seed, n in enumerate((2, 37, 3, 120, 7)):
            m = sq.moments(random_state(n, 700 + seed))
            for rec in (m, sq.MomentSet(n, m.mean, m.corr)):
                cov = rec.corr - np.outer(rec.mean, rec.mean)
                assert np.array_equal(rec.cov, cov)
                assert np.array_equal(rec.gamma_big, (n - 1) * cov + rec.corr)
                assert rec.j_squared == np.trace(rec.corr)
                assert not (rec.mean.flags.writeable or rec.corr.flags.writeable
                            or rec.cov.flags.writeable or rec.gamma_big.flags.writeable)

    def test_moment_set_validation(self):
        good = sq.moments(random_state(5, 1))
        bad_shape = good.corr[:2, :2]
        with pytest.raises(ValueError, match="3x3"):
            sq.MomentSet(5, good.mean, bad_shape)
        skew = good.corr + np.array([[0.0, 1e-3, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="corr matrix is not symmetric"):
            sq.MomentSet(5, good.mean, skew)
        # covariance corr - mean mean^T = -I
        with pytest.raises(ValueError, match="negative eigenvalue"):
            sq.MomentSet(5, good.mean, np.outer(good.mean, good.mean) - np.eye(3))

    @pytest.mark.parametrize("n, theta", [(10**5, 1.1), (10**6, 0.3), (10**6, 1.1), (10**6, 2.0)])
    def test_large_n_coherent_state_accepted(self, n, theta):
        # cov = C - <J><J>^T cancels terms of size N^2/4: its rounding error
        # reaches 1e-4 at N = 1e6, which must not read as a negative variance
        m = sq.moments(sq.css(n, theta, 0.4))
        assert abs(m.mean_length / (n / 2.0) - 1.0) < 1e-12
        lo, mid, hi = np.linalg.eigvalsh(m.cov)
        assert abs(lo) < 1e-9 * n**2
        assert abs(mid / (n / 4.0) - 1.0) < 1e-9 and abs(hi / (n / 4.0) - 1.0) < 1e-9

    def test_j_squared_fixed(self):
        for n in (2, 5, 12):
            m = sq.moments(random_state(n, n))
            assert abs(m.j_squared - n / 2.0 * (n / 2.0 + 1.0)) < 1e-10

    def test_dicke_moments(self):
        m = sq.moments(sq.dicke(6, 2.0))
        assert abs(m.mean[2] - 2.0) < 1e-14
        assert abs(m.cov[2, 2]) < 1e-14

    def test_heisenberg_uncertainty(self):
        for seed in range(8):
            m = sq.moments(random_state(7, seed))
            lhs = m.cov[0, 0] * m.cov[1, 1]
            assert lhs >= m.mean[2] ** 2 / 4.0 - 1e-10


class TestLocalMoments:
    def test_all_up_product(self):
        lm = sq.local_moments(sq.css(6, 0.0, 0.0))
        assert abs(lm.sz - 1.0) < 1e-14
        assert abs(lm.szsz - 1.0) < 1e-14
        assert abs(lm.spsm) < 1e-14
        assert abs(lm.smsm) < 1e-14

    def test_single_spin_rejected(self):
        with pytest.raises(ValueError):
            sq.local_moments(sq.css(1, 0.3, 0.0))

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_matches_partial_trace_oracle(self, n):
        st = random_state(n, 41 + n)
        want = local_from_rdm2(rdm2_standard(dicke_to_full(st), n))
        lm = sq.local_moments(st)
        assert abs(lm.sz - want["sz"]) < 1e-12
        assert abs(lm.szsz - want["szsz"]) < 1e-12
        assert abs(lm.spsm - want["spsm"]) < 1e-12
        assert abs(lm.smsm - want["smsm"]) < 1e-12
        assert abs(lm.sdots - want["sdots"]) < 1e-12

    def test_maximal_j_sector_sdots(self):
        lm = sq.local_moments(random_state(9, 4))
        assert abs(lm.sdots - 1.0) < 1e-12

    def test_round_trip_through_collective(self):
        # parity-symmetric input: reconstruction then inversion is identity
        lm = sq.oat_closed_form(10, 0.7)
        from spinsqueeze.states import collective_from_local, local_from_moments

        lm2 = local_from_moments(collective_from_local(lm))
        assert abs(lm2.sz - lm.sz) < 1e-12
        assert abs(lm2.szsz - lm.szsz) < 1e-12
        assert abs(lm2.spsm - lm.spsm) < 1e-12
        assert abs(lm2.smsm - lm.smsm) < 1e-12
        assert abs(lm2.sdots - lm.sdots) < 1e-12


class TestHusimi:
    def test_self_overlap_is_one(self):
        st = sq.css(8, 1.0, 0.7)
        assert abs(sq.husimi_q(st, [(1.0, 0.7)])[0] - 1.0) < 1e-12

    def test_orthogonal_poles(self):
        q = sq.husimi_q(sq.css(8, 0.0, 0.0), [(math.pi, 0.0)])[0]
        assert q < 1e-100

    def test_empty_grid(self):
        assert sq.husimi_q(sq.css(4, 0.0, 0.0), []).size == 0

    def test_matches_per_point_reference(self):
        rng = np.random.default_rng(17)
        thetas = np.linspace(0.0, math.pi, 7)
        phis = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)
        product = np.column_stack([np.repeat(thetas, 9), np.tile(phis, 7)])
        for seed, n in enumerate((2, 37, 3, 120, 7)):
            st = random_state(n, 300 + seed)
            # a product grid: one matrix product of the two tables
            got = sq.husimi_q(st, product)
            assert np.max(np.abs(got - husimi_per_point(st, product))) < 4e-15
            # shuffled with repeats, it is still a product grid
            mixed = product[rng.integers(0, len(product), size=100)]
            assert np.max(np.abs(sq.husimi_q(st, mixed) - husimi_per_point(st, mixed))) < 4e-15
            # a scattered grid, more points than one chunk: the row branch
            scattered = np.column_stack(
                [rng.uniform(0.0, math.pi, 2500), rng.uniform(-4.0, 10.0, 2500)]
            )
            assert len(np.unique(scattered[:, 0])) * len(np.unique(scattered[:, 1])) > 2500
            got = sq.husimi_q(st, scattered)
            assert np.max(np.abs(got - husimi_per_point(st, scattered))) < 4e-15
            # the poles, where one of the half-angle factors vanishes
            poles = [(0.0, 0.3), (math.pi, 1.9), (0.0, 0.0), (math.pi, 0.0), (1e-300, 2.0)]
            got = sq.husimi_q(st, poles)
            assert np.max(np.abs(got - husimi_per_point(st, poles))) < 4e-15
            assert abs(got[0] - abs(st.amplitudes[0]) ** 2) < 1e-15
            assert abs(got[1] - abs(st.amplitudes[-1]) ** 2) < 1e-15

    def test_grid_forms_and_bad_grids(self):
        st = sq.css(6, 0.8, 0.2)
        pairs = [(0.8, 0.2), (1.5, 3.0)]
        want = husimi_per_point(st, pairs)
        for grid in (pairs, tuple(pairs), np.array(pairs)):
            assert np.max(np.abs(sq.husimi_q(st, grid) - want)) < 1e-15
        assert sq.husimi_q(st, np.zeros((0, 2))).size == 0
        for bad, match in (
            ([(0.5, math.nan)], "finite"),
            ([(math.inf, 0.1)], "finite"),
            ([(3.5, 0.1)], r"\[0, pi\]"),
            ([0.5, 0.1, 0.2], "pairs"),
        ):
            with pytest.raises(ValueError, match=match):
                sq.husimi_q(st, bad)

    def test_bounds_and_normalization(self):
        st = sq.oat_state(20, 0.4)
        pts, w = gauss_sphere_grid(200, 400)
        q = sq.husimi_q(st, pts)
        assert q.min() >= 0.0 and q.max() <= 1.0 + 1e-12
        integral = (st.n_particles + 1) / (4.0 * math.pi) * float(q @ w)
        assert abs(integral - 1.0) < 1e-3

    def test_twisted_blob_tilt_matches_optimal_angle(self):
        # the short axis of the Husimi ellipse sits at the squeezing angle
        from spinsqueeze.metrics import (
            mean_spin_direction,
            min_transverse_variance,
            transverse_frame,
        )

        st = sq.oat_state(60, 0.2)  # chi*t = 0.1
        m = sq.moments(st)
        _, opt_angle = min_transverse_variance(m)
        t, p, _ = mean_spin_direction(m)
        _, n1, n2 = transverse_frame(t, p)
        pts, w = gauss_sphere_grid(200, 400)
        q = sq.husimi_q(st, pts)
        xyz = np.column_stack(
            [
                np.sin(pts[:, 0]) * np.cos(pts[:, 1]),
                np.sin(pts[:, 0]) * np.sin(pts[:, 1]),
                np.cos(pts[:, 0]),
            ]
        )
        c1, c2 = xyz @ n1, xyz @ n2
        wq = q * w
        cov2 = np.array(
            [
                [float(wq @ (c1 * c1)), float(wq @ (c1 * c2))],
                [float(wq @ (c1 * c2)), float(wq @ (c2 * c2))],
            ]
        )
        evals, evecs = np.linalg.eigh(cov2)
        minor = evecs[:, 0]  # smallest Q spread = squeezed direction
        tilt = math.atan2(minor[1], minor[0]) % math.pi
        diff = min(abs(tilt - opt_angle), math.pi - abs(tilt - opt_angle))
        assert diff < math.radians(2.0)


class TestSerialization:
    def test_json_round_trip(self):
        st = random_state(5, 9)
        back = sq.state_from_json(sq.state_to_json(st))
        assert back.n_particles == 5
        assert np.max(np.abs(back.amplitudes - st.amplitudes)) < 1e-16

    def test_csv_round_trip(self):
        st = random_state(6, 10)
        back = sq.state_from_csv(sq.state_to_csv(st))
        assert np.max(np.abs(back.amplitudes - st.amplitudes)) < 1e-16

    @pytest.mark.parametrize(
        "rows, m",
        [
            pytest.param(["1,1,0", "0.4,0,0", "-1,0,0"], "0.4", id="off-ladder"),
            pytest.param(["1,0.6,0", "1,0.8,0", "-1,0,0"], "1.0", id="repeated"),
        ],
    )
    def test_csv_refuses_m_off_the_ladder_or_repeated(self, rows, m):
        with pytest.raises(ValueError, match=f"m={m}"):
            sq.state_from_csv("m,re,im\n" + "\n".join(rows) + "\n")

    def test_csv_m_ordering(self):
        text = sq.state_to_csv(sq.dicke(4, 2.0))
        first_row = text.splitlines()[1]
        assert first_row.startswith("2,1,")  # m=+j comes first


class TestStateValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            sq.SymmetricState(2, np.array([1.0, 1.0, 0.0]))

    def test_length_enforced(self):
        with pytest.raises(ValueError):
            sq.SymmetricState(3, np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "bad",
        [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, math.nan)],
    )
    def test_non_finite_amplitudes_rejected(self, bad):
        amps = np.array([0.6, 0.8, 0.0], dtype=complex)
        amps[2] = bad
        with pytest.raises(ValueError, match="^amplitudes must be finite"):
            sq.SymmetricState(2, amps)
        with pytest.raises(ValueError, match="^amplitudes must be finite"):
            sq.SymmetricState.normalized(2, amps)

    def test_amplitudes_read_only(self):
        st = sq.css(3, 0.2, 0.1)
        with pytest.raises(ValueError):
            st.amplitudes[0] = 5.0
