import json
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg

import spinsqueeze as sq
from spinsqueeze import cli, states
from spinsqueeze.cli import SweepConfig, run_cli, sweep


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "oat", "--n", "4", "--theta", "0.1", "--bogus")
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "sweep", "--config", "missing.toml")
        assert code == 2

    def test_numeric_failure(self, capsys):
        code, _, err = run(capsys, "metrics", "--state", "css", "--n", "4", "--theta", "9.0")
        assert code == 1
        assert "error" in err

    def test_success(self, capsys):
        code, out, _ = run(capsys, "oat", "--n", "12", "--theta", "0.3")
        assert code == 0
        assert out.startswith("n,")

    def test_parser_reuse_matches_fresh_process(self, capsys, monkeypatch):
        # the parser is built once per process; a refused parse must not
        # change what later calls write
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sq.__file__)))
        for argv in (
            ["oat", "--n", "abc", "--theta", "0.3"],
            ["oat", "--n", "12", "--theta", "0.3"],
            ["husimi", "--n", "6", "--theta", "1.1", "--n-theta", "3", "--n-phi", "4"],
        ):
            fresh = subprocess.run(
                [sys.executable, "-c", "from spinsqueeze.cli import main; main()", *argv],
                capture_output=True, text=True, env=env,
            )
            assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_start_up_defers_optimize_and_special(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sq.__file__)))
        probe = ("import sys, spinsqueeze.cli; "
                 "print(sorted(m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules))")
        fresh = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert (fresh.returncode, fresh.stdout) == (0, "[]\n")


class TestOatCommand:
    def test_json_value_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, "oat", "--n", "12", "--theta", "0.3", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        want = 1.0 - 11.0 * sq.oat_concurrence(12, 0.3)
        assert abs(row["xi_S2"] - want) < 1e-12

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run(capsys, "oat", "--n", "12", "--theta", "0.3")
        cell = out.splitlines()[1].split(",")[2]
        assert len(cell.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 16


class TestMetricsCommand:
    def test_css_all_unit(self, capsys):
        code, out, _ = run(
            capsys, "metrics", "--state", "css", "--n", "4", "--theta", "1.0",
            "--phi", "0.5", "--format", "json",
        )
        assert code == 0
        row = json.loads(out)[0]
        for key in ("xi_S2", "xi_R2", "xi_Rprime2", "xi_D2", "xi_E2", "tilde_xi_E2"):
            assert abs(row[key] - 1.0) < 1e-10

    def test_large_n_css_accepted(self, capsys):
        code, out, err = run(capsys, "metrics", "--state", "css", "--n", "100000",
                             "--theta", "1.1", "--phi", "0.4", "--format", "json")
        assert (code, err) == (0, "")
        assert abs(json.loads(out)[0]["xi_S2"] - 1.0) < 1e-6

    def test_dicke_needs_m(self, capsys):
        code, _, err = run(capsys, "metrics", "--state", "dicke", "--n", "4")
        assert code == 1


class TestChannelCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "channel", "--channel", "pdc", "--n", "12", "--theta0", "0.5",
            "--p", "0:0.9:10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,xi_S2,xi_R2,tilde_xi_E2,Cr"
        assert len(lines) == 11

    def test_squeezing_dies_at_large_p(self, capsys):
        _, out, _ = run(
            capsys, "channel", "--channel", "dpc", "--n", "12", "--theta0", "1.5",
            "--p", "0:0.99:12",
        )
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        cr = [float(r[4]) for r in rows]
        assert cr[0] > 0.0
        assert cr[-1] == 0.0


class TestRamseyCommand:
    def test_sweep_columns(self, capsys):
        code, out, _ = run(
            capsys, "ramsey", "--n", "8", "--state", "css", "--readout", "jz",
            "--phi", "0.2:3.0:7",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi,signal,dsignal,dphi"
        assert len(lines) == 8

    def test_zero_slope_row_flagged_empty(self, capsys):
        _, out, _ = run(
            capsys, "ramsey", "--n", "8", "--state", "css", "--readout", "jz",
            "--phi", "0.0,1.0",
        )
        rows = out.strip().splitlines()[1:]
        assert rows[0].endswith(",")  # dphi empty at phi = 0
        assert not rows[1].endswith(",")


class TestQndCommand:
    def test_json_fields(self, capsys):
        code, out, _ = run(
            capsys, "qnd", "--n", "10000", "--photons", "256000", "--chi", "5e-5",
            "--eta", "0.14", "--trials", "2000", "--seed", "3", "--format", "json",
        )
        assert code == 0
        row = json.loads(out)[0]
        assert abs(row["kappa2"] - 1.6) < 1e-12
        assert "mc_ratio" in row and "db_with_loss" in row


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for path in (out1, out2):
            code = run_cli(
                ["kicked-top", "--kappa", "3", "--spin-j", "25", "--theta0", "2.25",
                 "--phi0", "0.5", "--kicks", "30", "--out", str(path)]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_qnd_seeded_runs_identical(self, tmp_path):
        args = ["qnd", "--n", "4000", "--photons", "64000", "--chi", "1e-4",
                "--trials", "5000", "--seed", "11", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def write_config(self, tmp_path, text):
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        return str(path)

    def test_oat_sweep_unimodal(self, tmp_path, capsys):
        n = 1000
        theta0 = 12.0 ** (1.0 / 6.0) * (n / 2.0) ** (-2.0 / 3.0)
        cfg = self.write_config(
            tmp_path,
            f"op = oat\ngrid.n = {n}\ngrid.theta = {theta0/6.0}:{3.0*theta0}:40\n",
        )
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == 0
        lines = out.strip().splitlines()
        cols = lines[0].split(",")
        idx = cols.index("xi_S2")
        vals = [float(ln.split(",")[idx]) for ln in lines[1:]]
        k = int(np.argmin(vals))
        assert all(a > b for a, b in zip(vals[: k], vals[1 : k + 1]))
        assert all(a < b for a, b in zip(vals[k : -1], vals[k + 1 :]))

    def test_points_run_in_calling_thread(self, monkeypatch):
        params, fn = cli.SWEEP_OPS["oat"]
        seen = []

        def recording(**kwargs):
            seen.append(threading.get_ident())
            return fn(**kwargs)

        monkeypatch.setitem(cli.SWEEP_OPS, "oat", (params, recording))
        grids = {"n": [12, 40], "theta": list(np.linspace(0.1, 1.0, 16))}
        _, rows = sweep(SweepConfig("oat", grids))
        assert [row["status"] for row in rows] == ["ok"] * 32
        assert seen == [threading.get_ident()] * 32

    def test_non_finite_lmg_point_flagged(self, tmp_path, capsys):
        # the config parser refuses a non-finite grid value; a sweep built in
        # the library still reaches LMGSpec and flags the point
        cfg = self.write_config(tmp_path, "op = lmg\ngrid.n = 8\ngrid.h = 0.5,nan\ngrid.gamma = 0.2\n")
        code, out, err = run(capsys, "sweep", "--config", cfg)
        assert (code, out) == (2, "")
        assert "grid h" in err
        grids = {"n": [8], "h": [0.5, float("nan")], "gamma": [0.2]}
        _, rows = sweep(SweepConfig("lmg", grids))
        assert [row["status"] for row in rows] == ["ok", "error: h must be finite"]

    def test_fractional_n_point_flagged(self):
        # the config parser refuses a fractional n; a sweep built in the
        # library flags the point instead of truncating it
        grids = {"channel": ["pdc"], "n": [2, 2.5, 6.0], "theta0": [0.3], "p": [0.1]}
        _, rows = sweep(SweepConfig("channel", grids))
        statuses = [row["status"] for row in rows]
        assert statuses[0] == statuses[2] == "ok"
        assert statuses[1].startswith("error: invalid system size N=2.5")

    def test_integral_float_n_matches_int(self, tmp_path, capsys):
        outs = []
        for n in ("6", "6.0"):
            cfg = self.write_config(tmp_path, f"op = oat\ngrid.n = {n}\ngrid.theta = 0.3\n")
            code, out, _ = run(capsys, "sweep", "--config", cfg)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_unknown_operation_rejected(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "op = teleport\ngrid.n = 2\n")
        code, _, err = run(capsys, "sweep", "--config", cfg)
        assert code == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "op = oat\ngrid.n = 12\ngrid.theta = 0.1\nseed = 3\n")
        code, _, err = run(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert "unknown key 'seed'" in err

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "op = oat\ngrid.n = 12\ngrid.theta =\n")
        code, _, _ = run(capsys, "sweep", "--config", cfg)
        assert code == 2

    def test_bad_grid_count_rejected(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "op = oat\ngrid.n = 12\ngrid.theta = 0:1:0\n")
        code, _, _ = run(capsys, "sweep", "--config", cfg)
        assert code == 2

    def test_tat_sweep_solves_two_blocks_once(self, tmp_path, capsys, monkeypatch):
        def no_dense(*args, **kwargs):
            raise AssertionError("dense eigh called")

        calls = []
        tridiagonal = states.eigh_tridiagonal

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return tridiagonal(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", no_dense)
        monkeypatch.setattr(np.linalg, "eigh", no_dense)
        monkeypatch.setattr(states, "eigh_tridiagonal", counting)
        monkeypatch.setattr(states, "_GENERATOR_EIGEN", states._EigenCache(states._EIGEN_CACHE_BYTES))
        cfg = self.write_config(tmp_path, "op = tat\ngrid.n = 40\ngrid.chi_t = 0.01:0.4:16\n")
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == 0
        statuses = [ln.rsplit(",", 1)[-1] for ln in out.strip().splitlines()[1:]]
        assert statuses == ["ok"] * 16
        assert sorted(calls) == [20, 21]  # the odd and even parity blocks of N = 40

    def test_per_point_failure_flagged(self, tmp_path, capsys):
        # theta outside [0, pi] in the metrics path is fine for oat (closed
        # forms accept any angle); provoke a failure through lmg gamma
        cfg = self.write_config(
            tmp_path, "op = lmg\ngrid.n = 8\ngrid.h = 0.5,1.0\ngrid.gamma = 0.2,1.5\n"
        )
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == 0
        lines = out.strip().splitlines()
        assert "status" in lines[0]
        statuses = [ln.rsplit(",", 1)[-1] for ln in lines[1:]]
        assert any(s == "ok" for s in statuses)
        assert any(s.startswith("error") for s in statuses)

    def test_channel_figure_shape(self, tmp_path, capsys):
        # decoherence sweep reproduces the squeezing-death figure shape:
        # parameters decay with p and the witnesses vanish in order
        cfg = self.write_config(
            tmp_path,
            "op = channel\ngrid.channel = adc\ngrid.n = 12\ngrid.theta0 = 1.5\n"
            "grid.p = 0:0.98:40\n",
        )
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        lines = out.strip().splitlines()
        cols = lines[0].split(",")
        rows = [ln.split(",") for ln in lines[1:]]
        cr = [float(r[cols.index("Cr")]) for r in rows]
        tilde = [float(r[cols.index("tilde_xi_E2")]) for r in rows]
        assert cr[0] > 0 and cr[-1] == 0.0
        p_die_cr = next(i for i, v in enumerate(cr) if v == 0.0)
        p_die_tilde = next((i for i, v in enumerate(tilde) if v >= 1.0), len(tilde))
        assert p_die_tilde >= p_die_cr

    def test_svg_output(self, tmp_path):
        out = tmp_path / "plot.svg"
        cfg = self.write_config(
            tmp_path, f"op = oat\ngrid.n = 50\ngrid.theta = 0.01:0.6:30\nformat = svg\nout = {out}\n"
        )
        assert run_cli(["sweep", "--config", cfg]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and "polyline" in text


class TestTatCommand:
    def test_trajectory_columns(self, capsys):
        code, out, _ = run(capsys, "tat", "--n", "14", "--chi-t", "0.1", "--points", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,chi_t,xi_S2,xi_R2,tilde_xi_E2,Jx,Jy,Jz"
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert float(last[2]) < 1.0  # squeezed inside the window


class TestHusimiCommand:
    def test_grid_output(self, capsys):
        code, out, _ = run(
            capsys, "husimi", "--n", "12", "--theta", "1.5707963", "--oat-chi-t", "0.1",
            "--n-theta", "6", "--n-phi", "8",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,phi,q"
        assert len(lines) == 49
        q = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert all(0.0 <= v <= 1.0 for v in q)


    @pytest.mark.parametrize(
        "extra",
        [
            ["--n", "120", "--oat-chi-t", "0.05"],
            ["--n", "37", "--theta", "1.1", "--phi", "0.4", "--n-theta", "7", "--n-phi", "5"],
            ["--n", "5", "--n-theta", "1", "--n-phi", "1"],
        ],
    )
    def test_csv_matches_row_writer(self, tmp_path, capsys, extra):
        from spinsqueeze import cli, twist

        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert run(capsys, "husimi", *extra, "--out", str(path))[0] == 0
        got = paths[0].read_bytes()
        assert got == paths[1].read_bytes()  # repeated runs are byte-identical
        args = cli._build_parser().parse_args(["husimi", *extra])
        psi = sq.css(args.n, args.theta, args.phi)
        if args.oat_chi_t is not None:
            psi = twist.evolve(psi, twist.HamiltonianSpec(twist.OAT_X, 1.0), args.oat_chi_t)
        thetas = np.linspace(0.0, np.pi, args.n_theta)
        phis = np.linspace(0.0, 2.0 * np.pi, args.n_phi, endpoint=False)
        pts = [(t, p) for t in thetas for p in phis]
        q = states.husimi_q(psi, pts)
        rows = [{"theta": t, "phi": p, "q": float(v)} for (t, p), v in zip(pts, q)]
        assert got == cli._rows_to_csv(["theta", "phi", "q"], rows).encode()
        _, out, _ = run(capsys, "husimi", *extra, "--format", "json")
        items = json.loads(out)
        assert [(r["theta"], r["phi"], r["q"]) for r in items] == [
            (r["theta"], r["phi"], r["q"]) for r in rows
        ]

    def test_large_n_without_dense_arrays(self, capsys):
        # per-point rows of coherent-state amplitudes would be 48 x 10001
        # complex numbers here; no time budget
        import tracemalloc

        n, n_theta, n_phi = 10**4, 6, 8
        argv = ["husimi", "--n", str(n), "--n-theta", str(n_theta), "--n-phi", str(n_phi)]
        tracemalloc.start()
        try:
            code = run_cli(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert peak < n_theta * n_phi * (n + 1) * 16
        lines = out.strip().splitlines()
        assert len(lines) == 1 + n_theta * n_phi
        q = np.array([float(ln.split(",")[2]) for ln in lines[1:]])
        # the north-pole coherent state: Q = cos(theta/2)^(2N)
        assert np.all(np.abs(q[:n_phi] - 1.0) < 1e-12) and np.all(q[n_phi:] < 1e-300)


class TestLmgCommand:
    def test_h_grid(self, capsys):
        code, out, _ = run(
            capsys, "lmg", "--n", "32", "--gamma", "0.0", "--h-grid", "0.6", "1.4", "5",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_h_grid_count_must_be_positive_integer(self, capsys):
        for count in ("0", "2.7", "-3"):
            code, out, err = run(
                capsys, "lmg", "--n", "8", "--gamma", "0", "--h-grid", "0.5", "1.0", count,
            )
            assert code == 2
            assert out == ""
            assert "COUNT" in err


_SWEEP_BASE = "op = oat\ngrid.n = 12\ngrid.theta = 0.1,0.2\n"
_METRICS = ["metrics", "--state", "css", "--n", "8"]
_KICKED_AT = ["kicked-top", "--kappa", "1", "--spin-j", "5", "--kicks", "3"]
_RAMSEY = ["ramsey", "--n", "10", "--phi"]
_CHANNEL = ["channel", "--channel", "pdc", "--n", "8", "--theta0", "0.5", "--p"]


@pytest.mark.parametrize(
    "argv, config, name",
    [
        pytest.param(["channel", "--channel", "pdc", "--n", "8", "--theta0", "0.5", "--p", "0:1:2.7"],
                     None, "--p", id="channel-p-count-2.7"),
        pytest.param(["ramsey", "--n", "8", "--phi", "0:1:x"], None, "--phi", id="ramsey-phi-count-x"),
        pytest.param([], "op = oat\ngrid.n = 12\ngrid.theta = 0:1:2.5\n", "theta",
                     id="config-grid-count-2.5"),
        pytest.param(["tat", "--n", "8", "--chi-t", "0.1", "--points", "-3"], None, "--points",
                     id="tat-points--3"),
        pytest.param(["tat", "--n", "8", "--chi-t", "0.1", "--points", "0"], None, "--points",
                     id="tat-points-0"),
        pytest.param(_KICKED_AT[:-1] + ["0", "--theta0", "1.0", "--phi0", "0.0"], None, "--kicks",
                     id="kicked-top-kicks-0"),
        pytest.param(["qnd", "--n", "100", "--photons", "1000", "--chi", "0.001", "--trials", "-3"],
                     None, "--trials", id="qnd-trials--3"),
        pytest.param([], "op = oat\ngrid.n = 2:11:3\ngrid.theta = 0.3\n", "grid n",
                     id="config-n-fractional-linear"),
        pytest.param([], "op = channel\ngrid.channel = pdc\ngrid.n = 2.5\ngrid.theta0 = 0.3\n"
                     "grid.p = 0.1\n", "grid n", id="config-n-fractional-list"),
        *[
            pytest.param([], _SWEEP_BASE + f"workers = {value}\n", "unknown key 'workers'",
                         id=f"config-workers-{value}")
            for value in ("4", "2.5", "abc", "0", "-3")
        ],
        *[
            pytest.param(["--workers", value], _SWEEP_BASE, "--workers", id=f"sweep-workers-flag-{value}")
            for value in ("2", "0")
        ],
        pytest.param(["oat", "--n", "abc", "--theta", "0.3"], None, "argument --n", id="oat-n-abc"),
        pytest.param(_RAMSEY + ["nan"], None, "grid --phi", id="ramsey-phi-nan"),
        pytest.param(_RAMSEY + ["0.3,inf"], None, "grid --phi", id="ramsey-phi-list-inf"),
        pytest.param(_RAMSEY + ["1e400"], None, "grid --phi", id="ramsey-phi-overflow"),
        pytest.param(_RAMSEY + ["0:inf:3"], None, "grid --phi", id="ramsey-phi-stop-inf"),
        pytest.param(_RAMSEY[:-1] + ["--phi=-inf:1:1"], None, "grid --phi", id="ramsey-phi-start--inf"),
        pytest.param(_CHANNEL + ["nan:1:3"], None, "grid --p", id="channel-p-start-nan"),
        pytest.param(_CHANNEL + ["0.1,nan"], None, "grid --p", id="channel-p-list-nan"),
        pytest.param([], "op = ramsey\ngrid.n = 8\ngrid.state = css\ngrid.readout = jz\n"
                     "grid.phi = 0.2,-inf\n", "grid phi", id="config-phi-list--inf"),
        pytest.param([], "op = oat\ngrid.n = 12\ngrid.theta = 0:nan:4\n", "grid theta",
                     id="config-theta-stop-nan"),
        pytest.param(_METRICS + ["--theta", "nan"], None, "--theta", id="metrics-theta-nan"),
        pytest.param(_METRICS + ["--phi", "nan"], None, "--phi", id="metrics-phi-nan"),
        pytest.param(["metrics", "--state", "dicke", "--n", "8", "--m", "nan"], None, "--m",
                     id="metrics-m-nan"),
        pytest.param(["channel", "--channel", "pdc", "--n", "8", "--theta0", "nan", "--p", "0.1"],
                     None, "--theta0", id="channel-theta0-nan"),
        pytest.param(_KICKED_AT + ["--theta0", "nan", "--phi0", "0.0"], None, "--theta0",
                     id="kicked-top-theta0-nan"),
        pytest.param(_KICKED_AT + ["--theta0", "1.0", "--phi0", "inf"], None, "--phi0",
                     id="kicked-top-phi0-inf"),
        pytest.param(["kicked-top", "--kappa", "1", "--spin-j", "inf", "--theta0", "1.0",
                      "--phi0", "0.0", "--kicks", "3"], None, "--spin-j", id="kicked-top-spin-j-inf"),
        pytest.param(_CHANNEL + [","], None, "grid --p is empty", id="channel-p-empty"),
        pytest.param(_RAMSEY + [","], None, "grid --phi is empty", id="ramsey-phi-empty"),
    ],
)
def test_bad_count_is_usage_error(tmp_path, capsys, argv, config, name):
    if config is not None:
        path = tmp_path / "sweep.cfg"
        path.write_text(config)
        argv = ["sweep", "--config", str(path), *argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert name in err


_QND = ["qnd", "--n", "100", "--photons", "1000", "--chi"]
_KICKED = ["kicked-top", "--spin-j", "5", "--theta0", "1.0", "--phi0", "0.0", "--kicks", "3"]


@pytest.mark.parametrize(
    "argv, name",
    [
        pytest.param(_QND + ["nan"], "chi", id="qnd-chi-nan"),
        pytest.param(_QND + ["inf"], "chi", id="qnd-chi-inf"),
        pytest.param(_QND + ["1e160"], "chi", id="qnd-chi-1e160"),
        pytest.param(_KICKED + ["--kappa", "nan"], "kappa", id="kicked-top-kappa-nan"),
        pytest.param(_KICKED + ["--kappa", "1e308"], "kappa", id="kicked-top-kappa-1e308"),
        pytest.param(["oat", "--n", "10", "--theta", "nan"], "theta", id="oat-theta-nan"),
        pytest.param(["tat", "--n", "20", "--chi-t", "1e307"], "chi*t", id="tat-chi-t-1e307"),
        pytest.param(["husimi", "--n", "20", "--oat-chi-t", "1e307"], "chi*t",
                     id="husimi-oat-chi-t-1e307"),
    ],
)
def test_non_finite_parameter_is_numeric_error(capsys, argv, name):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and name in err


_HUSIMI = ["husimi", "--n", "8"]


@pytest.mark.parametrize(
    "argv, name",
    [
        pytest.param(_HUSIMI + ["--phi", "nan"], "--phi", id="phi-nan"),
        pytest.param(_HUSIMI + ["--theta", "inf"], "--theta", id="theta-inf"),
        pytest.param(_HUSIMI + ["--theta", "-inf"], "--theta", id="theta--inf"),
        pytest.param(_HUSIMI + ["--oat-chi-t", "nan"], "--oat-chi-t", id="oat-chi-t-nan"),
        pytest.param(_HUSIMI + ["--oat-chi-t", "inf"], "--oat-chi-t", id="oat-chi-t-inf"),
        pytest.param(_HUSIMI + ["--n-theta", "0"], "--n-theta", id="n-theta-0"),
        pytest.param(_HUSIMI + ["--n-phi", "-2"], "--n-phi", id="n-phi--2"),
        pytest.param(_HUSIMI + ["--format", "json", "--n-phi", "0"], "--n-phi", id="json-n-phi-0"),
    ],
)
def test_bad_husimi_input_is_usage_error(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert name in err
