"""The four benchmark workloads: inputs made from a seed, requests into the
program, and checks of every output against ``oracles``.

A round is a fixed list of jobs; every round of a workload has the same make-up
and sizes, only the seeded values differ. A job is one operation group (a sweep
of grid points, a kicked-top trajectory, one analysed state) and consists of one
or more requests, each a single call into the program.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from spinsqueeze import SymmetricState, cli, entangle, metrology, states, twist

import oracles as orc
from oracles import close, require


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    # check(result) raises CheckError on a wrong output and returns how many
    # of the job's operations failed (sweep rows whose status is not ok)
    check: Callable[[object], int] = lambda _result: 0
    output: str = ""  # the CSV file the request writes, if any


@dataclass
class Job:
    ops: int
    requests: list[Request] = field(default_factory=list)


def _rng(seed: int, index: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, salt])


def _stratified(rng, lo: float, hi: float, count: int, log: bool = False) -> list[float]:
    """One seeded value in each of ``count`` equal slices of [lo, hi] (of the
    log scale when ``log``): every seed gives the same spread of values, so a
    round's cost does not depend on the seed."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    x = a + (b - a) * (np.arange(count) + rng.uniform(size=count)) / count
    return [float(v) for v in (np.exp(x) if log else x)]


def _fmt(values) -> str:
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values)


def _run_cli(argv: list[str]) -> int:
    code = cli.run_cli(argv)
    if code != 0:
        raise RuntimeError(f"spinsqueeze {' '.join(argv)} exited with {code}")
    return code


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def sweep_request(kind: str, outdir: str, tag: str, grids: dict, check_rows) -> Request:
    """Write a sweep config and return the request that runs it through the CLI.

    The config leaves ``workers`` unset, so the sweep uses the program's
    default worker count, as a user gets it.
    """
    cfg_path = os.path.join(outdir, f"{tag}.cfg")
    csv_path = os.path.join(outdir, f"{tag}.csv")
    lines = [f"op = {kind}"] + [f"grid.{k} = {v if isinstance(v, str) else _fmt(v)}"
                                for k, v in grids.items()]
    lines += ["format = csv", f"out = {csv_path}"]
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    def check(_code) -> int:
        rows = read_rows(csv_path)
        return check_rows(rows)

    return Request(kind, lambda: _run_cli(["sweep", "--config", cfg_path]), check, csv_path)


def check_grid_order(rows: list[dict], names: list[str], axes: list[list]) -> int:
    """Rows come in lexicographic grid order; returns the rows not ``ok``."""
    expected = [()]
    for axis in axes:
        expected = [e + (v,) for e in expected for v in axis]
    require(len(rows) == len(expected), f"{len(rows)} rows for {len(expected)} grid points")
    for row, point in zip(rows, expected):
        got = tuple(row[n] for n in names)
        require(all(g == w for g, w in zip(got, point)),
                f"row {got} out of grid order, expected {point}")
    return sum(1 for row in rows if row["status"] != "ok")


class Workload:
    """A named workload; BENCHMARK.json and README.md record why it was chosen."""

    name = ""

    def round(self, seed: int, index: int, outdir: str) -> list[Job]:
        raise NotImplementedError

    def warmup(self, outdir: str) -> list[Job]:
        """Tiny requests of every kind the workload issues."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class ClosedFormSweep(Workload):
    name = "closed-form-sweep"
    OAT_N = [10, 32, 100, 316, 1000, 3162, 10000, 31623, 100000, 316228, 1000000]
    OAT_THETAS = 180
    CHANNEL_N = [2, 3, 5, 8, 64, 1000, 100000]
    CHANNEL_THETA0 = 6
    P_GRID = (0.0, 0.95, 48)
    KU_SAMPLE = 24
    # agreement of xi_S^2 from the program's moment route with the
    # Kitagawa-Ueda closed form; the moment route loses digits to
    # cancellation near the optimal twist at N = 10^6 (worst seen 8.1e-9
    # over 33,000 points)
    KU_REL = 1e-7
    BRUTE_REL = 1e-9

    def _oat(self, rng, outdir, part, thetas, ns, sample):
        def check_rows(rows):
            failed = check_grid_order(rows, ["n", "theta"], [ns, thetas])
            defined = [r for r in rows if r["status"] == "ok" and r["msd_defined"]]
            picks = rng.choice(len(defined), size=min(sample, len(defined)), replace=False)
            for i in picks:
                r = defined[i]
                want = orc.oat_xi_s2(int(r["n"]), r["theta"])
                require(close(r["xi_S2"], want, self.KU_REL),
                        f"oat N={r['n']} theta={r['theta']}: xi_S2 {r['xi_S2']} != {want}")
            return failed

        return sweep_request("oat", outdir, f"{self.name}-oat{part}",
                             {"n": ns, "theta": thetas}, check_rows)

    def _channel(self, rng, outdir, kinds, theta0s, ns, p_grid):
        start, stop, count = p_grid
        ps = [float(p) for p in np.linspace(start, stop, count)]

        def check_rows(rows):
            failed = check_grid_order(rows, ["channel", "n", "theta0", "p"],
                                      [kinds, ns, theta0s, ps])
            for kind in kinds:
                small = [r for r in rows
                         if r["status"] == "ok" and r["channel"] == kind and r["n"] <= 8]
                r = small[int(rng.integers(len(small)))]
                want_s, want_r = orc.channel_brute_force(kind, int(r["n"]), r["theta0"], r["p"])
                require(close(r["xi_S2"], want_s, self.BRUTE_REL, 1e-12)
                        and close(r["xi_R2"], want_r, self.BRUTE_REL, 1e-12),
                        f"{kind} N={r['n']} theta0={r['theta0']} p={r['p']}: "
                        f"({r['xi_S2']}, {r['xi_R2']}) != brute force ({want_s}, {want_r})")
            return failed

        grids = {"channel": ",".join(kinds), "n": ns, "theta0": theta0s,
                 "p": f"{start}:{stop}:{count}"}
        return sweep_request("channel", outdir, f"{self.name}-channel", grids, check_rows)

    def round(self, seed, index, outdir):
        rng = _rng(seed, index, 1)
        thetas = _stratified(rng, 1e-4, 0.5, self.OAT_THETAS, log=True)
        theta0s = _stratified(rng, 0.02, 1.2, self.CHANNEL_THETA0)
        check_rng = _rng(seed, index, 2)
        jobs = []
        # three oat sweeps over interleaved thirds of the angles, so each
        # spans the whole range and costs the same
        for part in range(3):
            part_thetas = thetas[part::3]
            jobs.append(Job(len(self.OAT_N) * len(part_thetas),
                            [self._oat(check_rng, outdir, part, part_thetas, self.OAT_N,
                                       self.KU_SAMPLE // 3)]))
        kinds = ["adc", "pdc", "dpc"]
        jobs.append(Job(len(kinds) * len(self.CHANNEL_N) * len(theta0s) * self.P_GRID[2],
                        [self._channel(check_rng, outdir, kinds, theta0s, self.CHANNEL_N,
                                       self.P_GRID)]))
        return jobs

    def warmup(self, outdir):
        rng = np.random.default_rng(0)
        return [Job(4, [self._oat(rng, outdir, 0, [0.01, 0.1], [10, 1000], 1)]),
                Job(12, [self._channel(rng, outdir, ["adc", "pdc", "dpc"], [0.3], [3, 100],
                                       (0.0, 0.5, 2))])]


# ---------------------------------------------------------------------------


class KickedTop(Workload):
    name = "kicked-top"
    N = 200
    KICKS = 100
    KAPPAS = (3.0, 0.5)  # chaotic, regular
    REFERENCE_KICKS = 3
    REL = 1e-9

    def _job(self, n, kappa, theta0, phi0, kicks, reference_kicks):
        psi0 = orc.coherent(n, theta0, phi0)
        initial = SymmetricState(n, psi0)
        spec = twist.KickedTopSpec(kappa=kappa, j=n / 2.0)
        j = n / 2.0

        def check(result) -> int:
            require(len(result.reports) == kicks and result.means.shape == (kicks, 3),
                    f"kicked top returned {len(result.reports)} reports for {kicks} kicks")
            for k, (rep, mean) in enumerate(zip(result.reports, result.means)):
                length = float(np.linalg.norm(mean))
                require(length <= j * (1.0 + 1e-12), f"kick {k + 1}: |<J>| = {length} > j = {j}")
                require(close(rep.mean_spin_length, length, 1e-12, 1e-12),
                        f"kick {k + 1}: mean_spin_length {rep.mean_spin_length} != |<J>| {length}")
            ref = orc.kicked_top_reference(psi0, n, kappa, spec.p, reference_kicks)
            for k, (mean, xi) in enumerate(ref):
                got = result.means[k]
                require(np.max(np.abs(got - mean)) <= self.REL * j,
                        f"kick {k + 1}: mean {got} != dense propagation {mean}")
                require(close(result.reports[k].xi_S2, xi, self.REL),
                        f"kick {k + 1}: xi_S2 {result.reports[k].xi_S2} != {xi}")
            return 0

        call = lambda: twist.kicked_top_trajectory(initial, spec, kicks)
        return Job(kicks, [Request(f"kicked_top_k{kappa:g}", call, check)])

    def round(self, seed, index, outdir):
        rng = _rng(seed, index, 3)
        jobs = []
        for kappa in self.KAPPAS:
            theta0 = float(rng.uniform(0.3, math.pi - 0.3))
            phi0 = float(rng.uniform(0.0, 2.0 * math.pi))
            jobs.append(self._job(self.N, kappa, theta0, phi0, self.KICKS, self.REFERENCE_KICKS))
        return jobs

    def warmup(self, outdir):
        return [self._job(self.N, kappa, 1.0, 0.5, 2, 1) for kappa in self.KAPPAS]


# ---------------------------------------------------------------------------


class SpectralSweep(Workload):
    name = "spectral-sweep"
    N = 200
    # sized so that lmg < ramsey < tat in latency: the median request of a
    # round is then always a ramsey sweep, not a flip between two kinds
    TAT_POINTS = 16
    LMG_H = 6
    LMG_GAMMA = 2
    RAMSEY_PHI = 4
    SAMPLE = 2
    REL = 1e-8

    def _tat(self, rng, outdir, n, chi_ts, sample):
        def check_rows(rows):
            failed = check_grid_order(rows, ["n", "chi_t"], [[n], chi_ts])
            for i in rng.choice(len(rows), size=sample, replace=False):
                r = rows[i]
                mean, xi = orc.tat_reference(n, r["chi_t"])
                got = np.array([r["Jx"], r["Jy"], r["Jz"]])
                require(np.max(np.abs(got - mean)) <= self.REL * n,
                        f"tat chi_t={r['chi_t']}: mean {got} != expm {mean}")
                require(close(r["xi_S2"], xi, self.REL),
                        f"tat chi_t={r['chi_t']}: xi_S2 {r['xi_S2']} != expm {xi}")
            return failed

        return sweep_request("tat", outdir, f"{self.name}-tat",
                             {"n": [n], "chi_t": chi_ts}, check_rows)

    def _lmg(self, rng, outdir, n, hs, gammas, sample):
        def check_rows(rows):
            failed = check_grid_order(rows, ["n", "h", "gamma"], [[n], hs, gammas])
            for i in rng.choice(len(rows), size=sample, replace=False):
                r = rows[i]
                (e0, xi0), (e1, xi1) = orc.lmg_reference(n, r["h"], r["gamma"])
                tied = e1 - e0 <= 1e-9 * max(1.0, abs(e0))
                ok = close(r["xi_S2"], xi0, self.REL) or (tied and close(r["xi_S2"], xi1, self.REL))
                require(ok, f"lmg h={r['h']} gamma={r['gamma']}: xi_S2 {r['xi_S2']} != eigh {xi0}")
            return failed

        return sweep_request("lmg", outdir, f"{self.name}-lmg",
                             {"n": [n], "h": hs, "gamma": gammas}, check_rows)

    def _ramsey(self, outdir, n, phis):
        state_names, readouts = ["css", "sss", "ghz"], ["jz", "parity"]

        def check_rows(rows):
            failed = check_grid_order(rows, ["n", "state", "readout", "phi"],
                                      [[n], state_names, readouts, phis])
            heisenberg = 1.0 / n
            for r in rows:
                if r["dphi"] is None:
                    continue
                # parity readout: dphi = sqrt(1 - P^2) / |dP/dphi| loses digits
                # as P -> +-1, relative error ~ 2e-15 / (1 - P^2) (measured)
                slack = 1e-9
                if r["readout"] == "parity":
                    slack += 1e-13 / max(1.0 - r["signal"] ** 2, 1e-300)
                require(r["dphi"] >= heisenberg * (1.0 - slack),
                        f"ramsey {r['state']}/{r['readout']} phi={r['phi']}: "
                        f"dphi {r['dphi']} below the Heisenberg limit 1/N")
                if r["state"] == "css" and r["readout"] == "jz":
                    require(close(r["dphi"], 1.0 / math.sqrt(n), 1e-9),
                            f"ramsey css/jz phi={r['phi']}: dphi {r['dphi']} != 1/sqrt(N)")
            ghz = [r for r in rows
                   if r["state"] == "ghz" and r["readout"] == "parity" and r["dphi"] is not None]
            best = max(ghz, key=lambda r: 1.0 - r["signal"] ** 2)
            require(close(best["dphi"], heisenberg, 1e-9),
                    f"ramsey ghz/parity phi={best['phi']}: dphi {best['dphi']} != 1/N")
            return failed

        grids = {"n": [n], "state": ",".join(state_names), "readout": ",".join(readouts),
                 "phi": phis}
        return sweep_request("ramsey", outdir, f"{self.name}-ramsey", grids, check_rows)

    def round(self, seed, index, outdir):
        rng = _rng(seed, index, 4)
        chi_ts = _stratified(rng, 1e-3, 0.1, self.TAT_POINTS, log=True)
        hs = _stratified(rng, 0.2, 2.0, self.LMG_H)
        gammas = _stratified(rng, 0.0, 1.0, self.LMG_GAMMA)
        phis = _stratified(rng, 0.1, math.pi - 0.1, self.RAMSEY_PHI)
        check_rng = _rng(seed, index, 5)
        n = self.N
        return [
            Job(len(chi_ts), [self._tat(check_rng, outdir, n, chi_ts, self.SAMPLE)]),
            Job(len(hs) * len(gammas), [self._lmg(check_rng, outdir, n, hs, gammas, self.SAMPLE)]),
            Job(6 * len(phis), [self._ramsey(outdir, n, phis)]),
        ]

    def warmup(self, outdir):
        rng = np.random.default_rng(0)
        return [
            Job(1, [self._tat(rng, outdir, 20, [0.05], 1)]),
            Job(1, [self._lmg(rng, outdir, 20, [0.5], [0.5], 1)]),
            Job(6, [self._ramsey(outdir, 20, [0.7])]),
        ]


# ---------------------------------------------------------------------------


class StateAnalysis(Workload):
    name = "state-analysis"
    # 12 requests a round; sizes keep evaluate_criteria and the husimi command
    # apart in latency, so the median request falls inside one of them
    CSS_N = 120
    OAT_N = (100, 120, 140)
    GRID = (60, 120)
    REL = 1e-9

    def _job(self, outdir, tag, n, psi, husimi_args, squeezed, generator_dir, sphere):
        state = SymmetricState(n, psi)
        jx, jy, jz = orc.spin_ops(n)
        gen = generator_dir[0] * jx + generator_dir[1] * jy + generator_dir[2] * jz
        csv_path = os.path.join(outdir, f"{StateAnalysis.name}-{tag}.csv")

        def check_criteria(rep) -> int:
            if squeezed is None:  # coherent state: separable, nothing may fire
                # A coherent state saturates the spin-j bound, so its margin is
                # 0 up to rounding of order eps * N^2. The program's flag uses a
                # fixed -1e-12 guard and fires on that rounding for about one
                # coherent state in five at N >= 150, on some seeds only, so the
                # margin is checked here instead of the flag.
                fired = [k for k, v in rep.to_dict().items()
                         if k.endswith("violated") and v and k != "spin_j_Fj_violated"]
                require(not fired, f"{tag}: a coherent state violates {fired}")
                require(abs(rep.spin_j_Fj_margin) <= 1e-13 * n * n,
                        f"{tag}: coherent state spin-j margin {rep.spin_j_Fj_margin} != 0")
            elif squeezed:
                require(rep.two_qubit_violated,
                        f"{tag}: spin-squeezed state does not violate the two-qubit criterion")
            return 0

        def check_chi(result) -> int:
            chi2, flag = result
            want = n / orc.qfi_pure(psi, gen)
            require(close(chi2, want, self.REL), f"{tag}: N/F = {chi2} != {want}")
            if squeezed is None:
                require(close(chi2, 1.0, self.REL) and not flag,
                        f"{tag}: coherent state N/F = {chi2}, flagged {flag}")
            return 0

        def check_husimi(_code) -> int:
            q = np.array([r["q"] for r in read_rows(csv_path)])
            require(q.size == self.GRID[0] * self.GRID[1], f"{tag}: {q.size} husimi rows")
            require(q.min() >= 0.0 and q.max() <= 1.0 + 1e-12,
                    f"{tag}: husimi Q outside [0, 1]: [{q.min()}, {q.max()}]")
            if sphere:
                # Q is a polynomial of degree N in cos(theta) and in e^{i phi}:
                # this grid integrates it exactly
                pts, weights = orc.sphere_grid(n // 2 + 6, n + 4)
                total = float(weights @ states.husimi_q(state, pts)) * (n + 1) / (4.0 * math.pi)
                require(abs(total - 1.0) <= 1e-10, f"{tag}: husimi_q integrates to {total}")
            return 0

        argv = ["husimi", "--n", str(n), *husimi_args, "--n-theta", str(self.GRID[0]),
                "--n-phi", str(self.GRID[1]), "--out", csv_path]
        requests = [
            Request("evaluate_criteria", lambda: entangle.evaluate_criteria(state),
                    check_criteria),
            Request("chi_criterion", lambda: metrology.chi_criterion(state, gen), check_chi),
            Request("husimi_cli", lambda: _run_cli(argv), check_husimi, csv_path),
        ]
        return Job(1, requests)

    def round(self, seed, index, outdir):
        rng = _rng(seed, index, 6)
        theta = float(rng.uniform(0.2, math.pi - 0.2))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        perp = (math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi), -math.sin(theta))
        jobs = [self._job(outdir, "css", self.CSS_N, orc.coherent(self.CSS_N, theta, phi),
                          ["--theta", repr(theta), "--phi", repr(phi)], None, perp, False)]
        for k, n in enumerate(self.OAT_N):
            mu = float(math.exp(rng.uniform(math.log(0.005), math.log(0.8))))
            alpha = float(rng.uniform(0.0, math.pi))
            jobs.append(self._job(outdir, f"oat{k}", n, orc.oat_twisted(n, mu),
                                  ["--oat-chi-t", repr(mu / 2.0)], orc.oat_xi_s2(n, mu) < 1.0,
                                  (math.cos(alpha), math.sin(alpha), 0.0), k == 0))
        return jobs

    def warmup(self, outdir):
        return [
            self._job(outdir, "warm-css", 20, orc.coherent(20, 1.0, 0.5), [], None,
                      (math.cos(1.0) * math.cos(0.5), math.cos(1.0) * math.sin(0.5),
                       -math.sin(1.0)), True),
        ]


WORKLOADS = {w.name: w for w in (ClosedFormSweep(), KickedTop(), SpectralSweep(),
                                 StateAnalysis())}
