"""Self-test of the benchmark's checkers.

    python3 bench/selftest.py

Runs each workload's requests on small inputs, confirms that the genuine
outputs pass their checks, then perturbs one output at a time (a row, a value,
the input state) and confirms that the check rejects it. Exits non-zero if a
genuine output is rejected or a perturbed one is accepted.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import oracles as orc  # noqa: E402
from oracles import CheckError  # noqa: E402
from spinsqueeze import SymmetricState, metrology  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = BENCH / ".out"
failures: list[str] = []


def expect(label: str, check, result, rejected: bool, failed_ops: int = 0) -> None:
    try:
        got = check(result)
    except CheckError as exc:
        if not rejected:
            failures.append(f"{label}: genuine output rejected: {exc}")
        return
    if rejected:
        failures.append(f"{label}: perturbed output accepted")
    elif got != failed_ops:
        failures.append(f"{label}: {got} failed operations, expected {failed_ops}")


def rewrite_csv(path: str, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def scale(column: str, factor: float, where=lambda row: True):
    def edit(rows):
        for row in rows:
            if where(row) and row[column] != "":
                row[column] = repr(float(row[column]) * factor)
        return rows
    return edit


def csv_cases(label: str, req, cases) -> None:
    """Genuine output passes; each (name, edit, rejected, failed) case is
    applied to a fresh copy of the request's CSV output."""
    code = req.call()
    expect(label, req.check, code, rejected=False)
    original = Path(req.output).read_text(encoding="utf-8")
    for name, edit, rejected, failed in cases:
        rewrite_csv(req.output, edit)
        expect(f"{label} / {name}", req.check, code, rejected, failed)
        Path(req.output).write_text(original, encoding="utf-8")


def swap_first_two(rows):
    rows[0], rows[1] = rows[1], rows[0]
    return rows


def fail_one(rows):
    rows[0]["status"] = "error: injected"
    return rows


def closed_form() -> None:
    w = WORKLOADS["closed-form-sweep"]
    rng = np.random.default_rng(7)
    oat = w._oat(rng, str(OUT), 0, [0.01, 0.05, 0.2], [10, 1000, 100000], 9)
    csv_cases("oat", oat, [
        ("xi_S2 off by 1e-6", scale("xi_S2", 1 + 1e-6), True, 0),
        ("rows swapped", swap_first_two, True, 0),
        ("row dropped", lambda rows: rows[1:], True, 0),
        ("status not ok", fail_one, False, 1),
    ])
    channel = w._channel(rng, str(OUT), ["adc", "pdc", "dpc"], [0.4], [3, 6, 100], (0.0, 0.9, 4))
    for kind in ("adc", "pdc", "dpc"):
        small = lambda row, kind=kind: row["channel"] == kind and int(row["n"]) <= 8
        csv_cases(kind, channel, [
            ("xi_S2 off by 1e-6", scale("xi_S2", 1 + 1e-6, small), True, 0),
            ("xi_R2 off by 1e-6", scale("xi_R2", 1 + 1e-6, small), True, 0),
        ])


def kicked_top() -> None:
    w = WORKLOADS["kicked-top"]
    job = w._job(40, 3.0, 1.1, 0.4, 6, 3)
    req = job.requests[0]
    res = req.call()
    expect("kicked-top", req.check, res, rejected=False)
    j = 20.0
    means = res.means.copy()
    means[1, 0] += 1e-6 * j
    expect("kicked-top / mean off", req.check, res._replace(means=means), True)
    means = res.means.copy()
    means[5] *= 1.5 * j / np.linalg.norm(means[5])
    expect("kicked-top / |<J>| > j", req.check, res._replace(means=means), True)
    reports = list(res.reports)
    reports[2] = dataclasses.replace(reports[2], xi_S2=reports[2].xi_S2 * (1 + 1e-6))
    expect("kicked-top / xi_S2 off", req.check, res._replace(reports=reports), True)
    reports = list(res.reports)
    reports[4] = dataclasses.replace(reports[4], mean_spin_length=reports[4].mean_spin_length + 1e-6)
    expect("kicked-top / mean_spin_length off", req.check, res._replace(reports=reports), True)
    expect("kicked-top / kick missing", req.check,
           res._replace(reports=res.reports[:-1], means=res.means[:-1]), True)


def spectral() -> None:
    w = WORKLOADS["spectral-sweep"]
    rng = np.random.default_rng(7)
    csv_cases("tat", w._tat(rng, str(OUT), 30, [0.01, 0.05], 2), [
        ("Jz off by 1e-6", scale("Jz", 1 + 1e-6), True, 0),
        ("xi_S2 off by 1e-6", scale("xi_S2", 1 + 1e-6), True, 0),
    ])
    csv_cases("lmg", w._lmg(rng, str(OUT), 30, [0.5, 1.5], [0.3], 2), [
        ("xi_S2 off by 1e-6", scale("xi_S2", 1 + 1e-6), True, 0),
    ])
    csv_cases("ramsey", w._ramsey(str(OUT), 30, [0.4, 1.3]), [
        ("css/jz dphi off", scale("dphi", 1.001, lambda r: r["state"] == "css"), True, 0),
        ("dphi below 1/N", scale("dphi", 0.1, lambda r: r["state"] == "sss"), True, 0),
        ("ghz/parity misses 1/N", scale("dphi", 1.01, lambda r: r["state"] == "ghz"), True, 0),
    ])


def state_analysis() -> None:
    w = WORKLOADS["state-analysis"]
    n = 20
    theta, phi = 1.0, 0.5
    perp = (math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi), -math.sin(theta))
    css = w._job(str(OUT), "selftest-css", n, orc.coherent(n, theta, phi),
                 ["--theta", repr(theta), "--phi", repr(phi)], None, perp, True)
    crit, chi, husimi = css.requests
    rep = crit.call()
    expect("css criteria", crit.check, rep, rejected=False)
    expect("css criteria / two-qubit fires", crit.check,
           dataclasses.replace(rep, two_qubit_violated=True), True)
    expect("css criteria / spin-j margin off", crit.check,
           dataclasses.replace(rep, spin_j_Fj_margin=-1e-3), True)
    chi2, flag = chi.call()
    expect("css chi", chi.check, (chi2, flag), rejected=False)
    expect("css chi / N/F off", chi.check, (chi2 * 1.001, flag), True)
    # the program analyses a slightly different state than the one checked
    other = SymmetricState(n, orc.coherent(n, theta + 1e-3, phi))
    jx, jy, jz = orc.spin_ops(n)
    gen = perp[0] * jx + perp[1] * jy + perp[2] * jz
    expect("css chi / perturbed state", chi.check, metrology.chi_criterion(other, gen), True)
    csv_cases("css husimi", husimi, [
        ("Q above 1", lambda rows: [dict(r, q="1.5") if i == 3 else r
                                    for i, r in enumerate(rows)], True, 0),
        ("row dropped", lambda rows: rows[1:], True, 0),
    ])

    mu = 0.3
    oat = w._job(str(OUT), "selftest-oat", n, orc.oat_twisted(n, mu),
                 ["--oat-chi-t", repr(mu / 2.0)], orc.oat_xi_s2(n, mu) < 1.0,
                 (1.0, 0.0, 0.0), False)
    crit = oat.requests[0]
    rep = crit.call()
    expect("oat criteria", crit.check, rep, rejected=False)
    expect("oat criteria / squeezed but two-qubit silent", crit.check,
           dataclasses.replace(rep, two_qubit_violated=False), True)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for case in (closed_form, kicked_top, spectral, state_analysis):
        case()
    for line in failures:
        print(f"FAIL {line}")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
