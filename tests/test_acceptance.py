"""Acceptance gate: seven criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass;
pytest shows the captured output automatically for any that fail.  Every
comparison is exact equality; the printed timings are checked against each
criterion's runtime budget.
"""

import json
import time
from math import factorial

from golden_tables import PHI_ROWS, PSI_ROWS, phi_row_poly, psi_row_terms
from runpoly import cli, closedform, genfun
from runpoly.bruteforce import brute_triangle
from runpoly.closedform import (
    K,
    p_closed_form,
    phi_generating_series,
    phi_polys,
    psi_polys,
)
from runpoly.genfun import (
    atilde_poly,
    atilde_taylor_coeffs,
    delta_degree,
    phi_degree,
    phi_s_poly,
    phi_tilde_poly,
    u_s_gf,
    u_s_series,
    verify_wz_sum,
)
from runpoly.poly import BivariatePolynomial, Polynomial
from runpoly.recurrences import verify_phi_recurrence, verify_psi_recurrence, verify_u_recurrence
from runpoly.triangle import build_triangle


def report(number, description, failures, started, budget):
    elapsed = time.time() - started
    status = "FAIL" if failures else "PASS"
    print(f"{status} criterion {number}: {description} [{elapsed:.2f}s, budget {budget}s]")
    assert not failures, f"criterion {number}: {failures[:5]}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_golden_psi_table():
    started = time.time()
    family = psi_polys(10)
    failures = [
        f"row i={i}" for i in sorted(PSI_ROWS) if family[i].part.terms != psi_row_terms(i)
    ]
    report(1, "all eleven tabulated psi rows reproduced coefficient-exactly",
           failures, started, budget=1)


def test_criterion_2_golden_phi_table():
    started = time.time()
    failures = [
        f"row s={s}" for s in sorted(PHI_ROWS) if phi_s_poly(s) != phi_row_poly(s)
    ]
    report(2, "all ten tabulated Phi rows reproduced coefficient-exactly",
           failures, started, budget=5)


def test_criterion_3_four_way_agreement():
    started = time.time()
    failures = []
    triangle = build_triangle(30)
    brute = brute_triangle(10)
    for n in range(2, 11):
        if brute.row(n) != triangle.row(n):
            failures.append(f"brute row n={n}")
    for n in range(2, 31):
        for s in range(1, min(n, 13)):
            if p_closed_form(n, s) != triangle.value(n, s):
                failures.append(f"closed form at ({n},{s})")
    for s in range(1, 13):
        series = u_s_series(s, 30)
        for n in range(2, 31):
            if series.coefficient(n) != triangle.value(n, s):
                failures.append(f"series at ({n},{s})")
    report(3, "brute force, recurrence, closed form, and series agree on all overlaps",
           failures, started, budget=60)


def test_criterion_4_row_sums():
    started = time.time()
    triangle = build_triangle(30)
    bad = next((n for n in range(2, 31) if sum(triangle.row(n)) != factorial(n)), None)
    failures = [] if bad is None else [f"row n={bad} does not sum to n!"]
    report(4, "triangle rows sum to n! for 2 <= n <= 30", failures, started, budget=1)


def test_criterion_5_identity_suite():
    started = time.time()
    failures = []
    psi_report = verify_psi_recurrence(psi_polys(12), 12)
    if not psi_report.ok:
        failures.append(str(psi_report))
    phi_report = verify_phi_recurrence(phi_polys(12), 12)
    if not phi_report.ok:
        failures.append(str(phi_report))
    try:
        verify_u_recurrence(12)
    except ArithmeticError as exc:
        failures.append(f"u-recurrence: {exc}")
    for k in range(31):
        p = atilde_poly(k)  # (1+z)^(k+1) divides it: it and its first k derivatives vanish at z = -1
        for _ in range(k + 1):
            if p.evaluate(-1) != 0:
                failures.append(f"divisibility at k={k}")
                break
            p = Polynomial("z", [j * c for j, c in enumerate(p.coeffs)][1:])
        if not verify_wz_sum(k):
            failures.append(f"normalization sum at k={k}")
    atilde_taylor_coeffs.cache_clear()
    for k in range(13):
        try:
            atilde_taylor_coeffs(k)
        except ArithmeticError:
            failures.append(f"dual path at k={k}")
    parts = phi_polys(12)
    for n in range(2, 11):
        for t in range(1, 7):
            series = phi_generating_series(n, t, 12)
            for i, part in enumerate(parts):
                if series.coefficient(i) != K(t) * part.evaluate(n, t):
                    failures.append(f"product series at n={n}, t={t}, i={i}")
    report(5, "recurrence, u-recurrence, divisibility, normalization, dual-path, and "
              "product-series identities all hold", failures, started, budget=30)


def test_criterion_6_degree_claims():
    started = time.time()
    failures = []
    for i, psi in enumerate(psi_polys(12)):
        if psi.part.degree_in(0) != i // 2:
            failures.append(f"deg_n Q_{i}")
    for s in range(1, 13):
        if u_s_gf(s).denominator().degree != delta_degree(s):
            failures.append(f"deg Delta_{s}")
        if phi_s_poly(s).degree != phi_degree(s):
            failures.append(f"deg Phi_{s}")
    for k in range(13):
        if phi_tilde_poly(k).degree != k + 2:
            failures.append(f"deg PhiTilde_{k}")
    report(6, "every claimed degree is exact (Q_i, Delta_s, Phi_s, PhiTilde_k)",
           failures, started, budget=5)


def test_criterion_7_mutation_sensitivity(monkeypatch):
    started = time.time()
    failures = []

    def verify_flags_failure(label):
        doc = cli.cmd_verify(n_max=8, s_max=4, i_max=5, k_max=3, fmt="json")
        report = json.loads("".join(doc.payload))
        named = [c["name"] for c in report["checks"] if not c["passed"]]
        if not named or list(doc.failed) != named:
            failures.append(f"{label}: failed {doc.failed}, named {named}")

    real_psi = closedform.psi_polys
    for exponents in sorted(real_psi(3)[3].part.terms):
        def broken_psi(i_max, _exp=exponents):
            family = real_psi(i_max)
            bump = family[3].part + BivariatePolynomial(("n", "s"), {_exp: 1})
            family[3] = type(family[3])(index=3, part=bump)
            return family

        with monkeypatch.context() as m:
            m.setattr(closedform, "psi_polys", broken_psi)
            verify_flags_failure(f"Q_3 coefficient at {exponents}")

    real_phi = genfun.phi_s_poly
    degrees = [j for j, c in enumerate(real_phi(4).coeffs) if c]
    for degree in degrees:
        def broken_phi(s, _d=degree):
            p = real_phi(s)
            if s == 4:
                p = p + Polynomial.monomial("x", _d)
            return p

        with monkeypatch.context() as m:
            m.setattr(genfun, "phi_s_poly", broken_phi)
            verify_flags_failure(f"Phi_4 coefficient at x^{degree}")

    report(7, "every single-coefficient corruption of Q_3 or Phi_4 makes verify "
              "exit 1 with a named failing check", failures, started, budget=5)
