import re

import pytest

from runpoly import genfun
from runpoly.closedform import NT_VARS, PsiPolynomial, phi_polys, psi_polys
from runpoly.poly import BivariatePolynomial, Polynomial
from runpoly.recurrences import verify_phi_recurrence, verify_psi_recurrence, verify_u_recurrence


class TestPhiRecurrence:
    def test_holds_through_i_12(self):
        report = verify_phi_recurrence(phi_polys(12), 12)
        assert report.ok
        assert report.failures == ()
        assert "all identities hold" in str(report)

    def test_rejects_bad_range(self):
        family = phi_polys(4)
        with pytest.raises(ValueError):
            verify_phi_recurrence(family, 0)
        with pytest.raises(ValueError):
            verify_phi_recurrence(family, 5)

    def test_detects_corrupted_part(self):
        family = phi_polys(6)
        family[2] = family[2] + BivariatePolynomial.constant(NT_VARS, 1)
        report = verify_phi_recurrence(family, 6)
        assert not report.ok
        # index 2 appears on the left of its own identity and on the right of
        # the two identities after it
        assert 2 in report.failures
        assert set(report.failures) <= {2, 3, 4}
        assert "FAILED" in str(report)


class TestPsiRecurrence:
    def test_holds_through_i_12(self):
        report = verify_psi_recurrence(psi_polys(12), 12)
        assert report.ok

    def test_rejects_bad_range(self):
        family = psi_polys(4)
        with pytest.raises(ValueError):
            verify_psi_recurrence(family, 17)

    def test_detects_corrupted_weight(self):
        family = psi_polys(8)
        broken = family[3].part + BivariatePolynomial(("n", "s"), {(1, 1): 1})
        family[3] = PsiPolynomial(3, broken)
        report = verify_psi_recurrence(family, 8)
        assert not report.ok
        assert 3 in report.failures
        assert set(report.failures) <= {3, 4, 5}

    def test_reports_every_corrupted_index(self):
        family = psi_polys(10)
        for i in (2, 7):
            bumped = family[i].part + BivariatePolynomial.constant(("n", "s"), 1)
            family[i] = PsiPolynomial(i, bumped)
        report = verify_psi_recurrence(family, 10)
        assert 2 in report.failures
        assert 7 in report.failures


class TestURecurrence:
    def test_holds_through_s_30(self):
        assert verify_u_recurrence(30) == "u-recurrence: all identities hold for 1 <= s <= 30"

    def test_reads_phi_through_the_module(self, monkeypatch):
        real = genfun.phi_s_poly
        monkeypatch.setattr(genfun, "phi_s_poly", lambda s: real(s) + Polynomial.monomial("x", 4, int(s == 4)))
        detail = "u_4 at x^4, times Delta_4: 1 != 0"
        with pytest.raises(ArithmeticError, match=f"^{re.escape(detail)}$"):
            verify_u_recurrence(6)

    @pytest.mark.parametrize("s", range(1, 9))
    def test_bumped_phi_fails_at_its_s(self, monkeypatch, s):
        # Phi_s + x^d, d = deg Phi_s, adds 1 to the left side (1-sx)Phi_s at x^d and
        # nothing below it; Phi_{s+1} and Phi_{s+2} read it only on the right side
        real = genfun.phi_s_poly
        phi, d = real(s), genfun.phi_degree(s)
        monkeypatch.setattr(genfun, "phi_s_poly", lambda j: real(j) + Polynomial.monomial("x", d, int(j == s)))
        want = phi.coefficient(d) - s * phi.coefficient(d - 1)
        detail = f"u_{s} at x^{d}, times Delta_{s}: {want + 1} != {want}"
        with pytest.raises(ArithmeticError, match=f"^{re.escape(detail)}$"):
            verify_u_recurrence(8)
