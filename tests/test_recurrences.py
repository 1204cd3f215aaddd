import re

import pytest

from runpoly import genfun
from runpoly.closedform import NT_VARS, PsiPolynomial, phi_polys, psi_polys
from runpoly.poly import BivariatePolynomial, Polynomial
from runpoly.recurrences import verify_phi_recurrence, verify_psi_recurrence, verify_u_recurrence


def fails_with(detail):
    """The exact failure detail, as the whole message of a plain ArithmeticError."""
    return pytest.raises(ArithmeticError, match=f"^{re.escape(detail)}$")


class TestPhiRecurrence:
    def test_holds_through_i_12(self):
        assert verify_phi_recurrence(phi_polys(12), 12) == "phi-recurrence: all identities hold for 1 <= i <= 12"

    def test_rejects_bad_range(self):
        family = phi_polys(4)
        with pytest.raises(ValueError):
            verify_phi_recurrence(family, 0)
        with pytest.raises(ValueError):
            verify_phi_recurrence(family, 5)

    def test_detects_corrupted_part(self):
        family = phi_polys(6)
        family[2] = family[2] + BivariatePolynomial.constant(NT_VARS, 1)
        # index 2 appears on the left of its own identity and on the right of
        # the two identities after it
        with fails_with("phi-recurrence: FAILED at i = 2, 3, 4; lhs - rhs at i = 2 has lowest term -2*n^0*t^0"):
            verify_phi_recurrence(family, 6)


class TestPsiRecurrence:
    def test_holds_through_i_12(self):
        assert verify_psi_recurrence(psi_polys(12), 12) == "psi-recurrence: all identities hold for 1 <= i <= 12"

    def test_rejects_bad_range(self):
        family = psi_polys(4)
        with pytest.raises(ValueError):
            verify_psi_recurrence(family, 17)

    def test_detects_corrupted_weight(self):
        family = psi_polys(8)
        broken = family[3].part + BivariatePolynomial(("n", "s"), {(1, 1): 1})
        family[3] = PsiPolynomial(3, broken)
        with fails_with("psi-recurrence: FAILED at i = 3, 4, 5; lhs - rhs at i = 3 has lowest term 1*n^0*s^2"):
            verify_psi_recurrence(family, 8)

    def test_reports_every_corrupted_index(self):
        family = psi_polys(10)
        for i in (2, 7):
            bumped = family[i].part + BivariatePolynomial.constant(("n", "s"), 1)
            family[i] = PsiPolynomial(i, bumped)
        # each bump fails its own identity and the two after it
        with fails_with("psi-recurrence: FAILED at i = 2, 3, 4, 7, 8, 9; lhs - rhs at i = 2 has lowest term -2*n^0*s^0"):
            verify_psi_recurrence(family, 10)


class TestURecurrence:
    def test_holds_through_s_30(self):
        assert verify_u_recurrence(30) == "u-recurrence: all identities hold for 1 <= s <= 30"

    @pytest.mark.parametrize("s_max", [0, -3])
    def test_rejects_s_max_below_1(self, s_max):
        # no s is checked below 1, so there is no pass to report
        with pytest.raises(ValueError, match=f"^s_max must be >= 1, got {s_max}$"):
            verify_u_recurrence(s_max)

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
