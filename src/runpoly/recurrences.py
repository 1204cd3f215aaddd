"""Exact verification of the phi/psi polynomial recurrences.

The closed-form families are never constructed from these recurrences; the
recurrences are the independent check.  Both identities hold with a common
non-polynomial prefactor (K(t) resp. K(s-i)) that cancels from every term, so
each check reduces to an exact bivariate polynomial identity: the difference
of the two sides must have no terms at all.
"""

from __future__ import annotations

import dataclasses

from .closedform import PsiPolynomial
from .poly import BivariatePolynomial


@dataclasses.dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking a family of indexed identities."""

    name: str
    i_max: int
    failures: tuple[int, ...]
    residual: BivariatePolynomial | None = None  # lhs - rhs at the first failing i

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        if self.ok:
            return f"{self.name}: all identities hold for 1 <= i <= {self.i_max}"
        (e1, e2), (v1, v2) = min(self.residual.nums), self.residual.vars
        return (
            f"{self.name}: FAILED at i = {', '.join(map(str, self.failures))}; lhs - rhs at i = "
            f"{self.failures[0]} has lowest term {self.residual.terms[e1, e2]}*{v1}^{e1}*{v2}^{e2}"
        )


def _check(name: str, parts: list[BivariatePolynomial], i_max: int, sides) -> IdentityReport:
    """Report the i in 1..i_max where sides(n, x, i, p_i, p_{i-1}, p_{i-2}) = (lhs, rhs) differ.

    n and x are the variables of the parts p_i; p_{-1} is the zero polynomial.
    """
    if i_max < 1 or i_max >= len(parts):
        raise ValueError(f"i_max must be in 1..{len(parts) - 1}, got {i_max}")
    vars = parts[0].vars
    n = BivariatePolynomial(vars, {(1, 0): 1})
    x = BivariatePolynomial(vars, {(0, 1): 1})
    zero = BivariatePolynomial(vars)
    failures, residual = [], None
    for i in range(1, i_max + 1):
        lhs, rhs = sides(n, x, i, parts[i], parts[i - 1], parts[i - 2] if i >= 2 else zero)
        if lhs != rhs:
            failures.append(i)
            residual = residual or lhs - rhs
    return IdentityReport(name, i_max, tuple(failures), residual)


def verify_phi_recurrence(phi_family: list[BivariatePolynomial], i_max: int) -> IdentityReport:
    """Check t*phi_i(n,t) = (t+i)*phi_i(n-1,t) + 2*phi_{i-1}(n-1,t) + (n-t-i)*phi_{i-2}(n-1,t).

    `phi_family[i]` is the polynomial part of phi_i in (n, t); the common K(t)
    factor is already cancelled.  phi_{-1} = 0 and part(phi_0) = 1.
    """

    def sides(n, t, i, cur, prev1, prev2):
        if i >= 2:  # phi_{-1} = 0 is used unshifted
            prev2 = prev2.substitute_linear(0, 1, -1)
        rhs = (t + i) * cur.substitute_linear(0, 1, -1) + 2 * prev1.substitute_linear(0, 1, -1)
        return t * cur, rhs + (n - t - i) * prev2

    return _check("phi-recurrence", phi_family, i_max, sides)


def verify_psi_recurrence(psi_family: list[PsiPolynomial], i_max: int) -> IdentityReport:
    """Check (s-i)*Q_i(n,s) = s*Q_i(n-1,s) + 2*Q_{i-1}(n-1,s-1) + (n-s)*Q_{i-2}(n-1,s-2).

    All four terms of the psi recurrence carry the same prefactor K(s-i),
    which is cancelled; what remains is an identity between the stored
    polynomial parts Q_i.  Q_{-1} = 0 and Q_0 = 1.
    """

    def sides(n, s, i, q_i, q_prev, q_prev2):
        rhs = (
            s * q_i.substitute_linear(0, 1, -1)
            + 2 * q_prev.substitute_linear(0, 1, -1).substitute_linear(1, 1, -1)
            + (n - s) * q_prev2.substitute_linear(0, 1, -1).substitute_linear(1, 1, -2)
        )
        return (s - i) * q_i, rhs

    return _check("psi-recurrence", [q.part for q in psi_family], i_max, sides)
