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


def verify_phi_recurrence(phi_family: list[BivariatePolynomial], i_max: int) -> IdentityReport:
    """Check t*phi_i(n,t) = (t+i)*phi_i(n-1,t) + 2*phi_{i-1}(n-1,t) + (n-t-i)*phi_{i-2}(n-1,t).

    `phi_family[i]` is the polynomial part of phi_i in (n, t); the common K(t)
    factor is already cancelled.  phi_{-1} = 0 and part(phi_0) = 1.
    """
    if i_max < 1 or i_max >= len(phi_family):
        raise ValueError(f"i_max must be in 1..{len(phi_family) - 1}, got {i_max}")
    vars = phi_family[0].vars
    n = BivariatePolynomial(vars, {(1, 0): 1})
    t = BivariatePolynomial(vars, {(0, 1): 1})
    zero = BivariatePolynomial(vars)
    failures, residual = [], None
    for i in range(1, i_max + 1):
        cur = phi_family[i]
        prev1 = phi_family[i - 1].substitute_linear(0, 1, -1)
        prev2 = phi_family[i - 2].substitute_linear(0, 1, -1) if i >= 2 else zero
        lhs = t * cur
        rhs = (t + i) * cur.substitute_linear(0, 1, -1) + 2 * prev1 + (n - t - i) * prev2
        if lhs != rhs:
            failures.append(i)
            residual = residual or lhs - rhs
    return IdentityReport("phi-recurrence", i_max, tuple(failures), residual)


def verify_psi_recurrence(psi_family: list[PsiPolynomial], i_max: int) -> IdentityReport:
    """Check (s-i)*Q_i(n,s) = s*Q_i(n-1,s) + 2*Q_{i-1}(n-1,s-1) + (n-s)*Q_{i-2}(n-1,s-2).

    All four terms of the psi recurrence carry the same prefactor K(s-i),
    which is cancelled; what remains is an identity between the stored
    polynomial parts Q_i.  Q_{-1} = 0 and Q_0 = 1.
    """
    if i_max < 1 or i_max >= len(psi_family):
        raise ValueError(f"i_max must be in 1..{len(psi_family) - 1}, got {i_max}")
    vars = psi_family[0].part.vars
    n = BivariatePolynomial(vars, {(1, 0): 1})
    s = BivariatePolynomial(vars, {(0, 1): 1})
    zero = BivariatePolynomial(vars)
    failures, residual = [], None
    for i in range(1, i_max + 1):
        q_i = psi_family[i].part
        q_prev = psi_family[i - 1].part
        q_prev2 = psi_family[i - 2].part if i >= 2 else zero
        lhs = (s - i) * q_i
        rhs = (
            s * q_i.substitute_linear(0, 1, -1)
            + 2 * q_prev.substitute_linear(0, 1, -1).substitute_linear(1, 1, -1)
            + (n - s) * q_prev2.substitute_linear(0, 1, -1).substitute_linear(1, 1, -2)
        )
        if lhs != rhs:
            failures.append(i)
            residual = residual or lhs - rhs
    return IdentityReport("psi-recurrence", i_max, tuple(failures), residual)
