"""Exact verification of the phi, psi and u_s recurrences.

The closed-form families and Phi_s are never constructed from these
recurrences; the recurrences are the independent check.  The phi and psi
identities hold with a common non-polynomial prefactor (K(t) resp. K(s-i))
that cancels from every term, so each reduces to an exact bivariate
polynomial identity: the difference of the two sides must have no terms at
all.  The u_s identity is the run recurrence summed over n, cleared of its
denominators by Delta_s into integer polynomials in x.
"""

from __future__ import annotations

from math import lcm

from . import genfun
from .closedform import PsiPolynomial
from .poly import BivariatePolynomial, Immutable, Polynomial
from .poly import _linear_product, _plus, _product, _times_linear


class IdentityReport(Immutable):
    """Outcome of checking indexed identities; residual is lhs - rhs at the first failing i, or None."""

    __slots__ = ("name", "i_max", "failures", "residual")

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
        rhs = (t + i) * cur.substitute_linear(0, -1) + 2 * prev1.substitute_linear(0, -1)
        return t * cur, rhs + (n - t - i) * prev2.substitute_linear(0, -1)

    return _check("phi-recurrence", phi_family, i_max, sides)


def verify_psi_recurrence(psi_family: list[PsiPolynomial], i_max: int) -> IdentityReport:
    """Check (s-i)*Q_i(n,s) = s*Q_i(n-1,s) + 2*Q_{i-1}(n-1,s-1) + (n-s)*Q_{i-2}(n-1,s-2).

    All four terms of the psi recurrence carry the same prefactor K(s-i),
    which is cancelled; what remains is an identity between the stored
    polynomial parts Q_i.  Q_{-1} = 0 and Q_0 = 1.
    """

    def sides(n, s, i, q_i, q_prev, q_prev2):
        rhs = (
            s * q_i.substitute_linear(0, -1)
            + 2 * q_prev.substitute_linear(0, -1).substitute_linear(1, -1)
            + (n - s) * q_prev2.substitute_linear(0, -1).substitute_linear(1, -2)
        )
        return (s - i) * q_i, rhs

    return _check("psi-recurrence", [q.part for q in psi_family], i_max, sides)


def verify_u_recurrence(s_max: int) -> str:
    """Check (1-sx)u_s = 2[s=1]x^2 + 2x u_{s-1} + (1-s)x u_{s-2} + x^2 u'_{s-2} for 1 <= s <= s_max.

    This is the run recurrence summed over n for u_s = Phi_s/Delta_s =
    sum_n P(n,s) x^n, with u_{-1} = 0, so it holds for every s <= s_max if
    and only if every such Phi_s is right for every n.  The term 2x^2 of s = 1
    is 2x u_0 with u_0 = x: P(1,0) = 1 gives P(2,s) = 2[s=1] by the
    recurrence, and at s = 2 the two u_0 terms cancel.  Both sides are
    multiplied by Delta_s, which every other denominator divides:
    Delta_s/Delta_{s-1} = prod (1-cx) over c <= s with c = s mod 2, and
    Delta_s u'_{s-2} = prod_{c<=s} (1-cx) (Phi'_{s-2} + Phi_{s-2} sum_c
    e_c c/(1-cx)) over the factors (c, e_c) of Delta_{s-2}.  The three Phi_j,
    read through genfun.phi_s_poly, are brought over the lcm of their dens,
    so both sides are integer lists, and every cofactor is multiplied out in
    small ints before it meets a Phi_j.  Returns the passing detail; raises
    ArithmeticError naming the first s and the lowest x^j where the sides
    differ, with both values, left side first.
    """
    edge = {0: Polynomial("x", [0, 1]), -1: Polynomial("x")}  # u_0 = x and u_{-1} = 0, over Delta_0 = 1
    for s in range(1, s_max + 1):
        phis = [genfun.phi_s_poly(j) if j >= 1 else edge[j] for j in (s, s - 1, s - 2)]
        den = lcm(*(p.den for p in phis))
        cur, prev, prev2 = ([c * (den // p.den) for c in p.nums] for p in phis)
        head = [0, *(2 * v for v in _product(prev, _linear_product((1, -c) for c in range(s, 0, -2))))]
        full = _linear_product((1, -c) for c in range(1, s + 1))  # Delta_s/Delta_{s-2}
        small = [(1 - s) * v for v in full]  # (1-s) full + x full sum_c e_c c/(1-cx), in small ints
        for c, e in genfun.delta_factors(s - 2) if s >= 3 else ():
            small = _plus(small, [0, *(e * c * v for v in _linear_product((1, -d) for d in range(1, s + 1) if d != c))])
        tail = [0, *_plus(_product(prev2, small), [0, *_product([j * c for j, c in enumerate(prev2)][1:], full)])]
        lhs = Polynomial._over("x", _times_linear(cur, 1, -s), den)
        rhs = Polynomial._over("x", _plus(head, tail), den)
        if lhs != rhs:
            j = next(j for j in range(max(lhs.degree, rhs.degree) + 1) if lhs.coefficient(j) != rhs.coefficient(j))
            raise ArithmeticError(f"u_{s} at x^{j}, times Delta_{s}: {lhs.coefficient(j)} != {rhs.coefficient(j)}")
    return f"u-recurrence: all identities hold for 1 <= s <= {s_max}"
