"""The cross-verification battery behind the `verify` subcommand.

Every check recomputes its subject through the public module entry points
(module-qualified calls, so test harnesses can substitute corrupted families)
and compares exact values.  A check that raises is reported as failed rather
than aborting the battery, except when it runs out of memory: that MemoryError
leaves the battery, and the command reports it as such.  The checks run in the
order of the one table of (name, body) pairs that ends run_verification.  A
rational series coefficient is compared as its integer numerator,
cross-multiplied by the denominators on both sides, and is made a Fraction
only to write a failure detail.  Nothing here is allowed to tolerate
approximate agreement.
"""

from __future__ import annotations

from math import factorial
from typing import Callable

from . import bruteforce, closedform, genfun, recurrences, triangle
from .poly import Immutable


class CheckResult(Immutable):
    __slots__ = ("name", "passed", "detail")

    @property
    def status(self) -> str:
        return "ok" if self.passed else "FAILED"


class _CheckFailure(Exception):
    pass


def _run(name: str, body: Callable[[], str]) -> CheckResult:
    """Run one check; the body returns a detail string or raises a failure."""
    try:
        detail = body()
    except _CheckFailure as exc:
        return CheckResult(name, False, str(exc))
    except MemoryError:  # not a failed identity: main reports it and exits 2
        raise
    except Exception as exc:  # a crash is a failed check, not a crashed battery
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, True, detail)


def _rows_match(tri: triangle.RunCountTriangle, route: str, rows) -> None:
    """Fail at the first P(n, s) where one of the (n, row) pairs differs from the recurrence's row n."""
    for n, row in rows:
        for s, (got, want) in enumerate(zip(row, tri.row(n)), start=1):
            if got != want:
                raise _CheckFailure(f"P({n},{s}): {route} {got} != {want}")


def _report(report: recurrences.IdentityReport) -> str:
    """An IdentityReport as its check's detail, or as the check's failure when an identity fails."""
    if not report.ok:
        raise _CheckFailure(str(report))
    return str(report)


def run_verification(
    n_max: int = 20, s_max: int = 10, i_max: int = 10, k_max: int = 20
) -> list[CheckResult]:
    """Run the full battery; one CheckResult per check, in the order of the table at the end."""
    bounds = (("n_max", n_max, 2), ("s_max", s_max, 1), ("i_max", i_max, 1), ("k_max", k_max, 0))
    for name, value, least in bounds:
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")

    tri = triangle.build_triangle(n_max)
    ak_max = min(k_max, 12)  # the A_k, Taylor-path and PhiTilde_k checks stop at k = 12

    def _row_sums():
        for n in range(2, n_max + 1):
            total = sum(tri.row(n))
            if total != factorial(n):
                raise _CheckFailure(f"row n={n} sums to {total}, not {n}!")
        return f"sum_s P(n,s) = n! for 2 <= n <= {n_max}"

    def _brute():
        cap = min(n_max, bruteforce.ENUMERATION_CAP - 1)
        _rows_match(tri, "brute force", enumerate(bruteforce.brute_triangle(cap).rows, start=2))
        return f"exhaustive enumeration matches the recurrence for n <= {cap}"

    def _closed():
        rows = ((n, closedform.closed_row(n, min(n - 1, s_max))) for n in range(2, n_max + 1))
        _rows_match(tri, "closed form", rows)
        return f"explicit formula matches the recurrence for n <= {n_max}, s <= {s_max}"

    def _series():
        for s in range(1, s_max + 1):
            series = genfun.u_s_series(s, n_max)
            for n in range(2, n_max + 1):
                if series.nums[n] != tri.value(n, s) * series.den:
                    raise _CheckFailure(
                        f"P({n},{s}): series {series.coefficient(n)} != {tri.value(n, s)}"
                    )
        return f"u_s coefficients match the recurrence for s <= {s_max}, n <= {n_max}"

    def _divisibility():
        for k in range(k_max + 1):
            genfun.atilde_shift_coeffs(k)  # raises NonzeroRemainderError on failure
        return f"(1+z)^(k+1) divides ATilde_k for k <= {k_max}"

    def _wz():
        for k in range(k_max + 1):
            if not genfun.verify_wz_sum(k):
                raise _CheckFailure(f"sum != 4^k at k={k}")
        return f"normalization sums equal 4^k for k <= {k_max}"

    def _dual():
        for k in range(ak_max + 1):
            genfun.atilde_taylor_coeffs(k)  # raises DualPathMismatchError on failure
        return f"closed formula and Taylor shift agree for k <= {ak_max}"

    def _ak_series():
        for k in range(ak_max + 1):
            series = genfun.A_k_gf(k).series(40)
            for n in range(2, 41):
                want = closedform.a_value(k, n)
                if series.nums[n] * want.denominator != want.numerator * series.den:
                    raise _CheckFailure(f"A_{k} series at z^{n}: {series.coefficient(n)} != {want}")
        return f"A_k series matches the a_k polynomials for k <= {ak_max}, n <= 40"

    def _phi_series():
        parts = closedform.phi_polys(i_max)
        for n in range(2, min(n_max, 10) + 1):
            for t in range(1, 7):
                series = closedform.phi_generating_series(n, t, i_max)
                w = closedform.K(t)
                for i, part in enumerate(parts):
                    # series.nums[i] / series.den == K(t) * part(n, t), cross-multiplied
                    want = part.evaluate(n, t)
                    if series.nums[i] * w.denominator * want.denominator != w.numerator * want.numerator * series.den:
                        raise _CheckFailure(f"x^{i} at n={n}, t={t}: product {series.coefficient(i)} != {w * want}")
        return f"product form reproduces every phi part for i <= {i_max}"

    def _degree_claims():  # (what, its degree, the claimed degree), in the order they are checked
        for i, psi in enumerate(closedform.psi_polys(i_max)):
            yield f"deg_n Q_{i}", psi.part.degree_in(0), i // 2
        for s in range(1, s_max + 1):
            yield f"deg Delta_{s}", genfun.u_s_gf(s).denominator().degree, genfun.delta_degree(s)
            yield f"deg Phi_{s}", genfun.phi_s_poly(s).degree, genfun.phi_degree(s)
        for k in range(ak_max + 1):
            yield f"deg PhiTilde_{k}", genfun.phi_tilde_poly(k).degree, k + 2

    def _degrees():
        for what, got, want in _degree_claims():
            if got != want:
                raise _CheckFailure(f"{what} = {got} != {want}")
        return "n-degrees, Phi/Delta degrees, and PhiTilde degrees all as claimed"

    checks = (
        ("row-sums", _row_sums),
        ("brute-vs-recurrence", _brute),
        ("closed-vs-recurrence", _closed),
        ("series-vs-recurrence", _series),
        ("phi-recurrence", lambda: _report(recurrences.verify_phi_recurrence(closedform.phi_polys(i_max), i_max))),
        ("psi-recurrence", lambda: _report(recurrences.verify_psi_recurrence(closedform.psi_polys(i_max), i_max))),
        ("atilde-divisibility", _divisibility),
        ("wz-normalization", _wz),
        ("atilde-dual-path", _dual),
        ("a-k-series", _ak_series),
        ("phi-series-product", _phi_series),
        ("u-recurrence", lambda: recurrences.verify_u_recurrence(s_max)),
        ("degree-claims", _degrees),
    )
    return [_run(name, body) for name, body in checks]
