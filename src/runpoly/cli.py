"""Command-line front end.

Subcommands: table (the P(n,s) triangle by any of the four methods), psi and
phi (the two polynomial families), series (u_s coefficients), and verify (the
full cross-check battery).  Data goes to stdout, diagnostics to stderr.  Exit
codes: 0 success, 1 verification failure, 2 usage error, Ctrl-C, running
out of memory or a failed write, nothing else.  A command computes its whole
result before the first byte of stdout, then streams the text, so a failed
computation leaves stdout empty.  The one exception is `table --method
recurrence`: after its argument check it computes the triangle a row at a
time as the row is written, in exact `Decimal` arithmetic that raises rather
than round (see `DecimalTriangle`).

`main(argv)` is the library entry and returns the exit code; `run()` is the
process entry, which flushes the streams and ends the process at once.
"""

from __future__ import annotations

import argparse
import decimal
import os
import sys
from typing import Iterable, Iterator, NoReturn

from . import bruteforce, closedform, genfun, serialize, triangle, verification
from .poly import Immutable

try:
    import fcntl
except ImportError:  # Windows has no fcntl; `_write` then leaves the pipe as it is
    fcntl = None

FORMATS = ("json", "tsv", "latex")

# Decimal arithmetic that cannot round: a step that would lose a digit raises.
EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)


class DecimalTriangle(Immutable):
    """The recurrence triangle for the encoders: `n_max`, and `rows` made as they are read.

    The rows are exact integral Decimals, since str() of one is linear in its
    digits and str() of an int is quadratic.  Each row is computed inside
    EXACT, whatever the ambient context, and at most two rows are held.  The
    Decimals go only to str(): do no arithmetic on them outside EXACT.
    """

    __slots__ = ("n_max",)

    def __init__(self, n_max: int):
        if n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {n_max}")
        super().__init__(n_max)

    @property
    def rows(self):
        rows = triangle.recurrence_rows(decimal.Decimal, self.n_max)
        for _ in range(self.n_max - 1):
            with decimal.localcontext(EXACT):
                row = next(rows)
            yield row


# The builders from other modules are looked up on them at call time, so a
# patched or wrapped builder is the one that runs.
METHODS = {
    "recurrence": DecimalTriangle,  # rejects n_max < 2 at once, then streams
    "closed": lambda n_max: closedform.closed_triangle(n_max),
    "series": lambda n_max: genfun.series_triangle(n_max),
    "brute": lambda n_max: bruteforce.brute_triangle(n_max),  # rejects n_max > ENUMERATION_CAP
}


class OutputDocument(Immutable):
    """One computed result and how to print it; `payload` is its text, as fresh chunks on each read."""

    __slots__ = ("kind", "fmt", "value", "params", "failed")  # failed: names of the failed verification checks

    @property
    def payload(self) -> Iterator[str]:
        return serialize.encode(self.kind, self.fmt, self.value, **self.params)


def _document(kind: str, fmt: str, value, **params) -> OutputDocument:
    return OutputDocument(kind, fmt, value, params, ())


def cmd_table(n_max: int, method: str, fmt: str) -> OutputDocument:
    return _document("triangle", fmt, METHODS[method](n_max), method=method)


def cmd_psi(i_max: int, fmt: str) -> OutputDocument:
    return _document("psi", fmt, closedform.psi_polys(i_max))


def cmd_phi(s: int, fmt: str) -> OutputDocument:
    return _document("phi", fmt, genfun.u_s_gf(s), s=s)


def cmd_series(s: int, order: int, fmt: str) -> OutputDocument:
    return _document("series", fmt, genfun.u_s_series(s, order), s=s)


def cmd_verify(n_max: int, s_max: int, i_max: int, k_max: int, fmt: str) -> OutputDocument:
    results = verification.run_verification(n_max, s_max, i_max, k_max)
    failed = tuple(r.name for r in results if not r.passed)
    return OutputDocument("verification-report", fmt, results, {}, failed)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose --help text reports a failed write; argparse's own drops the error."""

    def print_help(self, file=None):
        if file is not None:
            return super().print_help(file)
        _guard_stdout(lambda: sys.stdout.write(self.format_help()))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="runpoly",
        description="Exact run-count enumeration: triangles, polynomial families, "
        "generating-function series, and cross-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="the P(n,s) triangle")
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--method", choices=METHODS, default="recurrence")
    p_table.set_defaults(run=cmd_table)

    p_psi = sub.add_parser("psi", help="the weights psi_i = K(s-i) Q_i(n,s)")
    p_psi.add_argument("--i-max", type=int, required=True)
    p_psi.set_defaults(run=cmd_psi)

    p_phi = sub.add_parser("phi", help="the numerator Phi_s and factored Delta_s")
    p_phi.add_argument("--s", type=int, required=True)
    p_phi.set_defaults(run=cmd_phi)

    p_series = sub.add_parser("series", help="coefficients of u_s(x)")
    p_series.add_argument("--s", type=int, required=True)
    p_series.add_argument("--order", type=int, default=30)
    p_series.set_defaults(run=cmd_series)

    p_verify = sub.add_parser("verify", help="run the full cross-check battery")
    p_verify.add_argument("--n-max", type=int, default=20)
    p_verify.add_argument("--s-max", type=int, default=10)
    p_verify.add_argument("--i-max", type=int, default=10)
    p_verify.add_argument("--k-max", type=int, default=20)
    p_verify.set_defaults(run=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--format", choices=FORMATS, default="json", dest="fmt")
    return parser


def _to_devnull(stream) -> None:
    """Point the stream at os.devnull, so that no later flush, ours or the interpreter's at exit, tries its buffered bytes again."""
    fd = os.open(os.devnull, os.O_WRONLY)
    os.dup2(fd, stream.fileno())
    os.close(fd)


def _guard_stdout(write) -> None:
    """Call `write`; a reader that leaves early (`| head`) is not an error, any other failed write is."""
    try:
        write()
    except OSError as exc:
        _to_devnull(sys.stdout)
        if not isinstance(exc, BrokenPipeError):
            raise


def _guard_stderr(write) -> None:
    """Call `write`; a diagnostic that cannot be written is dropped, and the exit code stands."""
    try:
        write()
    except OSError:
        _to_devnull(sys.stderr)


def _say(message: str) -> None:
    """Print a diagnostic line to stderr."""
    _guard_stderr(lambda: print(message, file=sys.stderr))


def _write(chunks: Iterable[str]) -> None:
    """Print the chunks to stdout in turn, then flush.

    A 1 MiB pipe first, best effort: through the default 64 KiB one a 40 MB
    table makes the writer wait on its reader hundreds of times.
    """
    try:
        fcntl.fcntl(sys.stdout.fileno(), fcntl.F_SETPIPE_SZ, 1 << 20)
    except (AttributeError, OSError, ValueError):
        pass  # no fcntl or F_SETPIPE_SZ here, a stdout with no descriptor, not a pipe, or refused

    def write():
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.write("\n")
        sys.stdout.flush()

    _guard_stdout(write)


def _cannot_write(exc: OSError) -> int:
    _say(f"error: cannot write output: {exc}")
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:  # argparse already printed usage to stderr
        return 0 if exc.code in (0, None) else 2
    except OSError as exc:  # stdout refused the --help text
        return _cannot_write(exc)

    del args["command"]
    try:
        doc = args.pop("run")(**args)
        _write(doc.payload)
    except (ValueError, OverflowError) as exc:  # OverflowError: an argument past sys.maxsize
        _say(f"error: {exc}")
        return 2
    except ArithmeticError as exc:
        # a broken identity surfaced outside the verify battery
        _say(f"verification failure: {exc}")
        return 1
    except OSError as exc:  # only `_write` does I/O: stdout refused a write (a full disk, /dev/full)
        return _cannot_write(exc)
    except KeyboardInterrupt:
        _say("interrupted")
        return 2
    except MemoryError:
        _say("error: out of memory; try smaller arguments")
        return 2

    if doc.failed:
        _say(f"verification failed ({', '.join(doc.failed)})")
        return 1
    return 0


def _watched() -> bool:
    """Whether a profiler, tracer or coverage tool runs in this process; it writes its report at exit."""
    if sys.getprofile() or sys.gettrace():
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+, where cProfile and coverage may use it instead
    return monitoring is not None and any(map(monitoring.get_tool, range(6)))  # tool ids are 0..5


def run() -> NoReturn:
    """The process entry: `main()`, flush stdout then stderr, and end the process.

    `os._exit` skips the interpreter's teardown (finalising every module and
    the last garbage collections), several milliseconds that change no byte:
    the operating system reclaims the memory anyway.  A profiler or coverage
    tool writes its report during that teardown, so under one the process
    leaves through `sys.exit` instead.
    """
    code = main()
    try:
        _guard_stdout(sys.stdout.flush)  # only argparse's --help text can still be buffered
    except OSError as exc:
        code = _cannot_write(exc)
    _guard_stderr(sys.stderr.flush)
    if _watched():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
