"""Command line front end.

Subcommands: moments (generate a sequence file), analyze (Hankel and
ratio diagnostics), katti (infinite-divisibility recursion), compose
(convolution compositions), simulate (seeded Monte-Carlo experiments),
scan (theta-threshold grid). Reports are JSON on standard output with a
schema_version field, each encoded by seqfile.jsonable, the encoder of
sequence files too: exact rationals are serialized as "num/den" strings,
never decimals. Exit codes: 0 success, 2 input error (a closed fd 1 and
a run asking for more memory than exists among them), 3 numerical
failure, 141 when the reader of standard output closed it early, the
status a shell reports for a process that SIGPIPE ended.

Each subcommand imports the layers it calls, and exact input never loads
mpmath: this module imports only what every subcommand uses, and mpmath
comes through moment_algebra's lazy binding. Strict JSON: a report or file
that would hold nan or infinity is refused (exit 2), never printed.

The process entry, run(), serves `python -m momentlab.cli` and the
`momentlab` script. It calls main(), flushes sys.stdout and sys.stderr
(skipping one that is None, as when fd 1 was closed) and ends the process
with os._exit, skipping the interpreter's teardown: every file a report
goes to is closed before main() returns, and nothing on the CLI's path
registers an atexit callback. A closed pipe, met by a write in main() or
by the flush, ends the process with 141 and nothing on stderr; what is
left unwritten is dropped. When a flush raises any other OSError (a full
disk), run() raises SystemExit instead, so the interpreter reports the
failure and sets the exit status as it always has. main() itself returns
its code and never exits, so tests and library callers run it in
process.
"""
from __future__ import annotations

import argparse
import decimal
import io
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from . import distributions as dist
from . import seqfile
from .exceptions import (BackendError, PrecisionError, QuadratureError,
                         SequenceFileError)
from .moment_algebra import (MomentSequence, boolean_power_t, classical_convolve,
                             mb_compose_at, mb_compose_integer, mb_compose_t, mpmath)

if TYPE_CHECKING:
    from .simulator import JumpSpec

SCHEMA_VERSION = seqfile.SCHEMA_VERSION
# the status a shell reports for a process that SIGPIPE ended (128 + 13)
EXIT_BROKEN_PIPE = 141


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _nonnegative(parse):
    """The argparse type that reads a value with parse and refuses one below 0."""
    def nonnegative(text: str):
        value = parse(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
        return value
    return nonnegative


def _list_of(parse):
    """The argparse type that reads a non-empty comma-separated list with parse."""
    def comma_list(text: str) -> list:
        items = [parse(part) for part in text.split(",") if part.strip()]
        if not items:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return items
    return comma_list


def _report(kind: str, fields: dict, bits: Optional[int] = None,
            path: Optional[str] = None) -> None:
    """The one report path: schema_version, kind and fields, encoded by
    seqfile.jsonable with the digits of `bits`, as JSON to path or stdout."""
    report = {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}
    _write(seqfile.doc_to_json(seqfile.jsonable(report, bits)), path)


def _write(text: str, path: Optional[str] = None) -> None:
    """The one output path: text to the file at path, else to stdout;
    OSError when there is no stdout, as when fd 1 was closed."""
    out = sys.stdout
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif out is None:
        raise OSError("standard output is closed")
    elif not isinstance(getattr(out, "buffer", None), io.FileIO):
        out.write(text)
    else:
        # unbuffered stdout (python -u): its text layer drops the rest of a
        # partial write, which a pipe whose reader has gone returns, so the
        # bytes go to the file until all are written or a write meets the
        # closed pipe
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            data = data[out.buffer.write(data):]


def _read(path: str) -> str:
    """The one input path: the text of the file at path, whose format
    seqfile.read_text decides from the text alone, so pipes such as
    /dev/stdin work."""
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# moments


def cmd_moments(args) -> int:
    source, tol = args.source, None
    if source == "lattice":
        m = dist.lattice_lognormal_moments(args.q, args.r, args.upto)
        params = {"q": str(args.q), "r": str(args.r)}
    else:
        p = dist.Precision(args.precision, args.abs_tol)
        spec = dist.LognormalSpec(args.alpha, args.sigma2)
        params = {"alpha": args.alpha, "sigma2": args.sigma2}
        if source == "mixed-poisson":
            pmf = dist.mixed_poisson_pmf(spec, args.logb, args.N, args.kmax, p)
            params.update(logb=args.logb, N=args.N, kmax=args.kmax)
            _write(seqfile.write_text(pmf, generator=source, params=params), args.output)
            return 0
        tol = args.abs_tol
        if source == "leipnik":
            m = dist.leipnik_discrete_moments(args.sigma2, args.alpha, args.upto, p)
        elif source == "lognormal":
            m = dist.lognormal_moments(spec, args.upto, p)
        elif source == "truncated":
            res = dist.truncated_lognormal_moments(spec, args.logb, args.upto, p)
            m = res.conditional_moments(p) if args.conditional else res.moments
            params.update(logb=args.logb, conditional=bool(args.conditional))
        else:  # gap
            m = dist.gap_censored_lognormal_moments(spec, args.a, args.b, args.upto, p)
            params.update(a=args.a, b=args.b)
    _write(seqfile.write_text(m, args.csv, generator=source, params=params, tolerance=tol),
           args.output)
    return 0


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    from .stieltjes import (HankelQuery, fekete_total_positivity, indeterminacy_ratios,
                            log_convexity_report, mu1_threshold_sequence, stieltjes_verdict)
    m = seqfile.read_text(_read(args.file), args.precision)
    if not isinstance(m, MomentSequence):
        raise SequenceFileError("analyze expects a file of kind 'moments'")
    if args.fekete_shift is not None and args.fekete is None:
        raise SequenceFileError("--fekete-shift needs --fekete")

    requested = any([args.stieltjes_depth is not None, args.fekete is not None,
                     args.indeterminacy is not None, args.logconvex,
                     args.mu1_threshold is not None])
    report = {"input": {"backend": "exact" if m.exact else "decimal", "length": len(m)}}

    depth = args.stieltjes_depth
    if depth is None and not requested:
        # deepest verdict the file length supports
        depth = max((len(m) - 2) // 2, 0)
    if depth is not None:
        report["stieltjes"] = stieltjes_verdict(m, depth)
    if args.fekete is not None:
        q = HankelQuery(args.fekete_shift or 0, args.fekete)
        report["fekete"] = fekete_total_positivity(m, q)
    if args.indeterminacy is not None:
        report["indeterminacy"] = indeterminacy_ratios(m, args.indeterminacy)
    mu1_depth = args.mu1_threshold if args.mu1_threshold is not None else args.indeterminacy
    if mu1_depth is not None:
        report["mu1_threshold"] = mu1_threshold_sequence(m, mu1_depth)
    if args.logconvex:
        report["logconvex"] = log_convexity_report(m, args.tolerance)
    _report("analysis", report, m.precision_bits)
    return 0


# ---------------------------------------------------------------------------
# katti


def cmd_katti(args) -> int:
    from .divisibility import katti_r, logconvex_pmf_check
    # a CSV always loads as kind "moments", so its working precision is moot
    pmf = seqfile.read_text(_read(args.file))
    if not isinstance(pmf, dist.DiscretePMF):
        raise SequenceFileError("katti expects a file of kind 'pmf'")
    rep = katti_r(pmf, args.kmax)
    report = {"verdict": rep.verdict, "first_negative": rep.first_negative,
              "certified_negative": rep.certified_negative, "error_bound": rep.error_bound,
              "kmax": rep.kmax, "backend": "exact" if rep.exact else "decimal", "r": rep.r}
    if args.logconvex:
        report["logconvex"] = logconvex_pmf_check(pmf)
    _report("katti", report, pmf.precision_bits)
    if args.table:
        print("  k  r_k", file=sys.stderr)
        for k, value in enumerate(rep.r):
            flag = "  <-- certified negative" if k in rep.certified_negative else ""
            print(f"{k:>3}  {_fmt_number(value)}{flag}", file=sys.stderr)
    return 0


def _fmt_number(x) -> str:
    """A rate to 12 significant digits. A Fraction is rounded by decimal,
    which has no float's range, written as float's "+.12g" writes it, and
    followed by its exact text."""
    if not isinstance(x, Fraction):
        return mpmath.nstr(x, 12)
    digits = decimal.Context(prec=12, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    approx = digits.divide(x.numerator, x.denominator)
    e = approx.adjusted()
    if -4 <= e < 12:
        text = f"{float(approx):+.12g}"
    else:  # the mantissa, in [1, 10), is in float's range at any exponent
        text = f"{float(approx.scaleb(-e, digits)):+.12g}e{e:+03d}"
    return f"{text} ({seqfile.jsonable(x)})"


# ---------------------------------------------------------------------------
# compose


# the parameter options each --op reads; a run of boolean or mb takes exactly one
COMPOSE_PARAMETERS = {"classical": (), "boolean": ("--t", "--k"),
                      "mb": ("--t", "--k", "--symbolic")}


def cmd_compose(args) -> int:
    given = [name for name, on in (("--t", args.t is not None), ("--k", args.k is not None),
                                   ("--symbolic", args.symbolic)) if on]
    reads = COMPOSE_PARAMETERS[args.op]
    if len(given) != bool(reads) or not set(given) <= set(reads):
        wanted = "one of " + ", ".join(reads) if reads else "no parameter"
        raise SequenceFileError(f"--op {args.op} takes {wanted}, got {', '.join(given) or 'none'}")
    m = seqfile.read_text(_read(args.file), args.precision)
    if not isinstance(m, MomentSequence):
        raise SequenceFileError("compose expects a file of kind 'moments'")
    upto = args.upto if args.upto is not None else m.degree
    if upto > m.degree:
        raise SequenceFileError(f"--upto {upto} exceeds file degree {m.degree}")
    params = {"op": args.op, "upto": upto, "source": args.file}

    if args.op == "classical":
        out = classical_convolve(m, m, upto)
    elif args.symbolic:
        if args.csv:
            raise SequenceFileError("--symbolic writes a JSON report; --csv does not apply")
        polys = mb_compose_t(m, upto)
        _report("t-polynomials", {"upto": upto, "coefficients": [p.coeffs for p in polys]},
                path=args.output)
        return 0
    elif args.op == "mb" and args.k is not None:
        out = mb_compose_integer(m, args.k, upto)
        params["k"] = args.k
    else:  # the Boolean or Maxwell-Boltzmann power at one t
        t = args.t if args.k is None else Fraction(args.k)
        out = (boolean_power_t if args.op == "boolean" else mb_compose_at)(m, t, upto)
        params["t"] = str(t)
    _write(seqfile.write_text(out, args.csv, generator="compose", params=params), args.output)
    return 0


# ---------------------------------------------------------------------------
# simulate
#
# As every subcommand does with the layers it calls, simulate imports the
# simulator (and with it numpy) in its own body.


def _jump_spec(args) -> JumpSpec:
    from . import simulator
    chosen = [x for x in (args.atoms, args.poisson_jumps, args.lognormal_jumps)
              if x is not None]
    if len(chosen) != 1:
        raise SequenceFileError(
            "give exactly one of --atoms, --poisson-jumps, --lognormal-jumps")
    if args.atoms is not None:
        pairs = []
        for part in args.atoms.split(","):
            size, _, weight = part.partition(":")
            pairs.append((float(size), float(weight or "1")))
        law = simulator.AtomJumps(tuple(pairs))
    elif args.poisson_jumps is not None:
        law = simulator.PoissonJumps(args.poisson_jumps)
    else:
        alpha, _, sigma2 = args.lognormal_jumps.partition(":")
        law = simulator.LognormalJumps(float(alpha), float(sigma2 or "1"))
    return simulator.JumpSpec(args.rate, law, args.epsilon)


def cmd_simulate(args) -> int:
    from . import simulator
    spec = _jump_spec(args)
    if args.mode == "spectrum":
        gap = tuple(args.censor_gap) if args.censor_gap else None
        res = simulator.spectrum_gap_test(spec, args.a, args.b, args.n, args.trials,
                                          args.seed, args.level, args.t, gap)
    else:
        res = simulator.epsilon_truncation_drift(spec, args.eps_grid, args.trials,
                                                 args.seed, args.eta, args.t, args.level)
    _report(f"simulate-{args.mode}", {"report": res})
    return 0


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args) -> int:
    from .semigroup import DEFAULT_T_GRID, DEFAULT_THETA_GRID, theta_threshold_scan
    res = theta_threshold_scan(args.theta_grid or DEFAULT_THETA_GRID,
                               args.t_grid or DEFAULT_T_GRID, args.depth)
    # the result's fields are the report's keys; a cell reports its verdict
    # record only as the witness of a failure
    report = seqfile.jsonable(res)
    for entries, cells in zip(report["pass_matrix"], res.pass_matrix):
        for entry, cell in zip(entries, cells):
            if cell.passed:
                entry["verdict"] = "stieltjes-ok"
            else:
                entry["witness"], entry["verdict"] = entry["verdict"], "fail"
    _report("theta-scan", report)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads any word starting with '-' and a digit
    as a value, so negative values such as '--lognormal-jumps -0.5:1' and
    '--t -1/2' parse; no option of this CLI starts with a digit.
    add_subparsers builds every subparser with this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


# the names of each level of subcommands, in the order their help lists them
COMMANDS = ("moments", "analyze", "katti", "compose", "simulate", "scan")
SOURCES = ("lognormal", "lattice", "truncated", "gap", "leipnik", "mixed-poisson")
MODES = ("spectrum", "epsilon")


def _subcommands(parser, dest: str, names: tuple, word: Optional[str]) -> tuple:
    """(the subparsers action of one level, the names to build there). When
    word, the next word of the command line, is one of the names, only that
    one is built, and the metavar still lists every name, so the usage in
    any error the parent reports reads the same. Any other word (none, -h,
    a typo) builds the level in full."""
    if word in names:
        return (parser.add_subparsers(dest=dest, required=True,
                                      metavar="{%s}" % ",".join(names)), {word})
    return parser.add_subparsers(dest=dest, required=True), set(names)


def build_parser(argv: Optional[list] = None) -> argparse.ArgumentParser:
    """The command line parser; with argv, only the subparsers along the path
    that argv names, which is all that parsing argv needs (see
    _subcommands). With no argv, the full tree."""
    first, second = (list(argv or ()) + [None, None])[:2]
    parser = _Parser(
        prog="momentlab",
        description="Exact and certified-precision moment sequence toolkit.")
    sub, commands = _subcommands(parser, "command", COMMANDS, first)

    def add_common(sp, moments=True, certified=True):
        """The shared options, each only on the sources that read it: --upto
        and --csv on those that give moments, --alpha, --sigma2, --precision
        and --abs-tol on the certified (mpmath) ones."""
        if moments:
            sp.add_argument("--upto", type=_nonnegative(int), default=6,
                            help="highest moment index")
            sp.add_argument("--csv", action="store_true",
                            help="emit CSV, not JSON; CSV carries moments only, and "
                                 "only JSON carries a pmf's entry_error")
        if certified:
            sp.add_argument("--alpha", type=float, default=0.0)
            sp.add_argument("--sigma2", type=float, default=1.0)
            sp.add_argument("--precision", type=int, default=128,
                            help="working precision in bits")
            sp.add_argument("--abs-tol", default="1e-20",
                            help="absolute error bound; lognormal, truncated, gap, "
                                 "leipnik and mixed-poisson exit 3 when they cannot "
                                 "certify it")
        sp.add_argument("-o", "--output", help="write to file instead of stdout")
        sp.set_defaults(func=cmd_moments)

    def add_sim_common(sp):
        sp.add_argument("--rate", type=float, default=1.0)
        sp.add_argument("--atoms", help="jump atoms as size:weight[,size:weight...]")
        sp.add_argument("--poisson-jumps", type=float, metavar="LAM")
        sp.add_argument("--lognormal-jumps", metavar="ALPHA:SIGMA2")
        sp.add_argument("--epsilon", type=float, default=0.0,
                        help="discard jumps at or below this size; both modes "
                             "sample this cut law")
        sp.add_argument("--t", type=float, default=1.0, help="time horizon")
        sp.add_argument("--trials", type=int, required=True,
                        help="sample paths, drawn in blocks: memory is 8 bytes "
                             "per trial plus one block")
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--level", type=float, default=0.99)
        sp.set_defaults(func=cmd_simulate)

    if "moments" in commands:
        p_m = sub.add_parser("moments", help="generate a sequence file")
        src, sources = _subcommands(p_m, "source", SOURCES,
                                    second if first == "moments" else None)
        if "lognormal" in sources:
            add_common(src.add_parser("lognormal", help="plain lognormal moments"))
        if "lattice" in sources:
            sp = src.add_parser("lattice", help="exact family r^n q^(n^2)")
            sp.add_argument("--q", type=_frac, required=True)
            sp.add_argument("--r", type=_frac, default=Fraction(1))
            add_common(sp, certified=False)
        if "truncated" in sources:
            sp = src.add_parser("truncated", help="left-truncated lognormal moments")
            sp.add_argument("--logb", type=float, required=True,
                            help="log of the truncation point")
            sp.add_argument("--conditional", action="store_true",
                            help="normalize by the surviving mass")
            add_common(sp)
        if "gap" in sources:
            sp = src.add_parser("gap", help="gap-censored lognormal moments")
            sp.add_argument("--a", type=float, required=True)
            sp.add_argument("--b", type=float, required=True)
            add_common(sp)
        if "leipnik" in sources:
            add_common(src.add_parser("leipnik", help="discrete lattice twin of the lognormal"))
        if "mixed-poisson" in sources:
            sp = src.add_parser("mixed-poisson",
                                help="Poisson pmf with truncated-lognormal intensity")
            sp.add_argument("--logb", type=float, required=True)
            sp.add_argument("--N", type=int, required=True, help="intensity scale")
            sp.add_argument("--kmax", type=int, default=16)
            add_common(sp, moments=False)

    if "analyze" in commands:
        p_a = sub.add_parser("analyze", help="Hankel and ratio diagnostics")
        p_a.add_argument("file")
        p_a.add_argument("--stieltjes-depth", type=int)
        p_a.add_argument("--fekete", type=int, metavar="SIZE",
                         help="Fekete minor check of the size-SIZE Hankel matrix")
        p_a.add_argument("--fekete-shift", type=int, choices=(0, 1),
                         help="shift of the --fekete matrix (default 0)")
        p_a.add_argument("--indeterminacy", type=int, metavar="DEPTH")
        p_a.add_argument("--mu1-threshold", type=int, metavar="DEPTH")
        p_a.add_argument("--logconvex", action="store_true")
        p_a.add_argument("--tolerance", type=_nonnegative(_frac),
                         help="--logconvex margin around theta = 1 for decimal input "
                              "(default 2^-40); it does not move Hankel verdicts")
        p_a.add_argument("--precision", type=int, default=128,
                         help="bits assumed for decimal CSV input, and the accuracy "
                              "its Hankel verdicts are certified to")
        p_a.set_defaults(func=cmd_analyze)

    if "katti" in commands:
        p_k = sub.add_parser("katti", help="infinite-divisibility recursion")
        p_k.add_argument("file")
        p_k.add_argument("--kmax", type=int)
        p_k.add_argument("--logconvex", action="store_true",
                         help="also run the log-convexity certificate")
        p_k.add_argument("--table", action="store_true",
                         help="aligned table on stderr next to the JSON")
        p_k.set_defaults(func=cmd_katti)

    if "compose" in commands:
        p_c = sub.add_parser("compose", help="convolution compositions")
        p_c.add_argument("file")
        p_c.add_argument("--op", choices=("classical", "mb", "boolean"),
                         required=True)
        p_c.add_argument("--t", type=_frac, help="rational composition parameter")
        p_c.add_argument("--k", type=int, help="integer composition parameter")
        p_c.add_argument("--upto", type=_nonnegative(int))
        p_c.add_argument("--symbolic", action="store_true",
                         help="emit t-polynomial coefficients (mb only)")
        p_c.add_argument("--precision", type=int, default=128)
        p_c.add_argument("--csv", action="store_true")
        p_c.add_argument("-o", "--output")
        p_c.set_defaults(func=cmd_compose)

    if "simulate" in commands:
        p_s = sub.add_parser("simulate", help="seeded Monte-Carlo experiments")
        sim, modes = _subcommands(p_s, "mode", MODES, second if first == "simulate" else None)
        if "spectrum" in modes:
            sp = sim.add_parser("spectrum", help="interval replication consistency")
            sp.add_argument("--a", type=float, required=True)
            sp.add_argument("--b", type=float, required=True)
            sp.add_argument("--n", type=int, required=True)
            sp.add_argument("--censor-gap", type=float, nargs=2, metavar=("A", "B"),
                            help="zero out samples inside this open interval first")
            add_sim_common(sp)
        if "epsilon" in modes:
            sp = sim.add_parser("epsilon", help="small-jump truncation drift")
            sp.add_argument("--eps-grid", type=_list_of(float), required=True)
            sp.add_argument("--eta", type=float, default=0.1)
            add_sim_common(sp)

    if "scan" in commands:
        p_t = sub.add_parser("scan", help="theta-threshold scan")
        # None stands for semigroup's DEFAULT_THETA_GRID and DEFAULT_T_GRID
        p_t.add_argument("--theta-grid", type=_list_of(_frac))
        p_t.add_argument("--t-grid", type=_list_of(_frac))
        p_t.add_argument("--depth", type=int, default=5)
        p_t.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a run's exact entries, parameters included, may outgrow the digit limit
    with seqfile.no_digit_limit():
        try:
            args = build_parser(argv).parse_args(argv)
            return args.func(args)
        except BrokenPipeError:
            # the reader of stdout has gone, which is no fault of the input
            return EXIT_BROKEN_PIPE
        except (SequenceFileError, BackendError, ValueError, OSError, MemoryError) as exc:
            # an empty message (MemoryError()) still names the error
            print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 2
        except (QuadratureError, PrecisionError, ZeroDivisionError) as exc:
            print(f"numerical failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 3


def run() -> None:
    """The process entry: main() on sys.argv, then exit without teardown
    (see the module docstring)."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except BrokenPipeError:
        # os._exit flushes nothing, so what the buffer still holds is dropped
        os._exit(EXIT_BROKEN_PIPE)
    except OSError:
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
