"""Command line front end.

Subcommands: moments (generate a sequence file), analyze (Hankel and
ratio diagnostics), katti (infinite-divisibility recursion), compose
(convolution compositions), simulate (seeded Monte-Carlo experiments),
scan (theta-threshold grid). Reports are JSON on standard output with a
schema_version field; exact rationals are serialized as "num/den"
strings, never decimals. Exit codes: 0 success, 2 input error, 3
numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import io
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

import mpmath
from mpmath import mpf

from . import distributions as dist
from . import seqfile
from .divisibility import katti_r, logconvex_pmf_check
from .exceptions import (BackendError, PrecisionError, QuadratureError,
                         SequenceFileError)
from .moment_algebra import (MomentSequence, boolean_power_t, classical_convolve,
                             mb_compose_at, mb_compose_integer, mb_compose_t)
from .semigroup import (DEFAULT_T_GRID, DEFAULT_THETA_GRID, theta_threshold_scan)
from .stieltjes import (HankelQuery, fekete_total_positivity, indeterminacy_ratios,
                        log_convexity_report, mu1_threshold_sequence,
                        stieltjes_verdict)

if TYPE_CHECKING:
    from .simulator import JumpSpec

SCHEMA_VERSION = seqfile.SCHEMA_VERSION


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _frac_list(text: str) -> list:
    return [_frac(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list:
    return [float(part) for part in text.split(",") if part.strip()]


def _jsonable(obj, bits: Optional[int] = None):
    """Recursively convert report objects to JSON-ready structures; an mpf
    gets the digits of `bits` (default mpmath's), as sequence files do."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, mpf):
        return seqfile._decimal_str(obj, bits or mpmath.mp.prec)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name), bits)
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, bits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x, bits) for x in obj]
    if hasattr(obj, "item"):  # numpy scalars
        return _jsonable(obj.item(), bits)
    return str(obj)


def _write(text: str, path: Optional[str] = None) -> None:
    """The one output path: text to the file at path, else to stdout."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_sequence(obj, args, generator: str, params: dict,
                   tolerance: Optional[str] = None) -> None:
    if args.csv:
        text = seqfile.csv_text(obj)
    elif isinstance(obj, MomentSequence):
        text = seqfile.doc_to_json(seqfile.moments_to_doc(
            obj, generator=generator, params=params, tolerance=tolerance))
    else:
        text = seqfile.doc_to_json(seqfile.pmf_to_doc(obj, generator=generator,
                                                      params=params))
    _write(text, args.output)


def _load_sequence(path: str, precision_bits: int):
    """Read a sequence file once, as JSON when it opens with '{' and as CSV
    otherwise; the name is not consulted, so pipes such as /dev/stdin work."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return seqfile.sequence_from_doc(seqfile.parse_doc(text))
    return seqfile.read_csv(io.StringIO(text), precision_bits=precision_bits)


def _precision(args) -> dist.Precision:
    return dist.Precision(args.precision, args.abs_tol)


# ---------------------------------------------------------------------------
# moments


def cmd_moments(args) -> int:
    upto = args.upto
    if args.source == "lattice":
        m = dist.lattice_lognormal_moments(args.q, args.r, upto)
        _emit_sequence(m, args, "lattice", {"q": str(args.q), "r": str(args.r)})
        return 0

    p = _precision(args)
    tol = args.abs_tol
    if args.source == "lognormal":
        spec = dist.LognormalSpec(args.alpha, args.sigma2)
        m = dist.lognormal_moments(spec, upto, p)
        _emit_sequence(m, args, "lognormal",
                       {"alpha": args.alpha, "sigma2": args.sigma2}, tol)
    elif args.source == "truncated":
        spec = dist.LognormalSpec(args.alpha, args.sigma2)
        res = dist.truncated_lognormal_moments(
            spec, dist.CensorSpec.left_truncate(args.logb), upto, p)
        m = (MomentSequence.from_approx(res.conditional_form, p.bits)
             if args.conditional else res.moments)
        _emit_sequence(m, args, "truncated",
                       {"alpha": args.alpha, "sigma2": args.sigma2,
                        "logb": args.logb, "conditional": bool(args.conditional)},
                       tol)
    elif args.source == "gap":
        spec = dist.LognormalSpec(args.alpha, args.sigma2)
        m = dist.gap_censored_lognormal_moments(spec, args.a, args.b, upto, p)
        _emit_sequence(m, args, "gap",
                       {"alpha": args.alpha, "sigma2": args.sigma2,
                        "a": args.a, "b": args.b}, tol)
    elif args.source == "leipnik":
        m = dist.leipnik_discrete_moments(args.sigma2, args.alpha, upto, p)
        _emit_sequence(m, args, "leipnik",
                       {"alpha": args.alpha, "sigma2": args.sigma2}, tol)
    elif args.source == "mixed-poisson":
        spec = dist.LognormalSpec(args.alpha, args.sigma2)
        pmf = dist.mixed_poisson_pmf(spec, args.logb, args.N, args.kmax, p)
        _emit_sequence(pmf, args, "mixed-poisson",
                       {"alpha": args.alpha, "sigma2": args.sigma2,
                        "logb": args.logb, "N": args.N, "kmax": args.kmax})
    else:
        raise SequenceFileError(f"unknown source {args.source!r}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    m = _load_sequence(args.file, args.precision)
    if not isinstance(m, MomentSequence):
        raise SequenceFileError("analyze expects a file of kind 'moments'")
    tol = Fraction(args.tolerance) if args.tolerance else None
    bits = m.precision_bits
    if not m.exact and tol is None:
        raise BackendError("decimal input needs --tolerance for Hankel verdicts")

    requested = any([args.stieltjes_depth is not None, args.fekete is not None,
                     args.indeterminacy is not None, args.logconvex,
                     args.mu1_threshold is not None])
    report = {"schema_version": SCHEMA_VERSION, "kind": "analysis",
              "input": {"backend": "exact" if m.exact else "decimal",
                        "length": len(m)}}

    depth = args.stieltjes_depth
    if depth is None and not requested:
        # deepest verdict the file length supports
        depth = max((len(m) - 2) // 2, 0)
    if depth is not None:
        report["stieltjes"] = _jsonable(stieltjes_verdict(m, depth, tol), bits)
    if args.fekete is not None:
        q = HankelQuery(args.fekete_shift, args.fekete)
        report["fekete"] = _jsonable(fekete_total_positivity(m, q, tol), bits)
    if args.indeterminacy is not None:
        report["indeterminacy"] = _jsonable(
            indeterminacy_ratios(m, args.indeterminacy, tol), bits)
        report["mu1_threshold"] = _jsonable(
            mu1_threshold_sequence(m, args.indeterminacy, tol), bits)
    elif args.mu1_threshold is not None:
        report["mu1_threshold"] = _jsonable(
            mu1_threshold_sequence(m, args.mu1_threshold, tol), bits)
    if args.logconvex:
        report["logconvex"] = _jsonable(log_convexity_report(m, tol), bits)
    _write(seqfile.doc_to_json(report))
    return 0


# ---------------------------------------------------------------------------
# katti


def cmd_katti(args) -> int:
    pmf = _load_sequence(args.file, args.precision)
    if not isinstance(pmf, dist.DiscretePMF):
        raise SequenceFileError("katti expects a file of kind 'pmf'")
    rep = katti_r(pmf, args.kmax)
    bits = pmf.precision_bits
    report = {"schema_version": SCHEMA_VERSION, "kind": "katti",
              "verdict": rep.verdict,
              "first_negative": rep.first_negative,
              "certified_negative": list(rep.certified_negative),
              "error_bound": _jsonable(rep.error_bound, bits),
              "kmax": rep.kmax, "backend": "exact" if rep.exact else "decimal",
              "r": _jsonable(list(rep.r), bits)}
    if args.logconvex:
        report["logconvex"] = _jsonable(logconvex_pmf_check(pmf))
    _write(seqfile.doc_to_json(report))
    if args.table:
        print("  k  r_k", file=sys.stderr)
        for k, value in enumerate(rep.r):
            flag = "  <-- certified negative" if k in rep.certified_negative else ""
            print(f"{k:>3}  {_fmt_number(value)}{flag}", file=sys.stderr)
    return 0


def _fmt_number(x) -> str:
    if isinstance(x, Fraction):
        return f"{float(x):+.12g} ({x})"
    return mpmath.nstr(x, 12)


# ---------------------------------------------------------------------------
# compose


def cmd_compose(args) -> int:
    m = _load_sequence(args.file, args.precision)
    if not isinstance(m, MomentSequence):
        raise SequenceFileError("compose expects a file of kind 'moments'")
    upto = args.upto if args.upto is not None else m.degree
    if upto > m.degree:
        raise SequenceFileError(f"--upto {upto} exceeds file degree {m.degree}")
    params = {"op": args.op, "upto": upto, "source": args.file}

    if args.op == "classical":
        out = classical_convolve(m, m, upto)
        _emit_sequence(out, args, "compose", params)
        return 0

    if args.op == "boolean":
        t = args.t
        if t is None and args.k is not None:
            t = Fraction(args.k)
        if t is None:
            raise SequenceFileError("--op boolean needs --t or --k")
        params["t"] = str(t)
        out = boolean_power_t(m, t, upto)
        _emit_sequence(out, args, "compose", params)
        return 0

    # Maxwell-Boltzmann composition
    if args.symbolic:
        if args.csv:
            raise SequenceFileError("--symbolic writes a JSON report; --csv does not apply")
        polys = mb_compose_t(m, upto)
        report = {"schema_version": SCHEMA_VERSION, "kind": "t-polynomials",
                  "upto": upto,
                  "coefficients": [[str(c) for c in p.coeffs] for p in polys]}
        _write(seqfile.doc_to_json(report), args.output)
        return 0
    if args.k is not None:
        out = mb_compose_integer(m, args.k, upto)
        params["k"] = args.k
    elif args.t is not None:
        out = mb_compose_at(m, args.t, upto)
        params["t"] = str(args.t)
    else:
        raise SequenceFileError("--op mb needs --t, --k, or --symbolic")
    _emit_sequence(out, args, "compose", params)
    return 0


# ---------------------------------------------------------------------------
# simulate
#
# The simulator and numpy are imported here, on first use, so that no other
# subcommand pays for loading them.


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
    report = {"schema_version": SCHEMA_VERSION,
              "kind": f"simulate-{args.mode}", "report": _jsonable(res)}
    _write(seqfile.doc_to_json(report))
    return 0


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args) -> int:
    res = theta_threshold_scan(args.theta_grid, args.t_grid, args.depth,
                               args.delta)
    matrix = []
    for row in res.pass_matrix:
        cells = []
        for cell in row:
            entry = {"theta": str(cell.theta), "t": str(cell.t)}
            if cell.passed:
                entry["verdict"] = "stieltjes-ok"
            else:
                entry["verdict"] = "fail"
                entry["witness"] = _jsonable(cell.verdict)
            cells.append(entry)
        matrix.append(cells)
    report = {"schema_version": SCHEMA_VERSION, "kind": "theta-scan",
              "theta_grid": [str(x) for x in res.theta_grid],
              "t_grid": [str(x) for x in res.t_grid],
              "depth": res.depth,
              "pass_matrix": matrix,
              "empirical_theta_max": _jsonable(res.empirical_theta_max),
              "reference_threshold": str(res.reference_threshold),
              "monotone_in_theta": res.monotone_in_theta,
              "ratio_bounds": _jsonable(res.ratio_bounds),
              "delta": _jsonable(res.delta)}
    _write(seqfile.doc_to_json(report))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentlab",
        description="Exact and certified-precision moment sequence toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    # moments
    p_m = sub.add_parser("moments", help="generate a sequence file")
    src = p_m.add_subparsers(dest="source", required=True)

    def add_common(sp, pmf=False):
        sp.add_argument("--upto", type=int, default=6,
                        help="highest moment index" if not pmf else argparse.SUPPRESS)
        sp.add_argument("--precision", type=int, default=128,
                        help="working precision in bits")
        sp.add_argument("--abs-tol", default="1e-20",
                        help="absolute error bound; truncated, gap and mixed-poisson "
                             "exit 3 when they cannot certify it")
        sp.add_argument("--csv", action="store_true", help="emit CSV, not JSON")
        sp.add_argument("-o", "--output", help="write to file instead of stdout")
        sp.set_defaults(func=cmd_moments)

    sp = src.add_parser("lognormal", help="plain lognormal moments")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--sigma2", type=float, default=1.0)
    add_common(sp)

    sp = src.add_parser("lattice", help="exact family r^n q^(n^2)")
    sp.add_argument("--q", type=_frac, required=True)
    sp.add_argument("--r", type=_frac, default=Fraction(1))
    add_common(sp)

    sp = src.add_parser("truncated", help="left-truncated lognormal moments")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--sigma2", type=float, default=1.0)
    sp.add_argument("--logb", type=float, required=True,
                    help="log of the truncation point")
    sp.add_argument("--conditional", action="store_true",
                    help="normalize by the surviving mass")
    add_common(sp)

    sp = src.add_parser("gap", help="gap-censored lognormal moments")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--sigma2", type=float, default=1.0)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    add_common(sp)

    sp = src.add_parser("leipnik", help="discrete lattice twin of the lognormal")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--sigma2", type=float, default=1.0)
    add_common(sp)

    sp = src.add_parser("mixed-poisson",
                        help="Poisson pmf with truncated-lognormal intensity")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--sigma2", type=float, default=1.0)
    sp.add_argument("--logb", type=float, required=True)
    sp.add_argument("--N", type=int, required=True, help="intensity scale")
    sp.add_argument("--kmax", type=int, default=16)
    add_common(sp, pmf=True)

    # analyze
    p_a = sub.add_parser("analyze", help="Hankel and ratio diagnostics")
    p_a.add_argument("file")
    p_a.add_argument("--stieltjes-depth", type=int)
    p_a.add_argument("--fekete", type=int, metavar="SIZE",
                     help="Fekete minor check of the size-SIZE Hankel matrix")
    p_a.add_argument("--fekete-shift", type=int, default=0, choices=(0, 1))
    p_a.add_argument("--indeterminacy", type=int, metavar="DEPTH")
    p_a.add_argument("--mu1-threshold", type=int, metavar="DEPTH")
    p_a.add_argument("--logconvex", action="store_true")
    p_a.add_argument("--tolerance", help="rational zero cutoff for decimal input")
    p_a.add_argument("--precision", type=int, default=128,
                     help="bits assumed for decimal CSV input")
    p_a.set_defaults(func=cmd_analyze)

    # katti
    p_k = sub.add_parser("katti", help="infinite-divisibility recursion")
    p_k.add_argument("file")
    p_k.add_argument("--kmax", type=int)
    p_k.add_argument("--logconvex", action="store_true",
                     help="also run the log-convexity certificate")
    p_k.add_argument("--table", action="store_true",
                     help="aligned table on stderr next to the JSON")
    p_k.add_argument("--precision", type=int, default=128)
    p_k.set_defaults(func=cmd_katti)

    # compose
    p_c = sub.add_parser("compose", help="convolution compositions")
    p_c.add_argument("file")
    p_c.add_argument("--op", choices=("classical", "mb", "boolean"),
                     required=True)
    p_c.add_argument("--t", type=_frac, help="rational composition parameter")
    p_c.add_argument("--k", type=int, help="integer composition parameter")
    p_c.add_argument("--upto", type=int)
    p_c.add_argument("--symbolic", action="store_true",
                     help="emit t-polynomial coefficients (mb only)")
    p_c.add_argument("--precision", type=int, default=128)
    p_c.add_argument("--csv", action="store_true")
    p_c.add_argument("-o", "--output")
    p_c.set_defaults(func=cmd_compose)

    # simulate
    p_s = sub.add_parser("simulate", help="seeded Monte-Carlo experiments")
    sim = p_s.add_subparsers(dest="mode", required=True)

    def add_sim_common(sp):
        sp.add_argument("--rate", type=float, default=1.0)
        sp.add_argument("--atoms", help="jump atoms as size:weight[,size:weight...]")
        sp.add_argument("--poisson-jumps", type=float, metavar="LAM")
        sp.add_argument("--lognormal-jumps", metavar="ALPHA:SIGMA2")
        sp.add_argument("--epsilon", type=float, default=0.0,
                        help="discard jumps at or below this size")
        sp.add_argument("--t", type=float, default=1.0, help="time horizon")
        sp.add_argument("--trials", type=int, required=True)
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--level", type=float, default=0.99)
        sp.set_defaults(func=cmd_simulate)

    sp = sim.add_parser("spectrum", help="interval replication consistency")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--censor-gap", type=float, nargs=2, metavar=("A", "B"),
                    help="zero out samples inside this open interval first")
    add_sim_common(sp)

    sp = sim.add_parser("epsilon", help="small-jump truncation drift")
    sp.add_argument("--eps-grid", type=_float_list, required=True)
    sp.add_argument("--eta", type=float, default=0.1)
    add_sim_common(sp)

    # scan
    p_t = sub.add_parser("scan", help="theta-threshold scan")
    p_t.add_argument("--theta-grid", type=_frac_list,
                     default=list(DEFAULT_THETA_GRID))
    p_t.add_argument("--t-grid", type=_frac_list, default=list(DEFAULT_T_GRID))
    p_t.add_argument("--depth", type=int, default=5)
    p_t.add_argument("--delta", type=_frac,
                     help="compare theta/(1-theta)^2 against this bound")
    p_t.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SequenceFileError, BackendError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, PrecisionError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
