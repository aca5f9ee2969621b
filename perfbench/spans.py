"""Spans around momentlab's layer boundaries, and the per-layer metrics
derived from them.

Tracing wraps the public functions of each layer module, and the names that
`semigroup` and `cli` import from other layers, so a nested call is charged
to the layer that does the work. A span is (group, start, end, parent) plus
the call's arguments and result, kept in memory; counts are read from those
after the traced pass, outside every span. A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans of a job add up to the job's wall time exactly.
"""
from __future__ import annotations

import inspect
import json
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import oracle

# module -> {function name: metric group}
LAYER_FUNCTIONS = {
    "moment_algebra": {
        "mb_compose_t": "moment_algebra.compose_t",
        "mb_compose_integer": "moment_algebra.compose_k",
        "mb_compose_at": "moment_algebra.compose_k",
        "cumulants_from_moments": "moment_algebra.cumulant",
        "moments_from_cumulants": "moment_algebra.cumulant",
        "levy_moments_at_t": "moment_algebra.cumulant",
        "boolean_power_t": "moment_algebra.cumulant",
        "boolean_convolve": "moment_algebra.cumulant",
        "boolean_cumulants_from_moments": "moment_algebra.cumulant",
        "moments_from_boolean_cumulants": "moment_algebra.cumulant",
        "classical_convolve": "moment_algebra.cumulant",
    },
    "semigroup": {
        "theta_threshold_scan": "semigroup.scan",
        "lattice_family": "semigroup.scan",
        "mb_semigroup_identity": "semigroup.identity",
        "alternation_check": "semigroup.check",
        "envelope_bounds_check": "semigroup.check",
    },
    "stieltjes": {
        "stieltjes_verdict": "stieltjes.verdict",
        "indeterminacy_ratios": "stieltjes.ratio",
        "mu1_threshold_sequence": "stieltjes.ratio",
        "fekete_total_positivity": "stieltjes.fekete",
        "log_convexity_report": "stieltjes.logconvex",
        "split_bound_check": "stieltjes.logconvex",
    },
    "distributions": {
        "truncated_lognormal_moments": "distributions.truncated",
        "gap_censored_lognormal_moments": "distributions.gap",
        "leipnik_discrete_moments": "distributions.leipnik",
        "leipnik_weights": "distributions.leipnik",
        "mixed_poisson_pmf": "distributions.mixed_poisson",
        "lognormal_moments": "distributions.other",
        "lattice_lognormal_moments": "distributions.other",
        "poisson_moments": "distributions.other",
        "poisson_pmf": "distributions.other",
        "geometric_pmf": "distributions.other",
    },
    "divisibility": {
        "katti_r": "divisibility.katti",
        "pmf_from_rates": "divisibility.katti",
        "logconvex_pmf_check": "divisibility.logconvex",
    },
    "simulator": {
        "spectrum_gap_test": "simulator.sim",
        "epsilon_truncation_drift": "simulator.sim",
        "sample_compound_poisson": "simulator.sim",
        "gap_censor_samples": "simulator.sim",
    },
    "seqfile": {
        "load_json": "seqfile.load",
        "read_csv": "seqfile.load",
        "parse_doc": "seqfile.load",
        "sequence_from_doc": "seqfile.load",
        "dump_json": "seqfile.dump",
        "moments_to_doc": "seqfile.dump",
        "pmf_to_doc": "seqfile.dump",
        "doc_to_json": "seqfile.dump",
        "write_csv": "seqfile.dump",
        "csv_text": "seqfile.dump",
    },
    "cli": {
        "main": "cli.self",
        "build_parser": "cli.self",
        "cmd_moments": "cli.self",
        "cmd_analyze": "cli.self",
        "cmd_katti": "cli.self",
        "cmd_compose": "cli.self",
        "cmd_simulate": "cli.self",
        "cmd_scan": "cli.self",
    },
}

# A private helper that semigroup imports: only semigroup's binding is
# wrapped, so the enumeration inside mb_compose_t stays one span.
IMPORTED_ONLY = {("semigroup", "_composition_sum"): "moment_algebra.compose_t"}

JOB = "bench.job"

_CERTIFIED = ("distributions.truncated", "distributions.gap",
              "distributions.leipnik", "distributions.mixed_poisson")


class Span:
    __slots__ = ("group", "fn", "start", "end", "parent", "args", "kwargs", "result")

    def __init__(self, group, fn, parent, args, kwargs):
        self.group = group
        self.fn = fn
        self.parent = parent
        self.args = args
        self.kwargs = kwargs
        self.result = None
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start

    def arg(self, name):
        bound = inspect.signature(self.fn).bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments[name]


class Tracer:
    """Installs span-recording wrappers into the momentlab modules and
    removes them again; spans stay in memory until `dump`."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, fn, group):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(group, fn, stack[-1] if stack else -1, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            return span.result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _patch(self, mod, name, value):
        self._patched.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def install(self):
        wrappers = {}
        for modname, table in LAYER_FUNCTIONS.items():
            mod = self.modules[modname]
            for name, group in table.items():
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(fn, group))
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, name, hit[1])
        for (modname, name), group in IMPORTED_ONLY.items():
            mod = self.modules[modname]
            self._patch(mod, name, self._wrap(getattr(mod, name), group))

    def uninstall(self):
        while self._patched:
            mod, name, value = self._patched.pop()
            setattr(mod, name, value)

    def begin(self):
        """Open a job's root span; the caller times the job itself."""
        span = Span(JOB, self.begin, -1, (), {})
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span, start, end):
        span.start, span.end = start, end
        self._stack.pop()

    def dump(self, path):
        """Write the spans as JSON lines: group, function, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.group, s.fn.__name__, s.start, s.end, s.parent]) + "\n")


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _bits_of(obj) -> int:
    """Largest numerator/denominator bit length inside an exact result."""
    if isinstance(obj, (Fraction, int)):
        return oracle.entry_bits(obj)
    if isinstance(obj, (list, tuple)):
        return max((_bits_of(x) for x in obj), default=0)
    coeffs = getattr(obj, "coeffs", None)
    if coeffs is not None:
        return _bits_of(coeffs)
    values = getattr(obj, "values", None)
    if values is not None and getattr(obj, "exact", False):
        return _bits_of(values)
    return 0


def _minors_implied(span) -> int:
    """Determinants a stieltjes call evaluates, from its depth and witness."""
    name, res = span.fn.__name__, span.result
    if name == "stieltjes_verdict":
        upto = span.arg("upto")
        w = res.witness
        if res.kind != "not-stieltjes":
            return 2 * (upto + 1)
        # a size-0 refutation comes from the entry scan, before any minor
        return 0 if w.size == 0 else 2 * w.size + (1 if w.shift == 0 else 2)
    if name == "fekete_total_positivity":
        return res.minors_checked
    if name == "indeterminacy_ratios":
        return 4 * span.arg("upto")
    if name == "mu1_threshold_sequence":
        return len(res.values) + sum(v is not None for v in res.values)
    return 0


def layer_metrics(spans, rounds: int, untraced_round_s: float) -> dict:
    """Per-layer metrics of one traced pass, each per round of jobs."""
    own = _self_times(spans)
    by_group = defaultdict(float)
    for s, t in zip(spans, own):
        by_group[s.group] += t
    per = 1.0 / rounds

    def t(group):
        return by_group.get(group, 0.0) * per

    stieltjes_by_backend = defaultdict(float)
    compose_t_calls = verdict_calls = fekete_minors = minors = entries = 0
    coeff_bits = entry_bits = 0
    samples = 0
    for s, st in zip(spans, own):
        layer = s.group.split(".")[0]
        name = s.fn.__name__
        if s.result is None:
            continue
        if layer == "moment_algebra":
            coeff_bits = max(coeff_bits, _bits_of(s.result))
            compose_t_calls += name == "mb_compose_t"
        elif layer == "stieltjes":
            m = s.arg("m")
            exact = getattr(m, "exact", True)
            stieltjes_by_backend["exact" if exact else "decimal"] += st
            vals = m.values if hasattr(m, "values") else m
            entry_bits = max(entry_bits, max(oracle.entry_bits(v) for v in vals))
            verdict_calls += name == "stieltjes_verdict"
            if name == "fekete_total_positivity":
                fekete_minors += s.result.minors_checked
            minors += _minors_implied(s)
        elif s.group in _CERTIFIED and name != "leipnik_weights":
            r = s.result
            entries += len(getattr(r, "moments", r))
        elif layer == "simulator" and name in ("spectrum_gap_test", "epsilon_truncation_drift"):
            samples += s.arg("trials")
        elif name == "sample_compound_poisson":
            samples += s.arg("count")

    scan_cells = sum(len(s.result.theta_grid) * len(s.result.t_grid)
                     for s in spans if s.fn.__name__ == "theta_threshold_scan"
                     and s.result is not None)
    certified_s = sum(t(g) for g in _CERTIFIED)
    sim_s = t("simulator.sim")
    round_s = sum(s.duration for s in spans if s.group == JOB) * per
    return {
        "moment_algebra.compose_t_s": t("moment_algebra.compose_t"),
        "moment_algebra.compose_t_calls": compose_t_calls * per,
        "moment_algebra.compose_k_s": t("moment_algebra.compose_k"),
        "moment_algebra.cumulant_s": t("moment_algebra.cumulant"),
        "moment_algebra.max_coeff_bits": coeff_bits,
        "semigroup.scan_self_s": t("semigroup.scan"),
        "semigroup.identity_self_s": t("semigroup.identity"),
        "semigroup.check_s": t("semigroup.check"),
        "semigroup.scan_cells": scan_cells * per,
        "stieltjes.verdict_s": t("stieltjes.verdict"),
        "stieltjes.verdict_calls": verdict_calls * per,
        "stieltjes.ratio_s": t("stieltjes.ratio"),
        "stieltjes.fekete_s": t("stieltjes.fekete"),
        "stieltjes.fekete_minors": fekete_minors * per,
        "stieltjes.logconvex_s": t("stieltjes.logconvex"),
        "stieltjes.minors_computed": minors * per,
        "stieltjes.exact_s": stieltjes_by_backend["exact"] * per,
        "stieltjes.decimal_s": stieltjes_by_backend["decimal"] * per,
        "stieltjes.max_entry_bits": entry_bits,
        "distributions.truncated_s": t("distributions.truncated"),
        "distributions.gap_s": t("distributions.gap"),
        "distributions.leipnik_s": t("distributions.leipnik"),
        "distributions.mixed_poisson_s": t("distributions.mixed_poisson"),
        "distributions.other_s": t("distributions.other"),
        "distributions.entries": entries * per,
        "distributions.s_per_entry": certified_s / (entries * per) if entries else 0.0,
        "divisibility.katti_s": t("divisibility.katti"),
        "divisibility.logconvex_s": t("divisibility.logconvex"),
        "simulator.sim_s": sim_s,
        "simulator.samples_per_s": samples * per / sim_s if sim_s else 0.0,
        "seqfile.load_s": t("seqfile.load"),
        "seqfile.dump_s": t("seqfile.dump"),
        "cli.self_s": t("cli.self"),
        "bench.self_s": t(JOB),
        "trace.round_s": round_s,
        "trace.overhead_s": round_s - untraced_round_s,
    }


def importtime_scipy_s(stderr_text: str) -> float:
    """Seconds spent under scipy in one `python -X importtime` log: the
    cumulative time of every scipy module whose importer is not scipy."""
    total = 0
    stack = []  # (indent, is_scipy) of the open ancestors, innermost last
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        indent = len(name) - len(name.lstrip())
        rows.append((indent, name.strip(), int(parts[1])))
    # importtime prints children before their parent; walk it backwards so
    # each module is seen after the module that imported it
    for indent, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            total += cumulative
        stack.append((indent, is_scipy))
    return total / 1e6
