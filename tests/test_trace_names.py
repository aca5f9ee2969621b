"""The benchmark's tracer wraps momentlab functions by name: every name in
perfbench/spans.py must still resolve on its module, or `perfbench --trace 1`
breaks on a rename, and a layer must still call another through the name
the tracer wraps. The tables are read from the file, not imported."""
import ast
import importlib
import inspect
from fractions import Fraction
from pathlib import Path

from momentlab import semigroup, stieltjes

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def table(name):
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {SPANS}")


def test_layer_functions_resolve():
    layers = table("LAYER_FUNCTIONS")
    assert layers
    for modname, functions in layers.items():
        mod = importlib.import_module("momentlab." + modname)
        missing = [name for name in functions if not callable(getattr(mod, name, None))]
        assert missing == [], f"momentlab.{modname} lacks {missing}"


def test_imported_only_names_resolve():
    for modname, name in table("IMPORTED_ONLY"):
        mod = importlib.import_module("momentlab." + modname)
        assert callable(getattr(mod, name, None)), f"momentlab.{modname}.{name}"


def test_keyword_arguments_the_tracer_reads_exist():
    """layer_metrics reads some arguments of a traced call by name."""
    layers = table("LAYER_FUNCTIONS")
    wanted = {("stieltjes", name): {"m"} for name in layers["stieltjes"]}
    wanted[("stieltjes", "stieltjes_verdict")].add("upto")
    wanted[("stieltjes", "indeterminacy_ratios")].add("upto")
    wanted[("simulator", "spectrum_gap_test")] = {"trials"}
    wanted[("simulator", "epsilon_truncation_drift")] = {"trials"}
    wanted[("simulator", "sample_compound_poisson")] = {"count"}
    for (modname, name), params in wanted.items():
        fn = getattr(importlib.import_module("momentlab." + modname), name)
        missing = params - set(inspect.signature(fn).parameters)
        assert not missing, f"momentlab.{modname}.{name} lacks {missing}"


def test_scan_calls_the_verdict_once_per_refused_row(monkeypatch):
    """The tracer charges the scan's verdicts to stieltjes.verdict_s by
    wrapping semigroup's binding of stieltjes_verdict, so the scan must call
    it through that name, once per theta row that the closed form and the
    float certificate leave to the exact row verdict: here every row, as the
    closed form and the certificate are made to refuse. That verdict holds
    on the lattice family, so no cell takes one of its own. Where either
    certifies, no verdict runs."""
    calls = []
    verdict = semigroup.stieltjes_verdict

    def counting(*args, **kwargs):
        calls.append(args)
        return verdict(*args, **kwargs)

    grid = (Fraction(1, 4), Fraction(1, 9)), (Fraction(1, 3), Fraction(2, 3)), 3
    monkeypatch.setattr(semigroup, "stieltjes_verdict", counting)
    certified = semigroup.theta_threshold_scan(*grid)
    assert calls == []
    monkeypatch.setattr(semigroup, "_closed_form_row", lambda q: False)
    monkeypatch.setattr(stieltjes, "_certified_positive", lambda *args: False)
    res = semigroup.theta_threshold_scan(*grid)
    assert len(calls) == 2 and res == certified
    assert [cell.verdict for row in res.pass_matrix for cell in row] == [
        verdict(*args) for args in calls for _ in res.t_grid]
