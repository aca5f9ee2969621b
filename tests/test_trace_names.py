"""The benchmark's tracer wraps momentlab functions by name: every name in
perfbench/spans.py must still resolve on its module, or `perfbench --trace 1`
breaks on a rename. The tables are read from the file, not imported."""
import ast
import importlib
from pathlib import Path

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
