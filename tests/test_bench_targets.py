"""Every name the benchmark's trace wraps still exists in the package.

perfbench/layers.py wraps functions where their callers look them up.
A rename or a moved import in src/ would make `perfbench/run.py --trace 1`
raise, so the names are checked here, reading the file without running it.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def traced_targets() -> tuple[tuple[str, str, str], ...]:
    tree = ast.parse(LAYERS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("TARGETS not found in perfbench/layers.py")


def module(name: str):
    return importlib.import_module(f"newtonosc.{name}")


def test_every_traced_name_resolves():
    targets = traced_targets()
    assert targets
    for via, name, layer in targets:
        assert callable(getattr(module(via), name)), (via, name)
        module(layer)


def test_patched_module_attributes_resolve():
    # instrument() also swaps these attributes for proxies
    assert callable(module("cli").jsonschema.validate)
    assert callable(module("blocks").np.linalg.norm)
    op = module("opnorm").DiscreteOperator
    assert callable(op.apply) and callable(op.apply_adjoint)
