"""The benchmark's tracing hooks and calls resolve on the package.

perfbench/tracing.py wraps public names by string, and the workloads call
persuasion as P.<name> and its fixtures as F.<name>; a renamed or removed
name would otherwise only show when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import persuasion
from persuasion import fixtures

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module_name, path):
    owner = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, path)


def _persuasion_attrs():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "persuasion" or name.startswith("persuasion.")
            for attr, value in vars(module).items()}


def test_every_layer_resolves_on_the_package():
    for layer, module_name, path, observe in _load_tracing().LAYERS:
        assert callable(_target(module_name, path)), layer
        assert observe is None or callable(observe), layer


def _attributes_of(path, owner):
    """Names read as owner.<name> or self.owner.<name> in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute):
            base = node.value
            if (isinstance(base, ast.Name) and base.id == owner) or (
                    isinstance(base, ast.Attribute) and base.attr == owner):
                names.add(node.attr)
    return names


def test_every_benchmark_call_resolves_on_the_package():
    for source in ("workloads.py", "checks.py"):
        path = PERFBENCH / source
        called, made = _attributes_of(path, "P"), _attributes_of(path, "F")
        assert called, source
        assert sorted(n for n in called if not hasattr(persuasion, n)) == [], source
        assert sorted(n for n in made if not hasattr(fixtures, n)) == [], source
    assert {"realizability_check", "signature_of", "solve_khintchine_lp",
            "khintchine_constant", "expand_product"} <= _attributes_of(
        PERFBENCH / "workloads.py", "P")


def test_tracer_install_and_uninstall_round_trip():
    tracing = _load_tracing()
    before = _persuasion_attrs()
    originals = {(m, p): _target(m, p) for _, m, p, _ in tracing.LAYERS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(_target(m, p) is not fn for (m, p), fn in originals.items())
        # the observers read what the traced calls return
        inst = fixtures.investor()
        ssig, _ = persuasion.solve_s_signature(inst)
        q = inst.type_probs
        with tracer.op(0):
            persuasion.decompose_reduced_form(ssig.recommended / q, q, 2)
            persuasion.allocation_exists_bruteforce(np.full(3, 0.5), q, 2)
        assert tracer.count["iid.decompose.profiles"] == 9
        assert tracer.count["lp.status.optimal"] == 1
        # the transport LP at n = 2, m = 3: 9 profile rows and 6 (bidder,
        # type) rows over 9 profiles x 2 bidders
        assert tracer.count["lp.rows"] == 15 and tracer.count["lp.cols"] == 18
        assert {"iid.decompose_reduced_form", "lp.solve"} <= {s[0] for s in tracer.spans}
    finally:
        tracer.uninstall()
    after = _persuasion_attrs()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert all(_target(m, p) is fn for (m, p), fn in originals.items())
