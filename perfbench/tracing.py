"""Spans and counters recorded around the public API of ``persuasion``.

The tracer wraps functions at module boundaries from outside the package.
Every module attribute that refers to a wrapped function is replaced, so
the ``solve`` that ``persuasion.exact`` imported from ``persuasion.lp`` is
traced along with ``persuasion.lp.solve`` itself. Methods are wrapped on
their class.

Each span records (layer, start, end, parent span, op id). Spans stay in
memory and are written out when the run ends. The workloads run in one
thread, so a span's children never overlap and its self time is its
duration minus the durations of its children. No layer waits on a queue
or a lock, so there are no wait times to record.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

OP = "op"  # root span the harness opens around each operation


def _lp_dims(tracer, args, kwargs, result):
    lp = args[0]
    tracer.count["lp.rows"] += len(lp.constraints)
    tracer.count["lp.cols"] += lp.objective.size
    tracer.count[f"lp.status.{result.status}"] += 1
    tracer.last_lp_cols = lp.objective.size


def _empirical(tracer, args, kwargs, result):
    tracer.count["blackbox.empirical_samples"] += result.sample_size
    tracer.count["blackbox.buckets"] += tracer.last_lp_cols // result.phi.shape[1]


def _draw_batch(tracer, args, kwargs, result):
    tracer.count["blackbox.draw_batch.samples"] += int(args[1])


def _decompose(tracer, args, kwargs, result):
    tracer.count["iid.decompose.profiles"] += result.profiles.shape[0]


def _approx_profiles(tracer, args, kwargs, result):
    tracer.count["approx.profiles_sampled"] += args[1].shape[0]


def _khintchine_states(tracer, args, kwargs, result):
    tracer.count["khintchine.states"] += 2 ** len(args[0])


# (layer, module, attribute path, observer run after the span closes)
LAYERS = (
    ("lp.solve", "persuasion.lp", "solve", _lp_dims),
    ("exact.solve_exact", "persuasion.exact", "solve_exact", None),
    ("exact.expand_product", "persuasion.exact", "expand_product", None),
    ("model.audit", "persuasion.model", "audit", None),
    ("blackbox.sample", "persuasion.blackbox", "BlackboxSampler.sample", None),
    ("blackbox.draw_batch", "persuasion.blackbox", "ExplicitOracle.draw_batch", _draw_batch),
    ("blackbox.solve_empirical_lp", "persuasion.blackbox", "solve_empirical_lp", _empirical),
    ("iid.solve_s_signature", "persuasion.iid", "solve_s_signature", None),
    ("iid.border_feasible", "persuasion.iid", "border_feasible", None),
    ("iid.implement_s_signature", "persuasion.iid", "implement_s_signature", None),
    ("iid.decompose_reduced_form", "persuasion.iid", "decompose_reduced_form", _decompose),
    ("iid.signature_of", "persuasion.iid", "signature_of", None),
    ("iid.sample_many", "persuasion.iid", "AllocationSchemeSampler.sample_many", None),
    ("approx.solve_relaxation", "persuasion.approx", "solve_relaxation", None),
    ("approx.sample_many", "persuasion.approx", "IndependentSignalSampler.sample_many",
     _approx_profiles),
    ("verify.monte_carlo_eval", "persuasion.verify", "monte_carlo_eval", None),
    ("verify.draw_many", "persuasion.verify", "IIDSource.draw_many", None),
    ("verify.draw_many", "persuasion.verify", "OracleSource.draw_many", None),
    ("verify.draw_many", "persuasion.verify", "ExplicitSource.draw_many", None),
    ("verify.allocation_exists_bruteforce", "persuasion.verify",
     "allocation_exists_bruteforce", None),
    ("verify.realizability_check", "persuasion.verify", "realizability_check", None),
    ("verify.concavification_value", "persuasion.verify", "concavification_value", None),
    ("khintchine.solve_khintchine_lp", "persuasion.khintchine", "solve_khintchine_lp",
     _khintchine_states),
    ("khintchine.khintchine_constant", "persuasion.khintchine", "khintchine_constant", None),
)


class Tracer:
    """In-memory span recorder. Create one per run and pass it around."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent, op]
        self.count: Counter = Counter()
        self.last_lp_cols = 0
        self._stack: list[int] = []
        self._op = None
        self._paused = False
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _enter(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span of one operation; spans inside it carry its id."""
        self._op = op_id
        index = self._enter(OP)
        try:
            yield
        finally:
            self._exit(index)
            self._op = None

    @contextmanager
    def paused(self):
        """Run correctness checks without recording them."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every reference to the traced functions with wrappers."""
        modules = [m for name, m in sys.modules.items()
                   if name == "persuasion" or name.startswith("persuasion.")]
        for layer, module_name, path, observe in LAYERS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(layer, original, observe))
                self._undo.append((cls, attr, original))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(layer, original, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def layer_table(self) -> dict:
        """Per layer: calls, inclusive and self seconds, in-op self seconds,
        and the list of span durations."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "in_op_self_s": 0.0, "durations": []})
        for k, (layer, start, end, parent, op) in enumerate(self.spans):
            row = table[layer]
            dur = end - start
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[k]
            if op is not None:
                row["in_op_self_s"] += dur - child[k]
            row["durations"].append(dur)
        return dict(table)

    def child_calls(self, parent_layer: str, child_layer: str) -> int:
        """Spans of child_layer whose direct parent is a parent_layer span."""
        return sum(1 for layer, _, _, parent, _ in self.spans
                   if layer == child_layer and parent >= 0
                   and self.spans[parent][0] == parent_layer)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for layer, start, end, parent, op in self.spans:
                out.write(json.dumps([layer, start, end, parent, op]) + "\n")


def per_layer_metrics(tracer: Tracer, ops: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, normalized per operation."""
    table = tracer.layer_table()
    count = tracer.count
    per_op = 1.0 / max(ops, 1)

    def t(layer, key):
        return table.get(layer, {}).get(key, 0.0) * per_op

    def ratio(a, b):
        return a / b if b else 0.0

    lp_calls = table.get("lp.solve", {}).get("calls", 0)
    sig_calls = table.get("iid.solve_s_signature", {}).get("calls", 0)
    lp_durs = table.get("lp.solve", {}).get("durations", [])
    op_durs = table.get(OP, {}).get("durations", [])
    values = {
        "lp.solve.calls": (lp_calls * per_op, "1/op"),
        "lp.solve.self_s": (t("lp.solve", "self_s"), "s/op"),
        "lp.solve.ms_p50": (statistics.median(lp_durs) * 1e3 if lp_durs else 0.0, "ms"),
        "lp.rows_mean": (ratio(count["lp.rows"], lp_calls), "rows"),
        "lp.cols_mean": (ratio(count["lp.cols"], lp_calls), "cols"),
        "lp.status.infeasible": (count["lp.status.infeasible"] * per_op, "1/op"),
        "lp.status.numerical_failure": (count["lp.status.numerical_failure"] * per_op, "1/op"),
        "exact.solve_exact.self_s": (t("exact.solve_exact", "self_s"), "s/op"),
        "exact.expand_product.s": (t("exact.expand_product", "s"), "s/op"),
        "model.audit.s": (t("model.audit", "s"), "s/op"),
        "blackbox.draw_batch.s": (t("blackbox.draw_batch", "s"), "s/op"),
        "blackbox.draw_batch.samples": (count["blackbox.draw_batch.samples"] * per_op, "1/op"),
        "blackbox.solve_empirical_lp.self_s": (t("blackbox.solve_empirical_lp", "self_s"), "s/op"),
        "blackbox.buckets_per_sample": (
            ratio(count["blackbox.buckets"], count["blackbox.empirical_samples"]), "ratio"),
        "blackbox.buckets": (count["blackbox.buckets"] * per_op, "1/op"),
        "blackbox.empirical_samples": (count["blackbox.empirical_samples"] * per_op, "1/op"),
        "blackbox.sample.self_s": (t("blackbox.sample", "self_s"), "s/op"),
        "iid.solve_s_signature.self_s": (t("iid.solve_s_signature", "self_s"), "s/op"),
        "iid.lp_solves_per_call": (
            ratio(tracer.child_calls("iid.solve_s_signature", "lp.solve"), sig_calls), "ratio"),
        "iid.border_feasible.calls": (
            table.get("iid.border_feasible", {}).get("calls", 0) * per_op, "1/op"),
        "iid.uncertified": (count["iid.uncertified"] * per_op, "1/op"),
        "iid.decompose_reduced_form.s": (t("iid.decompose_reduced_form", "s"), "s/op"),
        "iid.decompose.profiles": (count["iid.decompose.profiles"] * per_op, "1/op"),
        "iid.sample_many.s": (t("iid.sample_many", "s"), "s/op"),
        "approx.solve_relaxation.s": (t("approx.solve_relaxation", "s"), "s/op"),
        "approx.sample_many.s": (t("approx.sample_many", "s"), "s/op"),
        "approx.profiles_sampled": (count["approx.profiles_sampled"] * per_op, "1/op"),
        "verify.monte_carlo_eval.self_s": (t("verify.monte_carlo_eval", "self_s"), "s/op"),
        "verify.draw_many.s": (t("verify.draw_many", "s"), "s/op"),
        "verify.allocation_exists_bruteforce.s": (
            t("verify.allocation_exists_bruteforce", "s"), "s/op"),
        "verify.realizability_check.s": (t("verify.realizability_check", "s"), "s/op"),
        "verify.concavification_value.self_s": (
            t("verify.concavification_value", "self_s"), "s/op"),
        "khintchine.solve_khintchine_lp.self_s": (
            t("khintchine.solve_khintchine_lp", "self_s"), "s/op"),
        "khintchine.khintchine_constant.s": (t("khintchine.khintchine_constant", "s"), "s/op"),
        "khintchine.states": (count["khintchine.states"] * per_op, "1/op"),
        "op.self_s": (t(OP, "self_s"), "s/op"),
        "op.ms_mean": (statistics.fmean(op_durs) * 1e3 if op_durs else 0.0, "ms"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}
