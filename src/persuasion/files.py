"""Instance and scheme files, plus the shipped corpus.

Files are UTF-8 JSON. Numbers are written with 17 significant digits,
which round-trips IEEE doubles exactly, so loading a saved instance
reproduces it bit for bit and repeated saves are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import FileFormatError
from .model import ExplicitInstance, IIDInstance, IndependentInstance, Marginal

Instance = Union[ExplicitInstance, IIDInstance, IndependentInstance]


# ---------------------------------------------------------------------------
# canonical JSON with fixed float formatting


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise FileFormatError("cannot serialize non-finite numbers")
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(k)}: {dumps(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps(v, indent + 1) for v in obj]
        if sum(len(s) for s in items) < 72 and all("\n" not in s for s in items):
            return "[" + ", ".join(items) + "]"
        inner = ",\n".join(f"{pad}  {s}" for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise FileFormatError(f"cannot serialize {type(obj).__name__}")


def _parse(path: Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise FileFormatError(f"{where}: missing field {key!r}")
    return obj[key]


def _number_list(value, where: str) -> list:
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise FileFormatError(f"{where}: expected a list of numbers")
    return [float(v) for v in value]


# ---------------------------------------------------------------------------
# instance files


def instance_to_dict(instance: Instance) -> dict:
    if isinstance(instance, ExplicitInstance):
        return {
            "kind": "explicit",
            "actions": instance.action_count,
            "states": [
                {
                    "prob": float(instance.state_probs[t]),
                    "sender": list(instance.sender_payoffs[t]),
                    "receiver": list(instance.receiver_payoffs[t]),
                }
                for t in range(instance.state_count)
            ],
        }
    if isinstance(instance, IIDInstance):
        return {
            "kind": "iid",
            "actions": instance.action_count,
            "types": instance.type_count,
            "q": list(instance.type_probs),
            "xi": list(instance.sender_payoffs),
            "rho": list(instance.receiver_payoffs),
        }
    if isinstance(instance, IndependentInstance):
        return {
            "kind": "independent",
            "marginals": [
                {
                    "q": list(m.type_probs),
                    "xi": list(m.sender_payoffs),
                    "rho": list(m.receiver_payoffs),
                }
                for m in instance.marginals
            ],
        }
    raise FileFormatError(f"unknown instance type {type(instance).__name__}")


def instance_from_dict(data: dict, where: str = "instance") -> Instance:
    kind = _need(data, "kind", where)
    if kind == "explicit":
        actions = _need(data, "actions", where)
        states = _need(data, "states", where)
        if not isinstance(states, list) or not states:
            raise FileFormatError(f"{where}.states: expected a nonempty list")
        probs, sender, receiver = [], [], []
        for t, st in enumerate(states):
            here = f"{where}.states[{t}]"
            if not isinstance(st, dict):
                raise FileFormatError(f"{here}: expected an object")
            prob = _need(st, "prob", here)
            if isinstance(prob, bool) or not isinstance(prob, (int, float)):
                raise FileFormatError(f"{here}.prob: expected a number")
            srow = _number_list(_need(st, "sender", here), f"{here}.sender")
            rrow = _number_list(_need(st, "receiver", here), f"{here}.receiver")
            if len(srow) != actions or len(rrow) != actions:
                raise FileFormatError(
                    f"{here}: payoff vectors must have {actions} entries"
                )
            probs.append(float(prob))
            sender.append(srow)
            receiver.append(rrow)
        return ExplicitInstance(probs, sender, receiver)
    if kind == "iid":
        actions = _need(data, "actions", where)
        types = _need(data, "types", where)
        q = _number_list(_need(data, "q", where), f"{where}.q")
        xi = _number_list(_need(data, "xi", where), f"{where}.xi")
        rho = _number_list(_need(data, "rho", where), f"{where}.rho")
        if not (len(q) == len(xi) == len(rho) == types):
            raise FileFormatError(f"{where}: q, xi, rho must each have {types} entries")
        return IIDInstance(actions, q, xi, rho)
    if kind == "independent":
        marg = _need(data, "marginals", where)
        if not isinstance(marg, list) or not marg:
            raise FileFormatError(f"{where}.marginals: expected a nonempty list")
        out = []
        for i, mdat in enumerate(marg):
            here = f"{where}.marginals[{i}]"
            q = _number_list(_need(mdat, "q", here), f"{here}.q")
            xi = _number_list(_need(mdat, "xi", here), f"{here}.xi")
            rho = _number_list(_need(mdat, "rho", here), f"{here}.rho")
            out.append(Marginal(q, xi, rho))
        return IndependentInstance(out)
    raise FileFormatError(f"{where}.kind: unknown kind {kind!r}")


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(dumps(instance_to_dict(instance)) + "\n", encoding="utf-8")


def load_instance(path) -> Instance:
    return instance_from_dict(_parse(Path(path)), where=str(path))


# ---------------------------------------------------------------------------
# scheme files


@dataclass(frozen=True)
class SchemeRecord:
    """Saved solver output: either an explicit phi matrix with its state
    ordering, or an s-signature pair, plus the audit summary."""

    method: str
    value: float
    ic_report: dict
    phi: Optional[np.ndarray] = None
    state_order: Optional[list] = None
    s_signature: Optional[dict] = None
    seed: Optional[int] = None


def save_scheme(record: SchemeRecord, path) -> None:
    data = {"method": record.method, "value": float(record.value)}
    if record.phi is not None:
        data["phi"] = [list(row) for row in np.asarray(record.phi, dtype=float)]
        data["state_order"] = record.state_order
    if record.s_signature is not None:
        data["s_signature"] = {
            "x": list(record.s_signature["x"]),
            "y": list(record.s_signature["y"]),
        }
    data["ic_report"] = {
        "min_slack": float(record.ic_report["min_slack"]),
        "epsilon_certified": float(record.ic_report["epsilon_certified"]),
    }
    data["seed"] = record.seed
    Path(path).write_text(dumps(data) + "\n", encoding="utf-8")


def load_scheme(path) -> SchemeRecord:
    data = _parse(Path(path))
    where = str(path)
    method = _need(data, "method", where)
    value = _need(data, "value", where)
    ic = _need(data, "ic_report", where)
    phi = None
    state_order = None
    ssig = None
    if "phi" in data:
        rows = data["phi"]
        if not isinstance(rows, list) or not rows:
            raise FileFormatError(f"{where}.phi: expected a nonempty matrix")
        phi = [_number_list(row, f"{where}.phi[{t}]") for t, row in enumerate(rows)]
        if len({len(row) for row in phi}) > 1:
            raise FileFormatError(f"{where}.phi: rows must have equal lengths")
        phi = np.array(phi)
        state_order = data.get("state_order")
        if state_order is not None and (not isinstance(state_order, list)
                                        or len(state_order) != len(rows)):
            raise FileFormatError(
                f"{where}.state_order: expected a list with one entry per phi row")
    if "s_signature" in data:
        sd = data["s_signature"]
        ssig = {
            "x": _number_list(_need(sd, "x", f"{where}.s_signature"),
                              f"{where}.s_signature.x"),
            "y": _number_list(_need(sd, "y", f"{where}.s_signature"),
                              f"{where}.s_signature.y"),
        }
    if phi is None and ssig is None:
        raise FileFormatError(f"{where}: need either phi or s_signature")
    return SchemeRecord(
        method=str(method),
        value=float(value),
        ic_report={
            "min_slack": float(_need(ic, "min_slack", f"{where}.ic_report")),
            "epsilon_certified": float(
                _need(ic, "epsilon_certified", f"{where}.ic_report")
            ),
        },
        phi=phi,
        state_order=state_order,
        s_signature=ssig,
        seed=data.get("seed"),
    )


# ---------------------------------------------------------------------------
# shipped corpus


def corpus_names() -> list:
    root = resources.files("persuasion") / "corpus"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def corpus_path(name: str) -> Path:
    path = Path(str(resources.files("persuasion") / "corpus" / f"{name}.json"))
    if not path.exists():
        raise FileFormatError(f"no corpus instance named {name!r}")
    return path


def load_corpus(name: str) -> Instance:
    return load_instance(corpus_path(name))
