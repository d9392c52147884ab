"""File round-trips, corpus integrity, and CLI behavior."""

import json
import subprocess
import sys

import numpy as np
import pytest

from persuasion import fixtures
from persuasion.errors import FileFormatError
from persuasion.exact import expand_product
from persuasion.files import (
    SchemeRecord,
    corpus_names,
    corpus_path,
    load_corpus,
    load_instance,
    load_scheme,
    save_instance,
    save_scheme,
)
from persuasion.model import (DirectScheme, ExplicitInstance, IIDInstance,
                              IndependentInstance, Marginal, audit)


def same_instance(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, ExplicitInstance):
        return (
            np.array_equal(a.state_probs, b.state_probs)
            and np.array_equal(a.sender_payoffs, b.sender_payoffs)
            and np.array_equal(a.receiver_payoffs, b.receiver_payoffs)
        )
    return (
        a.action_count == b.action_count
        and np.array_equal(a.type_probs, b.type_probs)
        and np.array_equal(a.sender_payoffs, b.sender_payoffs)
        and np.array_equal(a.receiver_payoffs, b.receiver_payoffs)
    )


def test_corpus_lists_expected_instances():
    names = corpus_names()
    for expected in (
        "prosecutor",
        "investor",
        "rain_shine_point",
        "rain_shine_mixed",
        "three_action_base",
        "three_action_shifted",
    ):
        assert expected in names


def test_corpus_round_trip_bit_exact(tmp_path):
    for name in corpus_names():
        inst = load_corpus(name)
        out = tmp_path / f"{name}.json"
        save_instance(inst, out)
        assert same_instance(load_instance(out), inst)
        # re-saving the loaded copy reproduces the shipped bytes
        assert out.read_bytes() == corpus_path(name).read_bytes()


def test_corpus_matches_fixture_constructors():
    assert same_instance(load_corpus("prosecutor"), fixtures.prosecutor())
    assert same_instance(load_corpus("investor"), fixtures.investor())
    assert same_instance(load_corpus("rain_shine_mixed"),
                         fixtures.rain_shine_mixed(0.1))


def test_random_instance_round_trip(tmp_path):
    rng = np.random.default_rng(101)
    for k in range(10):
        inst = fixtures.random_explicit(rng, 4, 3)
        path = tmp_path / f"r{k}.json"
        save_instance(inst, path)
        assert same_instance(load_instance(path), inst)


def test_scheme_round_trip_and_reaudit(tmp_path):
    inst = fixtures.investor()
    full = expand_product(inst)
    scheme = fixtures.investor_optimal_scheme(inst)
    report = audit(full, scheme)
    record = SchemeRecord(
        method="exact",
        value=report.sender_utility,
        ic_report={
            "min_slack": report.min_slack,
            "epsilon_certified": report.epsilon_certified,
        },
        phi=scheme.phi,
        state_order=list(range(9)),
        seed=3,
    )
    path = tmp_path / "scheme.json"
    save_scheme(record, path)
    back = load_scheme(path)
    reaudited = audit(full, DirectScheme(back.phi))
    assert abs(reaudited.sender_utility - back.value) <= 1e-9
    assert back.seed == 3


def test_malformed_json_reports_line():
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write('{\n  "kind": "iid",\n  "actions": oops\n}\n')
        path = fh.name
    try:
        with pytest.raises(FileFormatError) as err:
            load_instance(path)
        assert "line 3" in str(err.value)
    finally:
        os.unlink(path)


def test_missing_field_names_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "explicit", "actions": 2, "states": [{"prob": 1.0, "sender": [0, 1]}]}')
    with pytest.raises(FileFormatError) as err:
        load_instance(path)
    assert "states[0]" in str(err.value)
    assert "receiver" in str(err.value)


def test_wrong_payoff_width_names_state(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"kind": "explicit", "actions": 2, "states": '
        '[{"prob": 1.0, "sender": [0], "receiver": [0, 1]}]}'
    )
    with pytest.raises(FileFormatError) as err:
        load_instance(path)
    assert "states[0]" in str(err.value)


# ---------------------------------------------------------------------------
# CLI


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "persuasion.cli", *args],
        capture_output=True,
        timeout=300,
    )


def test_cli_solve_prosecutor(tmp_path):
    out = tmp_path / "scheme.json"
    res = run_cli("solve", "--input", str(corpus_path("prosecutor")),
                  "--method", "exact", "--output", str(out))
    assert res.returncode == 0
    assert b"0.66666666666666663" in res.stdout
    record = load_scheme(out)
    assert record.value == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_cli_runs_are_byte_identical(tmp_path):
    args = ("blackbox", "--input", str(corpus_path("rain_shine_mixed")),
            "--epsilon", "0.2", "-K", "50", "--force-K",
            "--trials", "40", "--seed", "11")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_khintchine_both_routes():
    res = run_cli("khintchine", "--a", "1,1", "--lp", "--brute")
    assert res.returncode == 0
    assert res.stdout == b"brute 1\nlp 1\n"


def test_cli_signal_subcommand(tmp_path):
    scheme = tmp_path / "inv.json"
    res = run_cli("solve", "--input", str(corpus_path("investor")),
                  "--method", "iid-opt", "--output", str(scheme))
    assert res.returncode == 0
    res = run_cli("signal", "--input", str(corpus_path("investor")),
                  "--scheme", str(scheme), "--state", "1,0", "--seed", "5")
    assert res.returncode == 0
    assert res.stdout.startswith(b"signal ")


def test_cli_signal_on_an_independent_instance(tmp_path):
    inst = tmp_path / "inst.json"
    save_instance(IndependentInstance([
        Marginal([0.5, 0.5], [0.0, 1.0], [1.0, 0.0]),
        Marginal([0.2, 0.3, 0.5], [1.0, 0.0, 0.5], [0.0, 1.0, 0.25])]), inst)
    scheme = tmp_path / "scheme.json"
    res = run_cli("solve", "--input", str(inst), "--method", "exact", "--output", str(scheme))
    assert res.returncode == 0
    signal = ("signal", "--input", str(inst), "--scheme", str(scheme), "--seed", "5")
    res = run_cli(*signal, "--state", "1,2")
    assert res.returncode == 0
    assert res.stdout.startswith(b"signal ")
    # action 0 has two types, action 1 three
    res = run_cli(*signal, "--state", "2,1")
    assert res.returncode == 1 and b"type index out of range" in res.stderr
    res = run_cli(*signal, "--state", "1,7")
    assert res.returncode == 1
    assert b"type index out of range" in res.stderr
    assert b"Traceback" not in res.stderr


@pytest.mark.parametrize("method", ["iid-approx", "iid-opt"])
def test_cli_signal_rejects_a_zero_probability_type(tmp_path, method):
    inst = tmp_path / "inst.json"
    save_instance(IIDInstance(3, [0.5, 0.0, 0.5], [0.0, 9.9, 1.0], [1.0, 5.0, 0.0]), inst)
    scheme = tmp_path / "scheme.json"
    res = run_cli("solve", "--input", str(inst), "--method", method, "--output", str(scheme))
    assert res.returncode == 0
    signal = ("signal", "--input", str(inst), "--scheme", str(scheme), "--seed", "5")
    assert run_cli(*signal, "--state", "0,2,2").returncode == 0
    res = run_cli(*signal, "--state", "0,1,2")
    assert res.returncode == 1
    assert b"zero-probability" in res.stderr


def test_cli_domain_error_exits_1():
    res = run_cli("solve", "--input", str(corpus_path("prosecutor")),
                  "--method", "iid-opt")
    assert res.returncode == 1
    assert b"error" in res.stderr


def test_cli_usage_error_exits_2():
    res = run_cli("solve", "--input", "x.json", "--method", "bogus")
    assert res.returncode == 2


def test_cli_blackbox_requires_force_below_bound():
    res = run_cli("blackbox", "--input", str(corpus_path("rain_shine_mixed")),
                  "--epsilon", "0.2", "-K", "50", "--trials", "5")
    assert res.returncode == 2
    assert b"force" in res.stderr.lower()


def test_cli_verify_small_suite(capsys):
    from persuasion.cli import main

    rc = main(["verify", "--suite", "small", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 10
    assert "10/10 checks passed" in out


def test_cli_audit(tmp_path):
    out = tmp_path / "scheme.json"
    run_cli("solve", "--input", str(corpus_path("investor")),
            "--method", "exact", "--output", str(out))
    res = run_cli("audit", "--input", str(corpus_path("investor")),
                  "--scheme", str(out))
    assert res.returncode == 0
    assert b"sender utility 0.5555555555" in res.stdout


def test_cli_audit_rejects_nan_phi(tmp_path):
    out = tmp_path / "scheme.json"
    run_cli("solve", "--input", str(corpus_path("investor")),
            "--method", "exact", "--output", str(out))
    data = json.loads(out.read_text())
    data["phi"][0][0] = float("nan")  # json writes NaN and reads it back
    out.write_text(json.dumps(data))
    res = run_cli("audit", "--input", str(corpus_path("investor")),
                  "--scheme", str(out))
    assert res.returncode == 1
    assert b"phi must be finite" in res.stderr


@pytest.mark.parametrize("args,name", [
    (("khintchine", "--a", "1,nan", "--brute"), b"a must be finite"),
    (("khintchine", "--a", "1,inf", "--brute"), b"a must be finite"),
    (("khintchine", "--a", "1,inf", "--lp"), b"a must be finite"),
    (("solve", "--input", str(corpus_path("prosecutor")), "--method", "exact",
      "--epsilon", "nan"), b"epsilon must be finite"),
    (("blackbox", "--input", str(corpus_path("prosecutor")), "--epsilon", "nan",
      "-K", "5", "--force-K"), b"epsilon must be finite"),
], ids=["brute-nan", "brute-inf", "lp-inf", "solve-nan", "blackbox-nan"])
def test_cli_rejects_non_finite_parameters(args, name):
    res = run_cli(*args)
    assert res.returncode == 1
    assert res.stderr.startswith(b"error: ")
    assert name in res.stderr
    assert b"Traceback" not in res.stderr


@pytest.fixture(scope="module")
def investor_scheme(tmp_path_factory):
    path = tmp_path_factory.mktemp("scheme") / "investor.json"
    res = run_cli("solve", "--input", str(corpus_path("investor")),
                  "--method", "exact", "--output", str(path))
    assert res.returncode == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("command", ["signal", "audit"])
@pytest.mark.parametrize("field", ["phi", "state_order"])
def test_cli_rejects_malformed_scheme(tmp_path, investor_scheme, command, field):
    data = json.loads(json.dumps(investor_scheme))
    if field == "phi":
        data["phi"][1] = data["phi"][1][:-1]  # ragged rows
    else:
        data["state_order"] = 5
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(data))
    extra = ("--state", "1,0") if command == "signal" else ()
    res = run_cli(command, "--input", str(corpus_path("investor")),
                  "--scheme", str(path), *extra)
    assert res.returncode == 1
    assert res.stderr.startswith(b"error: ")
    assert field.encode() in res.stderr
    assert b"Traceback" not in res.stderr
