"""Command-line interface: subcommands, report schema, exit codes."""

import faulthandler
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lpvident
from conftest import (CHAIN4_DISCRETE, SIGNAL_MODEL_TEXTS,
                      is_canonical_coefficient, model_path)
from lpvident.cli import AnalysisConfig, _run_verifier, main
from lpvident.elimination import left_nullspace
from lpvident.expr import Expression, dot, expr_text
from lpvident.groebner import GPoly, groebner_basis
from lpvident.iop import form_iop
from lpvident.model import parse_model
from lpvident.poly import Polynomial
from lpvident.stacking import build_stack


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


EXPECTED_MODEL_STATUS = {
    "product_coupling": "NonIdentifiable",
    "shared_gain": "Local",
    "air_handling_unit": "Global",
    "henon": "NonIdentifiable",
    "burgers_discretized": "Global",
}


@pytest.mark.parametrize("name,status", sorted(EXPECTED_MODEL_STATUS.items()))
def test_analyze_verdicts_and_exit_codes(capsys, name, status):
    code, report, _ = _run_json(capsys, "analyze", model_path(name))
    assert code == 0
    assert report["verdict"]["model"] == status
    assert report["verifier"]["backsubstitution"] is True
    assert report["verifier"]["stack_substitution"] is True


def test_report_schema(capsys):
    code, report, _ = _run_json(capsys, "analyze",
                                model_path("air_handling_unit"))
    assert code == 0
    assert sorted(report) == ["config", "model", "timings", "trace",
                              "verdict", "verifier"]
    v = report["verdict"]
    assert v["method"] == "groebner"
    assert v["achieved_at_order"] == 2
    assert v["parameters"]["theta1"] == {"status": "Global", "degree": None}
    assert set(v["summary"]) == {"theta3", "theta1", "theta4 + theta2",
                                 "theta1*theta3", "theta2*theta3",
                                 "theta1*theta4"}
    for entry in report["trace"]:
        assert sorted(entry) == ["cols", "covered_outputs", "equations",
                                 "nullspace_dim", "rank", "rows", "w"]
    t = report["timings"]
    assert t["units"] == "exact operation counts (deterministic)"
    assert t["stack_builds"] >= 1 and t["classification_runs"] >= 1


def test_local_degree_in_report(capsys):
    _, report, _ = _run_json(capsys, "analyze", model_path("shared_gain"))
    assert report["verdict"]["parameters"]["theta2"] == {"status": "Local",
                                                         "degree": 2}


def test_json_output_is_byte_deterministic(capsys):
    argv = ("analyze", model_path("air_handling_unit"),
            "--method", "both", "--mode", "numeric", "--trials", "3")
    code1, out1, _ = _run(capsys, *argv, "--format", "json")
    code2, out2, _ = _run(capsys, *argv, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_module_entry_point_is_silent(capsys, monkeypatch):
    # `python -m lpvident.cli` must not find the module already imported
    # by the package, which warns on stderr
    root = model_path("shared_gain").parent.parent
    src = str(Path(lpvident.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["analyze", "models/shared_gain.lpv", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "lpvident.cli", *argv],
                          cwd=root, env=env, capture_output=True, text=True)
    monkeypatch.chdir(root)
    code, out, _ = _run(capsys, *argv)
    assert proc.returncode == 0 == code
    assert proc.stderr == ""
    assert proc.stdout == out


def test_method_both_cross_check(capsys):
    code, report, _ = _run_json(capsys, "analyze", model_path("shared_gain"),
                                "--method", "both")
    assert code == 0
    cross = report["verdict"]["cross_check"]
    assert cross["consistent"] is True
    assert cross["jacobian_status"] == "Local"
    assert (cross["max_rank"], cross["q"]) == (3, 3)
    # the authoritative verdict stays with the elimination engine
    assert report["verdict"]["method"] == "groebner"


def test_method_jacobian_never_global(capsys):
    code, report, _ = _run_json(capsys, "analyze",
                                model_path("air_handling_unit"),
                                "--method", "jacobian")
    assert report["verdict"]["model"] == "Local"
    assert code == 0


def test_missing_file_exit_2(capsys):
    code, out, err = _run(capsys, "analyze", "models/no_such_model.lpv")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_bad_model_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.lpv"
    bad.write_text("time: continuous\nA: [gamma]\nC: [1]\n")
    code, out, err = _run(capsys, "analyze", str(bad))
    assert code == 2
    assert "gamma" in err and "error:" in err


def test_iop_order_must_be_positive(capsys):
    code, _, err = _run(capsys, "iop", model_path("henon"), "--order", "0")
    assert code == 2
    assert "--order" in err


def test_no_coverage_is_undetermined_exit_3(capsys):
    code, report, _ = _run_json(capsys, "analyze",
                                model_path("product_coupling"),
                                "--max-order", "1")
    assert code == 3
    assert report["verdict"]["model"] == "Undetermined"
    assert "raise --max-order" in report["verdict"]["guidance"]
    statuses = {p["status"] for p in report["verdict"]["parameters"].values()}
    assert statuses == {"Undetermined"}


def test_classification_budget_exhaustion_exit_3(capsys):
    code, report, _ = _run_json(capsys, "analyze",
                                model_path("air_handling_unit"),
                                "--pair-budget", "1")
    assert code == 3
    assert report["verdict"]["model"] == "Undetermined"
    last = report["model"]["params"][-1]
    for trial in report["verdict"]["evidence"]:
        # the trial's basis is the last parameter's elimination basis
        assert trial["basis_error"] == trial["elimination"][last]
        assert "pair budget 1" in trial["basis_error"]


def test_nonpositive_budget_rejected(capsys):
    code, _, err = _run(capsys, "analyze", model_path("henon"),
                        "--pair-budget", "0")
    assert code == 2
    assert "budget" in err


def test_local_subcommand(capsys):
    code, report, _ = _run_json(capsys, "local", model_path("shared_gain"))
    assert code == 0
    assert report["verdict"]["model"] == "Local"
    assert report["verdict"]["method"] == "jacobian"

    code, report, _ = _run_json(capsys, "local",
                                model_path("product_coupling"))
    assert code == 3
    assert report["verdict"]["model"] == "Undetermined"


def test_iop_dump(capsys):
    code, out, _ = _run(capsys, "iop", model_path("henon"), "--order", "2")
    assert code == 0
    assert "theta2*theta4*u[k]" in out
    assert "theta2*theta3*y[k]" in out
    assert "summary: {theta1, theta2*theta3, theta2*theta4}" in out
    assert "omega:" in out and "O:" in out and "G:" in out


def test_iop_empty_nullspace_notice(capsys):
    code, out, _ = _run(capsys, "iop", model_path("product_coupling"),
                        "--order", "1")
    assert code == 0
    assert "null-space empty at this order" in out


def test_verify_subcommand(capsys):
    for name in EXPECTED_MODEL_STATUS:
        code, out, _ = _run(capsys, "verify", model_path(name))
        assert code == 0, name
        assert "pass" in out and "fail" not in out


TWO_OUTPUTS = """time: continuous
states: x1, x2, x3
inputs: u
outputs: y1, y2
params: theta1, theta2
A: [theta1, 0, 0; 0, 0, 1; 1, theta2, 0]
B: [1; 0; 0]
C: [1, 0, 0; 0, 1, 0]
"""


@pytest.mark.parametrize("command", ["analyze", "local", "verify"])
def test_sweep_waits_for_every_output(tmp_path, capsys, command):
    # w = 1 gives one equation, in y1 alone; y2 first appears at w = 2
    path = tmp_path / "two_outputs.lpv"
    path.write_text(TWO_OUTPUTS)
    code, report, _ = _run_json(capsys, command, path)
    assert code == 0
    assert ([t["covered_outputs"] for t in report["trace"]]
            == [[], ["y1"], ["y1", "y2"]])
    runs = report["timings"]
    assert runs["classification_runs"] + runs["jacobian_runs"] == (
        0 if command == "verify" else 1)
    if command != "verify":
        assert report["verdict"]["achieved_at_order"] == 2


# theta1 sits on x1, which never reaches the output
UNOBSERVABLE_THETA = ("time: discrete\nstates: x1, x2\ninputs: u\n"
                      "outputs: y\nparams: theta1\nA: [theta1, 0; 0, 1/2]\n"
                      "B: [1; 1]\nC: [0, 1]\n")


def test_parameter_free_summary(tmp_path, capsys):
    path = tmp_path / "unobservable.lpv"
    path.write_text(UNOBSERVABLE_THETA)
    code, report, _ = _run_json(capsys, "analyze", path)
    assert code == 0
    verdict = report["verdict"]
    assert verdict["model"] == "NonIdentifiable"
    assert verdict["parameters"]["theta1"]["status"] == "NonIdentifiable"
    assert verdict["summary"] == []
    assert verdict["evidence"] == [
        {"note": "exhaustive summary carries no parameter dependence"}]
    assert report["timings"]["classification_runs"] == 0
    code, out, _ = _run(capsys, "iop", path, "--order", "1")
    assert code == 0
    assert "  psi: 2*y[k+1] - y[k] - 2*u[k]\n" in out
    assert "  no parameter dependence in the summary\n" in out
    assert "  summary: {}\n" in out


# C = [u, u*v; v, v^2] has rank 1, so w = 0 already gives the
# parameter-free equation v*y1 - u*y2, which covers both outputs
RANK_DEFICIENT_C = ("time: continuous\nstates: x1, x2\ninputs: u, v\n"
                    "outputs: y1, y2\nparams: theta1, theta2\n"
                    "A: [theta1, 1; 0, theta2]\nB: [1, 0; 0, 1]\n"
                    "C: [u, u*v; v, v^2]\n")


def test_jacobian_counts_only_equations_with_a_parameter(tmp_path, capsys):
    path = tmp_path / "rank_deficient_c.lpv"
    path.write_text(RANK_DEFICIENT_C)
    # at w = 2 one of four equations holds a parameter; its derivative
    # brings the rank to q
    code, report, _ = _run_json(capsys, "analyze", path, "--method", "both")
    assert code == 0
    assert report["verdict"]["model"] == "Global"
    assert report["verdict"]["cross_check"] == {
        "consistent": True, "jacobian_status": "Local", "max_rank": 2,
        "q": 2}
    code, report, _ = _run_json(capsys, "analyze", path, "--method",
                                "jacobian")
    assert code == 0
    assert report["verdict"]["model"] == "Local"
    assert report["verdict"]["evidence"][0]["equations"] == 5
    # the w = 0 equation holds no parameter, so there is nothing to augment
    code, report, _ = _run_json(capsys, "local", path)
    assert code == 3
    evidence = report["verdict"]["evidence"][0]
    assert (evidence["equations"], evidence["augmented"]) == (1, False)


@pytest.mark.parametrize("name", ["air_handling_unit", "burgers_discretized"])
@pytest.mark.parametrize("argv", [("analyze",), ("local",), ("verify",),
                                  ("iop", "--order", "3")])
def test_report_counts_match_trace_and_verifier(capsys, name, argv):
    _, report, _ = _run_json(capsys, argv[0], model_path(name), *argv[1:])
    counts = report["timings"]
    assert (counts["stack_builds"] == counts["nullspace_calls"]
            == len(report["trace"]))
    verifier = report["verifier"]
    if argv[0] in ("local", "iop"):
        assert verifier is None
        assert counts["verifier_checks"] == 0
    else:
        discrete = report["model"]["domain"] == "discrete"
        assert (verifier["trajectory"] is not None) is discrete
        assert counts["verifier_checks"] == 2 + discrete


def test_text_report_guidance_and_cross_check_lines(capsys):
    code, out, _ = _run(capsys, "analyze", model_path("product_coupling"),
                        "--max-order", "1")
    assert code == 3
    assert ("guidance: no covering equation set up to order 1; "
            "raise --max-order\n") in out
    code, out, _ = _run(capsys, "analyze", model_path("shared_gain"),
                        "--method", "both")
    assert code == 0
    assert "cross-check: jacobian Local, rank 3 of q=3, consistent=True\n" in out
    assert "cross-check error" not in out


@pytest.mark.parametrize("flag,name", [("--trials", "trials"),
                                       ("--max-order", "max order")])
def test_nonpositive_trials_and_max_order_rejected(capsys, flag, name):
    code, out, err = _run(capsys, "analyze", model_path("henon"), flag, "0")
    assert code == 2
    assert out == ""
    assert err == f"error: {name} must be at least 1\n"


def test_chain4_needs_one_basis_per_trial(tmp_path, capsys, monkeypatch):
    # lex(params) fixes all seven parameters, so no other basis is built
    classify_mod = importlib.import_module("lpvident.classify")
    bases = []

    def counted(*args, **kwargs):
        bases.append(args[1])
        return groebner_basis(*args, **kwargs)

    monkeypatch.setattr(classify_mod, "groebner_basis", counted)
    path = tmp_path / "chain4.lpv"
    path.write_text(CHAIN4_DISCRETE)
    code, report, _ = _run_json(capsys, "analyze", path)
    assert code == 0
    verdict = report["verdict"]
    assert verdict["model"] == "Global"
    assert [p["status"] for p in verdict["parameters"].values()] == (
        ["Global"] * 7)
    assert len(bases) == verdict["trials"] == 5


def test_chain4_iop_order5_finishes(tmp_path, capsys):
    # the null-space rows of this stack once sent the row normalisation into
    # the dense recursive gcd for minutes; a regression must fail, not hang
    faulthandler.dump_traceback_later(60, exit=True, file=sys.__stderr__)
    try:
        path = tmp_path / "chain4.lpv"
        path.write_text(CHAIN4_DISCRETE)
        code, report, _ = _run_json(capsys, "iop", path, "--order", "5")
        assert code == 0
        (entry,) = report["trace"]
        assert entry["nullspace_dim"] == entry["rows"] - entry["rank"] > 0
        # the reported rows are the computed ones, and each one annihilates O
        stack = build_stack(parse_model(CHAIN4_DISCRETE), 5)
        basis = left_nullspace(stack.O)
        assert basis.dimension == stack.rows - basis.rank
        assert entry["omega"] == [[expr_text(e, discrete=True) for e in row]
                                  for row in basis.rows]
        for omega in basis.rows:
            for j in range(stack.cols):
                assert dot(omega, [row[j] for row in stack.O]).is_zero()
    finally:
        faulthandler.cancel_dump_traceback_later()


def test_warnings_render_in_text_report(capsys):
    code, out, _ = _run(capsys, "analyze", model_path("henon"))
    assert code == 0
    assert "warning" in out and "premise" in out


def test_text_report_mentions_equations(capsys):
    code, out, _ = _run(capsys, "analyze", model_path("product_coupling"))
    assert code == 0
    assert "theta2*theta3*u^3*y" in out
    assert "NonIdentifiable" in out


_EMPTY = "e3b0c44298fc1c14"   # sha256 of "" (first 16 hex digits)

# (model, argv, exit code, sha256 of stdout, sha256 of stderr), JSON format.
# Each digest is the first 16 hex digits; the table pins every report byte.
PINNED = [
    ("air_handling_unit", ("analyze",), 0, "50f7743ed598af8b", _EMPTY),
    ("air_handling_unit", ("analyze", "--mode", "symbolic", "--method",
                           "both"), 0, "6707d55f45a19402", _EMPTY),
    ("air_handling_unit", ("local",), 0, "ff596115c4c89f43", _EMPTY),
    ("air_handling_unit", ("verify",), 0, "f650febd567f3fc9", _EMPTY),
    ("air_handling_unit", ("iop", "--order", "2"), 0, "f09c6c69f381d2ff",
     _EMPTY),
    ("burgers_discretized", ("analyze",), 0, "21071859e016a173", _EMPTY),
    ("burgers_discretized", ("analyze", "--mode", "symbolic", "--method",
                             "both"), 0, "04be468e10774466", _EMPTY),
    ("burgers_discretized", ("local",), 0, "6453f8eb0620496e", _EMPTY),
    ("burgers_discretized", ("verify",), 0, "7b90ad5471496a58", _EMPTY),
    ("burgers_discretized", ("iop", "--order", "2"), 0, "1654f0199c48c47f",
     _EMPTY),
    ("henon", ("analyze",), 0, "7414aedb12c8a532", _EMPTY),
    ("henon", ("analyze", "--mode", "symbolic", "--method", "both"), 0,
     "0e4593a6ad0c0407", _EMPTY),
    ("henon", ("local",), 3, "95ec0aeb69b2ab1b", _EMPTY),
    ("henon", ("verify",), 0, "c224f3c4f4967967", _EMPTY),
    ("henon", ("iop", "--order", "2"), 0, "dcdc56d44b5b05ad", _EMPTY),
    ("product_coupling", ("analyze",), 0, "33abd600816e2bce", _EMPTY),
    ("product_coupling", ("analyze", "--mode", "symbolic", "--method",
                          "both"), 0, "1113f5fbb26a9158", _EMPTY),
    ("product_coupling", ("local",), 3, "6e09b7bf80e9a522", _EMPTY),
    ("product_coupling", ("verify",), 0, "edd1d6bb3f92882c", _EMPTY),
    ("product_coupling", ("iop", "--order", "2"), 0, "190387c8cb4e39a0",
     _EMPTY),
    ("shared_gain", ("analyze",), 0, "abd174007ac1b4b3", _EMPTY),
    ("shared_gain", ("analyze", "--mode", "symbolic", "--method", "both"), 0,
     "74b6cc2ddfccf218", _EMPTY),
    ("shared_gain", ("local",), 0, "d464edc53fdc20ca", _EMPTY),
    ("shared_gain", ("verify",), 0, "24e2acf64bb5cc78", _EMPTY),
    ("shared_gain", ("iop", "--order", "2"), 0, "66071ebd581d7fe0", _EMPTY),
    # higher stack orders: several derivative or shift steps per block
    ("air_handling_unit", ("iop", "--order", "4"), 0, "3b252dbd53284d09",
     _EMPTY),
    ("henon", ("iop", "--order", "4"), 0, "3af72c68b05c8154", _EMPTY),
    ("product_coupling", ("iop", "--order", "5"), 0, "e5d66325938972cb",
     _EMPTY),
    # no covering order: a verifier block with a notice, exit 1
    ("product_coupling", ("verify", "--max-order", "1"), 1,
     "551fe41a661eb205", _EMPTY),
    # a --size-cap overrun in verify and iop: an error and no report
    ("product_coupling", ("verify", "--size-cap", "3"), 3, _EMPTY,
     "a8d3ff8694f44c8b"),
    ("product_coupling", ("iop", "--order", "2", "--size-cap", "3"), 3,
     _EMPTY, "d28cbc2ca6085d4a"),
    # Undetermined with "raise --max-order" guidance
    ("product_coupling", ("local", "--max-order", "1"), 3,
     "625dddcbf14499b9", _EMPTY),
    # Undetermined with "raise --size-cap" guidance
    ("product_coupling", ("analyze", "--size-cap", "3"), 3,
     "f9f0e8a7e6f578ef", _EMPTY),
    ("product_coupling", ("local", "--size-cap", "3"), 3, "b36ceb8bd6edcd38",
     _EMPTY),
    # iop reads no Groebner budget, so it does not accept one
    ("henon", ("iop", "--order", "2", "--pair-budget", "5"), 2, _EMPTY,
     "96c07c3b0529c54a"),
    # rational entries (SIGNAL_MODEL_TEXTS[1]): non-constant denominators
    # through the gcd, the null space, substitution and the verifier
    ("rational_continuous", ("analyze",), 0, "76eb865dabc85b71", _EMPTY),
    ("rational_continuous", ("analyze", "--mode", "symbolic", "--method",
                             "both"), 0, "d7da56f14b426c5e", _EMPTY),
    ("rational_continuous", ("local",), 0, "8f902c5872a909d1", _EMPTY),
    ("rational_continuous", ("verify",), 0, "99a8f8b3e8b820a8", _EMPTY),
    ("rational_continuous", ("iop", "--order", "2"), 0, "a2b726fed1813abf",
     _EMPTY),
    ("rational_discrete", ("analyze",), 0, "758def223e2535e6", _EMPTY),
    ("rational_discrete", ("analyze", "--mode", "symbolic", "--method",
                           "both"), 0, "1854f7af30a89188", _EMPTY),
    ("rational_discrete", ("local",), 0, "cb916275545ad680", _EMPTY),
    ("rational_discrete", ("verify",), 0, "15936bc80e74ff14", _EMPTY),
    ("rational_discrete", ("iop", "--order", "2"), 0, "52fd8a988d3dc4a9",
     _EMPTY),
]

_PINNED_TEXTS = {f"rational_{time}": SIGNAL_MODEL_TEXTS[1].format(time=time)
                 for time in ("continuous", "discrete")}


@pytest.mark.parametrize("name,argv,code,out_sha,err_sha", PINNED,
                         ids=[" ".join((n,) + a) for n, a, *_ in PINNED])
def test_pinned_report_bytes(capsys, monkeypatch, tmp_path, name, argv, code,
                             out_sha, err_sha):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps usage to the width
    path = model_path(name)
    if name in _PINNED_TEXTS:
        path = tmp_path / f"{name}.lpv"
        path.write_text(_PINNED_TEXTS[name], encoding="utf-8")
    try:
        got = main([argv[0], str(path), *argv[1:], "--format", "json"])
    except SystemExit as exc:    # argparse usage error
        got = exc.code
    out = capsys.readouterr()
    assert got == code
    assert hashlib.sha256(out.out.encode()).hexdigest()[:16] == out_sha
    assert hashlib.sha256(out.err.encode()).hexdigest()[:16] == err_sha


def test_every_coefficient_is_canonical_through_the_cli(monkeypatch, tmp_path,
                                                        capsys):
    # every Polynomial and GPoly made on the way to a report holds ints and
    # Fractions with a denominator above 1 only; a GPoly term may also hold
    # a non-constant Expression of the reference parameters
    made = {"Polynomial._of": 0, "Polynomial()": 0, "GPoly": 0}
    real_of = Polynomial._of.__func__
    real_init, real_gpoly = Polynomial.__init__, GPoly.__init__

    def of(cls, terms):
        assert all(map(is_canonical_coefficient, terms.values())), terms
        made["Polynomial._of"] += 1
        return real_of(cls, terms)

    def init(self, terms=None):
        real_init(self, terms)
        assert all(map(is_canonical_coefficient, self.terms.values()))
        made["Polynomial()"] += 1

    def gpoly(self, terms, variables):
        assert all(not c.is_constant() if isinstance(c, Expression)
                   else is_canonical_coefficient(c)
                   for c in terms.values()), terms
        made["GPoly"] += 1
        real_gpoly(self, terms, variables)

    monkeypatch.setattr(Polynomial, "_of", classmethod(of))
    monkeypatch.setattr(Polynomial, "__init__", init)
    monkeypatch.setattr(GPoly, "__init__", gpoly)
    paths = [model_path(name) for name in sorted(EXPECTED_MODEL_STATUS)]
    for time in ("continuous", "discrete"):
        path = tmp_path / f"rational-{time}.lpv"
        path.write_text(SIGNAL_MODEL_TEXTS[1].format(time=time),
                        encoding="utf-8")
        paths.append(path)
    for path in paths:
        for argv in (("analyze",),
                     ("analyze", "--mode", "symbolic", "--method", "both"),
                     ("local",), ("verify",), ("iop", "--order", "3")):
            code, _, err = _run(capsys, argv[0], path, *argv[1:])
            assert code in (0, 3) and not err, (path.name, argv, err)
    assert all(made.values()), made


@pytest.mark.parametrize("name,w", [("henon", 4), ("product_coupling", 5)])
def test_verifier_builds_one_closure(monkeypatch, name, w):
    verify = importlib.import_module("lpvident.verify")
    real, calls = verify.output_closure, []

    def counting(model, max_order):
        calls.append(max_order)
        return real(model, max_order)

    monkeypatch.setattr(verify, "output_closure", counting)
    m = parse_model(model_path(name).read_text(encoding="utf-8"))
    stack = build_stack(m, w)
    iop = form_iop(stack, left_nullspace(stack.O))
    out = _run_verifier(m, stack, iop, AnalysisConfig())
    assert calls == [stack.order] == [w]
    assert out["backsubstitution"] and out["stack_substitution"]


def test_verify_rejects_output_inside_c(capsys, tmp_path):
    path = tmp_path / "y_in_c.lpv"
    path.write_text("time: discrete\nstates: x1\noutputs: y\n"
                    "params: theta1\nA: [theta1]\nC: [y]\n", encoding="utf-8")
    # rejected by model validation, before any stack is built
    for argv in (("verify",), ("analyze",), ("iop", "--order", "1")):
        code, out, err = _run(capsys, argv[0], path, *argv[1:])
        assert code == 2
        assert out == ""
        assert err == ("error: output appears in C[1,1]; outputs may appear "
                       "in A and B, not in C or D\n")


def test_verifier_runs_a_trajectory_window_at_any_order():
    # at w = 12 a fixed 12-step trajectory would leave no window
    m = parse_model("time: discrete\nstates: x1\ninputs: u\noutputs: y\n"
                    "params: theta1\nA: [theta1]\nB: [1]\nC: [1]")
    stack = build_stack(m, 12)
    iop = form_iop(stack, left_nullspace(stack.O))
    out = _run_verifier(m, stack, iop, AnalysisConfig())
    assert out["trajectory"] == {"ok": True, "windows": 1,
                                 "max_residual": "0"}


# Runs analyze, local, verify and iop --order 3 on the model files given as
# arguments and prints every JSON report.  With "reverse" first, it interns
# the indeterminates of those files before parsing them: orders 6..0 of
# every signal and the parameters and reference parameters from the last
# index down, in reverse file order, with allocations of several sizes in
# between, so every indeterminate lands at another address, and so under
# another identity hash, than in a plain run.
_INTERN_THEN_REPORT = r"""
import sys
from lpvident.cli import main
from lpvident.indets import Role, parameter, ref_parameter, signal

ROLES = {"states": Role.STATE, "inputs": Role.INPUT,
         "outputs": Role.OUTPUT, "scheduling": Role.SCHEDULING}
reverse, paths = sys.argv[1] == "reverse", sys.argv[2:]
made, junk = [], []
if reverse:
    for path in reversed(paths):
        for line in reversed(open(path).read().splitlines()):
            key, _, names = line.partition(":")
            names = [n.strip() for n in names.split(",") if n.strip()]
            if key == "params":
                for i in range(len(names), 0, -1):
                    made += [ref_parameter(i), parameter(names[i - 1], i)]
                    junk.append([tuple(range(j)) for j in range(i + 3)])
            elif key in ROLES:
                for name in reversed(names):
                    for k in range(6, -1, -1):
                        made.append(signal(name, ROLES[key], k))
                        junk.append([tuple(range(j)) for j in range(k + 2)])
for path in paths:
    for argv in (["analyze"], ["local"], ["verify"], ["iop", "--order", "3"]):
        code = main([argv[0], path, *argv[1:], "--format", "json"])
        print("exit", code, flush=True)
"""


# Prints the JSON report and exit code of each argv given as an argument,
# all in this one process.
_REPORTS_IN_ONE_PROCESS = r"""
import sys
from lpvident.cli import main
for argv in sys.argv[1:]:
    code = main(argv.split() + ["--format", "json"])
    print("exit", code, flush=True)
"""


def test_parser_reuse_leaks_no_flag_into_the_next_call():
    # the parser is built once per process: a flag given to one call must
    # not stay set for the next, so one process reports what two do
    path = str(model_path("shared_gain"))
    symbolic = f"analyze {path} --mode symbolic --seed 3"
    plain = f"analyze {path}"
    src = str(Path(lpvident.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def reports(*argvs):
        proc = subprocess.run(
            [sys.executable, "-c", _REPORTS_IN_ONE_PROCESS, *argvs],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        return proc.stdout

    one = reports(symbolic, plain)
    assert one == reports(symbolic) + reports(plain)
    assert one.count("exit 0") == 2
    assert '"mode": "symbolic"' in one and '"mode": "numeric"' in one


def test_reports_do_not_depend_on_indeterminate_addresses():
    # indeterminates hash by identity, so a set of them iterates in an
    # order fixed by where they were allocated; no report may show it
    paths = [str(model_path(name)) for name in sorted(EXPECTED_MODEL_STATUS)]
    src = str(Path(lpvident.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = []
    for order in ("plain", "reverse"):
        proc = subprocess.run(
            [sys.executable, "-c", _INTERN_THEN_REPORT, order, *paths],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].count("exit") == 4 * len(paths)
    assert outs[0] == outs[1]
