"""Command-line interface: subcommands, report schema, exit codes."""

import json

import pytest

from conftest import model_path
from lpvident.cli import main


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


def test_warnings_render_in_text_report(capsys):
    code, out, _ = _run(capsys, "analyze", model_path("henon"))
    assert code == 0
    assert "warning" in out and "premise" in out


def test_text_report_mentions_equations(capsys):
    code, out, _ = _run(capsys, "analyze", model_path("product_coupling"))
    assert code == 0
    assert "theta2*theta3*u^3*y" in out
    assert "NonIdentifiable" in out
