"""Command-line front end: order sweep, engine choice, deterministic reports.

Every subcommand but ``iop`` walks the stack order w upward from zero
through one sweep, which records each order in the report's trace and
hands on only the orders whose input-output-parameter equations cover
every output.  ``analyze`` classifies the exhaustive summary at each such
order and stops as soon as the verdict is Global or Local.  ``local`` runs
the one-sided Jacobian rank test, and ``verify`` replays the self-check
oracles, both at the first covering order.  ``iop`` dumps the intermediate
artifacts at one fixed order.  Each subcommand accepts only the flags it
reads, plus ``--seed`` and ``--format``; the report's config block shows
the defaults of the rest.  Reports are byte-identical for identical
(model, flags, seed) inputs, so the timings block holds exact operation
counts instead of wall-clock times.  They are read off the report itself:
each traced order built one stack and one null space, and a verifier block
counts two symbolic checks plus one trajectory check in discrete time.

Exit codes: 0 success / determinate verdict; 1 verifier failure or engine
disagreement; 2 model or usage error; 3 Undetermined verdict (budget
exhaustion, empty null-space at the order cap, trial disagreement, or
Jacobian rank below q) or a stack over ``--size-cap`` in ``verify`` or
``iop``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import verify
from .classify import (GLOBAL, LOCAL, NON_IDENTIFIABLE, UNDETERMINED,
                       ParamStatus, Verdict, classify, draw_theta_ref,
                       jacobian_local_test)
from .elimination import left_nullspace
from .errors import (LpvIdentError, ModelError, NoParameterDependence,
                     OrderTooLargeForBudget)
from .expr import expr_text
from .iop import extract_summary, form_iop
from .model import parse_model, print_model
from .poly import poly_text
from .stacking import build_stack
from .verify import (backsubstitute_check, discrete_trajectory_check,
                     stack_substitution_check)


@dataclass
class AnalysisConfig:
    max_order: int | None = None     # default: the state count n
    method: str = "groebner"         # groebner | jacobian | both
    mode: str = "numeric"            # numeric | symbolic
    trials: int = 5
    seed: int = 0
    fmt: str = "text"                # text | json
    pair_budget: int = 20000
    degree_budget: int = 60
    size_cap: int = 64

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.max_order is not None and self.max_order < 1:
            raise ValueError("max order must be at least 1")
        if min(self.pair_budget, self.degree_budget, self.size_cap) < 1:
            raise ValueError("budgets must be positive")


def _cap(model, config: AnalysisConfig) -> int:
    return model.n if config.max_order is None else config.max_order


def _no_cover(model, config: AnalysisConfig) -> str:
    return f"no covering equation set up to order {_cap(model, config)}"


def _size_guidance(exc: OrderTooLargeForBudget) -> str:
    return f"{exc}; raise --size-cap or lower --max-order"


def _at_order(model, w: int, config: AnalysisConfig) -> tuple:
    """(trace entry, stack, null space, equations or None) at order w."""
    stack = build_stack(model, w, config.size_cap)
    ns = left_nullspace(stack.O)
    iop = form_iop(stack, ns) if ns.dimension else None
    covered = set()
    if iop is not None:
        for i in range(len(iop.equations)):
            covered |= iop.outputs_in(i)
    entry = {
        "w": w,
        "rows": stack.rows,
        "cols": stack.cols,
        "rank": ns.rank,
        "nullspace_dim": ns.dimension,
        "equations": [] if iop is None else
            [poly_text(e, discrete=model.discrete) for e in iop.equations],
        "covered_outputs": sorted(covered),
    }
    return entry, stack, ns, iop


def _sweep(model, config: AnalysisConfig, trace: list):
    """Yield (w, stack, iop) for each w <= cap whose equations cover every
    output; every order swept lands in the trace."""
    wanted = set(model.output_names)
    for w in range(_cap(model, config) + 1):
        entry, stack, _, iop = _at_order(model, w, config)
        trace.append(entry)
        if iop is not None and wanted <= set(entry["covered_outputs"]):
            yield w, stack, iop


def _flat_verdict(model, status: str, method: str, evidence: list) -> Verdict:
    """One status for every parameter, from no engine run."""
    statuses = {name: ParamStatus(status) for name in model.param_names}
    return Verdict(status, statuses, method, 0, evidence)


def _undetermined(model, config: AnalysisConfig, method: str,
                  guidance: str | None) -> tuple:
    """(verdict, guidance) of a sweep that reached no verdict."""
    verdict = _flat_verdict(model, UNDETERMINED, method, [])
    return verdict, guidance or f"{_no_cover(model, config)}; raise --max-order"


def _run_engines(iop, summary, model, config: AnalysisConfig):
    """Classify with the configured engine(s); Groebner is authoritative."""
    params = model.params()
    if config.method == "jacobian":
        v = jacobian_local_test(iop, params, config.trials, config.seed)
        return v, None
    v = classify(summary, params, config.mode, config.trials, config.seed,
                 config.pair_budget, config.degree_budget)
    cross = None
    if config.method == "both":
        jv = jacobian_local_test(iop, params, config.trials, config.seed)
        rank_q = jv.evidence[0]["max_rank"] == jv.evidence[0]["q"]
        consistent = rank_q if v.model_status in (GLOBAL, LOCAL) else True
        cross = {
            "jacobian_status": jv.model_status,
            "max_rank": jv.evidence[0]["max_rank"],
            "q": jv.evidence[0]["q"],
            "consistent": consistent,
        }
        if not consistent:
            cross["error"] = ("engine disagreement: Groebner verdict "
                              f"{v.model_status} but Jacobian rank "
                              f"{jv.evidence[0]['max_rank']} below q")
    return v, cross


def _run_verifier(model, stack, iop, config: AnalysisConfig):
    # one order-w closure serves both symbolic checks; it is looked up on
    # the module so that a wrapper set on verify.output_closure sees it
    closure = verify.output_closure(model, stack.order)
    out = {
        "backsubstitution": backsubstitute_check(closure, iop).ok,
        "stack_substitution": stack_substitution_check(closure, stack),
        "trajectory": None,
    }
    if model.discrete:
        theta = draw_theta_ref(model.params(), random.Random(config.seed))
        rep = discrete_trajectory_check(model, iop, theta,
                                        steps=max(12, iop.order + 1),
                                        seed=config.seed)
        out["trajectory"] = {"ok": rep.ok, "windows": rep.windows,
                             "max_residual": str(rep.max_residual)}
    return out


def _verifier_ok(verifier: dict) -> bool:
    traj = verifier["trajectory"]
    return bool(verifier["backsubstitution"] and verifier["stack_substitution"]
                and (traj is None or traj["ok"]))


# --- report assembly ---

def _model_block(model) -> dict:
    return {
        "domain": model.domain,
        "states": list(model.state_names),
        "inputs": list(model.input_names),
        "outputs": list(model.output_names),
        "params": list(model.param_names),
        "scheduling": list(model.sched_names),
        "n": model.n, "m": model.m, "p": model.p, "q": model.q,
        "warnings": [d.render() for d in model.warnings],
        "source": print_model(model),
    }


def _verdict_block(verdict, achieved, summary_texts, cross, guidance) -> dict:
    block = {
        "model": verdict.model_status,
        "parameters": {name: {"status": st.status, "degree": st.degree}
                       for name, st in verdict.per_param.items()},
        "method": verdict.method,
        "trials": verdict.trials,
        "achieved_at_order": achieved,
        "summary": summary_texts,
        "evidence": verdict.evidence,
    }
    if cross is not None:
        block["cross_check"] = cross
    if guidance:
        block["guidance"] = guidance
    return block


def _report(command: str, model, config: AnalysisConfig, trace: list,
            runs: tuple, verdict=None, verifier=None) -> dict:
    """The report; runs is (classification runs, Jacobian runs)."""
    settings = asdict(config)
    del settings["fmt"]
    checks = 0
    if verifier is not None and "notice" not in verifier:
        checks = 2 + (verifier["trajectory"] is not None)
    return {
        "model": _model_block(model),
        "config": {**settings, "command": command,
                   "max_order": _cap(model, config)},
        "trace": trace,
        "verdict": verdict,
        "verifier": verifier,
        "timings": {"units": "exact operation counts (deterministic)",
                    "stack_builds": len(trace),
                    "nullspace_calls": len(trace),
                    "classification_runs": runs[0],
                    "jacobian_runs": runs[1],
                    "verifier_checks": checks},
    }


def _render_text(report: dict) -> str:
    lines = []
    mb = report["model"]
    lines.append(f"model: {mb['domain']}, n={mb['n']} m={mb['m']} "
                 f"p={mb['p']} q={mb['q']}")
    for warn in mb["warnings"]:
        lines.append(warn)
    for t in report["trace"]:
        lines.append(f"w={t['w']}: stack {t['rows']}x{t['cols']}, "
                     f"rank {t['rank']}, null-space dim {t['nullspace_dim']}")
        for eq in t["equations"]:
            lines.append(f"  psi: {eq}")
        if t.get("notice"):
            lines.append(f"  {t['notice']}")
        for label, rows in (("O", t.get("O")), ("G", t.get("G"))):
            if rows is None:
                continue
            lines.append(f"  {label}:")
            for row in rows:
                lines.append("    [" + ", ".join(row) + "]")
        for orow in t.get("omega", []):
            lines.append("  omega: [" + ", ".join(orow) + "]")
        if t.get("summary") is not None:
            lines.append("  summary: {" + ", ".join(t["summary"]) + "}")
    v = report["verdict"]
    if v is not None:
        if v["summary"] is not None:
            lines.append("exhaustive summary: {" + ", ".join(v["summary"]) + "}")
        lines.append(f"verdict: {v['model']} (method={v['method']}, "
                     f"trials={v['trials']}, order={v['achieved_at_order']})")
        for name in sorted(v["parameters"]):
            p = v["parameters"][name]
            lines.append(f"  {name}: "
                         f"{ParamStatus(p['status'], p['degree']).render()}")
        cross = v.get("cross_check")
        if cross:
            lines.append(f"cross-check: jacobian {cross['jacobian_status']}, "
                         f"rank {cross['max_rank']} of q={cross['q']}, "
                         f"consistent={cross['consistent']}")
            if cross.get("error"):
                lines.append(f"cross-check error: {cross['error']}")
        if v.get("guidance"):
            lines.append(f"guidance: {v['guidance']}")
    ver = report["verifier"]
    if ver is not None:
        for name in ("backsubstitution", "stack_substitution"):
            lines.append(f"check {name}: {'pass' if ver[name] else 'FAIL'}")
        if ver["trajectory"] is not None:
            tr = ver["trajectory"]
            lines.append(f"check trajectory: {'pass' if tr['ok'] else 'FAIL'} "
                         f"(windows={tr['windows']}, "
                         f"max residual {tr['max_residual']})")
    tm = report["timings"]
    lines.append("counts: " + ", ".join(
        f"{k}={tm[k]}" for k in sorted(tm) if k != "units"))
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"
    return _render_text(report)


# --- subcommands ---

def run_analyze(model, config: AnalysisConfig) -> tuple:
    trace: list = []
    verdict = achieved = summary_texts = cross = guidance = deepest = None
    engine_runs = 0
    try:
        for w, stack, iop in _sweep(model, config, trace):
            deepest = (stack, iop)
            achieved = w
            try:
                summary = extract_summary(iop)
            except NoParameterDependence:
                # a parameter-free summary constrains nothing
                verdict = _flat_verdict(
                    model, NON_IDENTIFIABLE, config.method,
                    [{"note": "exhaustive summary carries no parameter "
                              "dependence"}])
                summary_texts = []
                continue
            summary_texts = [expr_text(e) for e in summary.elements]
            verdict, cross = _run_engines(iop, summary, model, config)
            engine_runs += 1
            if verdict.model_status in (GLOBAL, LOCAL):
                break
    except OrderTooLargeForBudget as exc:
        guidance = _size_guidance(exc)
    if verdict is None:
        verdict, guidance = _undetermined(model, config, config.method,
                                          guidance)
    verifier = None
    if deepest is not None:
        verifier = _run_verifier(model, deepest[0], deepest[1], config)
    runs = (0 if config.method == "jacobian" else engine_runs,
            0 if config.method == "groebner" else engine_runs)
    report = _report("analyze", model, config, trace, runs,
                     _verdict_block(verdict, achieved, summary_texts, cross,
                                    guidance), verifier)
    if cross is not None and not cross["consistent"]:
        return report, 1
    if verdict.model_status == UNDETERMINED:
        return report, 3
    return report, 0 if verifier is None or _verifier_ok(verifier) else 1


def run_local(model, config: AnalysisConfig) -> tuple:
    trace: list = []
    verdict = achieved = guidance = None
    try:
        for w, _, iop in _sweep(model, config, trace):
            achieved = w
            verdict = jacobian_local_test(iop, model.params(), config.trials,
                                          config.seed)
            break
    except OrderTooLargeForBudget as exc:
        guidance = _size_guidance(exc)
    if verdict is None:
        verdict, guidance = _undetermined(model, config, "jacobian", guidance)
    report = _report("local", model, config, trace,
                     (0, int(achieved is not None)),
                     _verdict_block(verdict, achieved, None, None, guidance))
    return report, 0 if verdict.model_status == LOCAL else 3


def run_iop(model, config: AnalysisConfig, w: int) -> tuple:
    entry, stack, ns, iop = _at_order(model, w, config)

    def ex(e):
        return expr_text(e, discrete=model.discrete)

    entry["O"] = [[ex(e) for e in row] for row in stack.O]
    entry["G"] = [[ex(e) for e in row] for row in stack.G]
    entry["Y0"] = [ex(e) for e in stack.Y0]
    entry["omega"] = [[ex(e) for e in row] for row in ns.rows]
    entry["summary"] = None
    if iop is None:
        entry["notice"] = "null-space empty at this order"
    else:
        try:
            entry["summary"] = [expr_text(e)
                                for e in extract_summary(iop).elements]
        except NoParameterDependence:
            entry["summary"] = []
            entry["notice"] = "no parameter dependence in the summary"
    return _report("iop", model, config, [entry], (0, 0)), 0


def run_verify(model, config: AnalysisConfig) -> tuple:
    trace: list = []
    for _, stack, iop in _sweep(model, config, trace):
        verifier = _run_verifier(model, stack, iop, config)
        break
    else:
        verifier = {"backsubstitution": False, "stack_substitution": False,
                    "trajectory": None, "notice": _no_cover(model, config)}
    report = _report("verify", model, config, trace, (0, 0),
                     verifier=verifier)
    return report, 0 if _verifier_ok(verifier) else 1


# --- argument handling ---

def build_parser() -> argparse.ArgumentParser:
    # no flag carries a default: an absent one keeps AnalysisConfig's
    flags = {
        "--max-order": {"type": int,
                        "help": "order sweep cap (default: state count)"},
        "--method": {"choices": ("groebner", "jacobian", "both")},
        "--mode": {"choices": ("numeric", "symbolic")},
        "--trials": {"type": int},
        "--seed": {"type": int},
        "--format": {"dest": "fmt", "choices": ("text", "json")},
        "--pair-budget": {"type": int},
        "--degree-budget": {"type": int},
        "--size-cap": {"type": int},
        "--order": {"type": int, "required": True, "help": "stack order w"},
    }
    ap = argparse.ArgumentParser(
        prog="lpvident",
        description="Structural identifiability of LPV and quasi-LPV "
                    "state-space models by parity-space elimination.")
    subs = ap.add_subparsers(dest="command", required=True)
    for name, help_, own in (
            ("analyze", "order sweep, elimination, and classification",
             ("--max-order", "--method", "--mode", "--trials", "--pair-budget",
              "--degree-budget")),
            ("local", "one-sided Jacobian-rank local test",
             ("--max-order", "--trials")),
            ("iop", "dump stack, null-space, equations, and summary at one "
                    "order", ("--order",)),
            ("verify", "back-substitution and trajectory self-checks",
             ("--max-order",))):
        sub = subs.add_parser(name, help=help_,
                              argument_default=argparse.SUPPRESS)
        sub.add_argument("model", help="model file")
        for flag in (*own, "--seed", "--format", "--size-cap"):
            sub.add_argument(flag, **flags[flag])
    return ap


def _config_from(args) -> AnalysisConfig:
    names = {f.name for f in fields(AnalysisConfig)}
    cfg = AnalysisConfig(**{k: v for k, v in vars(args).items()
                            if k in names})
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        model = parse_model(Path(args.model).read_text(encoding="utf-8"))
        config = _config_from(args)
    except (OSError, ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "analyze":
            report, code = run_analyze(model, config)
        elif args.command == "local":
            report, code = run_local(model, config)
        elif args.command == "iop":
            if args.order < 1:
                print("error: --order must be at least 1", file=sys.stderr)
                return 2
            report, code = run_iop(model, config, args.order)
        else:
            report, code = run_verify(model, config)
    except LpvIdentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(_emit(report, config.fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
