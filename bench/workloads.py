"""Workload definitions, the chain model generator and the expected table.

Every job runs a public entry point of lpvident: ``analyze``, ``local``,
``verify`` and ``iop`` go through ``lpvident.cli.main`` with a JSON report
on stdout; trajectory jobs call ``discrete_trajectory_check``.  The
expected verdicts below are written by hand from the header comment of
each model file (and, for the chain family, from its definition); the
program under test never supplies its own reference.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

CORPUS = ("air_handling_unit", "burgers_discretized", "henon",
          "product_coupling", "shared_gain")

# Per-parameter verdicts, copied from the header comments of models/*.lpv.
PARAM_VERDICTS = {
    "air_handling_unit": {"theta1": "Global", "theta2": "Global",
                          "theta3": "Global", "theta4": "Global"},
    "burgers_discretized": {"theta1": "Global", "theta2": "Global"},
    "henon": {"theta1": "Global", "theta2": "NonIdentifiable",
              "theta3": "NonIdentifiable", "theta4": "NonIdentifiable"},
    "product_coupling": {"theta1": "Global", "theta2": "NonIdentifiable",
                         "theta3": "NonIdentifiable"},
    "shared_gain": {"theta1": "Global", "theta2": "Local(2)",
                    "theta3": "Global"},
}

MODEL_VERDICTS = {
    "air_handling_unit": "Global",
    "burgers_discretized": "Global",
    "henon": "NonIdentifiable",
    "product_coupling": "NonIdentifiable",
    "shared_gain": "Local",
}

# ``local`` is one-sided: full Jacobian rank gives Local for every
# parameter and exit 0; a rank deficit gives Undetermined and exit 3.
LOCAL_EXIT = {"henon": 3, "product_coupling": 3}

# Every shipped model has one output and two states, and its stacked
# matrix has full column rank, so at order w the stack has 3w + 1 rows,
# 2w + 2 columns and a left null space of dimension w - 1.
IOP_NULLSPACE_DIM = {2: 1, 5: 4}

# Chain(n, domain): the scaled family.  (domain, n) pairs that finish
# today; continuous n = 4 and discrete n = 5 are left out (see README.md).
CHAINS = (("discrete", 2), ("discrete", 3), ("discrete", 4),
          ("continuous", 2), ("continuous", 3))

TRAJECTORY_STEPS = 18
TRAJECTORY_ORDER = 2       # the order at which henon and burgers are covered
# The trajectory jobs draw with the CLI's default seed, not the run seed:
# at 18 steps their time depends on the drawn values by a factor of 40
# (0.07 s to 3.7 s over 30 seeds on a 2-core x86-64 machine), so a per-run
# draw would make the verifier workload's times measure the draw rather
# than the program.  Seed 0 costs 0.58 s (henon) and 0.34 s (burgers),
# near the median of those draws.
TRAJECTORY_SEED = 0


def chain_name(domain: str, n: int) -> str:
    return f"chain_{domain}_{n}"


def chain_text(n: int, domain: str) -> str:
    """Tridiagonal Chain(n, domain) model file.

    Diagonal -theta_k*u - 1 (continuous) or theta_k*u (discrete) for
    k = 1..n, super-diagonal theta_{n+1}..theta_{2n-1}, sub-diagonal 1,
    B = e1, C = e1^T, so q = 2n - 1 and every parameter is Global.
    """
    params = [f"theta{k}" for k in range(1, 2 * n)]
    rows = []
    for i in range(n):
        row = ["0"] * n
        row[i] = (f"-{params[i]}*u - 1" if domain == "continuous"
                  else f"{params[i]}*u")
        if i + 1 < n:
            row[i + 1] = params[n + i]
        if i > 0:
            row[i - 1] = "1"
        rows.append(", ".join(row))
    e1 = ["1"] + ["0"] * (n - 1)
    return (f"# Chain(n={n}, {domain}): every parameter is Global.\n"
            f"time: {domain}\n"
            f"states: {', '.join(f'x{i}' for i in range(1, n + 1))}\n"
            f"inputs: u\noutputs: y\n"
            f"params: {', '.join(params)}\n"
            f"A: [{'; '.join(rows)}]\n"
            f"B: [{'; '.join(e1)}]\n"
            f"C: [{', '.join(e1)}]\n")


@dataclass
class Job:
    label: str
    model: str                     # model name (file stem)
    kind: str                      # analyze | local | verify | iop | trajectory
    argv: list = field(default_factory=list)
    mode: str | None = None        # numeric | symbolic for analyze jobs
    order: int | None = None       # iop order


def _analyze(model: str, mode: str, extra=()) -> Job:
    suffix = " ".join(extra)
    label = f"analyze {model} {mode}" + (f" {suffix}" if suffix else "")
    return Job(label, model, "analyze",
               ["analyze", model, "--mode", mode, *extra], mode=mode)


def _iop(model: str, order: int) -> Job:
    return Job(f"iop {model} --order {order}", model, "iop",
               ["iop", model, "--order", str(order)], order=order)


def workload_jobs(workload: str) -> list:
    if workload == "corpus":
        jobs = []
        for m in CORPUS:
            jobs += [_analyze(m, "numeric"), _analyze(m, "symbolic"),
                     Job(f"local {m}", m, "local", ["local", m]),
                     Job(f"verify {m}", m, "verify", ["verify", m]),
                     _iop(m, 2)]
        return jobs
    if workload == "chain":
        return [_analyze(chain_name(d, n), mode)
                for d, n in CHAINS for mode in ("numeric", "symbolic")]
    if workload == "high_order":
        return ([_analyze("product_coupling", mode, ("--max-order", "5"))
                 for mode in ("numeric", "symbolic")]
                + [_iop(m, 5) for m in ("shared_gain", "air_handling_unit",
                                        "burgers_discretized")])
    if workload == "verifier":
        return ([_analyze("henon", mode, ("--max-order", "4"))
                 for mode in ("numeric", "symbolic")]
                + [Job(f"trajectory {m} steps={TRAJECTORY_STEPS}", m,
                       "trajectory")
                   for m in ("henon", "burgers_discretized")])
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("corpus", "chain", "high_order", "verifier")


class Setup:
    """Imports, generated model files and prepared inputs of one run."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        # imported here so that each set-up pays for a fresh import
        import lpvident.cli as cli
        from lpvident.classify import draw_theta_ref
        from lpvident.model import parse_model

        self.cli = cli
        self.seed = seed
        self.paths = {m: root / "models" / f"{m}.lpv" for m in CORPUS}
        work.mkdir(parents=True, exist_ok=True)
        for domain, n in CHAINS:
            name = chain_name(domain, n)
            path = work / f"{name}.lpv"
            path.write_text(chain_text(n, domain), encoding="utf-8")
            model = parse_model(path.read_text(encoding="utf-8"))
            if model.n != n or model.q != 2 * n - 1 or model.domain != domain:
                raise RuntimeError(
                    f"{name}: parsed n={model.n} q={model.q} {model.domain}")
            self.paths[name] = path
        self.trajectory = {}
        if workload == "verifier":
            for m in ("henon", "burgers_discretized"):
                model = parse_model(self.paths[m].read_text(encoding="utf-8"))
                stack = cli.build_stack(model, TRAJECTORY_ORDER)
                iop = cli.form_iop(stack, cli.left_nullspace(stack.O),
                                   model.discrete)
                theta = draw_theta_ref(model.params(),
                                       random.Random(TRAJECTORY_SEED))
                self.trajectory[m] = (model, iop, theta)

    def argv(self, job: Job) -> list:
        argv = list(job.argv)
        argv[1] = str(self.paths[job.model])
        return argv + ["--seed", str(self.seed), "--format", "json"]


def expected_params(model: str) -> dict:
    if model.startswith("chain_"):
        n = int(model.rsplit("_", 1)[1])
        return {f"theta{k}": "Global" for k in range(1, 2 * n)}
    return PARAM_VERDICTS[model]


def expected_model_verdict(model: str) -> str:
    return "Global" if model.startswith("chain_") else MODEL_VERDICTS[model]


def _label(entry: dict) -> str:
    if entry["status"] == "Local" and entry["degree"]:
        return f"Local({entry['degree']})"
    return entry["status"]


def _verifier_ok(block, discrete: bool) -> bool:
    if not block or not (block["backsubstitution"]
                         and block["stack_substitution"]):
        return False
    traj = block["trajectory"]
    if not discrete:
        return traj is None
    return traj is not None and traj["ok"] and traj["max_residual"] == "0"


def check_cli(job: Job, code: int, report: dict) -> str | None:
    """Compare one CLI job with the expected table; None when it agrees."""
    want_code = LOCAL_EXIT.get(job.model, 0) if job.kind == "local" else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    discrete = report["model"]["domain"] == "discrete"
    if job.kind == "iop":
        entry = report["trace"][0]
        want = IOP_NULLSPACE_DIM[job.order]
        if entry["nullspace_dim"] != want:
            return (f"null-space dimension {entry['nullspace_dim']}, "
                    f"expected {want}")
        if not entry["summary"]:
            return "empty exhaustive summary"
        return None
    if job.kind == "verify":
        if not _verifier_ok(report["verifier"], discrete):
            return "verifier check failed"
        return None
    verdict = report["verdict"]
    got = {name: _label(e) for name, e in verdict["parameters"].items()}
    if job.kind == "local":
        status = "Local" if want_code == 0 else "Undetermined"
        want = {name: status for name in expected_params(job.model)}
        return None if got == want else f"statuses {got}, expected {want}"
    want = expected_params(job.model)
    if got != want:
        return f"statuses {got}, expected {want}"
    if verdict["model"] != expected_model_verdict(job.model):
        return f"model verdict {verdict['model']}"
    if not _verifier_ok(report["verifier"], discrete):
        return "verifier check failed"
    return None


def check_trajectory(rep, iop) -> str | None:
    want = TRAJECTORY_STEPS - iop.order
    if not rep.ok or rep.max_residual != 0 or rep.windows != want:
        return (f"trajectory ok={rep.ok} windows={rep.windows} "
                f"(expected {want}) residual={rep.max_residual}")
    return None
