"""In-memory spans around lpvident's public functions, and layer metrics.

The tracer patches each function where its callers look it up (the
module attribute the caller's global lookup reads), so the program under
test is not edited.  A span is (id, parent, job, name, start, end); ids
are list positions.  Spans stay in flat arrays during the run and are
written out once, after the measurement.  Work counters are read from the
wrapped functions' return values, after the span has closed.
"""
from __future__ import annotations

import importlib
from array import array
from time import perf_counter

# (module, attribute, span name): each attribute is the name the callers
# resolve at call time.  ``lpvident.classify`` is shadowed by the function
# re-exported from the package, so modules come from importlib.
TRACED = (
    ("lpvident.cli", "main", "cli.main"),
    ("lpvident.cli", "parse_model", "model.parse_model"),
    ("lpvident.cli", "build_stack", "stacking.build_stack"),
    ("lpvident.cli", "left_nullspace", "elimination.left_nullspace"),
    ("lpvident.cli", "form_iop", "iop.form_iop"),
    ("lpvident.cli", "extract_summary", "iop.extract_summary"),
    ("lpvident.cli", "classify", "classify.classify"),
    ("lpvident.cli", "jacobian_local_test", "classify.jacobian_local_test"),
    ("lpvident.cli", "backsubstitute_check", "verify.backsubstitute_check"),
    ("lpvident.cli", "stack_substitution_check",
     "verify.stack_substitution_check"),
    ("lpvident.cli", "discrete_trajectory_check",
     "verify.discrete_trajectory_check"),
    ("lpvident.verify", "discrete_trajectory_check",
     "verify.discrete_trajectory_check"),
    ("lpvident.verify", "output_closure", "verify.output_closure"),
    ("lpvident.classify", "groebner_basis", "groebner.groebner_basis"),
    ("lpvident.classify", "evaluate_summary", "classify.evaluate_summary"),
    ("lpvident.elimination", "poly_gcd", "poly.poly_gcd"),
    ("lpvident.expr", "poly_gcd", "poly.poly_gcd"),
)

def _count_basis(counts: dict, result) -> None:
    counts["groebner.bases"] += 1
    counts["groebner.pair_reductions"] += result.pair_reductions


def _count_nullspace(counts: dict, result) -> None:
    counts["elimination.nullspace_dim_sum"] += result.dimension
    terms = bits = 0
    for row in result.rows:
        for e in row:
            terms = max(terms, len(e.num.terms))
            for c in e.num.terms.values():
                bits = max(bits, c.numerator.bit_length(),
                           c.denominator.bit_length())
    counts["elimination.omega_terms_max"] = max(
        counts["elimination.omega_terms_max"], terms)
    counts["elimination.omega_coeff_bits_max"] = max(
        counts["elimination.omega_coeff_bits_max"], bits)


def _count_stack(counts: dict, result) -> None:
    counts["stacking.rows_max"] = max(counts["stacking.rows_max"],
                                      result.rows)


def _count_summary(counts: dict, result) -> None:
    counts["iop.summary_elements_sum"] += len(result.elements)


COUNTERS = {
    "groebner.groebner_basis": _count_basis,
    "elimination.left_nullspace": _count_nullspace,
    "stacking.build_stack": _count_stack,
    "iop.extract_summary": _count_summary,
}

COUNT_NAMES = ("groebner.bases", "groebner.pair_reductions",
               "groebner.budget_exceeded", "elimination.nullspace_dim_sum",
               "elimination.omega_terms_max", "elimination.omega_coeff_bits_max",
               "stacking.rows_max", "iop.summary_elements_sum")


class Tracer:
    """Span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list = []
        self.parent = array("q")
        self.job = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = -1
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._patches: list = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.name.append(name_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, span: str):
        k = self.name_id(span)
        count = COUNTERS.get(span)
        counts = self.counts
        budget_error = importlib.import_module("lpvident.errors").BudgetExceeded
        is_basis = span == "groebner.groebner_basis"

        def traced(*args, **kwargs):
            i = self.open(k)
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                if is_basis:
                    counts["groebner.budget_exceeded"] += 1
                raise
            finally:
                self.close(i)
            if count is not None:
                count(counts, result)
            return result

        return traced

    def take_counts(self) -> dict:
        """Counters since the previous call; resets them."""
        out = dict(self.counts)
        for key in self.counts:
            self.counts[key] = 0
        return out

    def install(self) -> None:
        for modname, attr, span in TRACED:
            module = importlib.import_module(modname)
            fn = getattr(module, attr)
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def write(self, path) -> None:
        """One line per span: id,parent,job,name,start,end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,job,name,start,end\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.job[i]},"
                         f"{self.names[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r}\n")


def layer_times(tracer: Tracer, jobs: range) -> dict:
    """Inclusive and self seconds per span name over the given job ids.

    Self time is a span's duration minus the durations of its direct
    children.  Only outermost gcd spans count towards ``poly.poly_gcd``.
    """
    n = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    gcd = tracer.name_id("poly.poly_gcd")
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    total: dict = {}
    self_: dict = {}
    calls: dict = {}
    lo, hi = jobs.start, jobs.stop
    for i in range(n):
        if not lo <= tracer.job[i] < hi:
            continue
        k = tracer.name[i]
        p = tracer.parent[i]
        if k == gcd and p >= 0 and tracer.name[p] == gcd:
            continue
        name = tracer.names[k]
        total[name] = total.get(name, 0.0) + dur[i]
        self_[name] = self_.get(name, 0.0) + dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
    return {"total": total, "self": self_, "calls": calls}
