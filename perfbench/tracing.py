"""Per-layer tracing installed from outside the program.

The tracer replaces public functions of the ``rootlift`` modules with
wrappers that record spans (name, start, end, parent, operation) and
exact counters.  Every module-level binding of a wrapped function is
replaced, not only the defining one, because modules import each other's
functions by name (``build_bundle`` lives in ``bundle`` but is called
through ``cli``, ``extend`` and ``closedness``).  Hot per-sample
functions get counters only, so tracing does not swamp what it measures.

Spans stay in memory; ``dump`` writes them out when the run ends.  A
layer's self time is its span duration minus the durations of its child
spans (the program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# span name -> per-layer metric; each span's self time is summed under it
SPAN_METRICS = {
    "base.make": "base.make_s",
    "base.selfmap": "base.selfmap_s",
    "base.spanning_tree": "base.spanning_tree_s",
    "funcspec.eval": "funcspec.eval_s",
    "kernels.solve": "kernels.solve_s",
    "bundle.build": "bundle.build_s",
    "bundle.admissible": "bundle.admissible_s",
    "bundle.pullback": "bundle.pullback_s",
    "monodromy.strips": "monodromy.strips_s",
    "monodromy.components": "monodromy.components_s",
    "extend.problem": "extend.problem_s",
    "extend.enumerate": "extend.enumerate_s",
    "extend.decide_lift": "extend.decide_lift_s",
    "extend.recheck": "extend.recheck_s",
    "extend.subalgebra": "extend.subalgebra_s",
    "extend.quotient": "extend.quotient_s",
    "extend.fit": "extend.fit_s",
    "closedness.has_root": "closedness.has_root_s",
    "closedness.report": "closedness.report_s",
    "cli.validate": "cli.validate_s",
    "cli.write": "cli.write_s",
    "cli.run": "cli.run_self_s",
    "scenarios.verify": "scenarios.verify_s",
    "figures.svg": "figures.svg_s",
}

COUNTERS = (
    "funcspec.eval_scalar_calls", "kernels.solve_calls", "kernels.fibers_solved",
    "bundle.builds", "bundle.edges_matched", "bundle.edges_refined",
    "bundle.refine_solves", "extend.loop_constraints",
    "extend.loop_constraints_distinct", "extend.lifts_enumerated",
    "extend.lifts_used", "extend.quotient_probes", "extend.fit_calls",
    "extend.errors", "cli.bytes_written",
)

# the tracer's own counting work; it is in no layer's self time
HOOK_SPAN = "trace.hook"


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.finished: list[list[list]] = []   # spans of earlier passes
        self.op = None
        self._stack: list[int] = []
        self._extend_error = None          # rootlift's ExtendError, set by install
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result)`` updates counters."""
        extend_error = self._extend_error

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except extend_error as exc:
                if not getattr(exc, "_traced", False):
                    exc._traced = True
                    self.counts["extend.errors"] += 1
                raise
            finally:
                self._close(record)
            if after is not None:
                hook = self._open(HOOK_SPAN)
                try:
                    after(args, result)
                finally:
                    self._close(hook)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the public functions of every rootlift layer."""
        from rootlift import (base, bundle, cli, closedness, extend, figures,
                              funcspec, monodromy, scenarios, _kernels)

        self._extend_error = extend.ExtendError
        c = self.counts

        def on_solve(args, result):
            c["kernels.solve_calls"] += 1
            c["kernels.fibers_solved"] += len(result)

        def on_build(args, bundle_):
            c["bundle.builds"] += 1
            c["bundle.edges_matched"] += bundle_.base.n_edges
            c["bundle.edges_refined"] += len(bundle_.refinement)
            c["bundle.refine_solves"] += sum(map(len, bundle_.refinement.values()))

        def on_problem(args, _):
            pairs = args[0].loop_pairs
            c["extend.loop_constraints"] += len(pairs)
            c["extend.loop_constraints_distinct"] += len(
                {(a.tobytes(), b.tobytes()) for a, b in pairs})

        def on_enumerate(args, lifts):
            c["extend.lifts_enumerated"] += len(lifts)

        def on_decide_lift(args, verdict):
            c["extend.lifts_used"] += verdict.witness is not None

        def on_subalgebra(args, verdict):
            diag = verdict.diagnostics
            c["extend.lifts_used"] += (diag["accepted_lift"] + 1 if "accepted_lift" in diag
                                       else diag["lift_count"])

        def on_quotient(args, _):
            c["extend.quotient_probes"] += 1

        def on_fit(args, _):
            c["extend.fit_calls"] += 1

        span_targets = [
            (base, ("make_interval", "make_circle", "make_torus2", "make_graph"),
             "base.make", None),
            (base, ("sample_selfmap", "identity_selfmap"), "base.selfmap", None),
            (funcspec, ("evaluate",), "funcspec.eval", None),
            (_kernels, ("solve_fibers",), "kernels.solve", on_solve),
            (bundle, ("build_bundle",), "bundle.build", on_build),
            (bundle, ("is_admissible",), "bundle.admissible", None),
            (bundle, ("pullback_polynomial",), "bundle.pullback", None),
            (monodromy, ("strips",), "monodromy.strips", None),
            (monodromy, ("components",), "monodromy.components", None),
            (extend, ("decide_lift",), "extend.decide_lift", on_decide_lift),
            (extend, ("recheck_certificate",), "extend.recheck", None),
            (extend, ("decide_subalgebra",), "extend.subalgebra", on_subalgebra),
            (extend, ("divided_quotient_test",), "extend.quotient", on_quotient),
            (extend, ("ah_fit",), "extend.fit", on_fit),
            (closedness, ("has_root",), "closedness.has_root", None),
            (closedness, ("closedness_report",), "closedness.report", None),
            (cli, ("validate_config",), "cli.validate", None),
            (cli, ("write_bundle_csv", "write_lift_csv"), "cli.write", None),
            (cli, ("run_scenario",), "cli.run", None),
            (scenarios, ("verify_crossing_configuration",), "scenarios.verify", None),
            (figures, ("emit_bundle_svg",), "figures.svg", None),
        ]
        for module, names, span, after in span_targets:
            for name in names:
                original = getattr(module, name)
                self._rebind(original, self._spanned(span, original, after))
        original = funcspec.eval_scalar
        self._rebind(original, self._counted("funcspec.eval_scalar_calls", original))

        methods = [
            (base.BaseSpace, "spanning_tree", "base.spanning_tree", None),
            (extend.LiftProblem, "__init__", "extend.problem", on_problem),
            (extend.LiftProblem, "enumerate", "extend.enumerate", on_enumerate),
        ]
        for cls, name, span, after in methods:
            original = cls.__dict__[name]
            setattr(cls, name, self._spanned(span, original, after))
            self._patches.append((cls, name, original))

    def _rebind(self, original, wrapper):
        """Replace ``original`` wherever a rootlift module binds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "rootlift"
                                      or module_name.startswith("rootlift.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def finish_pass(self) -> dict:
        """Per-layer metrics of the pass just traced; starts the next pass."""
        metrics = self._layer_metrics()
        self.finished.append(self.spans)
        self.spans = []
        self.counts.clear()
        return metrics

    def _layer_metrics(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        times = dict.fromkeys(SPAN_METRICS.values(), 0.0)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            metric = SPAN_METRICS.get(name)
            if metric is not None:
                times[metric] += end - start - inner
        out = {**times, **{k: self.counts[k] for k in COUNTERS}}
        out["kernels.fibers_per_s"] = (out["kernels.fibers_solved"] / out["kernels.solve_s"]
                                       if out["kernels.solve_s"] else 0.0)
        matched = out["bundle.edges_matched"]
        out["bundle.refine_ratio"] = out["bundle.edges_refined"] / matched if matched else 0.0
        enumerated = out["extend.lifts_enumerated"]
        out["extend.lift_use_ratio"] = (out.pop("extend.lifts_used") / enumerated
                                        if enumerated else 0.0)
        return out

    def dump(self, path, meta: dict):
        """Write the spans of every finished pass as JSON lines after a
        metadata line; ``parent`` indexes spans of the same pass."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for number, spans in enumerate(self.finished):
                for name, start, end, parent, op in spans:
                    fh.write(json.dumps({"pass": number, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op}) + "\n")
