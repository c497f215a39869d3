"""Layer tracing for the benchmark's traced run.

``Tracer.install`` wraps public functions of curecheck's modules in every
curecheck namespace that holds them, which is where their callers look
them up (``curecheck.assessment.fit_model``, ``curecheck.models.
reg_upper_gamma``, ...).  Each call records a span: name, tag, start, end,
parent span and operation id.  Spans stay in memory until the run ends.
Nothing is wrapped unless ``install`` is called, and ``uninstall`` puts the
original functions back.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from curecheck import FAMILIES

# (defining module, function): the layer boundaries that get a span.
TARGETS = [
    ("cli", "read_csv"),
    ("assessment", "receus_assess"),
    ("models", "fit_model"),
    ("neldermead", "minimize_simplex"),
    ("special", "reg_upper_gamma"),
    ("special", "normal_sf"),
    ("special", "log_gamma"),
    ("special", "inv_reg_lower_gamma"),
    ("special", "inv_normal_cdf"),
    ("survival", "validate_sample"),
    ("survival", "kaplan_meier"),
    ("survival", "km_survival_at"),
    ("survival", "followup_summary"),
    ("diagnostics", "alpha_n_test"),
    ("simulate", "simulate_mixture"),
    ("simulate", "restrict_followup"),
    ("plot", "km_plot_svg"),
    ("plot", "km_plot_csv"),
    ("plot", "emit_km_plot"),
    ("report", "build_report"),
    ("report", "render_json"),
    ("report", "render_text"),
]

OBJECTIVE = "models.objective"


def _fit_tag(args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return f"{spec.family}.{'cure' if spec.cure else 'noncure'}"


def _simulate_tag(args, kwargs):
    return (args[0] if args else kwargs["config"]).family


def _elements(args, kwargs):
    return int(np.size(args[-1]))


TAGS = {"models.fit_model": _fit_tag, "simulate.simulate_mixture": _simulate_tag}
ARG_COUNTS = {"special.reg_upper_gamma": _elements, "special.normal_sf": _elements}
# What a span's count means, per span name; minimize_simplex counts SimplexResult.n_eval.
COUNT_LABELS = {
    "neldermead.minimize_simplex": "n_eval",
    "special.reg_upper_gamma": "elements",
    "special.normal_sf": "elements",
}


class Tracer:
    """Spans as parallel lists: name, tag, start, end, parent index, op id, count."""

    def __init__(self):
        self.name, self.tag, self.start, self.end = [], [], [], []
        self.parent, self.op, self.count = [], [], []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.current_op = -1
        self.on = False

    def _open(self, name, tag=None, count=0) -> int:
        i = len(self.name)
        self.name.append(name)
        self.tag.append(tag)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.count.append(count)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        tag_of = TAGS.get(name)
        count_of = ARG_COUNTS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = tracer._open(
                name,
                tag_of(args, kwargs) if tag_of else None,
                count_of(args, kwargs) if count_of else 0,
            )
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return traced

    def _wrap_simplex(self, name, fn):
        tracer = self

        def traced(f, *args, **kwargs):
            if not tracer.on:
                return fn(f, *args, **kwargs)

            def objective(x):
                j = tracer._open(OBJECTIVE)
                try:
                    return f(x)
                finally:
                    tracer._close(j)

            i = tracer._open(name)
            try:
                result = fn(objective, *args, **kwargs)
                tracer.count[i] = result.n_eval
                return result
            finally:
                tracer._close(i)

        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that were not found."""
        modules = [m for k, m in sys.modules.items() if k == "curecheck" or k.startswith("curecheck.")]
        missing = []
        for mod_name, fn_name in TARGETS:
            home = sys.modules.get(f"curecheck.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            name = f"{mod_name}.{fn_name}"
            wrap = self._wrap_simplex if fn_name == "minimize_simplex" else self._wrap
            traced = wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, original))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON lines, times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps([
                    i, self.name[i], self.tag[i], self.start[i] - t0, self.end[i] - t0,
                    self.parent[i], self.op[i], self.count[i],
                ]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: the median over traced operations of each per-op total."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        children: dict[int, list[int]] = defaultdict(list)
        for i in range(n):
            children[self.parent[i]].append(i)
        per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            m = per_op[self.op[i]]
            name = self.name[i]
            m[f"{name}.calls"] += 1
            m[f"{name}.s"] += dur[i]
            m[f"{name}.self_s"] += dur[i] - sum(dur[j] for j in children[i])
            if name in COUNT_LABELS:
                m[f"{name}.{COUNT_LABELS[name]}"] += self.count[i]
            tag = self.tag[i]
            if tag is not None:
                m[f"{name}.{tag}.s"] += dur[i]
            if name == "models.fit_model":
                simplex = [j for j in children[i] if self.name[j] == "neldermead.minimize_simplex"]
                obj = [k for j in simplex for k in children[j] if self.name[k] == OBJECTIVE]
                prefix = f"models.fit.{tag}"
                m[f"{prefix}.s"] += dur[i]
                m[f"{prefix}.simplex_evals"] += sum(self.count[j] for j in simplex)
                m[f"{prefix}.outside_simplex_s"] += dur[i] - sum(dur[j] for j in simplex)
                m[f"{prefix}.objective_calls"] += len(obj)
                m[f"{prefix}.objective_s"] += sum(dur[k] for k in obj)
        ops = [per_op[k] for k in sorted(per_op) if k >= 0]
        if not ops:
            return {}
        keys = set().union(*ops)
        med = {k: statistics.median(op.get(k, 0.0) for op in ops) for k in keys}
        for family in FAMILIES:
            for kind in ("cure", "noncure"):
                p = f"models.fit.{family}.{kind}"
                calls = med.get(f"{p}.objective_calls", 0.0)
                med[f"{p}.s_per_eval"] = med.get(f"{p}.objective_s", 0.0) / calls if calls else 0.0
        calls = med.get(f"{OBJECTIVE}.calls", 0.0)
        med[f"{OBJECTIVE}.s_per_eval"] = med.get(f"{OBJECTIVE}.s", 0.0) / calls if calls else 0.0
        return med


def _per_fit():
    out = []
    for family in FAMILIES:
        for kind in ("noncure", "cure"):
            p = f"models.fit.{family}.{kind}"
            out += [(f"{p}.s", "s"), (f"{p}.simplex_evals", "count"),
                    (f"{p}.s_per_eval", "s"), (f"{p}.outside_simplex_s", "s")]
    return out


# (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = _per_fit() + [
    ("models.fit_model.calls", "count"),
    ("models.fit_model.s", "s"),
    ("models.objective.calls", "count"),
    ("models.objective.s_per_eval", "s"),
    ("assessment.receus_assess.s", "s"),
    ("assessment.receus_assess.self_s", "s"),
    ("neldermead.minimize_simplex.calls", "count"),
    ("neldermead.minimize_simplex.n_eval", "count"),
    ("neldermead.minimize_simplex.self_s", "s"),
    ("special.reg_upper_gamma.calls", "count"),
    ("special.reg_upper_gamma.elements", "count"),
    ("special.reg_upper_gamma.s", "s"),
    ("special.normal_sf.calls", "count"),
    ("special.normal_sf.elements", "count"),
    ("special.normal_sf.s", "s"),
    ("special.log_gamma.calls", "count"),
    ("special.inv_reg_lower_gamma.calls", "count"),
    ("special.inv_reg_lower_gamma.s", "s"),
    ("special.inv_normal_cdf.calls", "count"),
    ("special.inv_normal_cdf.s", "s"),
    ("survival.unique_ratio", "ratio"),
] + [(f"simulate.simulate_mixture.{f}.s", "s") for f in FAMILIES] + [
    ("plot.km_plot_svg.s", "s"),
    ("plot.km_plot_csv.s", "s"),
    ("plot.emit_km_plot.s", "s"),
    ("survival.km_survival_at.calls", "count"),
    ("cli.read_csv.s", "s"),
    ("survival.validate_sample.calls", "count"),
    ("survival.validate_sample.s", "s"),
    ("simulate.restrict_followup.s", "s"),
    ("survival.kaplan_meier.calls", "count"),
    ("survival.kaplan_meier.s", "s"),
    ("survival.followup_summary.s", "s"),
    ("diagnostics.alpha_n_test.s", "s"),
    ("report.build_report.s", "s"),
    ("report.render_json.s", "s"),
    ("report.render_text.s", "s"),
    ("op_s.p50", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("fail_ratio", "ratio"),
]
