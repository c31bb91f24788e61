"""Span tracer that measures fairmimic's layers from outside the package.

Each target names a public function or method of one package module.  While
a :class:`Tracer` is installed, every attribute of a ``fairmimic`` module that
is bound to the target object is replaced by a wrapper that records a span,
so ``dif.fit`` and ``cli.fit`` are measured as ``estimate.fit`` wherever the
caller looks the name up.  Uninstalling restores the original objects, so
untraced passes run unmodified code.

A target that does not exist (a later version may drop the finite-difference
information or ``scipy.optimize.minimize``) is reported as absent; its
metrics read 0 and ``trace.absent_spans`` counts it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _rows_of(value):
    return getattr(value, "n", None)


def _optimizer_info(result, args):
    return {"nit": getattr(result, "nit", 0), "nfev": getattr(result, "nfev", 0)}


def _fit_info(result, args):
    return {
        "n_iter": getattr(result, "n_iter", 0),
        "converged": bool(getattr(result, "converged", False)),
    }


def _scan_info(result, args):
    rows = getattr(result, "rows", ())
    ok = sum(1 for r in rows if r.error is None and r.converged)
    return {"rows": len(rows), "rows_ok": ok}


# (span name, module, attribute or "Class.method", optional result hook).
# A hook maps (result, call args) to a dict stored with the span.
TARGETS = (
    ("data.simulate", "fairmimic.data", "simulate", None),
    ("data.write_csv", "fairmimic.data", "write_csv", lambda r, a: {"rows": _rows_of(a[0] if a else None)}),
    ("data.load_csv", "fairmimic.data", "load_csv", lambda r, a: {"rows": _rows_of(r)}),
    ("data.transform", "fairmimic.data", "transform", None),
    ("data.split", "fairmimic.data", "split", None),
    ("data.sensitive_codes", "fairmimic.data", "Dataset.sensitive_codes", None),
    ("data.fingerprint", "fairmimic.data", "Dataset.fingerprint", None),
    ("model.log_likelihood", "fairmimic.model", "log_likelihood", None),
    ("estimate.fit", "fairmimic.estimate", "fit", _fit_info),
    ("estimate.optimizer", "fairmimic.estimate", "minimize", _optimizer_info),
    ("estimate.polish", "fairmimic.estimate", "_newton_polish", None),
    ("estimate.observed_information", "fairmimic.estimate", "observed_information", None),
    ("dif.dif_scan", "fairmimic.dif", "dif_scan", _scan_info),
    ("score.score_dataset", "fairmimic.score", "score_dataset", None),
    ("score.decide", "fairmimic.score", "decide", None),
    ("score.to_csv", "fairmimic.score", "ScoreSet.to_csv", None),
    ("audit.statistical_parity", "fairmimic.audit", "statistical_parity", None),
    ("audit.conditional_parity_curve", "fairmimic.audit", "conditional_parity_curve", None),
    ("audit.counterfactual_check", "fairmimic.audit", "counterfactual_check", None),
    ("audit.predictive_parity", "fairmimic.audit", "predictive_parity", None),
    ("select.cv_select", "fairmimic.select", "cv_select", None),
    ("select.lasso_fit", "fairmimic.select", "lasso_fit", None),
    ("cli.simulate", "fairmimic.cli", "cmd_simulate", None),
    ("cli.fit", "fairmimic.cli", "cmd_fit", None),
    ("cli.score", "fairmimic.cli", "cmd_score", None),
    ("cli.audit", "fairmimic.cli", "cmd_audit", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "info")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.info = None

    def to_dict(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "info": self.info,
        }


class Tracer:
    """Records spans in memory while installed; single-threaded."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._saved = []  # (owner, attribute, original) restored on uninstall
        self.request = None

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), stack[-1] if stack else None, self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                span.info = hook(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, request):
        """Patch every target; ``request`` tags the spans of this pass."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.request = request
        self.absent = []
        package = [m for k, m in list(sys.modules.items()) if k == "fairmimic" or k.startswith("fairmimic.")]
        for name, module_name, attr, hook in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or member not in vars(owner):
                self.absent.append(name)
                continue
            original = vars(owner)[member]
            wrapper = self._wrap(name, original, hook)
            if owner_name:  # a method: only the class holds it
                self._patch(owner, member, wrapper)
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)
        self.request = None

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _totals(self):
        """Per span name: calls, busy time (outermost spans of that name
        only), self time, and the sums of the hook values."""
        spans = self.spans
        child = _child_time(spans)
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        info = defaultdict(lambda: defaultdict(float))
        for i, sp in enumerate(spans):
            dur = sp.end - sp.start
            calls[sp.name] += 1
            self_s[sp.name] += dur - child[i]
            if not _has_ancestor(spans, sp, sp.name):
                busy[sp.name] += dur
            for key, value in (sp.info or {}).items():
                if value is not None:
                    info[sp.name][key] += float(value)
        return calls, busy, self_s, info

    def layer_metrics(self, passes: int, overhead_s: float) -> dict:
        """Per-layer metrics, each a total over the traced passes divided
        by their number (times and counts per pass) or a ratio."""
        spans = self.spans
        calls, busy, self_s, info = self._totals()
        per = 1.0 / max(passes, 1)

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for name in ("data.simulate", "data.transform", "data.split", "model.log_likelihood",
                     "score.score_dataset", "score.decide", "score.to_csv",
                     "audit.statistical_parity", "audit.conditional_parity_curve",
                     "audit.counterfactual_check", "audit.predictive_parity",
                     "select.cv_select", "estimate.polish"):
            m[f"{name}.busy_s"] = busy[name] * per
        for name in ("data.load_csv", "data.sensitive_codes", "data.fingerprint",
                     "estimate.observed_information", "estimate.fit", "select.lasso_fit"):
            m[f"{name}.busy_s"] = busy[name] * per
            m[f"{name}.calls"] = calls[name] * per

        m["data.write_csv.busy_s"] = busy["data.write_csv"] * per
        m["data.write_csv.rows_per_s"] = ratio(info["data.write_csv"]["rows"], busy["data.write_csv"])
        m["data.load_csv.rows_per_s"] = ratio(info["data.load_csv"]["rows"], busy["data.load_csv"])

        fits = calls["estimate.fit"]
        m["estimate.observed_information.per_fit"] = ratio(calls["estimate.observed_information"], fits)
        m["estimate.fit.self_s"] = self_s["estimate.fit"] * per
        m["estimate.fit.n_iter"] = ratio(info["estimate.fit"]["n_iter"], fits)
        m["estimate.fit.converged_frac"] = ratio(info["estimate.fit"]["converged"], fits)

        opt = info["estimate.optimizer"]
        m["estimate.optimizer.busy_s"] = busy["estimate.optimizer"] * per
        m["estimate.optimizer.nit"] = opt["nit"] * per
        m["estimate.optimizer.nfev"] = opt["nfev"] * per
        m["model.eval_ms"] = 1e3 * ratio(busy["estimate.optimizer"], opt["nfev"])

        scans = calls["dif.dif_scan"]
        m["dif.dif_scan.busy_s"] = busy["dif.dif_scan"] * per
        m["dif.dif_scan.self_s"] = self_s["dif.dif_scan"] * per
        m["dif.fits_per_scan"] = ratio(
            sum(1 for sp in spans if sp.name == "estimate.fit" and _has_ancestor(spans, sp, "dif.dif_scan")),
            scans,
        )
        m["dif.row_ok_frac"] = ratio(info["dif.dif_scan"]["rows_ok"], info["dif.dif_scan"]["rows"])

        m["select.lasso_fit.ms_per_call"] = 1e3 * ratio(busy["select.lasso_fit"], calls["select.lasso_fit"])
        for cmd in ("simulate", "fit", "score", "audit"):
            m[f"cli.{cmd}.self_s"] = self_s[f"cli.{cmd}"] * per

        m["trace.overhead_s"] = overhead_s
        m["trace.absent_spans"] = float(len(self.absent))
        return m

    def busiest(self, limit: int = 12):
        """(name, calls, busy_s, self_s) of the spans with the most self time."""
        calls, busy, self_s, _ = self._totals()
        names = sorted(calls, key=lambda name: -self_s[name])[:limit]
        return [(name, calls[name], busy[name], self_s[name]) for name in names]


def _child_time(spans):
    """Per span, the time its direct children cover (they never overlap:
    the traced code is single-threaded)."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.end - sp.start
    return child


def _has_ancestor(spans, sp, name):
    parent = sp.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
