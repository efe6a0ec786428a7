"""Span recorder for the traced perfbench run.

The library has no tracing of its own, so the benchmark wraps the
functions and methods that mark each layer's boundary, replacing every
module attribute that names them: ``distance.q_beta_values``,
``verify.q_beta_values`` and ``spaces.q_beta_values`` are three separate
names for one function, and all three are patched.  Spans (name, start,
end, parent) are kept in memory while a traced round runs and written
out when the run ends.  A span's self time is its duration minus the
durations of its children; spans nest strictly because the workloads
call the library from one thread.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import statistics
import sys
import time

from bergman_lab import distance, profiles, quadrature, spaces, verify
from bergman_lab.kernels import K_CAP, q_beta_values, q_m_values, qbeta_pick_k

RULES = "quadrature.rules"


def _rule_nodes(rule):
    if isinstance(rule, quadrature.SphereRule):
        return rule.nodes.shape[0]
    if isinstance(rule, quadrature.RadialRule):
        return rule.nodes.size
    if isinstance(rule, quadrature.ZonalRule):
        return rule.u_nodes.size
    return rule.y_nodes.size ** rule.n * rule.s_nodes.size


class Tracer:
    """Spans and counters of the traced rounds, one list per round."""

    def __init__(self):
        self.rounds = []
        self._stack = []
        self._patches = []

    # -- spans --------------------------------------------------------------

    def begin_round(self):
        self.rounds.append({"spans": [], "counts": {}, "maxima": {}})

    def _open(self, name):
        spans = self.rounds[-1]["spans"]
        parent = self._stack[-1] if self._stack else -1
        spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(spans) - 1)

    def _close(self):
        idx = self._stack.pop()
        self.rounds[-1]["spans"][idx][2] = time.perf_counter()

    def parent_name(self):
        if not self._stack:
            return None
        return self.rounds[-1]["spans"][self._stack[-1]][0]

    def add(self, key, amount):
        counts = self.rounds[-1]["counts"]
        counts[key] = counts.get(key, 0) + amount

    def raise_max(self, key, value):
        maxima = self.rounds[-1]["maxima"]
        maxima[key] = max(maxima.get(key, 0.0), value)

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``count(args, kwargs, result)`` runs after
        the span closes, so its own cost lands in the parent span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if count is not None:
                count(args, kwargs, out)
            return out

        return traced

    # -- patching -----------------------------------------------------------

    def _patch_everywhere(self, original, replacement, extra):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and name.startswith("bergman_lab")]
        for mod in mods + list(extra):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, replacement)

    def _patch_attr(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, extra=()):
        """Wrap every layer boundary the per-layer metrics read, in the
        library's modules and in the modules listed in ``extra``."""
        def fn(name, original, count=None, replacement=None):
            self._patch_everywhere(
                original, replacement or self.wrap(name, original, count),
                extra)

        fn("kernels.q_beta_values", q_beta_values, self._count_qbeta)
        fn("kernels.q_m_values", q_m_values, self._count_qm)
        for rule_fn in (quadrature.sphere_rule, quadrature.radial_rule,
                        quadrature.zonal_rule, quadrature.halfspace_rule):
            fn(RULES, rule_fn, self._count_rule)
        fn("quadrature.integrate_halfspace", quadrature.integrate_halfspace)
        fn("spaces.ainf_norm", spaces.ainf_norm)
        for norm_fn in (spaces.bergman_norm, spaces.ball_norm_profile,
                        spaces.halfspace_norm_profile, spaces.mixed_norm,
                        spaces.weighted_norm):
            fn("spaces.norms", norm_fn)
        fn("profiles.classify", profiles.classify_truncations,
           self._count_classify)
        fn("profiles.bisect", profiles.bisect_s2, self._count_bisect)
        fn("distance.engine_build", distance._make_engine)
        traced_decompose = self.wrap("distance.decompose", distance.decompose)
        fn("distance.decompose", distance.decompose,
           replacement=functools.wraps(distance.decompose)(
               lambda *a, **k: self._wrap_parts(traced_decompose(*a, **k))))
        fn("distance.weighted_sup", distance._weighted_sup_on)
        fn("distance.repro_defect", distance._repro_defect)
        fn("verify.representation", verify.verify_representation)
        for engine in (distance._BallZonalEngine, distance._BallGridEngine,
                       distance._HalfGridEngine):
            self._patch_attr(engine, "profile",
                             self.wrap("distance.profile", engine.profile))

    def uninstall(self):
        while self._patches:
            owner, attr, val = self._patches.pop()
            setattr(owner, attr, val)

    # -- counters -----------------------------------------------------------

    def _count_qbeta(self, args, kwargs, out):
        spec, q = args[0], args[1]
        tol = kwargs.get("tol", args[3] if len(args) > 3 else 1e-12)
        k_max = kwargs.get("k_max", args[4] if len(args) > 4 else None)
        nodes = q.size
        if k_max is None:
            q_max = float(q.max()) if nodes else 0.0
            k_max = qbeta_pick_k(spec.n, spec.beta, q_max, tol)
        self.add("kernels.q_beta_values.calls", 1)
        self.add("kernels.q_beta_values.nodes", nodes)
        self.add("kernels.q_beta_values.terms_bound", nodes * k_max)
        self.add("kernels.q_beta_values.kcap_calls", int(k_max >= K_CAP))
        self.raise_max("kernels.q_beta_values.max_tail", out[1])

    def _count_qm(self, args, kwargs, out):
        self.add("kernels.q_m_values.calls", 1)
        self.add("kernels.q_m_values.nodes", out.size)

    def _count_rule(self, args, kwargs, out):
        # a sphere rule recurses through the patched name; count the
        # outermost rule only
        if self.parent_name() != RULES:
            self.add("quadrature.rules.nodes", _rule_nodes(out))

    def _count_classify(self, args, kwargs, out):
        self.add("profiles.classify.calls", 1)
        self.add("profiles.inconclusive",
                 int(out.classification == profiles.INCONCLUSIVE))

    def _count_bisect(self, args, kwargs, out):
        self.add("profiles.bisect.evaluations", len(out.evaluations))

    def _wrap_parts(self, parts):
        """Give f1 and f2 their own spans; evaluating them is the cost."""
        f1, f2 = parts
        return (
            dataclasses.replace(f1, fn=self.wrap("distance.f1_eval", f1.fn)),
            dataclasses.replace(f2, fn=self.wrap(
                "distance.f2_eval", f2.fn,
                lambda a, k, res: self.add("distance.f2_eval.points",
                                           len(res)))),
        )

    # -- results ------------------------------------------------------------

    def round_summary(self, index):
        """Self time per span name, top-level time, counts and maxima."""
        rnd = self.rounds[index]
        spans = rnd["spans"]
        child = [0.0] * len(spans)
        top = 0.0
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        self_s = {}
        for i, (name, start, end, _) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        return self_s, top, rnd["counts"], rnd["maxima"]

    def dump(self):
        return [{"spans": r["spans"], "counts": r["counts"],
                 "maxima": r["maxima"]} for r in self.rounds]


def layer_metrics(tracer, traced_times, plain_times, names):
    """Per-layer metric values.

    Times are medians over the traced rounds; counts and maxima come from
    the first traced round (they repeat exactly from round to round).
    Also reports the tracing overhead against the untraced rounds of the
    same process and the share of a traced round the top-level spans
    cover.
    """
    summaries = [tracer.round_summary(i) for i in range(len(tracer.rounds))]
    _, _, counts, maxima = summaries[0]
    values = {}
    for name in names:
        if name.endswith(".self_s"):
            layer = name[: -len(".self_s")]
            values[name] = statistics.median(s[0].get(layer, 0.0)
                                             for s in summaries)
        elif name in maxima:
            values[name] = maxima[name]
        else:
            values[name] = counts.get(name, 0)
    values["trace.coverage"] = statistics.median(
        s[1] / t for s, t in zip(summaries, traced_times))
    values["trace.overhead"] = (statistics.median(traced_times)
                                / statistics.median(plain_times) - 1.0)
    tail = values.get("kernels.q_beta_values.max_tail")
    if tail is not None and not math.isfinite(tail):
        values["kernels.q_beta_values.max_tail"] = sys.float_info.max
    return values

