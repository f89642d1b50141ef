"""Span tracer that wraps qmpc's layer functions from outside the package.

Each wrapped call records a span: name, start, end, the index of the span
that was open when it started (its parent), the operation id the benchmark
set (one per control step or fit window) and a few attributes read off the
arguments and the result. Spans stay in memory until ``dump``.

Every binding of a wrapped function is replaced, not only the one in its
defining module: ``qmpc.learner`` binds ``solve``, the gradients and the
problem builders at import, and the package re-exports most of them. Calls
that go through a module attribute (``qp.solve_qp`` from the solver, the
recursive phase-1 call inside ``qmpc.qp``, ``envs.step`` from
``env.step``) see the replaced attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _qp_attrs(args, kwargs, res):
    g = args[1] if len(args) > 1 else kwargs["g"]
    a_in = args[4] if len(args) > 4 else kwargs.get("A_in")
    return {"n_z": int(np.shape(g)[0]), "m_in": 0 if a_in is None else int(np.shape(a_in)[0]),
            "phase1": bool(kwargs.get("_phase1", False)), "iterations": int(res.iterations),
            "status": res.status}


def _solve_attrs(args, kwargs, sol):
    inst = args[0]
    return {"linear": bool(inst.linear), "iterations": int(sol.iterations)}


def _solve_raise_attrs(args, kwargs):
    z0 = args[1] if len(args) > 1 else kwargs.get("z0")
    return {"warm": z0 is not None}


def _fit_attrs(args, kwargs, out):
    info = out[1]
    return {"pairs": len(args[1]), "iterations": int(info["iterations"]),
            "dropped": int(info["dropped"])}


# (module, attribute, span name, attribute reader)
FUNCTIONS = (
    ("qmpc.qp", "solve_qp", "qp.solve_qp", _qp_attrs),
    ("qmpc.solver", "solve", "solver.solve", _solve_attrs),
    ("qmpc.solver", "grad_q_theta", "solver.grad", None),
    ("qmpc.solver", "grad_v_theta", "solver.grad", None),
    ("qmpc.ocp", "refresh_instance", "ocp.refresh_instance", None),
    ("qmpc.ocp", "build_q_problem", "ocp.build_q_problem", None),
    ("qmpc.ocp", "build_condensed_q", "ocp.build_condensed", None),
    ("qmpc.ocp", "build_condensed_v", "ocp.build_condensed", None),
    ("qmpc.learner", "train", "learner.train", None),
    ("qmpc.learner", "batch_fit", "learner.batch_fit", _fit_attrs),
    ("qmpc.envs", "step", "envs.step", None),
)

# (module, class, method, span name, attribute reader); only methods the class
# itself defines, so an override and its base are wrapped separately.
METHODS = (
    ("qmpc.params", "_FlatMixin", "pd_project", "params.pd_project", None),
    ("qmpc.params", "ThetaCondensed", "pd_project", "params.pd_project", None),
    ("qmpc.learner", "MpcQFunction", "q", "learner.q", None),
    ("qmpc.learner", "CondensedQFunction", "q", "learner.q", None),
    ("qmpc.learner", "MpcQFunction", "v", "learner.v", None),
    ("qmpc.learner", "CondensedQFunction", "v", "learner.v", None),
)

_RAISE_READERS = {"solver.solve": _solve_raise_attrs}


class Tracer:
    """Collects spans while installed and switched on."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.on = True
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, reader):
        tracer = self
        on_raise = _RAISE_READERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                attrs = on_raise(args, kwargs) if on_raise else {}
                attrs["raised"] = type(exc).__name__
                span[ATTRS] = attrs
                raise
            finally:
                stack.pop()
            span[END] = time.perf_counter()
            if reader is not None:
                span[ATTRS] = reader(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Replace every binding of the wrapped functions in loaded qmpc modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qmpc" or n.startswith("qmpc."))]
        for modname, attr, name, reader in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr)
            wrapped = self._wrap(name, orig, reader)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for modname, clsname, attr, name, reader in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig, reader))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording their calls."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def dump(self, path):
        """Write the spans as JSON lines, start and end in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op, "attrs": attrs}) + "\n")


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans):
    """Per-layer counts, busy time and self time, keyed by metric name.

    Self time is a span's duration minus the durations of its direct
    children. Means and percentiles over no calls read 0.
    """
    n = len(spans)
    dur = np.array([s[END] - s[START] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_t = dur - child
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def attr(i, key, default=None):
        a = spans[i][ATTRS]
        return default if a is None else a.get(key, default)

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else None

    qp = idx("qp.solve_qp")
    solve = idx("solver.solve")
    grad = idx("solver.grad")
    fits = [i for i in idx("learner.batch_fit") if attr(i, "raised") is None]
    fit_q = {i: 0 for i in fits}
    for i in idx("learner.q"):
        if spans[i][PARENT] in fit_q:
            fit_q[spans[i][PARENT]] += 1
    fit_pairs = sum(attr(i, "pairs") for i in fits)
    fit_iters = sum(attr(i, "iterations") for i in fits)
    # batch_fit solves every pair of its window once per evaluation of the residual
    evaluations = sum(fit_q[i] / attr(i, "pairs") for i in fits)
    build_c = idx("ocp.build_condensed")
    refresh = idx("ocp.refresh_instance")
    steps = idx("envs.step")
    pdp = idx("params.pd_project")
    sqp_iters = [attr(i, "iterations") for i in solve if attr(i, "linear") is False]
    return {
        "qp.solve_qp.calls": (len(qp), "count"),
        "qp.solve_qp.self_s": (float(self_t[qp].sum()), "s"),
        "qp.solve_qp.ms.p50": (1e3 * _pct(dur[qp], 50), "ms"),
        "qp.iterations.mean": (_mean([attr(i, "iterations", 0) for i in qp]), "count"),
        "qp.phase1.calls": (sum(1 for i in qp if attr(i, "phase1", False)), "count"),
        "qp.n_z.mean": (_mean([attr(i, "n_z", 0) for i in qp]), "count"),
        "qp.m_in.mean": (_mean([attr(i, "m_in", 0) for i in qp]), "count"),
        "solver.solve.calls": (len(solve), "count"),
        "solver.solve.self_s": (float(self_t[solve].sum()), "s"),
        "solver.solve.ms.p50": (1e3 * _pct(dur[solve], 50), "ms"),
        "solver.solve.ms.p99": (1e3 * _pct(dur[solve], 99), "ms"),
        "solver.sqp_iterations.mean": (_mean(sqp_iters), "count"),
        "solver.qp_per_solve": (sum(1 for i in qp if parent_name(i) == "solver.solve") / len(solve)
                                if solve else 0.0, "ratio"),
        "solver.solve.raised": (sum(1 for i in solve if attr(i, "raised") is not None), "count"),
        "solver.warm_retry.calls": (sum(1 for i in solve if attr(i, "raised") is not None
                                        and attr(i, "warm", False)), "count"),
        "solver.grad.calls": (sum(1 for i in grad if parent_name(i) != "solver.grad"), "count"),
        "solver.grad.self_s": (float(self_t[grad].sum()), "s"),
        "ocp.refresh_instance.calls": (len(refresh), "count"),
        "ocp.refresh_instance.ms": (1e3 * _mean(dur[refresh]), "ms"),
        "ocp.build_q_problem.calls": (len(idx("ocp.build_q_problem")), "count"),
        "ocp.build_condensed.calls": (len(build_c), "count"),
        "ocp.build_condensed.ms": (1e3 * _mean(dur[build_c]), "ms"),
        "learner.batch_fit.calls": (len(idx("learner.batch_fit")), "count"),
        "learner.batch_fit.s": (float(dur[idx("learner.batch_fit")].sum()), "s"),
        "learner.fit.evals_per_pair": (sum(fit_q.values()) / fit_pairs if fit_pairs else 0.0, "ratio"),
        "learner.fit.gn_iterations": (fit_iters / len(fits) if fits else 0.0, "count"),
        "learner.fit.iter_per_eval": (fit_iters / evaluations if evaluations else 0.0, "ratio"),
        "learner.fit.dropped_pairs": (sum(attr(i, "dropped", 0) for i in fits), "count"),
        "params.pd_project.calls": (len(pdp), "count"),
        "params.pd_project.self_s": (float(self_t[pdp].sum()), "s"),
        "envs.step.calls": (len(steps), "count"),
        "envs.step.ms": (1e3 * _mean(dur[steps]), "ms"),
    }
