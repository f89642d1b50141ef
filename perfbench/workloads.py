"""The benchmark's workloads: closed loops over one plant, built from the shipped configs.

Each workload is a closed loop with the plant as its only client: the next
step starts only after the previous action is applied. Work is cut into
episodes that start from the plant's initial state; episode ``e`` of a run
with seed ``seed`` draws its disturbances from ``default_rng([seed, e])``, as
``qmpc.cli`` does, and a deployment that follows training in the same
episode draws from ``default_rng([seed, e, 1])``.

evap-control  The evaporation controller at its starting parameters,
              deployed: one warm-started nonlinear value solve per step,
              no gradients, no learning. The read path of ocp/solver/qp.
evap-fit      The evaporation learner in batch mode with the config's
              settings and a shortened window: pinned Q solves with
              gradients, damped Gauss-Newton fits, parameters written. The
              learned controller is then deployed like evap-control's.
lqr-fit       The condensed linear-quadratic learner (N=1, four decision
              variables): only the linear QP path, where per-call Python
              overhead is a large share. The learned gain is checked against
              the Riccati gain, and the learned controller is deployed.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from loader import import_qmpc

qmpc = import_qmpc()

from qmpc import learner  # noqa: E402  (needs the loader above)
from qmpc.cli import load_config, naive_theta_structured  # noqa: E402
from qmpc.errors import QmpcError  # noqa: E402
from qmpc.lqr import LqrTheta, gain_from, solve_riccati  # noqa: E402
from qmpc.ocp import build_condensed_v, build_v_problem, condense_lti  # noqa: E402
from qmpc.solver import solve  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# A warm-started action may differ from a cold solve's by this share of the
# control box width; both come from solves checked to first order at 1e-8.
WARM_COLD_TOL = 1e-6


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload.

    ``episodes`` is the number of episodes every run completes: the quality
    figures and the traced run cover exactly these, so they repeat for a
    seed. Untraced runs add further episodes while time is left.
    """

    config: str
    train_steps: int
    n_upd: int | None
    deploy_steps: int
    episodes: int
    check_every: int
    gain_tol: float | None = None


# Episodes of a few seconds each, so a 50-second run holds ten or more of
# them and the traced run (each fixed episode twice) stays under that length.
# evap-fit shortens the config's 500-pair window to 10 pairs: a 500-pair
# window alone takes minutes. lqr-fit shortens 500 to 100 pairs, so one
# episode holds six fits and the learned gain is already near the Riccati one.
SPECS = {
    "evap-control": Spec("evaporation.yaml", 0, None, 500, 3, 50),
    "evap-fit": Spec("evaporation.yaml", 20, 10, 150, 3, 50),
    "lqr-fit": Spec("lqr_learning.yaml", 600, 100, 1500, 4, 50, gain_tol=0.03),
}

# Sizes for a quick smoke run of the plumbing.
TINY = {
    "evap-control": Spec("evaporation.yaml", 0, None, 5, 1, 2),
    "evap-fit": Spec("evaporation.yaml", 5, 5, 5, 1, 2),
    "lqr-fit": Spec("lqr_learning.yaml", 60, 30, 20, 1, 5, gain_tol=0.5),
}


@dataclass
class Episode:
    """What one episode did and what its checks found."""

    loop_s: float = 0.0
    step_s: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    violations: int = 0
    sse_ratios: list = field(default_factory=list)
    gain_rel_err: float | None = None
    warm_cold_gap: float = 0.0
    attempted: int = 0
    failed: int = 0
    dropped_pairs: int = 0
    problems: list = field(default_factory=list)


def _make_env(cfg):
    env_cfg = cfg.get("env") or {}
    if cfg["experiment"] == "evaporation":
        return qmpc.make_evaporation_like_env(gamma=float(env_cfg.get("gamma", 0.95)),
                                              noise_on=bool(env_cfg.get("noise", True)))
    arr = {k: np.asarray(env_cfg[k], dtype=float) for k in ("A", "B", "T", "S", "R")}
    opts = {k: np.asarray(env_cfg[k], dtype=float) for k in ("u_lo", "u_hi", "init_state") if k in env_cfg}
    return qmpc.make_lti_env(arr["A"], arr["B"], arr["T"], arr["S"], arr["R"], float(env_cfg["gamma"]),
                             noise_sigma=env_cfg.get("noise_sigma", 0.1), **opts)


class FitRecorder:
    """Records what each ``batch_fit`` of the learner attempted and returned.

    Installed as ``qmpc.learner.batch_fit`` while a run lasts, so the window
    fits ``train`` makes can be checked; it adds one call per window and one
    per pair solve.
    """

    def __init__(self):
        self.windows = 0
        self.pair_solves = 0
        self.infos = []
        self._orig = None

    def __call__(self, qfun, pairs, config):
        self.windows += 1
        q = qfun.q

        def counted(*args, **kwargs):
            self.pair_solves += 1
            return q(*args, **kwargs)

        qfun.q = counted
        try:
            theta_star, info = self._orig(qfun, pairs, config)
        finally:
            del qfun.q
        self.infos.append(info)
        return theta_star, info

    def __enter__(self):
        self._orig = learner.batch_fit
        learner.batch_fit = self
        return self

    def __exit__(self, *exc):
        learner.batch_fit = self._orig

    def reset(self):
        self.windows = 0
        self.pair_solves = 0
        self.infos = []


def _quiet(tracer):
    """Keeps the benchmark's own checks out of the trace."""
    return tracer.paused() if tracer is not None else nullcontext()


class Workload:
    """One workload's plant, starting parameters and episode loop."""

    def __init__(self, name, seed, tiny=False):
        self.spec = (TINY if tiny else SPECS)[name]
        self.seed = seed
        cfg = load_config(CONFIGS / self.spec.config)
        self.env = _make_env(cfg)
        lsec = dict(cfg.get("learner") or {})
        if self.spec.n_upd is not None:
            lsec["n_upd"] = self.spec.n_upd
        self.lcfg = learner.LearnerConfig(**lsec)
        self.mpc = cfg.get("mpc") or {}
        spec = self.env.spec
        mpc = self.mpc
        self.theta0 = naive_theta_structured(
            spec.n_s, spec.n_a, spec.x_lo, spec.x_hi, self.lcfg.pd_eps,
            x_ref=mpc.get("x_ref"), u_ref=mpc.get("u_ref"),
            w_x=float(mpc.get("w_x", 1.0)), w_u=float(mpc.get("w_u", 1.0)))
        self.condensed = mpc.get("parametrization", "structured") == "condensed"
        self.controller = self.backend()
        self._k_star = None

    def backend(self):
        """A fresh controller at the starting parameters."""
        spec = self.env.spec
        N = int(self.mpc.get("N", 10))
        if self.condensed:
            thetac = condense_lti(self.theta0, self.env.model(), N, spec.gamma, u_lo=spec.u_lo, u_hi=spec.u_hi)
            return learner.CondensedQFunction(learner.enforce_pd(thetac, self.lcfg.pd_eps))
        return learner.MpcQFunction(self.theta0, self.env.model(), N, spec.gamma, u_lo=spec.u_lo, u_hi=spec.u_hi,
                                    W_s=float(self.mpc.get("W_s", 1.0)), w_s=float(self.mpc.get("w_s", 1.0)))

    def riccati_gain(self):
        """The optimal gain of the linear-quadratic plant, from the Riccati fixed point."""
        if self._k_star is None:
            env = self.env
            P = solve_riccati(env.A, env.B, env.cost)
            self._k_star = gain_from(LqrTheta(A_hat=env.A, B_hat=env.B, P_hat=P), env.cost)
        return self._k_star

    def first_solve(self):
        """The first, cold solve; it also builds the backend's problem template."""
        return self.controller.policy(self.env.init_state)

    def _cold_u0(self, qfun, s):
        if self.condensed:
            inst = build_condensed_v(qfun.theta, s)
        else:
            inst = build_v_problem(qfun.theta, qfun.model, s, qfun.N, qfun.gamma, W_s=qfun.W_s, w_s=qfun.w_s,
                                   u_lo=qfun.u_lo, u_hi=qfun.u_hi, relax=qfun.relax)
        return solve(inst).u0

    def episode(self, e, recorder, tracer=None):
        """Run episode ``e``; the tracer, when given, is installed and records it."""
        ep = Episode()
        if self.spec.train_steps:
            qfun = self._train(e, ep, recorder, tracer)
            rng = np.random.default_rng([self.seed, e, 1])
        else:
            qfun = self.controller
            rng = np.random.default_rng([self.seed, e])
        if qfun is not None:
            self._deploy(qfun, rng, e, ep, tracer)
        return ep

    def _train(self, e, ep, recorder, tracer):
        qfun = self.backend()
        recorder.reset()
        if tracer is not None:
            tracer.op = f"e{e}/train"
        aborted = False
        t0 = time.perf_counter()
        try:
            hist = learner.train(self.env, qfun, self.spec.train_steps, self.lcfg, np.random.default_rng([self.seed, e]))
        except QmpcError as exc:
            hist = exc.history
            aborted = True
        ep.loop_s = time.perf_counter() - t0
        with _quiet(tracer):
            ep.attempted += len(hist.t) + aborted + recorder.windows + recorder.pair_solves
            ep.failed += aborted + hist.fail_updates + hist.fail_pairs
            ep.dropped_pairs += hist.fail_pairs
            for info in recorder.infos:
                if not info["sse_after"] <= info["sse_before"]:
                    ep.problems.append(f"episode {e}: fit raised the squared residual "
                                       f"from {info['sse_before']:.6g} to {info['sse_after']:.6g}")
                if info["sse_before"] > 0.0:
                    ep.sse_ratios.append(info["sse_after"] / info["sse_before"])
            eps = self.lcfg.pd_eps
            for t, flat in hist.snapshots:
                eig = qfun.theta.unflatten(flat).pd_min_eig()
                if not eig >= eps * (1.0 - 1e-6):
                    ep.problems.append(f"episode {e}: PD floor broken after step {t}: {eig:.6g} < {eps:g}")
            if self.spec.gain_tol is not None:
                k_star = self.riccati_gain()
                k = qfun.theta.gain()[: self.env.spec.n_a]
                ep.gain_rel_err = float(np.linalg.norm(k - k_star) / np.linalg.norm(k_star))
                if not ep.gain_rel_err <= self.spec.gain_tol:
                    ep.problems.append(f"episode {e}: learned gain is off the Riccati gain by "
                                       f"{ep.gain_rel_err:.4g} > {self.spec.gain_tol:g}")
        return None if aborted else qfun

    def _deploy(self, qfun, rng, e, ep, tracer):
        env = self.env
        spec = env.spec
        width = spec.u_hi - spec.u_lo
        track = not self.spec.train_steps
        s = np.asarray(env.init_state, dtype=float).copy()
        for k in range(self.spec.deploy_steps):
            if tracer is not None:
                tracer.op = f"e{e}/step{k}"
            ep.attempted += 1
            try:
                t0 = time.perf_counter()
                a = qfun.policy(s)
                t1 = time.perf_counter()
                # the plant's own admissibility slack; env.step raises beyond it
                if np.any(a < spec.u_lo - 1e-9) or np.any(a > spec.u_hi + 1e-9):
                    ep.problems.append(f"episode {e} step {k}: action {a} outside [{spec.u_lo}, {spec.u_hi}]")
                    return
                t2 = time.perf_counter()
                tr = env.step(s, a, rng)
                t3 = time.perf_counter()
            except QmpcError:
                ep.failed += 1
                return
            ep.step_s.append(t1 - t0)
            if track:
                ep.loop_s += (t1 - t0) + (t3 - t2)
            ep.costs.append(tr.cost)
            with _quiet(tracer):
                if spec.x_lo is not None and np.any(env.violation(tr.s_next) > 0.0):
                    ep.violations += 1
                if k % self.spec.check_every == 0:
                    gap = float(np.max(np.abs(a - self._cold_u0(qfun, s)) / width))
                    ep.warm_cold_gap = max(ep.warm_cold_gap, gap)
                    if not gap <= WARM_COLD_TOL:
                        ep.problems.append(f"episode {e} step {k}: warm-started action differs from a cold "
                                           f"solve by {gap:.3g} of the control range")
            s = tr.s_next
