"""Span tracer that times the package's layers from outside.

`traced(tracer)` replaces, for the duration of a `with` block, the functions
`experiment` calls through its module namespace and the public methods of
`ModelInstance`, `Darcy1D`, `LinearPhi` and `SurrogateSpec` with wrappers that
record a span per call.  The bodies of `run_experiment` and `run_cell` are the
glue spans `experiment.run` and `experiment.cell`: their self time is all the
time no layer span covers (report and manifest writes, basis, prior and data
model construction).  Spans are aggregated in memory per name (calls, total
time, self time = total minus the time of spans opened inside it), which keeps
the per-step overhead to a few microseconds on chains of 10^5 steps.

Span names start with the layer they belong to; `basis`, `prior`, `expfam` and
`config` have no spans and are folded into their callers.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("experiment", "sampler", "likelihood", "forward", "initializers",
          "surrogate", "diagnostics")

# Drift-call regions by ||theta - theta_init|| / eta (see SurrogateSpec.grad):
# exact likelihood up to 1/2, blended cutoff annulus below 7/8, penalty beyond.
INNER_EDGE, FAR_EDGE = 0.5, 0.875


class Tracer:
    def __init__(self):
        self.stats = {}           # span name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.first_spec = None    # first SurrogateSpec built (for microbenchmarks)
        self.first_cell = None    # first CellResult returned
        self._child = []          # per open span: time spent in its child spans
        self._names = []          # per open span: its name
        self._solved = {}         # id(Darcy1D) -> bytes of every theta it was called at

    def wrap(self, fn, name, hook=None, after=None):
        """`fn` timed as span `name`.

        `hook(args)` runs just before the span opens and is timed as its own
        `trace.hooks` span, so tracer bookkeeping is not charged to any layer;
        `after(args, result)` runs after the span closes.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        hooks = self.stats.setdefault("trace.hooks", [0, 0.0, 0.0])
        child, names = self._child, self._names

        def span(*args, **kwargs):
            if hook is not None:
                h0 = perf_counter()
                hook(args)
                hd = perf_counter() - h0
                hooks[0] += 1
                hooks[1] += hd
                hooks[2] += hd
                if child:
                    child[-1] += hd
            names.append(name)
            child.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                names.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
                if child:
                    child[-1] += dt
            if after is not None:
                after(args, out)
            return out

        return span

    def current(self) -> str:
        """Name of the innermost open span (the caller, inside a hook)."""
        return self._names[-1] if self._names else ""

    def self_s(self, prefix: str) -> float:
        return sum(s[2] for name, s in self.stats.items() if name.startswith(prefix))

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    # -- hooks ----------------------------------------------------------------

    def _forward_call(self, args):
        """Count a Darcy call not made by another forward method, by whether
        its theta was already solved by this operator."""
        if self.current().startswith("forward."):
            return
        key = np.asarray(args[1], dtype=float).tobytes()
        seen = self._solved.setdefault(id(args[0]), set())
        self.counts["forward.calls"] += 1
        if key in seen:
            self.counts["forward.reused"] += 1
        else:
            seen.add(key)

    def _log_lik_call(self, args):
        if self.current() == "initializers.pilot_ascent":
            self.counts["initializers.pilot_ascent.objective_evals"] += 1

    def _drift_call(self, args):
        spec, theta = args[0], args[1]
        t = float(np.linalg.norm(np.asarray(theta, dtype=float) - spec.theta_init)) / spec.eta
        region = "inner" if t <= INNER_EDGE else ("far" if t >= FAR_EDGE else "annulus")
        self.counts["surrogate.steps." + region] += 1

    def _spec_built(self, args, spec):
        if self.first_spec is None:
            self.first_spec = spec

    def _cell_done(self, args, cell):
        if self.first_cell is None:
            self.first_cell = cell

    def _probe_done(self, args, report):
        self.counts["likelihood.probe.skipped"] += report.skipped

    def _chain_done(self, args, trace):
        self.counts["sampler.steps"] += trace.j_in + trace.j
        self.counts["sampler.guard_triggers"] += trace.guard_trigger_count


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's spans; the originals come back on exit."""
    from surrogate_langevin import experiment
    from surrogate_langevin.forward import Darcy1D, LinearPhi
    from surrogate_langevin.likelihood import ModelInstance
    from surrogate_langevin.surrogate import SurrogateSpec

    saved = []

    def patch(owner, attr, name, hook=None, after=None):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, hook, after))

    t = tracer
    try:
        patch(experiment, "run_experiment", "experiment.run")
        patch(experiment, "run_cell", "experiment.cell", after=t._cell_done)
        patch(experiment, "generate_data", "experiment.generate")
        for fn in ("_write_trace", "_write_recovery"):
            patch(experiment, fn, "experiment.write")
        for fn in ("pilot_ascent_init", "oracle_projection_init", "oracle_perturbed_init"):
            patch(experiment, fn, "initializers." + fn.removesuffix("_init"))
        patch(experiment, "choose_K", "surrogate.setup.choose_K")
        patch(experiment, "SurrogateSpec", "surrogate.setup.spec", after=t._spec_built)
        for fn in ("step_size_bound", "discretization_bias", "precision_floor", "burn_in_steps"):
            patch(experiment, fn, "sampler.rules." + fn)
        for fn in ("condition_numbers", "contraction_metric", "grid_posterior",
                   "grid_tv_distance", "loglog_slope"):
            patch(experiment, fn, "diagnostics." + fn)

        run_chain = experiment.run_chain
        saved.append((experiment, "run_chain", run_chain))

        def chain(drift, theta_init, config, functionals=None, **kwargs):
            functionals = {k: t.wrap(f, "experiment.functional")
                           for k, f in (functionals or {}).items()}
            return run_chain(drift, theta_init, config, functionals=functionals, **kwargs)

        experiment.run_chain = t.wrap(chain, "sampler.chain", after=t._chain_done)

        patch(ModelInstance, "log_lik", "likelihood.log_lik", hook=t._log_lik_call)
        for m in ("grad_log_lik", "hess_dir", "hess_dir_many"):
            patch(ModelInstance, m, "likelihood." + m)
        patch(ModelInstance, "curvature_probe", "likelihood.probe", after=t._probe_done)
        for m in ("values", "solution", "dir_grad", "grad_rows", "dir_hess"):
            patch(Darcy1D, m, "forward." + m, hook=t._forward_call)
        for m in ("values", "grad_rows", "dir_grad", "dir_hess"):
            patch(LinearPhi, m, "forward.linear." + m)
        patch(SurrogateSpec, "posterior_grad", "surrogate.drift", hook=t._drift_call)
        patch(SurrogateSpec, "posterior_log_density", "surrogate.log_density")
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
