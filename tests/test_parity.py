"""Bitwise parity of the lean drift and chain with their first composition.

The oracles in _oracles.py compose the drift and the ULA chain one public
call at a time; SurrogateSpec.posterior_grad, SurrogateSpec.grad and
run_chain must give the same bits, and count the drift calls per region.
"""

import functools
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (drift_region, grad_composed, grad_log_lik_composed,
                      pilot_ascent_per_iteration, posterior_grad_composed, run_chain_per_step)
from surrogate_langevin import experiment
from surrogate_langevin.basis import BasisFamily
from surrogate_langevin.expfam import FAMILY_KINDS, ExpFamily, LinkFunction
from surrogate_langevin.forward import Darcy1D, LinearPhi
from surrogate_langevin.initializers import pilot_ascent_init
from surrogate_langevin.likelihood import CurvatureReport, ModelInstance, generate_data
from surrogate_langevin.prior import SievePrior
from surrogate_langevin.sampler import NOISE_BLOCK, ChainDivergedError, SamplerConfig, run_chain
from surrogate_langevin.surrogate import SurrogateSpec

ETA = 0.5
# theta_init of every model ends in 0.0, so moving the last coordinate by
# delta gives t = ||theta - theta_init|| = |delta| exactly
MODELS = {
    "glm-gaussian": ("cosine-with-constant", "gaussian", "canonical", [0.4, -0.3, 0.0]),
    "glm-poisson": ("cosine-with-constant", "poisson", "canonical", [0.4, -0.3, 0.0]),
    "glm-bernoulli": ("cosine-with-constant", "bernoulli", "canonical", [0.4, -0.3, 0.0]),
    "glm-gaussian-cube": ("cosine-with-constant", "gaussian", "cube", [2.0, 0.2, 0.0]),
    "density": ("cosine-centered", None, None, [0.3, -0.2, 0.0]),
    "darcy": ("dirichlet-sine", "gaussian", "canonical", [0.2, 0.1, 0.0]),
}


@functools.cache
def _model(name, n=60):
    basis_kind, family, link, theta_init = MODELS[name]
    basis = BasisFamily(basis_kind, 3)
    theta_init = np.array(theta_init)
    if family is None:
        ds = generate_data(basis, theta_init, n, 1, kind="density")
        return ModelInstance(ds, basis, None, None, None), theta_init
    fam, lk = ExpFamily(family), LinkFunction(link)
    op = Darcy1D(basis, M=32) if name == "darcy" else LinearPhi(basis)
    ds = generate_data(basis, theta_init, n, 1, family=fam, link=lk, forward=op)
    return ModelInstance(ds, basis, fam, lk, op), theta_init


def _spec(name):
    model, theta_init = _model(name)
    probe = CurvatureReport(1.0, 2.0, 0.0, 1, theta_init, ETA)
    return SurrogateSpec(model, SievePrior(1.0, model.n, 3), theta_init, ETA, 30.0, probe)


def _theta_at(theta_init, t, sign):
    """A theta whose t is exactly t: only the last coordinate moves."""
    theta = theta_init.copy()
    theta[-1] = sign * t
    return theta


EDGES = [0.5 * ETA, 0.875 * ETA]
EXACT_T = [f(edge) for edge in EDGES
           for f in (lambda e: e, lambda e: math.nextafter(e, 0.0),
                     lambda e: math.nextafter(e, math.inf))]


def _same(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _check_drift_parity(spec, theta):
    region = drift_region(spec, theta)
    before = dict(spec.drift_calls)
    try:
        want = posterior_grad_composed(spec, theta)
    except FloatingPointError:
        with pytest.raises(FloatingPointError):
            spec.posterior_grad(theta)
        with pytest.raises(FloatingPointError):
            spec.grad(theta)
    else:
        _same(spec.posterior_grad(theta), want)
        _same(spec.grad(theta), grad_composed(spec, theta))
    expected = dict(before)
    expected[region] += 1
    assert spec.drift_calls == expected


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("t", EXACT_T)
def test_drift_parity_at_the_region_edges(name, t):
    # t = eta/2 and 7 eta/8 exactly and one ulp either side: the region (and
    # so the count and the likelihood calls) flips there while the gradient
    # bits may not
    spec = _spec(name)
    for sign in (1.0, -1.0):
        theta = _theta_at(spec.theta_init, t, sign)
        assert float(np.linalg.norm(theta - spec.theta_init)) == t
        _check_drift_parity(spec, theta)


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(MODELS)),
       ratio=st.floats(0.0, 0.5) | st.floats(0.5, 0.875) | st.floats(0.875, 4.0),
       direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_drift_parity_in_every_region(name, ratio, direction):
    spec = _spec(name)
    u = np.array(direction)
    norm = np.linalg.norm(u)
    if norm == 0.0:
        u, norm = np.array([0.0, 0.0, 1.0]), 1.0
    _check_drift_parity(spec, spec.theta_init + (ratio * ETA / norm) * u)


def _vanilla_drift(spec):
    """The drift experiment.sample_cell hands run_chain for variant = vanilla."""
    drifts = []
    cfg = SimpleNamespace(variant="vanilla", j=1, guard="none", guard_radius=1.0,
                          thinning_budget=10)
    with mock.patch.object(experiment, "run_chain", lambda drift, *a, **kw: drifts.append(drift)):
        experiment.sample_cell(cfg, spec, {"gamma": 1e-3, "j_in": 0}, spec.theta_init, 0)
    return drifts[0]


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(MODELS)), ratio=st.floats(0.0, 0.5),
       direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_inner_drifts_call_the_gradient_body_under_the_chain_error_state(name, ratio,
                                                                         direction):
    # inside the exact-likelihood ball posterior_grad and the vanilla drift
    # call ModelInstance._grad once each, not grad_log_lik, under the error
    # state run_chain holds, with the bits of the composed oracles
    spec = _spec(name)
    model, prior = spec.model, spec.prior
    u = np.array(direction)
    norm = np.linalg.norm(u)
    if norm == 0.0:
        u, norm = np.array([0.0, 0.0, 1.0]), 1.0
    theta = spec.theta_init + (ratio * ETA / norm) * u
    assert drift_region(spec, theta) == "inner"
    want_vanilla = (grad_log_lik_composed(model, theta)
                    + (-prior.scale * prior.sigma_alpha_diag) * theta)
    want = posterior_grad_composed(spec, theta)
    calls = []

    def body(t, _grad=model._grad):
        calls.append(t)
        return _grad(t)

    before = dict(spec.drift_calls)
    with mock.patch.object(model, "_grad", body), \
            mock.patch.object(model, "grad_log_lik", side_effect=AssertionError("public call")):
        vanilla = _vanilla_drift(spec)
        with np.errstate(over="ignore", invalid="ignore"):
            _same(spec.posterior_grad(theta), want)
            assert len(calls) == 1
            _same(vanilla(theta), want_vanilla)
            assert len(calls) == 2
    assert spec.drift_calls == {**before, "inner": before["inner"] + 1}


@pytest.mark.parametrize("family", FAMILY_KINDS)
def test_canonical_mean_map_ignores_the_sign_of_zero(family):
    # grad_log_lik feeds A' the forward values u where natural_param gives
    # u + 0.0; the two differ only at -0.0
    fam = ExpFamily(family)
    _same(fam._A1(np.array([-0.0])), fam._A1(np.array([0.0])))


B = NOISE_BLOCK


@pytest.mark.parametrize("total", [B, B + 1, 2 * B + 1])
@settings(max_examples=4)
@given(name=st.sampled_from(["glm-poisson", "glm-bernoulli", "density", "darcy"]),
       guard=st.sampled_from(["none", "reflect"]),
       gamma=st.sampled_from([2e-3, 2e-2]), seed=st.integers(0, 2 ** 16))
def test_chain_on_the_surrogate_drift_matches_per_step_composition(total, name, guard,
                                                                    gamma, seed):
    # the chain crosses the regions; the reflect radius sits just outside
    # theta_init, so the fold triggers too
    spec = _spec(name)
    cfg = SamplerConfig(gamma=gamma, j_in=total // 3, j=total - total // 3, seed=seed,
                        guard=guard,
                        guard_radius=float(np.linalg.norm(spec.theta_init)) + 0.3 * ETA)
    fns = {"id": lambda S: S}
    center, radius = spec.theta_init, spec.coincidence_radius
    with np.errstate(over="ignore", invalid="ignore"):
        ref = run_chain_per_step(functools.partial(posterior_grad_composed, spec),
                                 spec.theta_init, cfg, fns, center, radius, 10_000_000)
        try:
            trace = run_chain(spec.posterior_grad, spec.theta_init, cfg, functionals=fns,
                              region_center=center, region_radius=radius)
        except ChainDivergedError as exc:
            assert ref[0] == "diverged"
            assert exc.step == ref[1]
            _same(exc.last_state, ref[2])
            return
    states, stride, exit_step, acc, guards, final = ref
    _same(trace.states, states)
    _same(trace.final_state, final)
    _same(trace.accumulators["id"], acc["id"])
    assert (trace.exit_step, trace.guard_trigger_count) == (exit_step, guards)
    if guards == 0:
        # one drift call per step, at the state the step starts from
        counts = dict.fromkeys(spec.drift_calls, 0)
        for theta in trace.states[:-1]:
            counts[drift_region(spec, theta)] += 1
        assert spec.drift_calls == counts


@settings(max_examples=10)
@given(every=st.integers(2, 9), seed=st.integers(0, 2 ** 16))
def test_drift_calls_sum_to_steps_plus_retries(every, seed):
    # every `every`-th drift turns NaN after posterior_grad has run, so the
    # reflect guard retries that step once
    spec = _spec("glm-poisson")
    calls, retries = [0], [0]

    def drift(theta):
        calls[0] += 1
        g = spec.posterior_grad(theta)
        if calls[0] % every == 0 and calls[0] % (2 * every) != 0:
            retries[0] += 1
            return g * np.nan
        return g

    cfg = SamplerConfig(gamma=2e-2, j=300, seed=seed, guard="reflect", guard_radius=1e3)
    trace = run_chain(drift, spec.theta_init, cfg)
    assert retries[0] > 0
    assert sum(spec.drift_calls.values()) == cfg.j + retries[0]
    assert trace.guard_trigger_count >= retries[0]


@pytest.mark.parametrize("name", ["glm-gaussian", "glm-poisson", "density", "darcy"])
@pytest.mark.parametrize("steps", [1, 40, 500])
def test_pilot_ascent_matches_per_iteration_composition(name, steps):
    # the gradient is computed once at the start and once per accepted step
    model, theta_init = _model(name)
    prior = SievePrior(1.0, model.n, 3)
    theta_ref, info_ref, accepted = pilot_ascent_per_iteration(
        model, prior, steps=steps, theta_star=theta_init, eta=ETA)
    calls = [0]

    def counted(theta, _grad=model.grad_log_lik):
        calls[0] += 1
        return _grad(theta)

    with mock.patch.object(model, "grad_log_lik", counted):
        theta, info = pilot_ascent_init(model, prior, steps=steps,
                                        theta_star=theta_init, eta=ETA)
    _same(theta, theta_ref)
    assert info == info_ref
    assert calls[0] == accepted + 1
