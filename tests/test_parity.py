"""Bitwise parity of the lean drift and chain with their first composition.

The oracles in _oracles.py compose the drift and the ULA chain one public
call at a time; SurrogateSpec.posterior_grad, SurrogateSpec.grad and
run_chain must give the same bits, and count the drift calls per region.
"""

import contextlib
import functools
import itertools
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (curvature_probe_per_point, drift_region, grad_composed,
                      grad_log_lik_composed, log_lik_composed, pilot_ascent_per_iteration,
                      posterior_grad_composed, run_chain_per_step, surrogate_grad)
from surrogate_langevin import experiment, forward, initializers
from surrogate_langevin.basis import BasisFamily
from surrogate_langevin.expfam import FAMILY_KINDS, ExpFamily, LinkFunction
from surrogate_langevin.forward import Darcy1D, LinearPhi
from surrogate_langevin.initializers import pilot_ascent_init
from surrogate_langevin.likelihood import (PROBE_BLOCK, CurvatureReport, ModelInstance,
                                           generate_data)
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
    probe = CurvatureReport(1.0, 2.0, 0.0)
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


@functools.cache
def _density_model(p):
    basis = BasisFamily("cosine-centered", p)
    ds = generate_data(basis, 0.3 / np.arange(1.0, p + 1) ** 2, 60, p, kind="density")
    return ModelInstance(ds, basis, None, None, None)


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300]


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([1, 2, 4, 8, 16, 32]), data=st.data())
def test_density_grad_matches_the_first_composition(p, data):
    # the in-place gradient body against the fresh-array composition, with
    # NaN, +-inf, +-0.0 and 1e300 entries mixed into theta: its bits where
    # the composition is not NaN, NaN where it is
    model = _density_model(p)
    entry = st.floats(-50.0, 50.0) | st.sampled_from(EDGE_FLOATS)
    theta = np.array(data.draw(st.lists(entry, min_size=p, max_size=p)))
    with np.errstate(all="ignore"):
        want = grad_log_lik_composed(model, theta)
        got = model.grad_log_lik(theta)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    _same(got[~nan], want[~nan])


def test_density_grad_returns_an_array_of_its_own():
    # the body works in place on the arrays its gemvs return: a result
    # shares no memory with the next call's, with theta or with the model's
    # arrays, and no call writes to them
    model = _density_model(4)
    bound = [model._E_quad, model._qw, model._grad_data_const, model._E_data]
    before = [a.tobytes() for a in bound]
    thetas = [np.full(4, 0.1), np.full(4, -0.2)]
    first = model.grad_log_lik(thetas[0])
    kept = first.copy()
    second = model.grad_log_lik(thetas[1])
    _same(first, kept)
    for got in (first, second):
        assert not any(np.shares_memory(got, a) for a in bound + thetas)
    assert not np.shares_memory(first, second)
    assert [a.tobytes() for a in bound] == before
    _same(thetas[0], np.full(4, 0.1))


def _check_drift_parity(spec, theta):
    region = drift_region(spec, theta)
    before = dict(spec.drift_calls)
    try:
        want = posterior_grad_composed(spec, theta)
    except FloatingPointError:
        with pytest.raises(FloatingPointError):
            spec.posterior_grad(theta)
        with pytest.raises(FloatingPointError):
            surrogate_grad(spec, theta)
    else:
        _same(spec.posterior_grad(theta), want)
        _same(surrogate_grad(spec, theta), grad_composed(spec, theta))
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
    # the gradient is computed once at the start and once per step that moves theta
    model, _ = _model(name)
    prior = SievePrior(1.0, model.n, 3)
    theta_ref, info_ref, moves, last_move = pilot_ascent_per_iteration(model, prior,
                                                                       steps=steps)
    calls = [0]

    def counted(theta, _grad=model.grad_log_lik):
        calls[0] += 1
        return _grad(theta)

    with mock.patch.object(model, "grad_log_lik", counted):
        theta, info = pilot_ascent_init(model, prior, steps=steps)
    _same(theta, theta_ref)
    assert {k: info[k] for k in info_ref} == info_ref
    assert calls[0] == info["gradient_evals"] == moves + 1
    assert info["last_move"] == last_move


class _Stub:
    """A p = 2 model and flat prior from two functions of theta."""

    def __init__(self, log_lik, grad_log_lik):
        self.basis = SimpleNamespace(p=2)
        self.dataset = SimpleNamespace(n=1)
        self.log_lik, self.grad_log_lik = log_lik, grad_log_lik

    @staticmethod
    def log_density(theta):
        return 0.0

    @staticmethod
    def grad_log_density(theta):
        return np.zeros(2)


def _barrier():
    # a slope inside a ball of radius 1e-15 about zero, -inf outside it: a
    # first step above 2^49 * 1e-15 = 0.56 overshoots for 50 halvings
    slope = np.array([0.6, 0.8])
    return _Stub(lambda t: float(slope @ t) if t @ t < 1e-30 else -math.inf,
                 lambda t: slope.copy()), None


def _signed_zero():
    # from (1e9, -0.0) the first candidate is (1e9, +0.0): 1e-9 is below half
    # an ulp of 1e9.  The gradient reads the sign of the zero, so a pilot that
    # took the two points for one would not turn towards theta_1 = 1
    def grad(t):
        return np.array([1e-9, 0.0 if math.copysign(1.0, t[1]) < 0 else 1.0 - t[1]])

    return _Stub(lambda t: -0.5 * (t[1] - 1.0) ** 2, grad), np.array([1e9, -0.0])


STUBS = {"barrier": _barrier, "signed-zero": _signed_zero}


class _NumpyStartingAt:
    """numpy as the initializers module sees it, with zeros(p) the given start."""

    def __init__(self, start):
        self.start = start

    def zeros(self, p):
        return self.start.copy()

    def __getattr__(self, name):
        return getattr(np, name)


def _pilot_case(name):
    """(model, prior, start): a parity model from zero, or a stub that is its
    own flat prior."""
    if name in STUBS:
        stub, start = STUBS[name]()
        return stub, stub, start
    model, _ = _model(name)
    return model, SievePrior(1.0, model.n, 3), None


def _recorded(fn, log):
    def record(theta):
        log.append(np.asarray(theta).tobytes())
        return fn(theta)
    return record


def _run_recording(run, model):
    """run() with model.log_lik and grad_log_lik recording the bytes of their
    arguments; returns (result or the exception, log_lik args, gradient args)."""
    values, grads = [], []
    with mock.patch.object(model, "log_lik", _recorded(model.log_lik, values)), \
            mock.patch.object(model, "grad_log_lik", _recorded(model.grad_log_lik, grads)):
        try:
            result = run()
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            result = exc
    return result, values, grads


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from([*MODELS, *STUBS]),
       steps=st.integers(0, 700), rate=st.floats(1e-8, 1e2))
@example(name="glm-poisson", steps=700, rate=1e2)  # non-finite candidates
@example(name="darcy", steps=700, rate=1e2)  # a failed Darcy factorization reads -inf
@example(name="barrier", steps=700, rate=1e2)  # 50 failures in a row
@example(name="signed-zero", steps=700, rate=1.0)
def test_pilot_ascent_evaluates_each_distinct_point_once(name, steps, rate):
    # the pilot gives the oracle's bits or raises its error, evaluates the
    # objective once per distinct candidate byte string (the start included),
    # and the gradient once at the start and once per step that moves theta
    model, prior, start = _pilot_case(name)
    ref, ref_values, ref_grads = _run_recording(
        lambda: pilot_ascent_per_iteration(model, prior, steps=steps, rate=rate,
                                           start=start), model)
    started = (contextlib.nullcontext() if start is None
               else mock.patch.object(initializers, "np", _NumpyStartingAt(start)))
    with started:
        got, values, grads = _run_recording(
            lambda: pilot_ascent_init(model, prior, steps=steps, rate=rate), model)
    assert len(values) == len(set(values))
    assert set(values) == set(ref_values)
    # the oracle asks for the gradient at every iteration, so at each point
    # theta moved to before the next one; the pilot asks once per point
    assert grads == [point for point, _ in itertools.groupby(ref_grads)]
    if isinstance(ref, Exception):
        assert (type(got), str(got)) == (type(ref), str(ref))
        return
    theta_ref, info_ref, moves, last_move = ref
    theta, info = got
    _same(theta, theta_ref)
    assert {k: info[k] for k in info_ref} == info_ref
    assert (info["objective_evals"], info["gradient_evals"], info["last_move"]) == (
        len(values), 1 + moves, last_move)


# Rows at which a parity model's likelihood is not finite: outside the cube
# link's range (u < 0), a poisson A(b) that overflows, and for Darcy a
# factorization that fails and a conductivity that overflows.
NON_FINITE_ROWS = {
    "glm-gaussian-cube": [[-5.0, 0.0, 0.0]],
    "glm-poisson": [[800.0, 0.0, 0.0]],
    "darcy": [[35.0, 0.0, 0.0], [800.0, 0.0, 0.0]],
}
_row = st.tuples(st.floats(-3.0, 3.0), st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)),
       rows=st.lists(_row | st.integers(0, 1), min_size=1, max_size=40))
@example(name="glm-gaussian-cube", rows=[(0.0, [0.1, 0.0, 0.0]), 0, (-3.0, [1.0, 0.0, 0.0])])
@example(name="glm-poisson", rows=[0, (2.5, [1.0, 1.0, 1.0]), (0.0, [0.1, 0.2, 0.3])])
@example(name="darcy", rows=[(0.0, [0.1, 0.0, 0.0]), 0, 1, (-1.0, [1.0, -1.0, 0.0])])
@example(name="darcy", rows=[(0.0, [0.1, 0.0, 0.0]), (-1.0, [1.0, -1.0, 0.0]),
                             (-2.0, [0.5, 0.5, 0.5])])
@example(name="density", rows=[(3.0, [1.0, -1.0, 0.5])] * 40)
def test_log_lik_of_a_block_is_each_rows_log_lik(name, rows):
    # each row of a (B, p) block has the bits the first composition gets at
    # its point, -inf included; a row (e, v) is theta_init + 10^e v, an
    # integer a row of NON_FINITE_ROWS
    model, theta_init = _model(name)
    bad = NON_FINITE_ROWS.get(name, [])
    thetas = np.array([theta_init + 10.0 ** row[0] * np.array(row[1]) if isinstance(row, tuple)
                       else bad[row % len(bad)] if bad else theta_init for row in rows])
    got = model.log_lik(thetas)
    want = np.array([log_lik_composed(model, theta) for theta in thetas])
    assert got.shape == (len(thetas),)
    _same(got, want)
    for k, row in enumerate(rows):
        if not isinstance(row, tuple) and bad:
            assert got[k] == -np.inf


@pytest.mark.parametrize("name", sorted(MODELS))
def test_an_empty_block_gives_empty_results(name, capfd):
    # a (0, p) block does no work and is no error, for every model kind and
    # every forward operator: no LAPACK call, no Darcy state solved or
    # memoized, and nothing written to stderr
    model, theta_init = _model(name)
    p, n, op, x = model.p, model.n, model.forward, model.dataset.x
    empty = np.empty((0, p))
    assert model.log_lik(empty).shape == (0,)
    assert model.hessians(empty).shape == (0, p, p)
    if op is not None:
        op.values(theta_init, x)  # a Darcy operator keeps this point's state
        darcy = isinstance(op, Darcy1D)
        memo = (op.states_solved, list(op._state_keys), list(op._states)) if darcy else None
        with mock.patch.object(forward, "_lapack", side_effect=AssertionError("LAPACK call")):
            assert op.values(empty, x).shape == (0, n)
            values, grad, contract = op.hess_terms(empty, x)
            assert values.shape == (0, n)
            assert np.broadcast_shapes(grad.shape, (0, n, p)) == (0, n, p)
            assert contract(np.empty((0, n))).shape == (0, p, p)
            if darcy:
                assert op.solution(empty).shape == (0, op.M + 2)
        if darcy:
            assert (op.states_solved, op._state_keys) == memo[:2]
            assert all(a is b for a, b in zip(op._states, memo[2]))
    assert capfd.readouterr().err == ""


def _chosen_candidates(model, center, eta, n_probes, seed, skip):
    """The bytes of the candidates at the indices `skip` when a per-point
    probe (_oracles.curvature_probe_per_point) skips exactly those."""
    p, chosen = model.p, set()
    rng = np.random.default_rng(seed)
    for i in range(n_probes):
        direction = rng.standard_normal(p)
        direction /= math.sqrt(direction.dot(direction))
        theta = center + eta * rng.random() ** (1.0 / p) * direction
        rng.standard_normal((p, 2 * p))  # its directions, kept or not
        if i in skip:
            chosen.add(theta.tobytes())
    return chosen


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)), n_probes=st.integers(0, 80),
       skip=st.sets(st.integers(0, 79)), seed=st.integers(0, 2 ** 16))
@example(name="glm-gaussian", n_probes=48, skip={0, 15, 16, 31, 47}, seed=0)  # block ends
@example(name="density", n_probes=80, skip=set(range(16, 32)), seed=1)  # a whole block
@example(name="darcy", n_probes=37, skip=set(range(5, 30)) | {36}, seed=2)  # a run, and the last
@example(name="glm-poisson", n_probes=20, skip=set(range(20)), seed=3)  # every point
@example(name="glm-gaussian-cube", n_probes=50, skip=set(range(0, 50, 3)), seed=4)
def test_blocked_probe_skips_like_the_per_point_oracle(name, n_probes, skip, seed):
    # a likelihood that reads -inf at the chosen candidates: the blocked
    # probe skips exactly those, draws what the per-point loop draws, and
    # tests each candidate once, in blocks of at most PROBE_BLOCK
    model, center = _model(name)
    chosen = _chosen_candidates(model, center, ETA, n_probes, seed, skip)
    original, tested = model.log_lik, []

    def log_lik(theta):
        theta = np.asarray(theta)
        if theta.ndim == 2:
            tested.append(len(theta))
            return np.array([log_lik(t) for t in theta])
        return -math.inf if theta.tobytes() in chosen else original(theta)

    with mock.patch.object(model, "log_lik", log_lik):
        lam_min, lam_max, skipped = curvature_probe_per_point(model, center, ETA,
                                                              n_probes, seed)
        probe = model.curvature_probe(center, ETA, n_probes, seed)
    assert skipped == probe.skipped == len(skip & set(range(n_probes)))
    assert max(tested, default=0) <= PROBE_BLOCK
    assert sum(tested) == n_probes
    np.testing.assert_allclose([probe.lambda_min_est, probe.lambda_max_est],
                               [lam_min, lam_max], rtol=1e-12, atol=0)
