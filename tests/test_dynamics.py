import math
import re
import tracemalloc

import numpy as np
import pytest

import nlscrit as nc
from nlscrit import dynamics as dyn
from nlscrit import functionals as fnl
from nlscrit.dynamics import REFUSAL_REASONS, _RelaxationStepper, h1_distance


def test_zero_data_stays_zero(params_half, dyn_grid):
    psi0 = nc.Profile(dyn_grid, np.zeros(dyn_grid.n, dtype=complex))
    s = dyn.evolve(params_half, dyn_grid, psi0, dt=1e-2, t_end=0.5, stride=5)
    assert not s.blowup_flag
    assert np.all(s.mass == 0.0)
    assert np.all(s.energy == 0.0)


def test_linear_gaussian_spreading_oracle(params_half, dyn_grid):
    # free propagation of e^(-r^2/2): peak modulus decays as (1+4t^2)^(-N/4)
    g = dyn_grid
    psi0 = nc.Profile(g, np.exp(-g.nodes**2 / 2.0).astype(complex))
    s = dyn.evolve(params_half, g, psi0, dt=1e-3, t_end=1.0, stride=100, linear=True)
    ratio = abs(s.probe_values[-1]) / abs(s.probe_values[0])
    assert ratio == pytest.approx(5.0 ** (-0.75), rel=1e-3)
    assert np.max(np.abs(s.mass - s.mass[0])) < 1e-8 * s.mass[0]


def test_standing_wave(standing_summary, dyn_minimizer):
    s = standing_summary
    assert not s.blowup_flag
    # conservation per unit time over t in [0, 10]
    assert np.max(np.abs(s.mass - s.mass[0])) / 10.0 < 1e-8
    assert np.max(np.abs(s.energy - s.energy[0])) / 10.0 < 1e-6
    # the orbit stays on the initial profile modulo phase
    assert np.max(s.h1_distance) < 1e-4
    # modulus at the peak node drifts less than 1e-4
    peak0 = abs(s.probe_values[0])
    assert np.max(np.abs(np.abs(s.probe_values) - peak0)) < 1e-4 * peak0
    # phase rotates at rate -lambda
    ph = np.unwrap(np.angle(s.probe_values))
    slope = np.polyfit(s.times, ph, 1)[0]
    assert slope == pytest.approx(-dyn_minimizer.lam, rel=1e-4)


def perturbed_state(params, grid, base, eps=0.3):
    vals = (1.0 + eps * np.exp(-grid.nodes**2)) * base.values
    vals = vals * math.sqrt(params.a / float(np.dot(grid.full_weights, vals**2)))
    return nc.Profile(grid, vals.astype(complex))


def test_conservation_and_dt_scaling(params_half, dyn_grid, dyn_minimizer):
    pert = perturbed_state(params_half, dyn_grid, dyn_minimizer.final)
    drift = {}
    for dt in (2e-3, 1e-3):
        s = dyn.evolve(params_half, dyn_grid, pert, dt=dt, t_end=1.0, stride=10)
        drift[dt] = np.max(np.abs(s.energy - s.energy[0]))
        assert np.max(np.abs(s.mass - s.mass[0])) < 1e-8
        assert drift[dt] < 1e-6
    # second-order conservation: halving dt improves the drift ~fourfold
    ratio = drift[2e-3] / drift[1e-3]
    assert 2.5 < ratio < 6.5


def test_time_reversal(params_half, dyn_grid, dyn_minimizer):
    pert = perturbed_state(params_half, dyn_grid, dyn_minimizer.final, eps=0.1)
    st = _RelaxationStepper(params_half, dyn_grid, False)
    psi = pert.values.astype(complex)
    ups = st.potential(np.abs(psi) ** 2)
    for _ in range(1000):
        psi, ups = st.step(psi, ups, 1e-3)
    back = np.conj(psi)
    ups = st.potential(np.abs(back) ** 2)
    for _ in range(1000):
        back, ups = st.step(back, ups, 1e-3)
    err = h1_distance(dyn_grid, np.conj(back), pert.values.astype(complex))
    assert err < 1e-6


def test_stability_probe_bounded(stability_half):
    rep = stability_half
    assert rep.initial_distance > 0.0
    assert rep.growth_factor < 10.0
    assert not rep.summary.blowup_flag


def test_stability_probe_unperturbed(params_half, dyn_grid, dyn_minimizer):
    rep = dyn.stability_probe(params_half, dyn_grid, dyn_minimizer.final,
                              0.0, 10.0, dt=2e-3)
    assert rep.max_distance < 1e-4


def test_stability_probe_negative_eps(params_half, dyn_grid, dyn_minimizer):
    rep = dyn.stability_probe(params_half, dyn_grid, dyn_minimizer.final,
                              -1e-2, 10.0, dt=2e-3)
    assert rep.growth_factor < 10.0
    assert not rep.summary.blowup_flag


def test_stability_distance_ignores_the_scale_of_u(params_half, dyn_grid, dyn_minimizer):
    # psi0 is renormalized to mass a, and so is the reference: scaling u by
    # 2 changes neither
    u = dyn_minimizer.final
    reps = [dyn.stability_probe(params_half, dyn_grid, nc.Profile(dyn_grid, k * u.values),
                                1e-2, 0.04, dt=2e-3) for k in (1.0, 2.0)]
    assert reps[1].initial_distance == pytest.approx(reps[0].initial_distance, rel=1e-10)
    assert reps[0].initial_distance < 0.1


def test_blowup_probe_fires_on_witness(blowup_half):
    rep = blowup_half
    assert rep.blowup_flag
    assert rep.blowup_time is not None and rep.blowup_time < 10.0


def test_blowup_probe_quiet_on_standing_witness(params_half, focus_grid,
                                                focus_witness):
    _, witness = focus_witness
    rep = dyn.blowup_probe(params_half, focus_grid, witness, 1.0, 2.0, dt=1e-3)
    assert not rep.blowup_flag
    assert rep.grad_growth < 1.5


def test_blowup_probe_quiet_on_minimizer(params_half, focus_grid, focus_witness):
    umin, _ = focus_witness
    rep = dyn.blowup_probe(params_half, focus_grid, umin, 1.05, 5.0,
                           dt=1e-3, stride=50)
    assert not rep.blowup_flag
    assert rep.grad_growth < 2.0


def test_evolve_argument_validation(params_half, dyn_grid):
    psi0 = nc.Profile(dyn_grid, np.zeros(dyn_grid.n, dtype=complex))
    with pytest.raises(ValueError):
        dyn.evolve(params_half, dyn_grid, psi0, dt=-1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        dyn.evolve(params_half, dyn_grid, psi0, dt=1e-3, t_end=0.0)
    with pytest.raises(ValueError):
        dyn.blowup_probe(params_half, dyn_grid, psi0, -1.0, 1.0)
    # 1e10 / 1e-300 overflows: no step count, so no attempt budget
    with pytest.raises(ValueError, match=r"t_end = 10000000000\.0, dt = 1e-300"):
        dyn.evolve(params_half, dyn_grid, psi0, dt=1e-300, t_end=1e10)


@pytest.mark.parametrize("run", [
    lambda p, g, u, stride: dyn.evolve(p, g, u, dt=1e-3, t_end=1e-2, stride=stride),
    lambda p, g, u, stride: dyn.blowup_probe(p, g, u, 1.05, 1e-2, stride=stride),
], ids=["evolve", "blowup_probe"])
@pytest.mark.parametrize("stride", [0, -1])
def test_stride_below_one_is_refused(run, stride):
    # stride 0 would end in `steps % 0` after the first accepted step
    params = nc.ProblemParams(3, 2.5, 1.0, 1.0)
    g = nc.make_grid(3, 10.0, 256, 0.0, 0.5)
    u = nc.Profile(g, nc.gaussian(params, 1.0, g).values.astype(complex))
    with pytest.raises(ValueError, match="stride must be at least 1"):
        run(params, g, u, stride)


@pytest.mark.parametrize("stride", [math.nan, 2.5], ids=["nan", "2.5"])
def test_stride_that_is_no_integer_is_refused(stride):
    # `stride < 1` is false for both: nan recorded only t = 0 and t_end, and
    # 2.5 recorded every 5 steps
    params = nc.ProblemParams(3, 2.5, 1.0, 1.0)
    g = nc.make_grid(3, 10.0, 256, 0.0, 0.5)
    u = nc.Profile(g, nc.gaussian(params, 1.0, g).values.astype(complex))
    with pytest.raises(ValueError, match=f"an integer, got {stride!r}"):
        dyn.evolve(params, g, u, dt=1e-3, t_end=2e-2, stride=stride)


def test_numpy_integer_stride_is_accepted():
    params = nc.ProblemParams(3, 2.5, 1.0, 1.0)
    g = nc.make_grid(3, 10.0, 256, 0.0, 0.5)
    u = nc.Profile(g, nc.gaussian(params, 1.0, g).values.astype(complex))
    s = dyn.evolve(params, g, u, dt=1e-3, t_end=2e-2, stride=np.int64(4))
    assert np.array_equal(s.times, dyn.evolve(params, g, u, dt=1e-3, t_end=2e-2,
                                              stride=4).times)


@pytest.mark.parametrize("amplification", [math.nan, math.inf])
def test_amplification_must_be_positive_and_finite(amplification, recwarn):
    # nan and inf used to reach rescale (inf with a RuntimeWarning) and fail
    # there as "profile values must be finite"
    params = nc.ProblemParams(3, 2.5, 1.0, 1.0)
    g = nc.make_grid(3, 10.0, 256, 0.0, 0.5)
    u = nc.gaussian(params, 1.0, g)
    with pytest.raises(ValueError, match="amplification must be positive and finite"):
        dyn.blowup_probe(params, g, u, amplification, 1e-2)
    assert not recwarn.list


def dense_cayley_step(params, grid, psi, ups, dt):
    """psi+ from M+ psi+ = M- psi by a dense solve, M+- = W +- i dt/2 (A - W ups+),
    with A = D^T diag(k) D assembled from the interval stiffness k (D the
    node-to-node differences, 0 at the Dirichlet ghost node)."""
    n, W = grid.n, grid.full_weights
    D = np.eye(n, k=1) - np.eye(n)
    A = D.T @ (grid.interval_stiffness[:, None] * D)
    ts, q, mu = 2.0 * grid.dim / (grid.dim - 2.0), params.q, params.mu
    rho = np.abs(psi) ** 2
    ups_new = 2.0 * (rho ** (ts / 2.0 - 1.0) + mu * rho ** (q / 2.0 - 1.0)) - ups
    K = 0.5j * dt * (A - np.diag(W * ups_new))
    return np.linalg.solve(np.diag(W) + K, (np.diag(W) - K) @ psi), ups_new


def test_step_matches_dense_cayley_solve(params_half):
    g = nc.make_grid(3, 10.0, 64, origin_blend=0.5)
    psi = 0.5 * np.exp(-g.nodes**2 / 2.0 + 0.4j * g.nodes)
    st = _RelaxationStepper(params_half, g, False)
    ups = 0.9 * st.potential(np.abs(psi) ** 2)
    for dt in (1e-3, 2e-2):
        new, ups_new = st.step(psi, ups, dt)
        want, want_ups = dense_cayley_step(params_half, g, psi, ups, dt)
        np.testing.assert_allclose(ups_new, want_ups, rtol=1e-14, atol=0)
        assert np.max(np.abs(new - want)) <= 1e-12 * np.max(np.abs(want))
    assert st.refused == dict.fromkeys(REFUSAL_REASONS, 0)


@pytest.mark.parametrize("dim,q", [(3, 2.5), (4, 2.5), (5, 2.4), (6, 2.2)])
def test_potential_fast_paths_match_pow(dim, q):
    params = nc.ProblemParams(dim, q, 1.3, 1.0)
    st = _RelaxationStepper(params, nc.make_grid(dim, 10.0, 64), False)
    rho = np.concatenate([[0.0], np.logspace(-30, 4, 341)])
    ts = 2.0 * dim / (dim - 2.0)
    want = rho ** (ts / 2.0 - 1.0) + 1.3 * rho ** (q / 2.0 - 1.0)
    np.testing.assert_allclose(st.potential(rho), want, rtol=1e-15, atol=0)


def test_resolution_cap_refusals_are_counted(params_half, dyn_grid):
    psi = 0.5 * np.exp(-dyn_grid.nodes**2).astype(complex)
    st = _RelaxationStepper(params_half, dyn_grid, False)
    ups = st.potential(np.abs(psi) ** 2)
    cap_dt = dyn.RESOLUTION_CAP / np.max(np.abs(ups))   # ups+ = ups here
    assert st.step(psi, ups, 2.0 * cap_dt) is None
    assert st.step(psi, ups, 0.5 * cap_dt) is not None
    assert st.refused == {**dict.fromkeys(REFUSAL_REASONS, 0), "resolution_cap": 1}
    # evolve halves its step (6, 3, 1.5 caps) until it fits, and says how often
    s = dyn.evolve(params_half, dyn_grid, nc.Profile(dyn_grid, psi),
                   dt=6.0 * cap_dt, t_end=6.0 * cap_dt, stride=1)
    assert s.refused_steps["resolution_cap"] == 3
    assert s.steps == 8 and not s.blowup_flag


BUDGET_ERROR = re.compile(
    r"time stepping exceeded the attempt budget of (\d+) attempts at t = (\S+) of "
    r"t_end = 0\.01: (\d+) steps taken, dt now (\S+), refused attempts: "
    r"resolution_cap (\d+), growth (\d+), nonfinite (\d+), singular (\d+); "
    r"the step size may be collapsing")


def test_attempt_budget_error_says_why(params_half):
    # fine cells at the origin under a narrow gaussian: the resolution cap
    # holds dt far below what t_end needs, and the message says so
    g = nc.make_grid(3, 30.0, 128, origin_blend=0.02)
    with pytest.raises(RuntimeError) as exc:
        dyn.evolve(params_half, g, nc.gaussian(params_half, 0.2, g), dt=1e-3, t_end=0.01)
    m = BUDGET_ERROR.fullmatch(str(exc.value))
    assert m, str(exc.value)
    budget, t, steps, dt_now, *refused = m.groups()
    assert int(budget) == 50 * 10 + 10000
    assert int(steps) + sum(map(int, refused)) == int(budget)   # one count per attempt
    assert 0.0 < float(t) < 0.01
    assert float(dt_now) < 1e-6 and int(refused[0]) > 0


def _power_alloc(rho, e):
    if e == 2.0:
        return rho * rho
    if e == 1.0:
        return rho
    if e == 0.5:
        return np.sqrt(rho)
    if e == 0.25:
        return np.sqrt(np.sqrt(rho))
    return rho ** e


class AllocatingStepper(_RelaxationStepper):
    """The step as written before the workspace: every quantity a fresh array."""

    def potential(self, rho):
        if self.linear:
            return np.zeros_like(rho)
        ex, mu = self.params.ex, self.params.mu
        with np.errstate(under="ignore"):
            return (_power_alloc(rho, ex.two_star / 2.0 - 1.0)
                    + mu * _power_alloc(rho, self.params.q / 2.0 - 1.0))

    def density_potential(self, psi):
        return self.potential((psi * psi.conj()).real)

    def grad_l2_sq(self, psi):
        return nc.grad_l2_sq(self.grid, psi)

    def step(self, psi, ups, dt):
        ups_new = 2.0 * self.density_potential(psi) - ups
        top = float(np.max(np.abs(ups_new)))
        if not math.isfinite(top):
            return self._refuse("nonfinite")
        if not self.linear and dt * top > dyn.RESOLUTION_CAP:
            return self._refuse("resolution_cap")
        W = self.grid.full_weights
        diag, off = self.grid.stiffness_bands()
        idt2 = 0.5j * dt
        try:
            x = nc.grid.tridiag_solve(idt2 * off, (W + idt2 * diag) - (idt2 * W) * ups_new,
                                      W * psi)
        except np.linalg.LinAlgError:
            return self._refuse("singular")
        new = 2.0 * x - psi
        if not np.isfinite(new).all():
            return self._refuse("nonfinite")
        return new, ups_new


def assert_same_summary(a, b):
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype and np.array_equal(value, other), name
        else:
            assert value == other, name


def test_workspace_steps_are_the_allocating_steps_bit_for_bit(
        params_half, dyn_grid, dyn_minimizer, focus_grid, focus_witness, monkeypatch):
    # a narrow gaussian collapses: its steps are retried after growth refusals
    g = nc.make_grid(3, 30.0, 2048, origin_blend=0.05)
    narrow = nc.Profile(g, nc.gaussian(params_half, 0.5, g).values.astype(complex))
    runs = {
        "collapse": lambda: dyn.evolve(params_half, g, narrow, 1e-3, 0.05),
        "blowup": lambda: dyn.blowup_probe(params_half, focus_grid, focus_witness[1],
                                           1.05, 10.0, dt=1e-3, stride=10).summary,
        "stability": lambda: dyn.stability_probe(params_half, dyn_grid,
                                                 dyn_minimizer.final, 1e-2, 1.0).summary,
        "linear": lambda: dyn.evolve(params_half, dyn_grid, dyn_minimizer.final, 1e-3, 0.2,
                                     linear=True),
    }
    got = {key: run() for key, run in runs.items()}
    assert got["collapse"].refused_steps["growth"] > 0
    assert got["blowup"].refused_steps["resolution_cap"] > 0
    monkeypatch.setattr(dyn, "_RelaxationStepper", AllocatingStepper)
    for key, run in runs.items():
        assert_same_summary(got[key], run())


def test_accepted_steps_allocate_no_grid_array(params_half):
    g = nc.make_grid(3, 30.0, 8192, origin_blend=0.5)
    psi = (0.5 * np.exp(-g.nodes**2 / 4.0)).astype(complex)
    st = _RelaxationStepper(params_half, g, False)
    ups = st.density_potential(psi)
    psi, ups = st.step(psi, ups, 1e-3)    # builds the bands of this step size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            psi, ups = st.step(psi, ups, 1e-3)
            st.grad_l2_sq(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.refused == dict.fromkeys(REFUSAL_REASONS, 0)
    assert peak - before < 8 * g.n     # less than one real grid array


@pytest.mark.parametrize("run", [
    lambda p, g, u: dyn.evolve(p, g, u, dt=1e-3, t_end=1e-2),
    lambda p, g, u: dyn.evolve(p, g, nc.Profile(g, u.values), dt=1e-3, t_end=1e-2,
                               reference=u),
    lambda p, g, u: dyn.stability_probe(p, g, u, 1e-2, 1e-2),
    lambda p, g, u: dyn.blowup_probe(p, g, u, 1.05, 1e-2),
], ids=["evolve", "evolve-reference", "stability_probe", "blowup_probe"])
def test_profile_on_another_grid_is_refused(run):
    # same dimension and n, another r_max: the norms would be taken on nodes
    # the profile was never sampled on (a mass-1 gaussian recorded mass 0.037)
    params = nc.ProblemParams(3, 2.5, 1.0, 1.0)
    wide, narrow = nc.make_grid(3, 30.0, 256, 0.0, 0.5), nc.make_grid(3, 10.0, 256, 0.0, 0.5)
    u = nc.Profile(wide, nc.gaussian(params, 1.0, wide).values.astype(complex))
    with pytest.raises(ValueError, match="the profile lives on another grid"):
        run(params, narrow, u)


def test_blowup_probe_runs_the_exact_dilation_on_its_own_grid():
    # the datum is tau^(N/2) v on the grid of nodes r_i / tau, the grid the
    # report returns: its first energy is the fiber map psi(tau) of v
    params = nc.ProblemParams(3, 2.5, 1.0, 1.0)
    g = nc.make_grid(3, 10.0, 256, 0.0, 0.5)
    v = nc.gaussian(params, 1.0, g)
    v = nc.Profile(g, v.values * math.sqrt(params.a / nc.mass(g, v)))
    amp = 1.25
    rep = dyn.blowup_probe(params, g, v, amp, 1e-2)
    assert (rep.grid.r_max, rep.grid.n) == ((1.0 / amp) * g.r_max, g.n)
    assert np.array_equal(rep.grid.nodes, (1.0 / amp) * g.nodes)
    nm = fnl.fiber_norms(params, g, v)
    assert rep.summary.energy[0] == pytest.approx(fnl.psi_value(params, nm, amp), rel=1e-13)
