from collections import namedtuple
from functools import lru_cache
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

from regenjump.driver import BetaLaw, DriverConfig, EtaLaw
from regenjump.errors import CycleCapExceeded
from regenjump.estimators import CycleSet
from regenjump.functionals import (
    AffineShift,
    Functional,
    IdentityV2,
    Linear,
    NormV2,
    integrate_segment,
)
from regenjump.plaplace import Grid1D, PLaplaceConfig, PLaplaceSemigroup, WeightField
from regenjump.process import (
    CycleMoments,
    ExtinctionPolicy,
    cycle_moments,
    simulate_cycles,
    simulate_until_time,
)
from regenjump import process
from regenjump.semigroup import ExtinctionParams, ScalarPowerLaw
from regenjump.spaces import scalar_space

from _oracles import chain_by_steps, horizon_by_steps, records_by_steps

SCALAR = scalar_space()
POLICY = ExtinctionPolicy(eps_ext=1e-12)


def scalar_sg(kappa=1.0, rho=0.5):
    return ScalarPowerLaw(ExtinctionParams(kappa, rho), SCALAR)


def stochastic_driver(seed=123):
    return DriverConfig(BetaLaw.exponential(1.0), EtaLaw.scalar_uniform(1.0), seed)


def deterministic_driver(seed=1):
    return DriverConfig(BetaLaw.deterministic(3.0), EtaLaw.scalar_constant(1.0), seed)


Step = namedtuple("Step", "state t t_end extinct after")


def horizon_of_one(x0, driver, sg, policy, t_end, fns, checkpoints=None, replicate_index=0):
    """simulate_until_time over a block of one replicate, as that replicate's row."""
    res = simulate_until_time(
        [x0], driver, sg, policy, t_end, fns, checkpoints, replicate_indices=[replicate_index]
    )
    return horizon_row(res, 0)


def horizon_row(res, r):
    """Row r of a block's horizon result, with its own span of the cycle lengths."""
    spans = np.cumsum(np.concatenate(([0], res.counts[:, -1] + 1)))
    # The block's cycle lengths are exactly its rows' spans: no extra cycles, none missing.
    assert spans[-1] == res.cycle_tau.shape[0]
    return SimpleNamespace(
        checkpoints=res.checkpoints,
        integrals={k: v[r] for k, v in res.integrals.items()},
        counts=res.counts[r],
        index_s={k: v[r] for k, v in res.index_s.items()},
        index_tau=res.index_tau[r],
        cycle_tau=res.cycle_tau[spans[r] : spans[r + 1]],
    )


def chain_prefix(x0, driver, sg, policy, n_steps, fns=()):
    """The scalar table's first n_steps steps of replicate 0, off its recorded windows."""
    chain = process._chain(x0, driver, sg, policy, list(fns), 0)
    states, alphas, extinct = [], [0.0], []
    while len(states) <= n_steps:  # one state past the last step: its post-kick state
        w = chain.advance(1)
        states += [x0.space.state([x]) for x in w.states.tolist()]
        alphas += w.alpha[1:].tolist()
        ends = np.zeros(len(w.states), dtype=bool)
        ends[w.ends - 1] = True
        extinct += ends.tolist()
    return [
        Step(states[m], alphas[m], alphas[m + 1], extinct[m], states[m + 1])
        for m in range(n_steps)
    ]


def chain_inputs(driver, n_steps):
    """The (betas, etas) the first n_steps steps of replicate 0 consume."""
    streams = driver.streams(0)
    betas = driver.beta.sample_block(streams.beta_rng, n_steps).tolist()
    etas = driver.eta.sample_block(streams.eta_rng, n_steps).tolist()
    return betas, etas


def reference_step(prev, beta, eta, sg, policy):
    """One chain step by its definition: flow, snap at the threshold, kick."""
    pre = sg.evolve(SCALAR.state([prev]), beta).scalar
    extinct = abs(pre) <= policy.eps_ext
    return (eta if extinct else pre + eta), extinct


class FirstThen:
    """A beta or scalar kick law stub: draws ``first`` once, then ``then`` forever."""

    kind = "scalar_constant"

    def __init__(self, first, then):
        self.first, self.then = first, then

    def mean(self):
        return self.then

    def sample_block(self, rng, n):
        out = np.full(n, self.then)
        if self.first is not None:
            out[0], self.first = self.first, None
        return out


def first_step(x0, beta, eta, sg, policy=POLICY):
    # a long second step closes the cycle, so the window holds the first step
    driver = DriverConfig(FirstThen(beta, 1e6), FirstThen(eta, 0.0), 1)
    return chain_prefix(SCALAR.state([x0]), driver, sg, policy, 1)[0]


def test_step_chain_examples():
    sg = scalar_sg()
    step = first_step(0.0, 5.0, 1.0, sg)
    assert step.after.scalar == 1.0 and step.extinct

    step = first_step(1.0, 0.25, 0.5, sg)
    assert step.after.scalar == pytest.approx(1.0625, abs=1e-15) and not step.extinct

    step = first_step(1.0, 2.0, 0.3, sg)
    assert step.after.scalar == 0.3 and step.extinct


def test_step_chain_threshold_snaps_to_kick():
    sg = scalar_sg()
    policy = ExtinctionPolicy(eps_ext=1e-2)
    prev = SCALAR.state([1.0])
    # beta just under the extinction time: tiny positive pre-kick value
    beta = 0.9999999
    pre = sg.evolve(prev, beta)
    assert 0.0 < pre.scalar <= 1e-2
    step = first_step(1.0, beta, 0.5, sg, policy)
    assert step.extinct and step.after.scalar == 0.5  # bit-exact regeneration


def test_chain_invariants():
    sg = scalar_sg()
    driver = stochastic_driver(7)
    steps = chain_prefix(SCALAR.zero(), driver, sg, POLICY, 200)
    betas, etas = chain_inputs(driver, 200)
    assert steps[0].t == 0.0
    alphas = np.array([0.0] + [s.t_end for s in steps])
    assert np.all(np.diff(alphas) > 0)
    assert abs(alphas[-1] - sum(betas)) <= 1e-12 * max(1.0, alphas[-1])
    for m, step in enumerate(steps):
        expected, extinct = reference_step(step.state.scalar, betas[m], etas[m], sg, POLICY)
        assert expected == step.after.scalar and extinct == step.extinct
        assert step.t == alphas[m]


def test_evaluate_path_cadlag():
    sg = scalar_sg()
    steps = chain_prefix(SCALAR.state([1.0]), deterministic_driver(), sg, POLICY, 3)
    # value at a jump time is the post-jump state
    assert steps[1].state.scalar == steps[0].after.scalar
    # interior point follows the closed-form flow: t = 0.5 from state 1.0
    mid = sg.evolve(steps[0].state, 0.5)
    assert mid.scalar == pytest.approx(0.25, abs=1e-15)
    # beyond the extinction time inside a segment the path is exactly zero
    assert sg.evolve(steps[0].state, 1.5).scalar == 0.0


def test_chain_path_consistency():
    sg = scalar_sg()
    driver = stochastic_driver(11)
    steps = chain_prefix(SCALAR.zero(), driver, sg, POLICY, 100)
    _, etas = chain_inputs(driver, 100)
    for m, step in enumerate(steps[:30]):
        just_before = sg.evolve(step.state, (step.t_end - 1e-12) - step.t)
        reconstructed = just_before.scalar
        if not step.extinct:
            assert abs(reconstructed + etas[m] - step.after.scalar) <= 1e-9


def test_deterministic_cycles_oracle():
    # beta = 3, eta = 1: every cycle has m_end = m_start + 1, tau = 3, S = 1/3
    sg = scalar_sg()
    recs = list(
        simulate_cycles(
            SCALAR.zero(), deterministic_driver(), sg, POLICY, 50, [NormV2(SCALAR)]
        )
    )
    warm = recs[0]
    assert warm.is_warmup and warm.m_end == 1  # T(beta) 0 = 0 extinguishes at once
    for rec in recs[1:]:
        assert rec.m_end == rec.m_start + 1
        assert rec.tau == 3.0
        assert rec.integrals["norm_v2"] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_every_step_extinct_when_beta_large():
    # beta == 4 > amp^rho / kappa for U[-1,1] kicks: e(n) = n
    driver = DriverConfig(BetaLaw.deterministic(4.0), EtaLaw.scalar_uniform(1.0), 5)
    sg = scalar_sg()
    recs = list(
        simulate_cycles(SCALAR.zero(), driver, sg, POLICY, 30, [NormV2(SCALAR)])
    )
    for rec in recs:
        assert rec.m_end == rec.m_start + 1


def test_cycle_monotonicity_and_regeneration_law():
    sg = scalar_sg()
    driver = stochastic_driver(17)
    recs = list(
        simulate_cycles(SCALAR.zero(), driver, sg, POLICY, 500, [NormV2(SCALAR)])
    )
    prev_end = None
    for rec in recs:
        assert rec.m_end >= rec.m_start + 1
        assert rec.tau > 0
        if prev_end is not None:
            assert rec.m_start == prev_end
        prev_end = rec.m_end
    # e_x(n) >= n
    ends = [rec.m_end for rec in recs]
    assert all(e >= n + 1 for n, e in enumerate(ends))


def test_cycle_boundary_state_is_kick_bit_exact():
    sg = scalar_sg()
    driver = stochastic_driver(23)
    steps = chain_prefix(SCALAR.zero(), driver, sg, POLICY, 400)
    _, etas = chain_inputs(driver, 400)
    for m in range(400):
        if steps[m].extinct:
            assert steps[m].after.scalar == etas[m]


def test_bounded_growth_within_cycles():
    sg = scalar_sg()
    driver = stochastic_driver(29)
    steps = chain_prefix(SCALAR.zero(), driver, sg, POLICY, 300)
    _, etas = chain_inputs(driver, 300)
    kick_sum = 0.0
    for m in range(300):
        kick_sum += abs(etas[m])
        assert steps[m].after.norm_v2() <= kick_sum + 1e-9
        if steps[m].extinct:
            kick_sum = abs(etas[m])


def test_cycle_cap():
    # kappa tiny: extinction effectively never happens
    sg = scalar_sg(kappa=1e-9)
    driver = DriverConfig(BetaLaw.deterministic(0.1), EtaLaw.scalar_constant(1.0), 1)
    policy = ExtinctionPolicy(eps_ext=1e-12, m_cap=50)
    with pytest.raises(CycleCapExceeded):
        list(
            simulate_cycles(SCALAR.state([1.0]), driver, sg, policy, 1, [NormV2(SCALAR)])
        )


def test_fast_loop_matches_generic_bit_exactly():
    sg = scalar_sg()
    driver = stochastic_driver(31)
    fns = [NormV2(SCALAR), IdentityV2(SCALAR), AffineShift(NormV2(SCALAR), -0.2)]
    fast = list(simulate_cycles(SCALAR.zero(), driver, sg, POLICY, 200, fns))
    slow = records_by_steps(SCALAR.zero(), driver, sg, POLICY.eps_ext, fns, 200)
    assert record_tuples(fast) == slow


def test_moments_match_records():
    sg = scalar_sg()
    driver = stochastic_driver(37)
    fns = [NormV2(SCALAR)]
    moments = cycle_moments(SCALAR.zero(), driver, sg, POLICY, 300, fns)
    recs = CycleSet.from_records(
        simulate_cycles(SCALAR.zero(), driver, sg, POLICY, 300, fns)
    )
    s = recs.integrals["norm_v2"]
    assert moments.n == 300
    assert moments.sum_tau == pytest.approx(np.sum(recs.tau), rel=1e-14)
    assert moments.sum_s["norm_v2"] == pytest.approx(np.sum(s), rel=1e-14)
    assert moments.sum_s2["norm_v2"] == pytest.approx(np.sum(s * s), rel=1e-13)
    assert moments.sum_s_tau["norm_v2"] == pytest.approx(np.sum(s * recs.tau), rel=1e-13)


def test_moments_merge():
    a = CycleMoments(labels=["f"])
    a.add(1.0, {"f": 2.0})
    b = CycleMoments(labels=["f"])
    b.add(3.0, {"f": -1.0})
    c = a.merge(b)
    assert c.n == 2 and c.sum_tau == 4.0 and c.sum_s["f"] == 1.0


def test_horizon_deterministic_example():
    # integral over [0, 6] = warm-up 0 + one cycle 1/3; two regenerations by t = 6
    sg = scalar_sg()
    res = horizon_of_one(
        SCALAR.zero(),
        deterministic_driver(),
        sg,
        POLICY,
        6.0,
        [NormV2(SCALAR)],
        checkpoints=[3.0, 6.0],
    )
    assert np.allclose(res.integrals["norm_v2"], [0.0, 1.0 / 3.0], atol=1e-15)
    assert list(res.counts) == [1, 2]
    assert res.cycle_tau.shape[0] == res.counts[-1] + 1
    assert np.all(res.cycle_tau == 3.0)


def test_horizon_short_of_first_jump():
    sg = scalar_sg()
    driver = deterministic_driver()
    res = horizon_of_one(
        SCALAR.state([1.0]), driver, sg, POLICY, 0.5, [NormV2(SCALAR)]
    )
    # single segment: integral of (1 - tau)^2 on [0, 0.5]
    assert res.integrals["norm_v2"][0] == pytest.approx((1 - 0.5**3) / 3.0 - 0.0, abs=1e-12)
    assert res.counts[0] == 0


def test_horizon_monotone_integrals_for_nonnegative():
    sg = scalar_sg()
    driver = stochastic_driver(41)
    cps = [5.0, 10.0, 20.0, 40.0]
    res = horizon_of_one(
        SCALAR.zero(), driver, sg, POLICY, 40.0, [NormV2(SCALAR)], checkpoints=cps
    )
    vals = res.integrals["norm_v2"]
    assert np.all(np.diff(vals) >= 0)
    assert np.all(np.diff(res.counts) >= 0)


def test_horizon_fast_matches_generic():
    sg = scalar_sg()
    driver = stochastic_driver(43)
    fns = [NormV2(SCALAR), Linear(SCALAR, [1.0], label="mass")]
    cps = [2.0, 7.5, 15.0]
    fast = horizon_of_one(SCALAR.zero(), driver, sg, POLICY, 15.0, fns, checkpoints=cps)
    slow = horizon_by_steps(SCALAR.zero(), driver, sg, POLICY.eps_ext, fns, cps)
    assert np.all(fast.counts == slow.counts)
    assert np.all(fast.cycle_tau == slow.cycle_tau)
    assert fast.index_tau.tobytes() == slow.index_tau.tobytes()
    for label in ("norm_v2", "mass"):
        assert np.all(fast.integrals[label] == slow.integrals[label])
        assert fast.index_s[label].tobytes() == slow.index_s[label].tobytes()


def test_horizon_cycle_arrays_cover_random_index():
    sg = scalar_sg()
    driver = stochastic_driver(47)
    res = horizon_of_one(
        SCALAR.zero(), driver, sg, POLICY, 50.0, [NormV2(SCALAR)]
    )
    assert res.cycle_tau.shape[0] == int(res.counts[-1]) + 1
    total = 0.0
    for tau in res.cycle_tau.tolist():  # in order (sum() compensates from 3.12)
        total += tau
    assert res.index_tau[-1] == total


# --- the scalar regeneration table against the per-step oracle, bit for bit


ALL_SCALAR_KINDS = [
    NormV2(SCALAR),
    IdentityV2(SCALAR),
    Linear(SCALAR, [1.7], label="lin"),
    AffineShift(Linear(SCALAR, [-0.3], label="lin2"), 0.25, label="lin2+shift"),
    AffineShift(NormV2(SCALAR), -0.2),
]


def table_sizes(monkeypatch, window, lane_steps):
    if window is not None:
        monkeypatch.setattr(process, "_WINDOW", window)
    if lane_steps is not None:
        monkeypatch.setattr(process, "_LANE_STEPS", lane_steps)


def record_tuples(records):
    return [
        (r.n, r.m_start, r.m_end, r.t_start, r.t_end, r.tau, r.steps,
         {label: np.asarray(s).tobytes() for label, s in r.integrals.items()})
        for r in records
    ]


def moments_tuple(m):
    return (m.n, m.sum_tau, m.sum_tau2, m.sum_s, m.sum_s2, m.sum_s_tau)


def horizon_tuple(res):
    return (
        res.checkpoints.tobytes(),
        res.counts.tobytes(),
        res.cycle_tau.tobytes(),
        {k: v.tobytes() for k, v in res.integrals.items()},
        {k: v.tobytes() for k, v in res.index_s.items()},
        res.index_tau.tobytes(),
    )


def oracle_moments(records, fns):
    ref = CycleMoments(labels=[xi.label for xi in fns])
    for rec in records[1:]:  # the warm-up is not a cycle; the loop's order of additions
        ref.add(rec[5], {label: np.frombuffer(s)[0] for label, s in rec[7].items()})
    return ref


def assert_all_drivers_match_oracle(x0, driver, sg, policy, fns, n_cycles, cps):
    slow = records_by_steps(x0, driver, sg, policy.eps_ext, fns, n_cycles, replicate_index=3)
    fast = simulate_cycles(x0, driver, sg, policy, n_cycles, fns, replicate_index=3)
    assert record_tuples(fast) == slow

    got = cycle_moments(x0, driver, sg, policy, n_cycles, fns, replicate_index=3)
    assert moments_tuple(got) == moments_tuple(oracle_moments(slow, fns))

    fast_h = horizon_of_one(
        x0, driver, sg, policy, cps[-1], fns, checkpoints=cps, replicate_index=5
    )
    slow_h = horizon_by_steps(x0, driver, sg, policy.eps_ext, fns, cps, replicate_index=5)
    assert horizon_tuple(fast_h) == horizon_tuple(slow_h)


@pytest.mark.parametrize("rho", [0.45, 0.5, 0.7])
@pytest.mark.parametrize("x0", [0.0, 9.0, -40.0])
def test_table_matches_generic_across_rho_and_start(rho, x0):
    sg = ScalarPowerLaw(ExtinctionParams(1.0, rho), SCALAR)
    driver = DriverConfig(BetaLaw.exponential(1.5), EtaLaw.scalar_uniform(1.2), 71)
    assert_all_drivers_match_oracle(
        SCALAR.state([x0]), driver, sg, POLICY, ALL_SCALAR_KINDS, 300, [0.7, 13.0, 60.0]
    )


@pytest.mark.parametrize(
    "beta_law",
    [
        BetaLaw.exponential(1.0),
        BetaLaw.uniform(0.2, 1.5),
        BetaLaw.gamma(2.0, 0.4),
        # many betas below 1e-16: the flow's power round trip then needs
        # evolve's ulp clamp
        BetaLaw.gamma(0.05, 20.0),
        BetaLaw.deterministic(0.7),
        # about 2% of these betas underflow to exactly 0.0, where T(0) = I
        BetaLaw.gamma(0.005, 200.0),
    ],
)
@pytest.mark.parametrize("eta_law", [EtaLaw.scalar_uniform(1.0), EtaLaw.scalar_constant(0.4)])
def test_table_matches_generic_across_laws(beta_law, eta_law):
    sg = scalar_sg(kappa=1.3, rho=0.5)
    driver = DriverConfig(beta_law, eta_law, 73)
    assert_all_drivers_match_oracle(
        SCALAR.zero(), driver, sg, POLICY, ALL_SCALAR_KINDS[:3], 200, [5.0, 40.0]
    )


@pytest.mark.parametrize(
    "window, lane_steps", [(None, None), (64, None), (64, 3), (None, 1), (1, 1)]
)
def test_table_windows_match_generic(monkeypatch, window, lane_steps):
    # small windows and lane bounds carry open cycles and unused inputs
    # across many windows; every size must give the per-step loop's bits
    table_sizes(monkeypatch, window, lane_steps)
    sg = scalar_sg(rho=0.45)
    driver = stochastic_driver(79)
    assert_all_drivers_match_oracle(
        SCALAR.state([3.0]), driver, sg, POLICY, ALL_SCALAR_KINDS, 400, [1.5, 50.0, 333.3]
    )


@pytest.mark.parametrize("window, lane_steps", [(None, None), (64, None), (64, 3)])
def test_table_long_warmup_matches_generic(monkeypatch, window, lane_steps):
    # |x0|**rho = 400: the warm-up spans hundreds of steps, longer than a
    # window and than a lane's steps per window
    table_sizes(monkeypatch, window, lane_steps)
    sg = scalar_sg()
    driver = stochastic_driver(83)
    policy = ExtinctionPolicy(eps_ext=1e-12, m_cap=5_000)
    slow = records_by_steps(SCALAR.state([160_000.0]), driver, sg, policy.eps_ext, [], 0)
    assert slow[0][6] > 300  # the warm-up's steps
    assert_all_drivers_match_oracle(
        SCALAR.state([160_000.0]), driver, sg, policy, ALL_SCALAR_KINDS, 50, [100.0, 500.0]
    )


@pytest.mark.parametrize("window", [None, 64])
def test_table_checkpoints_on_jump_times(monkeypatch, window):
    table_sizes(monkeypatch, window, None)
    sg = scalar_sg()
    driver = stochastic_driver(89)
    fns = ALL_SCALAR_KINDS
    steps = chain_prefix(SCALAR.zero(), driver, sg, POLICY, 400)
    regen_times = [s.t_end for s in steps if s.extinct]
    plain_times = [s.t_end for s in steps if not s.extinct]
    # a jump time that ends a cycle, one inside a cycle, one between jumps
    cps = sorted([regen_times[10], plain_times[20], 0.5 * (plain_times[40] + plain_times[41])])
    cps.append(regen_times[60])
    slow_h = horizon_by_steps(SCALAR.zero(), driver, sg, POLICY.eps_ext, fns, cps)
    fast_h = horizon_of_one(SCALAR.zero(), driver, sg, POLICY, cps[-1], fns, checkpoints=cps)
    assert horizon_tuple(fast_h) == horizon_tuple(slow_h)
    assert fast_h.counts[0] == 11 and fast_h.counts[-1] == 61


def test_table_default_and_small_windows_agree(monkeypatch):
    sg = scalar_sg()
    driver = stochastic_driver(97)
    fns = [NormV2(SCALAR), IdentityV2(SCALAR)]
    runs = []
    for window in (1 << 16, 64):
        monkeypatch.setattr(process, "_WINDOW", window)
        runs.append((
            moments_tuple(cycle_moments(SCALAR.zero(), driver, sg, POLICY, 5000, fns)),
            horizon_tuple(horizon_of_one(SCALAR.zero(), driver, sg, POLICY, 2000.0, fns)),
        ))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("window, lane_steps", [(None, None), (64, None), (64, 2)])
@pytest.mark.parametrize("x0", [0.0, 2500.0])
def test_table_long_cycles_match_generic(monkeypatch, window, lane_steps, x0):
    # gamma(0.02, 50) betas: cycles of about 16 steps on average and up to
    # about 110, so most cycles outlast a tabulated lane's steps and are
    # finished by stepping them alone
    table_sizes(monkeypatch, window, lane_steps)
    sg = scalar_sg()
    driver = DriverConfig(BetaLaw.gamma(0.02, 50.0), EtaLaw.scalar_uniform(1.0), 107)
    slow = records_by_steps(SCALAR.state([x0]), driver, sg, POLICY.eps_ext, [], 60)
    assert max(r[6] for r in slow) > 8 * process._LANE_STEPS
    assert_all_drivers_match_oracle(
        SCALAR.state([x0]), driver, sg, POLICY, ALL_SCALAR_KINDS[:4], 60, [3.0, 250.0, 900.0]
    )


def test_table_horizon_memory_is_linear_in_the_window(monkeypatch):
    # cycles of about 94 steps, a horizon (or an estimation run) of about 20
    # windows: the memory a window holds must not grow with the cycle length
    import tracemalloc

    monkeypatch.setattr(process, "_WINDOW", 2048)
    sg = scalar_sg()
    driver = DriverConfig(BetaLaw.gamma(0.002, 500.0), EtaLaw.scalar_uniform(1.0), 109)
    fns = ALL_SCALAR_KINDS[:4]
    runs = {  # each driver, and the cycles it closed
        "horizon": lambda: horizon_of_one(
            SCALAR.zero(), driver, sg, POLICY, 40_000.0, fns
        ).counts[-1],
        "moments": lambda: cycle_moments(SCALAR.zero(), driver, sg, POLICY, 250, fns).n,
        # 64 replicates of about 730 lanes each: one table of them all would
        # peak at about 11 MB, but tables hold at most the window's lanes
        "block": lambda: simulate_until_time(
            [SCALAR.zero()] * 64, driver, sg, POLICY, 600.0, fns
        ).counts[:, -1].sum(),
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            closed = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert closed > 200, name
        # the kernel peaks at about 0.4 MB here; logging every live lane at
        # every step of lanes up to 256 steps long takes about 13 MB
        assert peak < 2_000_000, f"{name}: peak {peak} bytes"


# --- blocks of horizon replicates: each row is its replicate's run alone, bit for bit


def table_blocks(monkeypatch):
    """Records the chains of every table made; returns that list."""
    blocks = []
    table = process._ScalarChain._table

    def recorded(block):
        if block:
            blocks.append([chain for chain, *_ in block])
        return table(block)

    monkeypatch.setattr(process._ScalarChain, "_table", recorded)
    return blocks


def assert_block_rows_match_the_oracle(monkeypatch, x0s, driver, sg, policy, fns, cps, indices):
    """Each replicate alone and as a row of the block, against the oracle; returns
    the number of chains in each table the block made."""
    refs = [
        horizon_by_steps(x0, driver, sg, policy.eps_ext, fns, cps, replicate_index=i)
        for x0, i in zip(x0s, indices)
    ]
    blocks = table_blocks(monkeypatch)
    block = simulate_until_time(x0s, driver, sg, policy, cps[-1], fns, cps, indices)
    sizes = [len(chains) for chains in blocks]
    for r, (x0, i, ref) in enumerate(zip(x0s, indices, refs)):
        alone = horizon_of_one(x0, driver, sg, policy, cps[-1], fns, cps, replicate_index=i)
        assert horizon_tuple(alone) == horizon_tuple(ref), r
        assert horizon_tuple(horizon_row(block, r)) == horizon_tuple(ref), r
    return sizes


@pytest.mark.parametrize("window, lane_steps", [(None, None), (450, None), (64, 3)])
def test_horizon_block_rows_match_the_oracle(monkeypatch, window, lane_steps):
    # the second replicate's warm-up spans hundreds of steps, so its first
    # window closes no cycle and it goes round again among the stragglers; a
    # window of 450 lanes holds at most two of these replicates' windows
    table_sizes(monkeypatch, window, lane_steps)
    sg = scalar_sg(rho=0.45)
    driver = stochastic_driver(151)
    x0s = [SCALAR.zero(), SCALAR.state([160_000.0]), SCALAR.state([-3.0])]
    sizes = assert_block_rows_match_the_oracle(
        monkeypatch, x0s, driver, sg, POLICY, ALL_SCALAR_KINDS, [1.5, 40.0, 120.0], [4, 9, 2]
    )
    if window is None:
        assert sizes[0] == 3 and set(sizes[1:]) == {1}
    else:
        assert max(sizes) < 3


class ZerosOnOddReplicates:
    """Exponential(1) betas; on odd replicates' streams the draws below 0.3 (about a
    quarter) are exactly 0.0, where T(0) = I, and on even ones none is."""

    kind = "exponential"

    def mean(self):
        return 1.0

    def sample(self, rng):
        return float(self.sample_block(rng, 1)[0])

    def sample_block(self, rng, n):
        out = rng.exponential(1.0, size=n)
        if rng.bit_generator.seed_seq.spawn_key[0] % 2:
            out[out < 0.3] = 0.0
        return out


def test_horizon_block_with_zero_betas_beside_replicates_without(monkeypatch):
    # a table takes T(0) = I for every lane when any of its chains drew a zero
    # beta; the replicates that drew none must be unaffected
    sg = scalar_sg(kappa=1.3, rho=0.45)
    driver = DriverConfig(ZerosOnOddReplicates(), EtaLaw.scalar_uniform(1.0), 163)
    sizes = assert_block_rows_match_the_oracle(
        monkeypatch, [SCALAR.zero()] * 4, driver, sg, POLICY, ALL_SCALAR_KINDS[:3], [5.0, 80.0],
        [2, 1, 4, 3],
    )
    assert sizes[0] == 4  # the replicates shared their first table


def test_horizon_block_of_random_initial_states_matches_the_oracle():
    # the runner's chunks of replicates, each from its own random initial state
    from regenjump.runner import ExperimentSetup, run_horizon_replicates

    sg = scalar_sg()
    driver = stochastic_driver(167)
    fns = [NormV2(SCALAR), IdentityV2(SCALAR)]
    setup = ExperimentSetup(sg, driver, POLICY, fns, initial_spec=("random",))
    cps = [10.0, 80.0]
    res = run_horizon_replicates(setup, cps[-1], cps, 12)
    x0s = [setup.initial_state(i) for i in range(12)]
    assert len({x0.scalar for x0 in x0s}) == 12
    for r, x0 in enumerate(x0s):
        ref = horizon_by_steps(x0, driver, sg, POLICY.eps_ext, fns, cps, replicate_index=r)
        assert horizon_tuple(horizon_row(res, r)) == horizon_tuple(ref), r


@pytest.mark.parametrize("window", [None, 64])
def test_horizon_block_raises_the_cap_error_of_its_first_failing_replicate(monkeypatch, window):
    # replicates 12 and 8 each have one cycle of 13 steps, 12 at about
    # t = 447 and 8 at t = 139 (with windows of 64 lanes, several rounds
    # apart); the block raises what replicate 12, the first to fail in the
    # block's order, raises alone, as running the replicates one after
    # another would
    table_sizes(monkeypatch, window, None)
    sg = scalar_sg()
    driver = stochastic_driver(173)
    fns = [NormV2(SCALAR)]
    policy = ExtinctionPolicy(eps_ext=1e-12, m_cap=12)
    indices = [3, 12, 8, 10]
    messages = []
    for i in indices:
        try:
            horizon_of_one(SCALAR.zero(), driver, sg, policy, 460.0, fns, replicate_index=i)
            messages.append(None)
        except CycleCapExceeded as exc:
            messages.append(str(exc))
    assert messages == [
        None, "cycle 227 exceeded 12 chain steps", "cycle 66 exceeded 12 chain steps", None
    ]
    with pytest.raises(CycleCapExceeded) as info:
        simulate_until_time([SCALAR.zero()] * 4, driver, sg, policy, 460.0, fns, None, indices)
    assert str(info.value) == messages[1]


@pytest.mark.parametrize("window", [None, 64])
def test_table_steps_each_lane_once(monkeypatch, window):
    table_sizes(monkeypatch, window, None)
    calls = {"_table": 0, "_lanes": 0}

    def count(name):
        method = getattr(process._ScalarChain, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(process._ScalarChain, name, counted)

    count("_table")
    count("_lanes")
    sg = scalar_sg()
    driver = stochastic_driver(131)
    cycle_moments(SCALAR.zero(), driver, sg, POLICY, 2000, [NormV2(SCALAR)])
    simulate_until_time([SCALAR.zero()] * 3, driver, sg, POLICY, 300.0, [NormV2(SCALAR)])
    assert calls["_table"] >= 2 and calls["_lanes"] == calls["_table"]


WINDOW_LAWS = {
    "exponential": BetaLaw.exponential(1.0),
    # cycles of about 16 steps: most outlast a lane's steps and are stepped alone
    "gamma-16": BetaLaw.gamma(0.02, 50.0),
}
WINDOW_FNS = [NormV2(SCALAR), IdentityV2(SCALAR)]


@lru_cache(maxsize=None)
def oracle_window_steps(law):
    """(states, values per functional) of the per-step oracle's first 70000 steps."""
    driver = DriverConfig(WINDOW_LAWS[law], EtaLaw.scalar_uniform(1.0), 127)
    steps = list(islice(chain_by_steps(SCALAR.zero(), driver, scalar_sg(), POLICY.eps_ext,
                                       WINDOW_FNS), 70_000))
    cycles = sum(s[4] for s in steps)
    states = [s[0].scalar for s in steps]
    return states, [[s[3][k] for s in steps] for k in range(len(WINDOW_FNS))], cycles


@pytest.mark.parametrize("law", list(WINDOW_LAWS))
@pytest.mark.parametrize("window", [64, 1 << 16])
@pytest.mark.parametrize("lane_steps", [8, 3, 1])
def test_table_window_states_and_values_match_the_oracle(monkeypatch, law, window, lane_steps):
    # the path's states come off the lanes' log: every window's states, and
    # each step's values made from them, are the per-step loop's bit for bit
    table_sizes(monkeypatch, window, lane_steps)
    ref_states, ref_values, cycles = oracle_window_steps(law)
    driver = DriverConfig(WINDOW_LAWS[law], EtaLaw.scalar_uniform(1.0), 127)
    chain = process._chain(SCALAR.zero(), driver, scalar_sg(), POLICY, WINDOW_FNS, 0)
    states, values = [], [[] for _ in WINDOW_FNS]
    while len(states) < (2000 if window == 64 else 60_000):  # one window of 2^16
        w = chain.advance(100 if window == 64 else 40_000)
        states += w.states.tolist()
        for acc, v in zip(values, w.values):
            acc += v.tolist()
    assert len(states) <= len(ref_states)
    assert states == ref_states[: len(states)]
    assert values == [v[: len(states)] for v in ref_values]
    if law == "gamma-16":
        assert 10 < len(ref_states) / cycles < 25


def test_table_estimation_window_log_adds_at_most_2_mb():
    # the scalar config's laws and a full window of 2^16 positions: stepping
    # the path's lanes a second time peaked at about 9.0 MB here; the log of
    # every lane step may add at most 2 MB to that
    import tracemalloc

    driver = DriverConfig(BetaLaw.exponential(1.0), EtaLaw.scalar_uniform(1.0), 20250810)
    policy = ExtinctionPolicy(eps_ext=1e-10)
    chain = process._chain(SCALAR.zero(), driver, scalar_sg(), policy, [NormV2(SCALAR)], 0)
    tracemalloc.start()
    try:
        w = chain.advance(40_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w.states) >= 1 << 16
    assert peak < 11_000_000, f"peak {peak} bytes"


def test_cycle_moments_of_no_cycles_simulate_nothing():
    # a transient chain would raise if any step were taken
    sg, driver = transient_setup()
    policy = ExtinctionPolicy(eps_ext=1e-12, m_cap=50)
    for n_cycles in (0, -1):
        got = cycle_moments(SCALAR.state([1.0]), driver, sg, policy, n_cycles, [NormV2(SCALAR)])
        assert moments_tuple(got) == moments_tuple(CycleMoments(labels=["norm_v2"]))


# --- the step cap


def transient_setup():
    # kappa tiny: the state only grows, so no cycle ever closes
    sg = scalar_sg(kappa=1e-9)
    driver = DriverConfig(BetaLaw.deterministic(0.1), EtaLaw.scalar_constant(1.0), 1)
    return sg, driver


def every_driver(x0, driver, sg, policy, fns):
    """Runs of the three drivers: one cycle's records, one cycle's moments, a horizon of 1."""
    return [
        lambda: list(simulate_cycles(x0, driver, sg, policy, 1, fns)),
        lambda: cycle_moments(x0, driver, sg, policy, 1, fns),
        lambda: horizon_of_one(x0, driver, sg, policy, 1.0, fns),
    ]


def cap_messages(x0, driver, sg, policy, fns):
    """The CycleCapExceeded message each driver raises."""
    messages = []
    for run in every_driver(x0, driver, sg, policy, fns):
        with pytest.raises(CycleCapExceeded) as info:
            run()
        messages.append(str(info.value))
    return messages


@pytest.mark.parametrize("window, m_cap", [(None, 50), (64, 50), (64, 300), (None, 300)])
def test_table_cap_raises_on_every_driver(monkeypatch, window, m_cap):
    table_sizes(monkeypatch, window, None)
    sg, driver = transient_setup()
    policy = ExtinctionPolicy(eps_ext=1e-12, m_cap=m_cap)
    messages = cap_messages(SCALAR.state([1.0]), driver, sg, policy, [NormV2(SCALAR)])
    assert messages == [f"cycle 0 exceeded {m_cap} chain steps"] * 3


@pytest.mark.parametrize("window", [None, 64])
def test_table_cap_stops_at_the_generic_loops_cycle(monkeypatch, window):
    table_sizes(monkeypatch, window, None)
    sg = scalar_sg()
    driver = stochastic_driver(101)
    fns = [NormV2(SCALAR)]
    recs = records_by_steps(SCALAR.zero(), driver, sg, POLICY.eps_ext, fns, 300)
    n, steps = max(((r[0], r[6]) for r in recs[1:]), key=lambda r: r[1])
    policy = ExtinctionPolicy(eps_ext=1e-12, m_cap=steps - 1)
    # the cycles before the long one complete; asking for it raises
    before = cycle_moments(SCALAR.zero(), driver, sg, policy, n - 1, fns)
    assert before.n == n - 1
    with pytest.raises(CycleCapExceeded):
        cycle_moments(SCALAR.zero(), driver, sg, policy, n, fns)
    got = []
    with pytest.raises(CycleCapExceeded):
        for rec in simulate_cycles(SCALAR.zero(), driver, sg, policy, 300, fns):
            got.append(rec)
    assert record_tuples(got) == recs[:n]


def test_table_cycle_longer_than_window_under_cap(monkeypatch):
    monkeypatch.setattr(process, "_WINDOW", 64)
    sg = scalar_sg()
    driver = stochastic_driver(103)
    policy = ExtinctionPolicy(eps_ext=1e-12, m_cap=1_000)
    x0 = SCALAR.state([40_000.0])  # a warm-up of about 200 steps
    fns = [NormV2(SCALAR), IdentityV2(SCALAR)]
    warmup_steps = records_by_steps(x0, driver, sg, policy.eps_ext, [], 0)[0][6]
    assert 64 < warmup_steps < 1_000
    assert_all_drivers_match_oracle(x0, driver, sg, policy, fns, 20, [30.0, 300.0])
    with pytest.raises(CycleCapExceeded):
        list(simulate_cycles(x0, driver, sg, ExtinctionPolicy(1e-12, warmup_steps - 1), 20, fns))


def test_float_power_equals_python_pow():
    # The table takes every power with np.float_power because it equals
    # Python's float ** bit for bit; np.power (SIMD) can differ in the last
    # ulp.  If this fails, this numpy build breaks that premise and the
    # scalar backend's outputs are no longer those of a per-step loop.
    rng = np.random.default_rng(20250810)
    x = rng.exponential(1.0, 200_000) * 10.0 ** rng.uniform(-12.0, 4.0, 200_000)
    values = x.tolist()
    for rho in (0.45, 0.5, 0.7):
        for exponent in (rho, 1.0 / rho, 1.0 / rho + 1.0):
            got = np.float_power(x, exponent)
            ref = np.array([v**exponent for v in values])
            differ = int(np.count_nonzero(got != ref))
            assert differ == 0, (
                f"np.float_power differs from Python ** on {differ} of 200000 "
                f"draws at exponent {exponent}"
            )
            # a lane's power does not depend on the lanes beside it
            singles = [np.float_power(x[i : i + 1], exponent)[0] for i in range(0, 200_000, 997)]
            assert singles == got[::997].tolist()


def grid_setup(seed=0):
    grid = Grid1D(12, 1.0)
    rng = np.random.default_rng(seed)
    weights = WeightField.uniform(grid, 0.5, 2.0, rng)
    cfg = PLaplaceConfig(p=1.5, dt=1e-2)
    sg = PLaplaceSemigroup(grid, weights, cfg)
    driver = DriverConfig(
        BetaLaw.uniform(0.1, 0.4), EtaLaw.grid_bumps(2, 0.6, (0.05, 0.2)), 61
    )
    return sg, driver


def test_grid_cycles_regenerate():
    sg, driver = grid_setup()
    policy = ExtinctionPolicy(eps_ext=1e-10, m_cap=10_000)
    recs = list(
        simulate_cycles(sg.space.zero(), driver, sg, policy, 5, [NormV2(sg.space)])
    )
    assert len(recs) == 6
    for rec in recs:
        assert rec.tau > 0
        assert rec.integrals["norm_v2"] >= 0.0


def test_grid_horizon_vector_functional():
    # a block of two replicates, run one after another, gives each one's run alone
    sg, driver = grid_setup(seed=2)
    policy = ExtinctionPolicy(eps_ext=1e-10, m_cap=10_000)
    fns, x0 = [IdentityV2(sg.space)], sg.space.zero()
    block = simulate_until_time([x0, x0], driver, sg, policy, 1.5, fns, [0.75, 1.5], [0, 1])
    assert block.integrals["identity_v2"].shape == (2, 2, 12)
    assert block.index_s["identity_v2"].shape == (2, 2, 12)
    for r in (0, 1):
        res = horizon_of_one(x0, driver, sg, policy, 1.5, fns, [0.75, 1.5], replicate_index=r)
        assert horizon_tuple(horizon_row(block, r)) == horizon_tuple(res)


def test_grid_cap_raises_on_every_driver():
    # betas of two time steps: the warm-up from zero ends at once, and the
    # first kick takes more than three steps to die out
    sg, _ = grid_setup()
    driver = DriverConfig(BetaLaw.deterministic(0.02), EtaLaw.grid_bumps(2, 0.6, (0.05, 0.2)), 61)
    policy = ExtinctionPolicy(eps_ext=1e-10, m_cap=3)
    messages = cap_messages(sg.space.zero(), driver, sg, policy, [NormV2(sg.space)])
    assert messages == ["cycle 1 exceeded 3 chain steps"] * 3


def test_duplicate_labels_raise_on_every_driver():
    sg = scalar_sg()
    driver = stochastic_driver(5)
    fns = [NormV2(SCALAR), NormV2(SCALAR)]
    for run in every_driver(SCALAR.zero(), driver, sg, POLICY, fns):
        with pytest.raises(ValueError, match="functional labels must be unique"):
            run()


class Clipped(Functional):
    """min(|v|, 1): sub-linear, but without a closed form on the power-law flow."""

    label, c1, c2, vector_valued = "clipped", 1.0, 0.0, False

    def apply_values(self, values):
        return min(abs(float(values[0])), 1.0)


def test_scalar_functional_without_closed_form_is_rejected():
    sg = scalar_sg()
    driver = stochastic_driver(5)
    message = "no closed form for functional 'clipped'"
    for run in every_driver(SCALAR.zero(), driver, sg, POLICY, [NormV2(SCALAR), Clipped(SCALAR)]):
        with pytest.raises(ValueError, match=message):
            run()
    with pytest.raises(ValueError, match=message):
        integrate_segment(Clipped(SCALAR), SCALAR.state([1.0]), 1.0, sg)


# --- every driver against the per-step oracle, bit for bit


def test_scalar_drivers_match_the_per_step_oracle():
    sg = scalar_sg(rho=0.45)
    driver = stochastic_driver(113)
    fns = ALL_SCALAR_KINDS
    steps = list(islice(chain_by_steps(SCALAR.zero(), driver, sg, POLICY.eps_ext, fns), 300))
    regen = [t_end for _, _, t_end, _, extinct, _ in steps if extinct]
    plain = [t_end for _, _, t_end, _, extinct, _ in steps if not extinct]
    # a regeneration time, a plain jump time, a time between jumps, then the horizon
    between = 0.5 * (steps[150][1] + steps[150][2])
    cps = sorted([regen[10], plain[40], between]) + [regen[-1]]
    records = records_by_steps(SCALAR.zero(), driver, sg, POLICY.eps_ext, fns, 80)
    got = simulate_cycles(SCALAR.zero(), driver, sg, POLICY, 80, fns)
    assert record_tuples(got) == records
    got_m = cycle_moments(SCALAR.zero(), driver, sg, POLICY, 80, fns)
    assert moments_tuple(got_m) == moments_tuple(oracle_moments(records, fns))
    ref = horizon_by_steps(SCALAR.zero(), driver, sg, POLICY.eps_ext, fns, cps)
    got_h = horizon_of_one(SCALAR.zero(), driver, sg, POLICY, cps[-1], fns, checkpoints=cps)
    assert horizon_tuple(got_h) == horizon_tuple(ref)
    assert got_h.counts[0] > 0 and got_h.counts[-1] == len(regen)


def test_grid_drivers_match_the_per_step_oracle():
    sg, _ = grid_setup(seed=3)
    driver = DriverConfig(BetaLaw.uniform(0.05, 0.15), EtaLaw.grid_bumps(2, 0.6, (0.05, 0.2)), 61)
    policy = ExtinctionPolicy(eps_ext=1e-10, m_cap=10_000)
    fns = [IdentityV2(sg.space), NormV2(sg.space)]
    x0 = sg.space.zero()
    records = records_by_steps(x0, driver, sg, policy.eps_ext, fns, 2)
    assert record_tuples(simulate_cycles(x0, driver, sg, policy, 2, fns)) == records
    steps = list(islice(chain_by_steps(x0, driver, sg, policy.eps_ext, []), 4))
    assert [s[4] for s in steps] == [True, False, True, False]
    # a plain jump time, a regeneration time, and a time between jumps
    cps = [steps[1][2], steps[2][2], 0.5 * (steps[3][1] + steps[3][2])]
    ref = horizon_by_steps(x0, driver, sg, policy.eps_ext, fns, cps)
    got = horizon_of_one(x0, driver, sg, policy, cps[-1], fns, checkpoints=cps)
    assert horizon_tuple(got) == horizon_tuple(ref)
    assert list(got.counts) == [1, 2, 2]
    assert got.integrals["identity_v2"].shape == (3, 12)
