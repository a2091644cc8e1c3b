"""Tests of the benchmark's own rules: tail percentile, self time, checkers.

    python3 -m pytest -q perfbench
"""

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from epinfer import chain_network, likelihood  # noqa: E402


@pytest.mark.parametrize("n", [11, 12, 57, 100, 1000])
def test_tail_has_ten_samples_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n) * 0.5)
    value, pct, beyond = measure.tail_percentile(samples)
    assert beyond == 10
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    # the next position up would leave only nine beyond
    assert sorted(samples)[n - 10] > value


def test_tail_of_a_short_sample_is_its_maximum():
    value, pct, beyond = measure.tail_percentile([3.0, 1.0, 2.0])
    assert (value, pct, beyond) == (3.0, 100.0, 0)


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] overhangs;
    # the grandchild [2.5, 3] only counts against its own parent.
    starts = [0.0, 1.0, 2.0, 8.0, 2.5]
    ends = [10.0, 3.0, 5.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 2]
    got = tracing.self_times(starts, ends, parents)
    assert got == pytest.approx([10.0 - 6.0, 2.0, 2.5, 4.0, 0.5])


def test_traced_self_times_add_up_to_the_wall_time():
    mod = types.ModuleType("perfbench_toy")

    def leaf(x):
        return sum(range(x))

    def outer(x):
        return mod.leaf(x) + mod.leaf(2 * x)

    mod.leaf, mod.outer = leaf, outer
    sys.modules[mod.__name__] = mod
    bindings = ((mod.__name__, "outer", "toy.outer", "toy"),
                (mod.__name__, "leaf", "toy.leaf", "toy"),
                (mod.__name__, "gone", "toy.gone", "toy"))
    try:
        tracer = tracing.Tracer(bindings)
        with tracer:
            mod.outer(20000)
        assert mod.outer is outer
    finally:
        del sys.modules[mod.__name__]
    spans = tracer.spans()
    assert [s[0] for s in spans] == ["toy.outer", "toy.leaf", "toy.leaf"]
    assert [s[3] for s in spans] == [-1, 0, 0]
    selfs = tracing.self_times(tracer.start, tracer.end, tracer.parent)
    (_, s0, e0, _), (_, s1, e1, _), (_, s2, e2, _) = spans
    assert selfs[0] == pytest.approx((e0 - s0) - (e1 - s1) - (e2 - s2))
    assert sum(selfs) <= (e0 - s0) + 1e-12
    assert tracer.absent == {"perfbench_toy.gone"}


def _dense_window_report(net, obs):
    return likelihood.log_likelihood(net, workloads.PARAMS, obs, solver="dense")


@pytest.fixture(scope="module")
def chain4_series():
    net = chain_network(4)
    obs = workloads._simulate(net, 3.0, np.random.default_rng(5))
    return net, obs


def test_probability_checker_passes_exact_and_counts_perturbed(chain4_series):
    net, obs = chain4_series
    p_dense = workloads._dense_probabilities(net, obs)
    assert workloads.prob_misses(p_dense, p_dense) == 0
    assert workloads.prob_misses(p_dense * (1 + 2e-4), p_dense) == obs.n_intervals
    nudged = p_dense.copy()
    nudged[3] += 1e-3 * max(nudged[3], 1e-8)
    assert workloads.prob_misses(nudged, p_dense) == 1
    assert workloads.prob_misses(np.full_like(p_dense, np.nan), p_dense) == obs.n_intervals


def test_workload_check_counts_a_perturbed_operation_as_failed(chain4_series):
    net, obs = chain4_series
    wl = workloads.WORKLOADS["loglik-austria9-tt"]
    windows = [(0, 10), (10, 20)]
    inputs = {"truth": net, "series": obs, "windows": windows}
    reports = [_dense_window_report(net, workloads._window(obs, lo, hi))
               for lo, hi in windows]
    reports[1].per_interval = reports[1].per_interval + math.log10(1.01)
    phase = workloads.Phase(steps=2, elapsed=1.0, calls=[],
                            ops=[(0, reports[0], None, []), (1, reports[1], None, [])])
    out = workloads.Outcome()
    wl.check(inputs, [phase], out)
    assert (out.attempted, out.failed) == (2, 1)


def test_infer_check_counts_a_perturbed_solve_as_failed(chain4_series):
    net, obs = chain4_series
    wl = workloads.WORKLOADS["infer-austria9-dense"]
    calls = []
    for window, scale in ((obs, 1.0), (workloads._window(obs, 0, 10), 1.01)):
        report = _dense_window_report(net, window)
        report.per_interval = report.per_interval + math.log10(scale)
        calls.append(workloads.Call(net, window, log_like=report.log_like, report=report))
    phase = workloads.Phase(steps=2, elapsed=1.0, calls=calls)
    out = workloads.Outcome()
    wl.check({"seed": 1, "truth": net}, [phase], out)
    assert (out.attempted, out.failed) == (2, 1)
