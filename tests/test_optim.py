"""Optimizer contracts on analytic objectives with known minima."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from h2vqe.ansatz import AnsatzSpec
from h2vqe.optim import (
    _BRACKET_EXPANSIONS,
    _COBYLA_ALPHA,
    _COBYLA_BETA,
    METHODS,
    OptimizationAbort,
    OptimizerConfig,
    Trace,
    _cobyla_geometry,
    cobyla_minimize,
    minimize,
    nelder_mead_minimize,
    powell_minimize,
    shrink_simplex,
    spsa_minimize,
)
from h2vqe.sim import NoiseModel
from h2vqe.vqe import EnergyEvaluator, VqeConfig, get_hamiltonian, run_vqe


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


class CountingObjective:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


ALL_METHODS = ("spsa", "cobyla", "nelder-mead", "powell")


class TestSpsa:
    def test_quadratic(self):
        cfg = OptimizerConfig(method="spsa", max_iterations=200, spsa_a=0.2)
        _, f_best, _ = spsa_minimize(sphere, np.array([5.0, 5.0]), cfg, seed=1)
        assert f_best < 0.01

    def test_gain_schedule(self):
        # constant objective keeps the iterate pinned at x0, so the probe
        # offsets expose c_k directly: c_0 = 0.1, c_1 = 0.1 / 2^0.101
        cfg = OptimizerConfig(
            method="spsa", max_iterations=3, spsa_a=0.2, spsa_c=0.1,
            spsa_stability=10.0, spsa_alpha=0.602, spsa_gamma=0.101,
        )
        x0 = np.array([1.0, -2.0, 0.5])
        _, f_best, trace = spsa_minimize(lambda x: 7.5, x0, cfg, seed=2)
        assert f_best == 7.5
        offsets = [np.abs(x - x0) for _, x, _ in trace.entries]
        assert np.allclose(offsets[0], 0.1, atol=1e-12)
        assert np.allclose(offsets[1], 0.1, atol=1e-12)
        assert np.allclose(offsets[2], 0.1 / 2**0.101, atol=1e-12)

    def test_two_evaluations_per_iteration(self):
        counter = CountingObjective(sphere)
        cfg = OptimizerConfig(method="spsa", max_iterations=37)
        _, _, trace = spsa_minimize(counter, np.ones(4), cfg, seed=3)
        assert counter.calls == 2 * 37
        assert len(trace) == counter.calls

    def test_calibration_evaluations_recorded(self):
        counter = CountingObjective(sphere)
        cfg = OptimizerConfig(
            method="spsa", max_iterations=10, spsa_calibrate=True,
            spsa_calibration_pairs=25,
        )
        _, _, trace = spsa_minimize(counter, np.ones(2), cfg, seed=4)
        assert counter.calls == 2 * 25 + 2 * 10
        assert len(trace) == counter.calls
        assert any("calibrated" in note for note in trace.notes)

    def test_zero_calibration_pairs_skip_calibration(self):
        plain = OptimizerConfig(method="spsa", max_iterations=10)
        zero = replace(plain, spsa_calibrate=True, spsa_calibration_pairs=0)
        _, _, expected = spsa_minimize(sphere, np.ones(3), plain, seed=9)
        _, _, trace = spsa_minimize(sphere, np.ones(3), zero, seed=9)
        assert np.array_equal(trace.values, expected.values)
        assert all(
            np.array_equal(x, y)
            for (_, x, _), (_, y, _) in zip(trace.entries, expected.entries)
        )
        assert len(trace) == len(expected) and not trace.notes

    def test_determinism(self):
        cfg = OptimizerConfig(method="spsa", max_iterations=50)
        noisy = lambda x: sphere(x)
        r1 = spsa_minimize(noisy, np.ones(3), cfg, seed=11)
        r2 = spsa_minimize(noisy, np.ones(3), cfg, seed=11)
        assert np.array_equal(r1[0], r2[0])
        assert np.array_equal(r1[2].values, r2[2].values)

    def test_noise_robustness(self):
        # shot-noise stand-in: median best over 20 seeds beats the noise floor
        bests = []
        for seed in range(20):
            rng = np.random.default_rng([777, seed])
            f = lambda x: sphere(x) + rng.normal(0.0, 0.05)
            cfg = OptimizerConfig(method="spsa", max_iterations=300, spsa_a=0.2)
            _, f_best, _ = spsa_minimize(f, np.array([1.0, 1.0]), cfg, seed=seed)
            bests.append(f_best)
        assert float(np.median(bests)) < 0.05

    def test_abort_on_nan(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            return math.nan if calls["n"] > 5 else sphere(x)

        cfg = OptimizerConfig(method="spsa", max_iterations=50)
        with pytest.raises(OptimizationAbort) as err:
            spsa_minimize(flaky, np.ones(2), cfg, seed=5)
        assert math.isfinite(err.value.f_best)
        assert len(err.value.trace) == 6

    def test_pinned_dense_trajectory(self):
        # ideal 4q SPSA takes the dense layer maps; recorded from this
        # implementation, so a change that moves a draw moves these numbers
        cfg = VqeConfig(
            hamiltonian="4q", ansatz=AnsatzSpec(n_qubits=4), shots=1024,
            optimizer=OptimizerConfig(method="spsa", max_iterations=20), seed=1,
        )
        result = run_vqe(cfg)
        assert len(result.trace) == 40
        assert repr(result.energy) == "-1.730959296875"
        assert result.params.tolist() == [
            0.16735093273609092, 2.6729430464247166, -1.176994152947677,
            3.0074182897056447, -2.558531663500815, -0.4453617673615869,
            1.7610566624431176, -1.0202467074147197, 0.2724651564355044,
            -3.125645717932289, 2.1124376179824655, -0.03005434386667777]


class TestCobyla:
    def test_shifted_quadratic(self):
        f = lambda x: (x[0] - 1) ** 2 + (x[1] + 2) ** 2
        cfg = OptimizerConfig(method="cobyla", max_iterations=300)
        x_best, _, _ = cobyla_minimize(f, np.zeros(2), cfg)
        assert np.allclose(x_best, [1.0, -2.0], atol=1e-2)

    def test_rosenbrock(self):
        f = lambda x: 100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
        cfg = OptimizerConfig(
            method="cobyla", max_iterations=4000, tolerance=1e-8
        )
        _, f_best, _ = cobyla_minimize(f, np.array([-1.2, 1.0]), cfg)
        assert f_best < 0.1

    def test_budget_accounting(self):
        counter = CountingObjective(sphere)
        cfg = OptimizerConfig(method="cobyla", max_iterations=1)
        cobyla_minimize(counter, np.ones(3), cfg)
        assert counter.calls <= 3 + 2  # initial simplex plus one step

    def test_geometry_repair_recovers(self):
        # valley aligned with a diagonal degenerates early simplices
        f = lambda x: (x[0] + x[1]) ** 2 + 0.01 * (x[0] - x[1]) ** 2
        cfg = OptimizerConfig(method="cobyla", max_iterations=500)
        _, f_best, _ = cobyla_minimize(f, np.array([2.0, 2.0]), cfg)
        assert f_best < 1e-3


    def test_zero_gradient_halves_rho_then_stops(self):
        # a constant objective has zero interpolated gradient: rho halves
        # from 1 to 0.25 with no evaluation, the edges (now too long) are
        # repaired at 0.5 * rho, and the run stops at rho == tolerance
        cfg = OptimizerConfig(method="cobyla", tolerance=0.25)
        _, f_best, trace = cobyla_minimize(lambda x: 2.0, np.array([0.5, -1.0]), cfg)
        assert f_best == 2.0
        assert trace.values.tolist() == [2.0] * 5
        assert [x.tolist() for _, x, _ in trace.entries] == [
            [0.5, -1.0], [1.5, -1.0], [0.5, 0.0], [0.625, -1.0], [0.5, -0.875]]

    def test_pinned_trajectory(self):
        # recorded from this implementation: a change that moves COBYLA
        # trajectories on a deterministic objective moves these numbers
        evaluator = EnergyEvaluator(
            get_hamiltonian("2q"), AnsatzSpec(n_qubits=2), 4096, NoiseModel()
        )
        x0 = np.random.default_rng(3).uniform(
            -math.pi, math.pi, evaluator.parameter_count()
        )
        cfg = OptimizerConfig(method="cobyla", max_iterations=150)
        _, f_best, trace = cobyla_minimize(evaluator.evaluate_analytic, x0, cfg)
        assert len(trace) == 90
        assert f_best == pytest.approx(-1.867109366563296, abs=1e-12)

    @pytest.mark.parametrize("shots, n_evals, energy, best", [
        # 16 shots: vertex values tie exactly, where reordering would show
        (16, 56, "-1.9825150000000002", [
            -0.3012563560236966, 3.217467559317328, -2.9644693891296656,
            2.858388443546343, 0.1993369331636683, -0.8741320382131096]),
        (4096, 61, "-1.8394752343750003", [
            -0.12316850843690397, 2.8844077521418043, -2.8204653535558806,
            2.877673692124114, -0.0702715228826735, -0.4820896684294849]),
    ])
    def test_pinned_sampled_trajectory(self, shots, n_evals, energy, best):
        # sampled energies are sums of counts/shots terms, so equal vertex
        # values occur; recorded from the list-based simplex, which sorted
        # them with the same np.argsort
        cfg = VqeConfig(
            hamiltonian="2q", ansatz=AnsatzSpec(n_qubits=2), shots=shots,
            optimizer=OptimizerConfig(method="cobyla", max_iterations=150),
            noise=NoiseModel(readout_enabled=True), seed=1,
        )
        result = run_vqe(cfg)
        assert len(result.trace) == n_evals
        assert repr(result.energy) == energy
        assert result.params.tolist() == best


def qr_distances(edges):
    """Reference: distance of each edge from the span of the others, by QR."""
    dist = []
    for j in range(edges.shape[0]):
        others = np.delete(edges, j, axis=0)
        perp = edges[j]
        if others.size:
            q, _ = np.linalg.qr(others.T, mode="reduced")
            perp = edges[j] - q @ (q.T @ edges[j])
        dist.append(np.linalg.norm(perp))
    return np.array(dist)


def qr_bad_vertex(edges, rho):
    """Reference acceptability test: longest edge if too long, else the
    first edge closer than alpha*rho to the span of the others."""
    lengths = np.linalg.norm(edges, axis=1)
    if lengths.max() > _COBYLA_BETA * rho:
        return int(np.argmax(lengths))
    close = np.flatnonzero(qr_distances(edges) < _COBYLA_ALPHA * rho)
    return int(close[0]) if close.size else None


def qr_repair_direction(edges, bad):
    """Reference: unit vector orthogonal to the other edges, from the
    residual projector of their QR."""
    n = edges.shape[0]
    others = np.delete(edges, bad, axis=0)
    if not others.size:
        return np.ones(1)
    q, _ = np.linalg.qr(others.T, mode="reduced")
    residual = np.eye(n) - q @ q.T
    direction = residual[:, int(np.argmax(np.linalg.norm(residual, axis=0)))]
    return direction / np.linalg.norm(direction)


def well_conditioned_edges(rng, n):
    while True:
        edges = rng.normal(size=(n, n)) * rng.uniform(0.5, 2.0, size=(n, 1))
        if np.linalg.cond(edges) < 1e3:
            return edges


class TestCobylaGeometry:
    def test_matches_qr_reference(self):
        rng = np.random.default_rng(20)
        several_close = 0
        for n in range(1, 13):
            for _ in range(5):
                edges = well_conditioned_edges(rng, n)
                dvals = rng.normal(size=n)
                dist = qr_distances(edges)
                assert np.allclose(
                    1.0 / np.linalg.norm(np.linalg.inv(edges), axis=0), dist
                )
                # thresholds between distances keep rounding off the boundary
                cuts = np.concatenate([[0.0], np.sort(dist), [2 * dist.max()]])
                for alpha_rho in (cuts[:-1] + cuts[1:]) / 2:
                    rho = alpha_rho / _COBYLA_ALPHA
                    bad = qr_bad_vertex(edges, rho)
                    g, repair = _cobyla_geometry(edges, dvals, rho)
                    assert np.allclose(g, np.linalg.solve(edges, dvals))
                    if bad is None:
                        assert repair is None
                        continue
                    assert repair[0] == bad
                    direction = repair[1]
                    ref = qr_repair_direction(edges, bad)
                    assert np.allclose(direction, ref) or np.allclose(direction, -ref)
                    assert g @ direction <= 0
                    lengths = np.linalg.norm(edges, axis=1)
                    if lengths.max() <= _COBYLA_BETA * rho:
                        several_close += (dist < alpha_rho).sum() > 1
        assert several_close > 20

    @pytest.mark.parametrize(
        "edges",
        [
            [[1.0, 0.0], [0.0, 0.0]],
            [[1.0, 0.0], [1.0, 0.0]],
            [[0.5, 0.5], [-1.0, -1.0]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 2, 0, 0]],
        ],
        ids=["zero-edge-2", "parallel-2", "antiparallel-2", "parallel-4"],
    )
    def test_singular_simplex_repaired(self, edges):
        edges = np.array(edges, dtype=float)
        rho = 1.0
        g, repair = _cobyla_geometry(edges, np.ones(len(edges)), rho)
        assert g is None and repair is not None
        bad, direction = repair
        assert np.linalg.norm(direction) == pytest.approx(1.0)
        edges[bad] = 0.5 * rho * direction
        assert np.linalg.matrix_rank(edges) == len(edges)
        assert np.linalg.cond(edges) < 10


class TestNelderMead:
    def test_absolute_value_1d(self):
        cfg = OptimizerConfig(
            method="nelder-mead", max_iterations=300, tolerance=1e-10
        )
        _, f_best, _ = nelder_mead_minimize(
            lambda x: abs(float(x[0])), np.array([3.0]), cfg
        )
        assert f_best < 1e-4

    def test_quadratic_bowl_4d(self):
        # generous iteration budget: early return proves the value spread
        # dropped below tolerance, and it must happen within 500 evaluations
        counter = CountingObjective(sphere)
        cfg = OptimizerConfig(
            method="nelder-mead", max_iterations=2000, tolerance=1e-6
        )
        nelder_mead_minimize(counter, np.full(4, 2.0), cfg)
        assert counter.calls <= 500

    def test_shrink_scales_distances_by_half(self):
        pts = [np.zeros(2), np.array([2.0, 0.0]), np.array([0.0, 4.0])]
        shrunk = shrink_simplex(pts, 0.5)
        assert np.allclose(shrunk[1], [1.0, 0.0])
        assert np.allclose(shrunk[2], [0.0, 2.0])
        for before, after in zip(pts[1:], shrunk[1:]):
            assert np.linalg.norm(after - shrunk[0]) == pytest.approx(
                0.5 * np.linalg.norm(before - pts[0])
            )

    def test_pinned_shrink(self):
        # the sixth iteration's contraction fails and the simplex shrinks
        # toward its best vertex (the last two evaluations); recorded from
        # this implementation
        def rastrigin(x):
            return float(10 * x.size + np.sum(x**2 - 10 * np.cos(2 * np.pi * x)))

        cfg = OptimizerConfig(method="nelder-mead", max_iterations=6)
        _, _, trace = nelder_mead_minimize(rastrigin, np.array([0.5, -0.2]), cfg)
        assert [x.tolist() for _, x, _ in trace.entries] == [
            [0.5, -0.2], [1.0, -0.2], [0.5, 0.3], [1.0, -0.7], [1.5, -0.7],
            [0.75, -0.32499999999999996], [1.25, -0.575],
            [0.875, -0.38749999999999996], [1.125, -0.5125],
            [0.9375, -0.41874999999999996], [1.0625, -0.48124999999999996],
            [0.96875, -0.43437499999999996], [1.03125, -0.46562499999999996],
            [0.984375, -0.44218749999999996], [1.0, -0.44999999999999996],
            [0.984375, -0.31718749999999996]]
        assert trace.values.tolist() == [
            27.199830056250526, 7.949830056250526, 33.430169943749476,
            14.580169943749475, 35.830169943749475, 25.208029997395464,
            30.803190241883676, 21.448773094134832, 24.4263867754658,
            20.540422558115104, 22.052397056936393, 20.481184970264053,
            21.24008921230142, 20.560158477342203, 20.713065162951537,
            15.21499508753623]
        # the shrunk vertices lie halfway from the best vertex to the old ones
        best, old = np.array([1.0, -0.2]), [[1.0, -0.7], [0.96875, -0.434375]]
        assert np.allclose([x for _, x, _ in trace.entries[-2:]],
                           [best + 0.5 * (np.array(p) - best) for p in old])

    def test_tolerance_termination(self):
        counter = CountingObjective(sphere)
        cfg = OptimizerConfig(
            method="nelder-mead", max_iterations=10_000, tolerance=1e-8
        )
        nelder_mead_minimize(counter, np.full(2, 3.0), cfg)
        assert counter.calls < 10_000

    def test_abort_on_nan(self):
        def bad(x):
            return math.nan

        cfg = OptimizerConfig(method="nelder-mead", max_iterations=10)
        with pytest.raises(OptimizationAbort):
            nelder_mead_minimize(bad, np.ones(2), cfg)


class TestPowell:
    def test_separable_quadratic_single_cycle(self):
        f = lambda x: (x[0] - 2) ** 2 + 3 * (x[1] + 1) ** 2
        cfg = OptimizerConfig(method="powell", max_iterations=1)
        x_best, f_best, _ = powell_minimize(f, np.zeros(2), cfg)
        assert np.allclose(x_best, [2.0, -1.0], atol=1e-4)
        assert f_best < 1e-6

    def test_coupled_quadratic(self):
        f = lambda x: (x[0] + x[1]) ** 2 + (x[0] - x[1] - 2) ** 2
        cfg = OptimizerConfig(method="powell", max_iterations=50, tolerance=1e-10)
        x_best, _, _ = powell_minimize(f, np.zeros(2), cfg)
        assert np.allclose(x_best, [1.0, -1.0], atol=1e-3)

    def test_constant_objective_terminates_first_cycle(self):
        counter = CountingObjective(lambda x: 4.2)
        cfg = OptimizerConfig(method="powell", max_iterations=100)
        _, f_best, trace = powell_minimize(counter, np.zeros(3), cfg)
        assert f_best == 4.2
        # 1 initial eval + one failed bracket scan per direction, no cycle 2
        assert counter.calls <= 1 + 3 * 6
        assert any("bracket" in note for note in trace.notes)

    def test_unbounded_line_exhausts_bracket(self):
        # -x0 falls forever: each of the _BRACKET_EXPANSIONS expansions
        # finds a lower value (t = 2^k - 1), the last bracket is returned,
        # and a line tolerance wider than it leaves golden section two probes
        cfg = OptimizerConfig(method="powell", max_iterations=1, tolerance=1e300,
                              powell_line_tolerance=1e13)
        x_best, f_best, trace = powell_minimize(lambda x: -x[0], np.zeros(1), cfg)
        points = [float(x[0]) for _, x, _ in trace.entries]
        assert len(trace) == 1 + (1 + _BRACKET_EXPANSIONS) + 2
        assert points[:2 + _BRACKET_EXPANSIONS] == [
            2.0**k - 1 for k in range(2 + _BRACKET_EXPANSIONS)]
        assert points[-2:] == [2359439840129.127, 3138118298748.873]
        assert trace.values.tolist() == [-p for p in points]
        assert x_best.tolist() == [3138118298748.873] and f_best == -3138118298748.873

    def test_fixed_step_scan_finds_lower_value(self):
        # neither +1 nor -1 descends from 0, so the scan runs and finds 0.25;
        # the net-direction search from there scans and keeps its point
        cfg = OptimizerConfig(method="powell", max_iterations=1, powell_step=1.0)
        x_best, f_best, trace = powell_minimize(
            lambda x: (x[0] - 0.25) ** 2, np.zeros(1), cfg)
        assert [float(x[0]) for _, x, _ in trace.entries] == [
            0.0, 1.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.25, -0.75, -0.25, 0.0, 0.5, 0.75]
        assert trace.values.tolist() == [
            0.0625, 0.5625, 1.5625, 0.5625, 0.25, 0.0, 0.0625,
            1.0, 1.0, 0.25, 0.0625, 0.0625, 0.25]
        assert x_best.tolist() == [0.25] and f_best == 0.0
        assert len(trace.notes) == 2

    def test_line_search_keeps_point_when_golden_section_finds_nothing(self):
        # the bracket's descent is a single point (t = 1) that golden section
        # never probes, so the line search returns the cycle's start point
        # and the cycle improves nothing
        cfg = OptimizerConfig(method="powell", max_iterations=5,
                              powell_line_tolerance=10.0)
        _, _, trace = powell_minimize(
            lambda x: -1.0 if x[0] == 1.0 else 0.0, np.zeros(1), cfg)
        assert [float(x[0]) for _, x, _ in trace.entries] == [
            0.0, 1.0, 3.0, 1.1458980337503153, 1.8541019662496847]
        assert trace.values.tolist() == [0.0, -1.0, 0.0, 0.0, 0.0]

    def test_unreachable_line_tolerance_returns(self):
        # no float bracket is 1e-20 wide around the minima at 2 and -1, so the
        # line searches end when the bracket stops shrinking
        calls = []

        def f(x):
            calls.append(1)
            if len(calls) > 20_000:
                raise RuntimeError("line search did not stop")
            return (x[0] - 2) ** 2 + 3 * (x[1] + 1) ** 2

        cfg = OptimizerConfig(
            method="powell", max_iterations=3, powell_line_tolerance=1e-20
        )
        start = time.perf_counter()
        x_best, f_best, _ = powell_minimize(f, np.zeros(2), cfg)
        assert time.perf_counter() - start < 5.0
        assert np.allclose(x_best, [2.0, -1.0], atol=1e-6) and f_best < 1e-12


class TestCrossMethod:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_trace_completeness(self, method):
        counter = CountingObjective(sphere)
        cfg = OptimizerConfig(method=method, max_iterations=20)
        _, _, trace = minimize(counter, np.full(3, 1.5), cfg, seed=6)
        assert counter.calls == len(trace)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_best_so_far_monotone(self, method):
        cfg = OptimizerConfig(method=method, max_iterations=40)
        _, f_best, trace = minimize(sphere, np.full(2, 2.0), cfg, seed=7)
        best = np.minimum.accumulate(trace.values)
        assert np.all(np.diff(best) <= 0)
        assert f_best == best[-1] == trace.best_value

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_returns_argmin_of_trace(self, method):
        cfg = OptimizerConfig(method=method, max_iterations=30)
        x_best, f_best, trace = minimize(sphere, np.full(2, 1.0), cfg, seed=8)
        assert sphere(x_best) == pytest.approx(f_best)

    @pytest.mark.parametrize("x0", [np.zeros(0), np.zeros((2, 2))],
                             ids=["empty", "2-D"])
    @pytest.mark.parametrize("method", METHODS)
    def test_rejects_x0_not_a_nonempty_vector(self, method, x0):
        cfg = OptimizerConfig(method=method, max_iterations=5)
        with pytest.raises(ValueError, match="x0 must be a non-empty 1-D vector"):
            minimize(sphere, x0, cfg, seed=9)


class TestConfigAndTrace:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="adam")
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=0)
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)

    def test_from_dict_unknown_field(self):
        with pytest.raises(ValueError, match="unknown"):
            OptimizerConfig.from_dict({"method": "spsa", "learning_rate": 0.1})

    def test_from_dict_case(self):
        cfg = OptimizerConfig.from_dict({"method": "COBYLA", "max_iterations": 7})
        assert cfg.method == "cobyla" and cfg.max_iterations == 7

    def test_trace_csv(self, tmp_path):
        trace = Trace()
        trace.append(np.array([0.25, -1.5]), -1.75)
        trace.append(np.array([0.5, -1.0]), -1.8)
        path = str(tmp_path / "trace.csv")
        trace.to_csv(path)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "eval_index,energy_ha,param_0,param_1"
        assert lines[1].split(",") == ["0", "-1.75", "0.25", "-1.5"]
        assert len(lines) == 3
