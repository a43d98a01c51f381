import functools
import math

import numpy as np
import pytest

from ammlab import artifacts, qvi
from ammlab.ammcore import PoolConfig
from ammlab.synthpath import OuParams

OU_REF = OuParams(0.05, 100.0, 0.5)
POOL = PoolConfig()

# matched grids shared by the sweep tests
S_GRID = qvi.GridSpec(88.0, 112.0, 400)
C_GRID = qvi.GridSpec(88.0, 112.0, 100)


@pytest.fixture(scope="module")
def reference_solution():
    problem = qvi.QviProblem(ou=OU_REF, pool=POOL, s_grid=S_GRID, c_grid=C_GRID)
    return qvi.solve(problem)


class TestTrivialCases:
    def test_prohibitive_cost_is_pure_perpetuity(self):
        # cost above sup f / rho: no jumps; with the band covering the whole
        # grid the PDE solution is the flat perpetuity f0 / rho
        pool = PoolConfig(width=0.99)
        problem = qvi.QviProblem.default(OU_REF, pool, n_s=200, n_c=50, rho=0.01, cost=1e12)
        sol = qvi.solve(problem, tol=1e-9)
        assert sol.converged
        assert not sol.jump.any()
        expected = problem.fee_rate() / 0.01
        assert sol.V == pytest.approx(expected * np.ones_like(sol.V), rel=1e-10)
        lo, hi = qvi.boundary_deviation(sol, 100.0)
        assert math.isnan(lo) and math.isnan(hi)

    def test_free_recentering_flattens_center_dependence(self):
        problem = qvi.QviProblem.default(OU_REF, POOL, n_s=150, n_c=30, rho=0.01, cost=0.0)
        sol = qvi.solve(problem, tol=1e-7, max_iters=1500)
        diag = qvi._diagonal_values(sol.V, sol.s, sol.c)
        rel_gap = np.max(np.abs(sol.V - diag[:, None])) / np.max(np.abs(sol.V))
        assert rel_gap < 1e-4
        assert sol.jump.mean() > 0.9

    def test_free_recentering_boundary_hugs_center(self):
        problem = qvi.QviProblem.default(OU_REF, POOL, n_s=150, n_c=30, rho=0.01, cost=0.0)
        sol = qvi.solve(problem, tol=1e-7, max_iters=1500)
        lo, hi = qvi.boundary_deviation(sol, 100.0)
        cell = problem.s_grid.step / 100.0
        assert lo <= 4 * cell and hi <= 4 * cell


class TestReferenceProblem:
    def test_converges(self, reference_solution):
        assert reference_solution.converged
        assert reference_solution.sup_change < 1e-6

    def test_obstacle_feasibility(self, reference_solution):
        assert qvi.obstacle_violation(reference_solution) <= 1e-6

    def test_complementarity(self, reference_solution):
        assert float(qvi.complementarity_residual(reference_solution).max()) <= 1e-6

    def test_jump_region_sits_near_the_mean(self, reference_solution):
        sol = reference_solution
        assert sol.jump.any()
        rows = np.where(sol.jump.any(axis=1))[0]
        assert abs(sol.s[rows].mean() - 100.0) < 1.0

    def test_boundary_regression_value(self, reference_solution):
        # pinned from the first verified run of this exact problem; the
        # tolerance is one S-grid cell expressed as a deviation
        lo, hi = qvi.boundary_deviation(reference_solution, 103.0)
        assert math.isnan(hi)
        assert lo == pytest.approx(0.027952, abs=S_GRID.step / 103.0)

    def test_low_discount_variant_has_finite_boundary(self):
        problem = qvi.QviProblem.default(OU_REF, POOL, n_s=200, n_c=40, rho=1e-4)
        sol = qvi.solve(problem, tol=1e-3, max_iters=8000)
        lo, hi = qvi.boundary_deviation(sol, 103.0)
        assert math.isfinite(lo) and lo > 0.0


class TestMonotonicity:
    def test_cost_shrinks_jump_region_nodewise(self):
        jumps = {}
        for cost in (4.5, 6.75, 9.0):
            problem = qvi.QviProblem(ou=OU_REF, pool=POOL, s_grid=S_GRID, c_grid=C_GRID, cost=cost)
            jumps[cost] = qvi.solve(problem).jump
        assert jumps[4.5].sum() > jumps[6.75].sum() > jumps[9.0].sum() > 0
        assert np.all(jumps[6.75] <= jumps[4.5])
        assert np.all(jumps[9.0] <= jumps[6.75])

    def test_reversion_speed_deepens_boundary(self):
        # low-sigma regime where the jump region hugs the band edge: faster
        # reversion pushes the trigger deeper and shrinks the jump region
        s_grid = qvi.GridSpec(96.0, 104.0, 400)
        c_grid = qvi.GridSpec(98.0, 102.0, 100)
        boundaries = []
        counts = []
        for theta in (0.002, 0.01, 0.05):
            problem = qvi.QviProblem(
                ou=OuParams(theta, 100.0, 0.05), pool=POOL, s_grid=s_grid, c_grid=c_grid
            )
            sol = qvi.solve(problem)
            boundaries.append(qvi.boundary_deviation(sol, 100.0))
            counts.append(int(sol.jump.sum()))
        los, his = zip(*boundaries)
        assert los[0] <= los[1] <= los[2]
        assert his[0] <= his[1] <= his[2]
        assert counts[0] >= counts[1] >= counts[2] > 0


class TestGridRefinement:
    def test_boundary_drift_below_coarse_step(self):
        coarse = qvi.QviProblem(ou=OU_REF, pool=POOL, s_grid=qvi.GridSpec(88, 112, 400), c_grid=C_GRID)
        fine = qvi.QviProblem(ou=OU_REF, pool=POOL, s_grid=qvi.GridSpec(88, 112, 799), c_grid=C_GRID)
        lo_c, _ = qvi.boundary_deviation(qvi.solve(coarse), 103.0)
        lo_f, _ = qvi.boundary_deviation(qvi.solve(fine), 103.0)
        drift_price_units = abs(lo_c - lo_f) * 103.0
        assert drift_price_units < coarse.s_grid.step


class TestConvergenceReport:
    def test_capped_inner_solve_is_not_converged(self, monkeypatch):
        # one policy step leaves the warm-start active set unchanged, so the
        # outer sup change is 0 although no obstacle solve settled
        capped = functools.partial(qvi._solve_obstacle, max_policy_iters=1)
        monkeypatch.setattr(qvi, "_solve_obstacle", capped)
        problem = qvi.QviProblem.default(OU_REF, POOL, n_s=80, n_c=10)
        sol = qvi.solve(problem, max_iters=50)
        assert sol.converged is False
        assert sol.policy_iterations == [1] * sol.iterations


class TestProblemValidation:
    def test_grid_span_enforced(self):
        with pytest.raises(ValueError):
            qvi.QviProblem(
                ou=OU_REF, pool=POOL, s_grid=qvi.GridSpec(99.0, 101.0, 50), c_grid=C_GRID
            )

    def test_grid_needs_three_points(self):
        with pytest.raises(ValueError):
            qvi.GridSpec(0.0, 1.0, 2)

    def test_rho_positive(self):
        with pytest.raises(ValueError):
            qvi.QviProblem(ou=OU_REF, pool=POOL, s_grid=S_GRID, c_grid=C_GRID, rho=0.0)

    def test_cost_defaults_to_rebalance_cost(self):
        problem = qvi.QviProblem(ou=OU_REF, pool=POOL, s_grid=S_GRID, c_grid=C_GRID)
        assert problem.cost_value() == 4.50

    def test_fee_rate_matches_position_math(self):
        problem = qvi.QviProblem(ou=OU_REF, pool=POOL, s_grid=S_GRID, c_grid=C_GRID, ref_volume=100_000.0)
        assert problem.fee_rate() == pytest.approx(2.236, abs=5e-4)


class TestExports:
    def test_solution_and_boundary_csv(self, tmp_path, reference_solution):
        sol_path = tmp_path / "sol.csv"
        b_path = tmp_path / "bound.csv"
        qvi.write_solution_csv(sol_path, reference_solution)
        qvi.write_boundary_csv(b_path, reference_solution)
        lines = sol_path.read_text().splitlines()
        assert lines[0] == "S,c,V,region"
        assert len(lines) == 1 + 400 * 100
        blines = b_path.read_text().splitlines()
        assert blines[0] == "c,lower_dev,upper_dev"
        assert len(blines) == 1 + 100

    def test_solution_csv_bytes_match_csv_writer(self, tmp_path, reference_solution):
        sol = reference_solution
        rows = [
            (s, c, sol.V[i, j].item(), "jump" if sol.jump[i, j] else "continuation")
            for i, s in enumerate(sol.s.tolist())
            for j, c in enumerate(sol.c.tolist())
        ]
        qvi.write_solution_csv(tmp_path / "sol.csv", sol)
        artifacts.write_csv(tmp_path / "ref.csv", ["S", "c", "V", "region"], rows)
        assert (tmp_path / "sol.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestIterationHistory:
    def test_one_entry_per_outer_iteration(self, reference_solution):
        sol = reference_solution
        assert len(sol.sup_change_history) == len(sol.policy_iterations) == sol.iterations
        assert sol.sup_change_history[-1] == sol.sup_change
        assert all(1 <= p <= 100 for p in sol.policy_iterations)
