import functools
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from ammlab import ammcore, artifacts, config, qvi
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

    # The free-recentering solve does not converge: its sup change shrinks
    # by only about 0.4% an iteration, so at the 1,500-iteration cap it is
    # still 5.1e-4, above tol. Summed as a geometric tail, that leaves the
    # capped iterate within about 0.14 (0.2% of V) of the fixed point,
    # close enough for what these tests check: the value is flat across c
    # (relative gap 6e-6 against the 1e-4 bound), and the jump boundary
    # lies within four cells of the center, where it has sat since before
    # iteration 100.
    def test_free_recentering_flattens_center_dependence(self):
        problem = qvi.QviProblem.default(OU_REF, POOL, n_s=150, n_c=30, rho=0.01, cost=0.0)
        sol = qvi.solve(problem, tol=1e-7, max_iters=1500)
        assert not sol.converged and sol.iterations == 1500
        diag = qvi._diagonal_values(sol.V, sol.s, sol.c)
        rel_gap = np.max(np.abs(sol.V - diag[:, None])) / np.max(np.abs(sol.V))
        assert rel_gap < 1e-4
        assert sol.jump.mean() > 0.9

    def test_free_recentering_boundary_hugs_center(self):
        problem = qvi.QviProblem.default(OU_REF, POOL, n_s=150, n_c=30, rho=0.01, cost=0.0)
        sol = qvi.solve(problem, tol=1e-7, max_iters=1500)
        assert not sol.converged and sol.iterations == 1500
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

    @pytest.mark.parametrize("lo", [0.0, -76.8])
    @pytest.mark.parametrize("axis", ["s_grid", "c_grid"])
    def test_grids_at_positive_prices(self, axis, lo):
        grids = {"s_grid": S_GRID, "c_grid": C_GRID, axis: qvi.GridSpec(lo, 112.0, 100)}
        with pytest.raises(ValueError, match="positive prices"):
            qvi.QviProblem(ou=OU_REF, pool=POOL, **grids)

    def test_cost_defaults_to_rebalance_cost(self):
        problem = qvi.QviProblem(ou=OU_REF, pool=POOL, s_grid=S_GRID, c_grid=C_GRID)
        assert problem.cost_value() == 4.50

    def test_fee_rate_matches_position_math(self):
        problem = qvi.QviProblem(ou=OU_REF, pool=POOL, s_grid=S_GRID, c_grid=C_GRID, ref_volume=100_000.0)
        assert problem.fee_rate() == pytest.approx(2.236, abs=5e-4)

    def test_fee_rate_is_what_a_held_second_accrues(self):
        problem = qvi.QviProblem(ou=OU_REF, pool=POOL, s_grid=S_GRID, c_grid=C_GRID, ref_volume=100_000.0)
        pos = ammcore.open_position(100.0, problem.pool)
        fee, inside = ammcore.hold(pos, np.array([100.0]), np.array([problem.ref_volume]), problem.pool)
        assert inside[0]
        assert problem.fee_rate() == fee[0] == pos.accrued_fees


@settings(max_examples=100, deadline=None)
@given(
    log_theta=hst.floats(-4.0, 0.0),
    log_mu=hst.floats(-1.0, 4.0),
    log_sigma=hst.floats(-3.0, 1.0),
    width=hst.sampled_from([0.0005, 0.002, 0.01, 0.3]),
    n_s=hst.integers(3, 200),
    n_c=hst.integers(3, 60),
)
def test_fee_table_is_the_backtest_band(log_theta, log_mu, log_sigma, width, n_s, n_c):
    """A node earns fees in the QVI exactly where a Position centered at
    its c node is in band, so an oracle and a backtest agree on the band.
    Prices on and one ulp either side of each band edge join the S-grid's."""
    ou = OuParams(10.0**log_theta, 10.0**log_mu, 10.0**log_sigma)
    assume(ou.mu - qvi.MIN_SPAN_SIGMAS * ou.sigma / math.sqrt(2.0 * ou.theta) > 0.0)
    pool = PoolConfig(width=width)
    problem = qvi.QviProblem.default(ou, pool, n_s=n_s, n_c=n_c)
    c = problem.c_grid.points()
    edges = np.concatenate(ammcore.band(c, width))
    s = np.concatenate([problem.s_grid.points(), edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    table = qvi._fee_table(problem, s, c)
    for j, center in enumerate(c.tolist()):
        pos = ammcore.Position(center=center, width=width, capital=pool.capital)
        assert np.array_equal(table[:, j] != 0.0, ammcore.in_band(pos, s)), j


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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stationary(theta, n_s, n_c):
    doc = config.load(Path(__file__).parent.parent / "configs" / "stationary.json")
    q = doc["qvi"]
    return qvi.QviProblem.default(
        OuParams(theta, q["mu"], q["sigma"]),
        config.pool_config(doc),
        n_s=n_s,
        n_c=n_c,
        ref_volume=q["ref_volume"],
    )


class TestGoldenSolutions:
    """Export bytes and iteration history of three small solves.

    Pinned so that a change to the tridiagonal solver, the active-set loop
    or the outer iteration cannot change a solution unnoticed. The
    histories are pinned as sha256 of their int64 / float64 bytes.
    """

    GOLDEN = {
        "theta-0.01": (
            "656d2a8ea28446519827543d11728870c08fe904075ddcc4bf3d4a5f43c87547",
            "6e2a56af17f142dae95fbf4737956469a34905921c45fd5164981ac51244c394",
            47,
            [5, 4, 2, 3, 2, 2, 3, 2, 2] + [1] * 8 + [2, 2] + [1] * 28,
            "f4c1620b71904f72c31f4eb00eb836393eb80c477ed6b8088d8a90a9eb4adfbd",
        ),
        "theta-0.05": (
            "e7eb04d0e2f4ce41f69e5a78187662804797efbf8f53ece3febd7730a7e69fa4",
            "6532743832233e77a440f92fca3791e314b9a4a77fc6012d6eba5fe4796416c3",
            7,
            [9, 5, 3, 2, 1, 1, 1],
            [17.907867812584104, 2.609706656982807, 0.13029660601122472, 0.04618307393558041,
             0.0016465392063587103, 5.93856803696724e-05, 0.0],
        ),
        "free-recentering": (
            "220a28f22c4674d2030be1bbdb0e7281e438fc44244ec704c283281853285f6d",
            "0a81733dd1b6e5c04de91e79e78aae92d43f9155ec8da6c1fd6eae6ec80e81f5",
            1500,
            "c483d9afae6ded72d78ffa0ef6018ec4671b7f3fb03f1be24ee25684ff25056c",
            "627dc86c63b72ad7269f7c65457d42b63ce7c53083e8f7ffaa37d5b44b4aa82f",
        ),
    }
    PROBLEMS = {
        "theta-0.01": lambda: (_stationary(0.01, 80, 20), {}),
        "theta-0.05": lambda: (_stationary(0.05, 160, 40), {}),
        # TestTrivialCases' free-recentering problem
        "free-recentering": lambda: (
            qvi.QviProblem.default(OU_REF, POOL, n_s=150, n_c=30, rho=0.01, cost=0.0),
            {"tol": 1e-7, "max_iters": 1500},
        ),
    }

    # (eliminated_rows, substituted_rows): the solver's row work
    ROW_STEPS = {
        "theta-0.01": (1034, 9583),
        "theta-0.05": (1694, 5742),
        "free-recentering": (17974, 494423),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_exports_and_history(self, name, tmp_path):
        problem, kwargs = self.PROBLEMS[name]()
        sol = qvi.solve(problem, **kwargs)
        qvi.write_solution_csv(tmp_path / "sol.csv", sol)
        qvi.write_boundary_csv(tmp_path / "bound.csv", sol)
        sol_sha, bound_sha, iterations, passes, history = self.GOLDEN[name]
        assert sol.iterations == iterations
        if isinstance(passes, str):
            assert _sha256(np.array(sol.policy_iterations, dtype=np.int64).tobytes()) == passes
        else:
            assert sol.policy_iterations == passes
        if isinstance(history, str):
            assert _sha256(np.array(sol.sup_change_history, dtype=np.float64).tobytes()) == history
        else:
            assert sol.sup_change_history == history
        assert _sha256((tmp_path / "sol.csv").read_bytes()) == sol_sha
        assert _sha256((tmp_path / "bound.csv").read_bytes()) == bound_sha
        assert (sol.eliminated_rows, sol.substituted_rows) == self.ROW_STEPS[name]


def _thomas(lower, diag, upper, rhs):
    """Plain Thomas sweep over systems stacked along axis 1: the reference."""
    n = diag.shape[0]
    cp = np.empty_like(diag)
    dp = np.empty_like(rhs)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    x = np.empty_like(rhs)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


class TestFactorization:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(3, 40),
        m=hst.integers(1, 9),
        mask_rate=hst.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        scale=hst.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_bits_match_plain_thomas(self, seed, n, m, mask_rate, scale):
        rng = np.random.default_rng(seed)
        lower = -scale * rng.uniform(0.0, 1.0, n)
        upper = -scale * rng.uniform(0.0, 1.0, n)
        diag = np.abs(lower) + np.abs(upper) + scale * rng.uniform(1e-3, 1.0, n)
        mask = rng.uniform(size=(n, m)) < mask_rate
        ones = np.ones((n, m))
        lo = np.where(mask, 0.0, lower[:, None] * ones)
        dg = np.where(mask, 1.0, diag[:, None] * ones)
        up = np.where(mask, 0.0, upper[:, None] * ones)
        system = qvi._Factorization(lower, diag, upper, mask)
        for _ in range(3):
            rhs = scale * rng.normal(size=(n, m))
            expected = _thomas(lo, dg, up, rhs)
            np.copyto(system.rhs, rhs)
            got = system.solve(0, np.empty((n, m)))
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(3, 30),
        m=hst.integers(1, 6),
        mask_rate=hst.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]),
        mask_from=hst.integers(0, 30),
        rhs_from=hst.integers(0, 30),
        full_row=hst.integers(0, 29),
    )
    @example(seed=1, n=12, m=4, mask_rate=0.5, mask_from=0, rhs_from=12, full_row=5)  # mask change at row 0
    @example(seed=2, n=12, m=4, mask_rate=0.5, mask_from=7, rhs_from=0, full_row=9)  # rhs change at row 0
    @example(seed=3, n=12, m=4, mask_rate=0.5, mask_from=12, rhs_from=12, full_row=3)  # no change at all
    def test_restart_matches_fresh_factorization(self, seed, n, m, mask_rate, mask_from, rhs_from, full_row):
        # a mask equal above row r0 and a right-hand side equal above row k:
        # re-eliminating in place and sweeping forward from the first changed
        # row gives the bits of a fresh factorization and a full solve
        rng = np.random.default_rng(seed)
        r0, k, j = min(mask_from, n), min(rhs_from, n), full_row % n
        lower = -rng.uniform(0.0, 1.0, n)
        upper = -rng.uniform(0.0, 1.0, n)
        diag = np.abs(lower) + np.abs(upper) + rng.uniform(1e-3, 1.0, n)
        mask = rng.uniform(size=(n, m)) < mask_rate
        rhs = rng.normal(size=(n, m))
        # row j is fully masked before the change, row max(j, r0) after it
        mask[j] = True
        new_mask = mask.copy()
        new_mask[r0:] = rng.uniform(size=(n - r0, m)) < mask_rate
        new_mask[max(j, r0) : max(j, r0) + 1] = True
        new_rhs = rhs.copy()
        new_rhs[k:] = rng.normal(size=(n - k, m))

        system = qvi._Factorization(lower, diag, upper, mask)
        np.copyto(system.rhs, rhs)
        system.solve(0, np.empty((n, m)))
        system.refactor(new_mask, r0)
        system.rhs[k:] = new_rhs[k:]
        got = system.solve(k, np.empty((n, m)))

        fresh = qvi._Factorization(lower, diag, upper, new_mask)
        np.copyto(fresh.rhs, new_rhs)
        expected = fresh.solve(0, np.empty((n, m)))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert np.array_equal(system.mask, new_mask)
        assert system.eliminated_rows == 2 * n - r0
        assert system.substituted_rows == 4 * n - min(r0, k)

    def test_one_elimination_per_active_set(self, monkeypatch):
        # the empty-mask start is reused by the first pass, and each outer
        # iteration starts from the previous one's final factorization:
        # only a pass that changes the active set eliminates again
        # (in place, from the first row whose mask changed)
        starts = []

        class Counted(qvi._Factorization):
            def _eliminate(self, r0):
                starts.append(r0)
                super()._eliminate(r0)

        monkeypatch.setattr(qvi, "_Factorization", Counted)
        sol = qvi.solve(_stationary(0.01, 400, 100))
        assert sol.converged
        assert (sol.iterations, sum(sol.policy_iterations)) == (40, 96)
        assert len(starts) == 1 + sum(sol.policy_iterations) - sol.iterations == 57
        assert starts[0] == 0 and sol.eliminated_rows == sum(400 - r0 for r0 in starts)
