"""Finite-difference solver for the stationary impulse-control inequality.

On a (price S, center c) grid the value function V must satisfy, at every
node, the complementarity condition

    min( rho*V - drift*V_S - 0.5*sigma^2*V_SS - f(S,c),
         V(S,c) - [V(S,S) - C] ) = 0,

where f is the in-range fee rate and C the recentering cost. Nodes where
the first expression vanishes form the continuation region; nodes where
the second binds form the jump region. The solver iterates obstacle
updates: given the current diagonal values, each c-slice is an ordinary
one-dimensional obstacle problem, solved exactly by policy (active-set)
iteration with vectorized tridiagonal sweeps. Upwinded drift and central
diffusion make every slice matrix an M-matrix, so the scheme is monotone
and the active-set iteration terminates.

One factorization serves the whole solve and is updated in place, and
each pass redoes only the rows its change reaches: row i of a Thomas
sweep depends only on rows 0..i. A pass that changes the active set
re-eliminates from the first row whose mask changed. The forward-swept
right-hand side is kept between passes, and each pass sweeps forward
from its first changed row: for the first pass of an outer iteration,
which starts from the previous final set, the first row holding an
obstacle node whose psi moved; for a later pass, the first row whose
mask changed. The back substitution is always a full sweep. Rows above a
restart hold the floats the same operations gave before, so the solution
has the bits of solving every pass from scratch. The no-intervention
start's empty set and its forward sweep serve the first pass.

Reflecting (zero-derivative) boundaries are imposed at the S-grid edges;
the grid must be wide enough that they sit far from the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ammcore, artifacts
from .ammcore import PoolConfig
from .synthpath import OuParams

DEFAULT_RHO = -math.log(0.99)  # one-second discounting matched to gamma=0.99
# The S-grid spans at least mu +/- MIN_SPAN_SIGMAS * sigma/sqrt(2 theta), the
# stationary OU spread, so the reflecting edges sit far from the band.
MIN_SPAN_SIGMAS = 5.0


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("grid needs at least 3 points")
        if not self.lo < self.hi:
            raise ValueError("grid bounds must satisfy lo < hi")

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)


@dataclass(frozen=True)
class QviProblem:
    ou: OuParams
    pool: PoolConfig
    s_grid: GridSpec
    c_grid: GridSpec
    rho: float = DEFAULT_RHO
    ref_volume: float = 50_000.0
    cost: float | None = None

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be > 0")
        if self.s_grid.lo <= 0 or self.c_grid.lo <= 0:
            raise ValueError("S- and c-grids must lie at positive prices")
        if self.ou.theta > 0 and self.ou.sigma > 0:
            half_span = MIN_SPAN_SIGMAS * self.ou.sigma / math.sqrt(2.0 * self.ou.theta)
            if self.s_grid.lo > self.ou.mu - half_span or self.s_grid.hi < self.ou.mu + half_span:
                raise ValueError(f"S-grid must span mu +/- {MIN_SPAN_SIGMAS:g} sigma/sqrt(2 theta)")

    @classmethod
    def default(
        cls,
        ou: OuParams,
        pool: PoolConfig | None = None,
        n_s: int = 400,
        n_c: int = 100,
        span_sigmas: float = MIN_SPAN_SIGMAS,
        **kwargs,
    ) -> "QviProblem":
        pool = pool or PoolConfig()
        if ou.theta <= 0 or ou.sigma <= 0:
            raise ValueError("default grids need theta > 0 and sigma > 0")
        half_span = span_sigmas * ou.sigma / math.sqrt(2.0 * ou.theta)
        s_grid = GridSpec(ou.mu - half_span, ou.mu + half_span, n_s)
        c_grid = GridSpec(ou.mu - half_span, ou.mu + half_span, n_c)
        return cls(ou=ou, pool=pool, s_grid=s_grid, c_grid=c_grid, **kwargs)

    def fee_rate(self) -> float:
        """In-range fee per second at the reference volume."""
        return ammcore.fee_rate(self.pool, self.ref_volume, self.pool.width, self.pool.capital)

    def cost_value(self) -> float:
        if self.cost is not None:
            return self.cost
        return ammcore.rebalance_cost(self.pool)


@dataclass
class QviSolution:
    problem: QviProblem
    s: np.ndarray
    c: np.ndarray
    V: np.ndarray  # (n_s, n_c)
    jump: np.ndarray  # bool (n_s, n_c): obstacle binding within tolerance
    converged: bool
    settled: bool  # every inner active-set solve settled within its pass cap
    iterations: int
    sup_change: float
    sup_change_history: list[float]  # sup-norm change of each outer iteration
    policy_iterations: list[int]  # active-set passes of each outer iteration
    eliminated_rows: int  # tridiagonal row steps of the coefficient eliminations
    substituted_rows: int  # tridiagonal row steps of the forward and back substitutions


def _operator(problem: QviProblem):
    """Tridiagonal coefficients of rho - L with upwind drift, reflecting edges."""
    s = problem.s_grid.points()
    h = problem.s_grid.step
    n = len(s)
    b = problem.ou.theta * (problem.ou.mu - s)
    bp = np.maximum(b, 0.0)
    bm = np.maximum(-b, 0.0)
    half_diff = 0.5 * problem.ou.sigma**2 / h**2

    lower = -(bm / h + half_diff)
    upper = -(bp / h + half_diff)
    diag = problem.rho + (bp + bm) / h + 2.0 * half_diff

    # reflecting edges: mirrored diffusion neighbor, outward drift dropped
    diag[0] = problem.rho + bp[0] / h + 2.0 * half_diff
    upper[0] = -(bp[0] / h + 2.0 * half_diff)
    lower[0] = 0.0
    diag[-1] = problem.rho + bm[-1] / h + 2.0 * half_diff
    lower[-1] = -(bm[-1] / h + 2.0 * half_diff)
    upper[-1] = 0.0
    return s, lower, diag, upper


def _fee_table(problem: QviProblem, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    lower, upper = ammcore.band(c, problem.pool.width)
    in_band = (lower <= s[:, None]) & (s[:, None] <= upper)
    return np.where(in_band, problem.fee_rate(), 0.0)


class _Factorization:
    """Tridiagonal systems stacked along axis 1, eliminated for one active set at a time.

    Masked (obstacle) nodes become identity rows (lower 0, diagonal 1,
    upper 0). One object serves a whole QVI solve and is updated in place:
    row i of the elimination depends only on rows 0..i of the mask, and row
    i of the forward-swept right-hand side only on those and on rows 0..i
    of `rhs`. So `refactor` re-eliminates from the first row whose mask
    changed, and `solve` forward-sweeps from the first row whose right-hand
    side or elimination changed since its last sweep; the rows above a
    restart hold the floats the same operations produced before. The back
    substitution is always a full sweep. Every element goes through the
    float operations of the plain Thomas sweep in the same order, so the
    solutions keep their bits. Rows are kept as pre-listed views and each
    row step is one ufunc writing into a view, so the loops index nothing
    and allocate nothing. `eliminated_rows` and `substituted_rows` count
    the row steps made.
    """

    def __init__(self, lower, diag, upper, mask):
        self.mask = mask.copy()
        self.rhs = np.empty(mask.shape)  # the caller writes it, from `start` on, before each solve
        lo, den, cp, dp = (np.empty(mask.shape) for _ in range(4))
        # each eliminated array with its coefficient column and its value at masked nodes
        self._coefficients = ((lo, lower[:, None], 0.0), (den, diag[:, None], 1.0), (cp, upper[:, None], 0.0))
        self._lo, self._den, self._cp, self._dp, self._rhs = map(list, (lo, den, cp, dp, self.rhs))
        self._tmp = np.empty(mask.shape[1])
        self._restart = 0  # first row whose forward sweep is out of date
        self.eliminated_rows = self.substituted_rows = 0
        self._eliminate(0)

    def refactor(self, mask, r0):
        """Adopt `mask`, equal to the current mask above row r0."""
        self.mask[r0:] = mask[r0:]
        self._eliminate(r0)

    def _eliminate(self, r0):
        n = len(self._den)
        self.eliminated_rows += n - r0
        self._restart = min(self._restart, r0)
        masked = self.mask[r0:]
        for rows, coefficient, fill in self._coefficients:
            np.copyto(rows[r0:], coefficient[r0:])
            np.copyto(rows[r0:], fill, where=masked)
        lo, den, cp, tmp = self._lo, self._den, self._cp, self._tmp
        if r0 == 0:
            np.divide(cp[0], den[0], cp[0])
            r0 = 1
        for lo_i, den_i, cp_prev, cp_i in zip(lo[r0:], den[r0:], cp[r0 - 1 :], cp[r0:]):
            np.multiply(lo_i, cp_prev, tmp)
            np.subtract(den_i, tmp, den_i)
            np.divide(cp_i, den_i, cp_i)

    def solve(self, start: int, out: np.ndarray) -> np.ndarray:
        """Write the solution for `rhs` into `out` and return it.

        `start` is the first row of `rhs` written since the last solve; the
        forward sweep starts there, or higher up if `refactor` re-eliminated
        a row above it.
        """
        n = len(self._den)
        start = min(start, self._restart)
        self._restart = n
        self.substituted_rows += 2 * n - start
        lo, den, dp, rhs, tmp = self._lo, self._den, self._dp, self._rhs, self._tmp
        if start == 0:
            np.divide(rhs[0], den[0], dp[0])
            start = 1
        rows = zip(lo[start:], den[start:], dp[start - 1 :], rhs[start:], dp[start:])
        for lo_i, den_i, dp_prev, rhs_i, dp_i in rows:
            np.multiply(lo_i, dp_prev, tmp)
            np.subtract(rhs_i, tmp, dp_i)
            np.divide(dp_i, den_i, dp_i)
        x = list(out)
        np.copyto(x[-1], dp[-1])
        for cp_i, dp_i, x_i, x_next in zip(self._cp[-2::-1], dp[-2::-1], x[-2::-1], x[:0:-1]):
            np.multiply(cp_i, x_next, tmp)
            np.subtract(dp_i, tmp, x_i)
        return out


def _apply_operator(lower, diag, upper, V, out, tmp):
    """Write A V into `out`; `tmp`, of V's shape, is scratch."""
    np.multiply(diag[:, None], V, out)
    np.multiply(lower[1:, None], V[:-1], tmp[1:])
    np.add(out[1:], tmp[1:], out[1:])
    np.multiply(upper[:-1, None], V[1:], tmp[:-1])
    np.add(out[:-1], tmp[:-1], out[:-1])
    return out


def _first_row(changed: np.ndarray) -> int:
    """The first row of a 2-D bool array holding a True, or its row count if none."""
    k = int(changed.argmax())
    return k // changed.shape[1] if changed.flat[k] else changed.shape[0]


def _solve_obstacle(lower, diag, upper, F, psi, system, max_policy_iters=100):
    """Exact LCP solve per slice: min(A V - F, V - psi) = 0 nodewise.

    `system` is the factorization of the warm-start active set
    (`system.mask`, True = obstacle row), with `system.rhs` built from it
    and the previous obstacle; it is updated in place to the final active
    set. Returns (V, passes, settled), passes being the tridiagonal solves
    made. The first pass sweeps forward from the first row holding
    a masked node whose psi moved, each later pass from the first row
    whose mask changed. Active-set iteration on an M-matrix terminates;
    settled is False when max_policy_iters cut it short.
    """
    n_s = F.shape[0]
    psi_col = np.broadcast_to(psi[:, None], F.shape)
    rhs = system.rhs
    V, residual, gap = np.empty_like(F), np.empty_like(F), np.empty_like(F)
    new_mask, changed = np.empty(F.shape, dtype=bool), np.empty(F.shape, dtype=bool)
    # psi compared by bits, so a sign-of-zero change also counts
    np.not_equal(rhs.view(np.int64), psi.view(np.int64)[:, None], out=changed)
    start = _first_row(np.logical_and(changed, system.mask, out=changed))
    np.copyto(rhs[start:], psi_col[start:], where=system.mask[start:])
    for passes in range(1, max_policy_iters + 1):
        system.solve(start, V)
        np.subtract(_apply_operator(lower, diag, upper, V, residual, gap), F, residual)
        np.less(np.subtract(V, psi_col, gap), residual, new_mask)
        start = _first_row(np.not_equal(new_mask, system.mask, out=changed))
        if start == n_s:
            return V, passes, True
        system.refactor(new_mask, start)
        np.copyto(rhs[start:], F[start:])
        np.copyto(rhs[start:], psi_col[start:], where=system.mask[start:])
    return V, max_policy_iters, False


def _diagonal_values(V: np.ndarray, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """V(S, c=S) per S row, linear interpolation along c (clamped at edges)."""
    n_s = len(s)
    pos = np.interp(s, c, np.arange(len(c)))
    j0 = np.floor(pos).astype(int)
    j1 = np.minimum(j0 + 1, len(c) - 1)
    frac = pos - j0
    rows = np.arange(n_s)
    return (1.0 - frac) * V[rows, j0] + frac * V[rows, j1]


def solve(problem: QviProblem, tol: float = 1e-6, max_iters: int = 20_000) -> QviSolution:
    """Iterate obstacle updates until the value function is stationary.

    Starts from the no-intervention value and repeatedly re-solves every
    c-slice against the obstacle psi(S) = V(S,S) - C from the previous
    iterate. Values increase monotonically toward the fixed point;
    convergence is declared when the sup-norm change drops below tol and
    the last inner obstacle solve settled its active set. Hitting
    max_iters, or a last inner solve cut short, returns the last iterate
    flagged converged=False.
    """
    s, lower, diag, upper = _operator(problem)
    c = problem.c_grid.points()
    F = _fee_table(problem, s, c)
    C = problem.cost_value()

    # no-intervention start: plain PDE solve per slice, whose empty-mask
    # factorization and forward sweep the first obstacle pass reuses
    system = _Factorization(lower, diag, upper, np.zeros(F.shape, dtype=bool))
    np.copyto(system.rhs, F)
    V = system.solve(0, np.empty_like(F))

    sup_change = math.inf
    iterations = 0
    all_settled = True
    history, passes_per_iter = [], []
    for iterations in range(1, max_iters + 1):
        psi = _diagonal_values(V, s, c) - C
        V_new, passes, settled = _solve_obstacle(lower, diag, upper, F, psi, system)
        all_settled &= settled
        sup_change = float(np.max(np.abs(V_new - V)))
        history.append(sup_change)
        passes_per_iter.append(passes)
        V = V_new
        if sup_change < tol:
            break

    converged = sup_change < tol and settled
    psi = _diagonal_values(V, s, c) - C
    label_tol = max(tol, 1e-9 * float(np.max(np.abs(V))) if V.size else tol)
    jump = (V - psi[:, None]) <= label_tol
    return QviSolution(
        problem=problem,
        s=s,
        c=c,
        V=V,
        jump=jump,
        converged=converged,
        settled=all_settled,
        iterations=iterations,
        sup_change=sup_change,
        sup_change_history=history,
        policy_iterations=passes_per_iter,
        eliminated_rows=system.eliminated_rows,
        substituted_rows=system.substituted_rows,
    )


def complementarity_residual(sol: QviSolution) -> np.ndarray:
    """Nodewise |min(PDE residual, obstacle gap)|; ~0 for a valid solution."""
    _, lower, diag, upper = _operator(sol.problem)
    F = _fee_table(sol.problem, sol.s, sol.c)
    psi = _diagonal_values(sol.V, sol.s, sol.c) - sol.problem.cost_value()
    residual = _apply_operator(lower, diag, upper, sol.V, np.empty_like(sol.V), np.empty_like(sol.V)) - F
    gap = sol.V - psi[:, None]
    return np.abs(np.minimum(residual, gap))


def obstacle_violation(sol: QviSolution) -> float:
    """Largest amount by which V dips below V(S,S) - C (0 when feasible)."""
    psi = _diagonal_values(sol.V, sol.s, sol.c) - sol.problem.cost_value()
    return float(np.max(psi[:, None] - sol.V))


def boundary_deviation(sol: QviSolution, c_value: float) -> tuple[float, float]:
    """Nearest jump-labeled deviations below and above a given center.

    Returns (lower_dev, upper_dev) as |S/c - 1| of the closest jump node
    on each side; NaN when that side has no jump nodes. The node closest
    to the center itself is ignored so a zero-cost solution reports the
    first off-center cell rather than 0.
    """
    j = int(np.argmin(np.abs(sol.c - c_value)))
    cj = sol.c[j]
    col = sol.jump[:, j]
    half_cell = 0.5 * sol.problem.s_grid.step
    below = np.where(col & (sol.s < cj - half_cell))[0]
    above = np.where(col & (sol.s > cj + half_cell))[0]
    lower_dev = float(abs(sol.s[below[-1]] / cj - 1.0)) if len(below) else math.nan
    upper_dev = float(abs(sol.s[above[0]] / cj - 1.0)) if len(above) else math.nan
    return lower_dev, upper_dev


def write_solution_csv(path, sol: QviSolution) -> None:
    n_s, n_c = sol.V.shape
    # object arrays share their strings: 8 bytes a node, a "<U12" array 48;
    # each grid axis is formatted once and its texts repeated as labels
    region = np.array(["continuation", "jump"], dtype=object)[sol.jump.ravel().view(np.uint8)]
    s_cells, c_cells = (np.array(artifacts.cell_texts(axis), dtype=object) for axis in (sol.s, sol.c))
    columns = (np.repeat(s_cells, n_c), np.tile(c_cells, n_s), sol.V.ravel(), region)
    artifacts.write_columns(path, ["S", "c", "V", "region"], columns)


def write_boundary_csv(path, sol: QviSolution) -> None:
    rows = ((c_val, *boundary_deviation(sol, c_val)) for c_val in sol.c.tolist())
    artifacts.write_csv(path, ["c", "lower_dev", "upper_dev"], rows)
