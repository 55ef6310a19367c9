"""Reference implementations that the tests use as oracles.

The package steps paths in sine-mode coordinates (``fem.StepOperator``) and
forms L2 norms from the mass diagonals (``fem.mass_norm_sq``). The code here
takes the same semi-implicit Euler-Maruyama step the direct way, in nodal
values: the assembled mass and stiffness bands, a full block of
Karhunen-Loeve increments per path, the load vector (dW_k, phi_i) of each step
from the closed-form projections, and one tridiagonal (Thomas) solve per step.
It is slow and exists only to check the engine against. ``direct_block_step``
forms a block's weighted sum from one direct table of step weights, the
oracle of the engine's two-stage sum. ``mc_estimate``, a plain Monte Carlo
mean over any sampler, checks the N^-1/2 rate. ``mode_moments`` alone forms
the exact per-mode law at T = 1 for F(u) = c u (F = 0 by default): each
sine mode's mean and variance on a level and the fine/coarse covariance of a
coupled pair. ``pair_covariances`` gives that law in dense nodal form, for
the variances that ``pair_variances`` estimates, and ``squared_norm_mean``
the exact mean of the squared-norm functional.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from spde_mlmc.errors import NumericalError, UsageError
from spde_mlmc.fem import mode_factors
from spde_mlmc.grid import LevelGeometry, NodalField, make_level, prolong_values
from spde_mlmc.noise import coarsen_rows, draw_increment_rows


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Tridiagonal matrix stored by diagonals (sub and sup have length n-1)."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        n = len(self.diag)
        if len(self.sub) != n - 1 or len(self.sup) != n - 1:
            raise UsageError("inconsistent tridiagonal band lengths")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Product with a vector (n,) or a batch of columns (n, b)."""
        if x.ndim == 1:
            y = self.diag * x
            y[:-1] += self.sup * x[1:]
            y[1:] += self.sub * x[:-1]
        else:
            y = self.diag[:, None] * x
            y[:-1] += self.sup[:, None] * x[1:]
            y[1:] += self.sub[:, None] * x[:-1]
        return y


def assemble(level: LevelGeometry):
    """Mass and stiffness matrices of the P1 space on ``level``.

    Mass has diagonal 2h/3 and off-diagonal h/6; stiffness has diagonal 2/h
    and off-diagonal -1/h.
    """
    if level.dofs < 1:
        raise UsageError(f"level {level.level} has an empty interior-node space")
    n = level.dofs
    h = level.mesh_width
    mass = TridiagonalMatrix(
        sub=np.full(n - 1, h / 6.0),
        diag=np.full(n, 2.0 * h / 3.0),
        sup=np.full(n - 1, h / 6.0),
    )
    stiffness = TridiagonalMatrix(
        sub=np.full(n - 1, -1.0 / h),
        diag=np.full(n, 2.0 / h),
        sup=np.full(n - 1, -1.0 / h),
    )
    return mass, stiffness


def dense(m: TridiagonalMatrix) -> np.ndarray:
    """The tridiagonal matrix as a dense array."""
    a = np.diag(m.diag)
    a += np.diag(m.sub, -1)
    a += np.diag(m.sup, 1)
    return a


def thomas_solve(m: TridiagonalMatrix, rhs: np.ndarray) -> np.ndarray:
    """Direct tridiagonal solve (Thomas algorithm) for a single right side.

    Requires a numerically safe pivot sequence; the diagonally dominant
    systems arising from ``M + dt*K`` always qualify. The residual satisfies
    ``max|m@x - rhs| <= 1e-12 * max|rhs|`` for such systems.
    """
    n = len(m.diag)
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (n,):
        raise UsageError(f"rhs length {rhs.shape} does not match matrix size {n}")
    c = np.empty(n - 1) if n > 1 else np.empty(0)
    d = np.empty(n)
    piv = m.diag[0]
    if piv == 0.0:
        raise NumericalError("zero pivot in tridiagonal solve at row 0")
    d[0] = rhs[0] / piv
    if n > 1:
        c[0] = m.sup[0] / piv
    for i in range(1, n):
        piv = m.diag[i] - m.sub[i - 1] * c[i - 1]
        if piv == 0.0:
            raise NumericalError(f"zero pivot in tridiagonal solve at row {i}")
        d[i] = (rhs[i] - m.sub[i - 1] * d[i - 1]) / piv
        if i < n - 1:
            c[i] = m.sup[i] / piv
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def euler_step(
    level: LevelGeometry,
    mass: TridiagonalMatrix,
    stiffness: TridiagonalMatrix,
    state: NodalField,
    drift: Optional[Callable[[np.ndarray], np.ndarray]],
    noise_load: np.ndarray,
) -> NodalField:
    """One semi-implicit Euler-Maruyama step.

    Solves ``(M + dt*K) x_new = M x + dt * M F(x) + noise_load`` where the
    noise load already carries the inner products (dW, phi_i).
    """
    if state.level.level != level.level:
        raise UsageError("state level does not match geometry")
    noise_load = np.asarray(noise_load, dtype=np.float64)
    if noise_load.shape != (level.dofs,):
        raise UsageError("noise load length does not match dofs")
    dt = level.time_step
    system = TridiagonalMatrix(
        sub=mass.sub + dt * stiffness.sub,
        diag=mass.diag + dt * stiffness.diag,
        sup=mass.sup + dt * stiffness.sup,
    )
    rhs = mass.matvec(state.values) + noise_load
    if drift is not None:
        rhs += dt * mass.matvec(drift(state.values))
    return NodalField(level, thomas_solve(system, rhs))


def direct_block_step(op, rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``StepOperator.step`` without drift, as one multiply-then-sum over the
    direct table of weights rho**(n-1-m) * beta of steps m = 0..n-1 (rho of
    each KL mode's sine target, entries below 1e-300 flushed to 0): rows
    (n, modes) with coeffs (dofs,), or (n, modes, b) with (dofs, b)."""
    n = len(rows)
    tail = (1,) * (coeffs.ndim - 1)
    rho = np.exp(op.log_rho)
    target = op.fold if op.fold is not None else np.arange(op.modes)
    weights = rho[target] ** np.arange(n - 1, -1, -1)[:, None] * op.beta
    weights[np.abs(weights) < 1e-300] = 0.0
    out = rho.reshape(-1, *tail) ** n * coeffs
    np.add.at(out, target, (weights.reshape(n, -1, *tail) * rows).sum(axis=0))
    return out


@dataclass(frozen=True)
class ProjectionMatrix:
    """Inner products (e_j, phi_i) of eigenfunctions against hat functions."""

    level: LevelGeometry
    matrix: np.ndarray  # shape (modes, dofs)

    @property
    def modes(self) -> int:
        return self.matrix.shape[0]


def projection_matrix(level: LevelGeometry, modes: int) -> ProjectionMatrix:
    """Closed-form load projections.

    Entry (j, i) is the integral of phi_i against sqrt(2) sin(j*pi*x):
    sqrt(2) * 4 sin(j*pi*h/2)^2 / (j^2 pi^2 h) * sin(j*pi*x_i).
    """
    if modes < 1:
        raise UsageError("need at least one mode")
    if level.dofs < 1:
        raise UsageError("projection needs at least one interior node")
    j = np.arange(1, modes + 1, dtype=np.float64)
    h = level.mesh_width
    amplitudes = np.sqrt(2.0) * 4.0 * np.sin(j * np.pi * h / 2.0) ** 2 / (j**2 * np.pi**2 * h)
    phases = np.sin(np.outer(j * np.pi, level.nodes))
    return ProjectionMatrix(level, amplitudes[:, None] * phases)


@dataclass(frozen=True)
class KLBlock:
    """Gaussian increments dW_{j,k} ~ N(0, dt) for one sample path.

    Rows index the J expansion modes, columns the time steps of the level.
    """

    level: LevelGeometry
    increments: np.ndarray  # shape (modes, steps)

    def __post_init__(self):
        if self.increments.shape[1] != self.level.steps:
            raise UsageError("increment columns do not match the level's steps")

    @property
    def modes(self) -> int:
        return self.increments.shape[0]


def sample_kl_block(stream: np.random.Generator, level: LevelGeometry, modes: int) -> KLBlock:
    """Sample the full increment block of a path at ``level``: the engine's
    standard normal rows times the increments' standard deviation h."""
    rows = draw_increment_rows(stream, level.steps, modes) * level.mesh_width
    return KLBlock(level, np.ascontiguousarray(rows.T))


def coarsen_block(fine: KLBlock, modes: int) -> KLBlock:
    """Exactly coupled increments of the next coarser level.

    Each coarse increment is the sum of the four fine increments it spans,
    restricted to the coarse truncation, so its law is N(0, dt_coarse): twice
    ``coarsen_rows``, which halves that sum to keep unit rows unit.
    """
    if modes > fine.modes:
        raise UsageError(f"coarse truncation {modes} exceeds fine modes {fine.modes}")
    if fine.level.steps % 4 != 0:
        raise UsageError("fine step count must be divisible by 4")
    coarse_level = make_level(fine.level.level - 1)
    rows = np.ascontiguousarray(fine.increments.T)
    coarse_rows = 2.0 * coarsen_rows(rows, modes)
    return KLBlock(coarse_level, np.ascontiguousarray(coarse_rows.T))


def noise_load(block: KLBlock, step: int, proj: ProjectionMatrix) -> np.ndarray:
    """Load vector (dW_k, phi_i) for one time step."""
    if proj.level.level != block.level.level:
        raise UsageError("projection and block belong to different levels")
    if proj.modes != block.modes:
        raise UsageError("projection and block disagree on mode count")
    if not 0 <= step < block.level.steps:
        raise UsageError(f"step {step} out of range for {block.level.steps} steps")
    return block.increments[:, step] @ proj.matrix


def mc_estimate(sampler: Callable[[int], object], n: int,
                functional: Optional[Callable] = None):
    """Plain Monte Carlo mean of ``sampler(0..n-1)`` with unbiased variance.

    Works for scalar or array-valued samples; the variance of array samples
    is the mean squared Euclidean distance from the sample mean.
    """
    if n < 1:
        raise UsageError("Monte Carlo estimate needs at least one sample")
    values = []
    for i in range(n):
        v = sampler(i)
        if functional is not None:
            v = functional(v)
        values.append(np.asarray(v, dtype=np.float64))
    total = values[0].copy()
    for v in values[1:]:
        total += v
    estimate = total / n
    if n == 1:
        variance = 0.0
    else:
        variance = sum(float(np.sum((v - estimate) ** 2)) for v in values) / (n - 1)
    if estimate.ndim == 0:
        return float(estimate), variance
    return estimate, variance


class ModeLaw(NamedTuple):
    """The law at T = 1 of the sine coefficients of a path on one level: the
    mass weights (``fem.ModeFactors.weight``), the means and the variances of
    modes j = 1..dofs; the modes are independent."""

    weight: np.ndarray
    mean: np.ndarray
    variance: np.ndarray


def mode_moments(level_index: int, c: float = 0.0):
    """The exact per-mode law at T = 1 of a path at ``level_index`` and of its
    coupled coarse partner one level below, for the linear drift F(u) = c u and
    J = dofs on both levels: (fine, coarse, covariance), two ``ModeLaw`` and the
    covariance of fine and coarse mode j = 1..coarse dofs; coarse and covariance
    are None at level 1.

    A drift step adds dt f to the coefficients, f = (2/(dofs+1)) S F(S c) = c c
    as S S = (dofs+1)/2 I, so mode j steps with rho_j (1 + c dt) on each level
    (rho_j and beta_j from ``fem.mode_factors``). The initial data sin(pi x) is
    sine vector 1, so the mean is (rho_1 (1 + c dt))^N e_1 after N steps, and
    mode j has variance beta_j^2 (1 - rho_j^(2N)) / (1 - rho_j^2). A coarse row
    is half the sum of four fine rows, so fine and coarse mode j have covariance
    (beta_f beta_c / 2) (1 + rho_f + rho_f^2 + rho_f^3) (1 - q^N_c) / (1 - q),
    q = rho_c rho_f^4. Every power is exp(N log rho) and every 1 - x^N an expm1.
    """
    levels = [make_level(index) for index in (level_index, level_index - 1) if index >= 1]
    laws, rates = [], []
    for level in levels:  # fine, then coarse
        factors = mode_factors(level, level.dofs, level.dofs)
        log_rho = factors.log_rho + np.log1p(c * level.time_step)
        mean = np.zeros(level.dofs)
        mean[0] = np.exp(level.steps * log_rho[0])
        laws.append(ModeLaw(factors.weight, mean, factors.beta**2
                            * np.expm1(2 * level.steps * log_rho) / np.expm1(2 * log_rho)))
        rates.append((log_rho, factors.beta))
    if len(levels) == 1:
        return laws[0], None, None
    (log_f, beta_f), (log_c, beta_c) = rates
    coarse = levels[1]
    j = coarse.dofs
    log_q = log_c + 4 * log_f[:j]
    covariance = (0.5 * beta_f[:j] * beta_c
                  * np.exp(np.arange(4)[:, None] * log_f[:j]).sum(axis=0)
                  * np.expm1(coarse.steps * log_q) / np.expm1(log_q))
    return laws[0], laws[1], covariance


def squared_norm_mean(level_index: int) -> float:
    """E||u_L||^2 at T = 1 for F = 0 and J = dofs, the exact mean of the
    squared-norm functional on a level: sum_j w_j (Var c_j + mean_j^2), as
    ||S c||_M^2 = sum_j w_j c_j^2 (``mode_moments``)."""
    law = mode_moments(level_index)[0]
    return float(np.sum(law.weight * (law.variance + law.mean**2)))


def pair_covariances(pair_level: int, c: float = 0.0):
    """The exact law at T = 1 of a coupled pair at ``pair_level`` >= 2 above the
    base level, for the linear drift F(u) = c u (F = 0 by default) and J = dofs
    on both levels: (M, cov_difference, cov_fine), the dense fine-level mass
    matrix and the covariances of the nodal level difference x_f - P x_c and of
    the fine path x_f, from the per-mode law of ``mode_moments``.

    The nodal values are S c, S_ij = sin(i j pi h), and P x_c is the coarse
    path prolonged (``prolong_values``). So var_difference = tr(M cov_difference)
    and var_level = tr(M cov_fine); dense, fine up to level 8 or so.
    """
    fine, coarse, cov = mode_moments(pair_level, c)
    levels = make_level(pair_level), make_level(pair_level - 1)
    s_f, s_c = (np.sin(np.outer(level.nodes, np.arange(1, level.dofs + 1) * np.pi))
                for level in levels)
    b = prolong_values(s_c)  # P S_c
    cov_fine = (s_f * fine.variance) @ s_f.T
    cross = (s_f[:, :len(cov)] * cov) @ b.T
    cov_difference = cov_fine + (b * coarse.variance) @ b.T - cross - cross.T
    return dense(assemble(levels[0])[0]), cov_difference, cov_fine
