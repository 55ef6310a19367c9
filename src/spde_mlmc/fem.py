"""P1 finite element operators on a level and the semi-implicit time step.

The hat-function basis on the uniform interior grid with homogeneous
Dirichlet conditions makes mass and stiffness symmetric tridiagonal with
constant diagonals: M has 2h/3 and h/6, K has 2/h and -1/h. One
semi-implicit Euler-Maruyama step solves
``(M + dt*K) x_new = M x + dt*M F(x) + load``.

The package assembles neither matrix. The path engine, ``StepOperator``,
takes that step in sine-mode coordinates: the sine vectors diagonalise M and
K and are the nodal rows of the Karhunen-Loeve loads, so every mode evolves
on its own, driven by one standard normal per step. ``mode_factors`` alone
forms the per-mode eigenvalues, load amplitudes, step factors and mass
weights w_j (||S c||_M^2 = sum_j w_j c_j^2), the increments' deviation h
included, exact to rounding at every level, and returns them as named fields
(``ModeFactors``); each power rho^N is exp(N log rho); ``initial_decay``
alone forms the noise-free rho_1^N. Without drift a block of steps is one
weighted sum, formed in two stages from two BLOCK x modes tables of those
powers, which the operator holds; whoever builds one owns it. A drift F is a
plain callable on nodal values (None means F = 0), applied step by step; its
values must keep their shape. ``sine_transform``, an FFT, maps modes to nodal
values; ``mass_norm_sq`` forms the L2(0,1) norms x^T M x from the two
diagonals. The nodal scheme, with assembled bands and a Thomas solve per
step, lives in ``tests/reference.py`` as the oracle.
"""

from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CapacityError, UsageError
from .grid import MAX_TASK_BYTES, LevelGeometry, NodalField


def initial_field(level: LevelGeometry) -> NodalField:
    """Nodal interpolation of the initial condition sin(pi*x)."""
    if level.dofs < 1:
        raise UsageError("initial data needs at least one interior node")
    return NodalField(level, np.sin(np.pi * level.nodes))


#: Time steps per increment block of one ``StepOperator.step`` call. Fixed,
#: like the chunk size: it sets how the weighted sums are grouped, hence their
#: rounding, and the size of a block; results stay bitwise independent of the
#: worker count.
SLAB_STEPS = 1024

#: Rows per stage of the blocked weighted sum, sqrt(SLAB_STEPS): a block of
#: up to BLOCK**2 steps is summed in groups of BLOCK rows, then over groups.
BLOCK = 32


def sine_transform(coeffs: np.ndarray) -> np.ndarray:
    """Nodal values S c, S_ij = sin(i*j*pi/(dofs+1)), of sine coefficients c of
    shape (dofs,) or (dofs, b): a DST-I, taken as the real FFT of the odd
    extension [0, c, 0, -c reversed], whose imaginary part is -2 S c. S is
    symmetric and S S = (dofs+1)/2 I."""
    n = coeffs.shape[0]
    zero = np.zeros((1,) + coeffs.shape[1:])
    odd = np.concatenate([zero, coeffs, zero, -coeffs[::-1]])
    return -0.5 * np.fft.rfft(odd, axis=0).imag[1:n + 1]


class ModeFactors(NamedTuple):
    """The per-mode factors of a level (``mode_factors``): ``log_rho`` and
    ``weight`` of the sine modes j = 1..count, ``target`` (0-based sine index)
    and ``beta`` of the KL modes j = 1..modes."""

    log_rho: np.ndarray
    weight: np.ndarray
    target: np.ndarray
    beta: np.ndarray


def mode_factors(level: LevelGeometry, count: int, modes: int) -> ModeFactors:
    """The per-mode quantities of the scheme on ``level``, formed here alone:
    log rho_j and the mass weight w_j of the sine modes j = 1..count, and the
    sine index and beta_j of the KL modes j = 1..modes (see ``StepOperator``;
    count = dofs if modes > count).

    v_j = 1 - cos(j*pi*h) is taken as 2 sin^2(j*pi*h/2); the subtraction's
    relative error grows as 1/h^2 (8e-6 for mode 1 at level 19). With lm_j =
    h(1 - v_j/3) and lk_j = 2 v_j/h the eigenvalues of M and K, d_j = lm_j + dt lk_j
    and a_j = 2 sqrt(2) v_j/(j^2 pi^2 h) the load amplitude of KL mode j: rho_j =
    lm_j/d_j, log rho_j = log1p(-dt lk_j/d_j) and beta_j = a_j h/d_j: h = sqrt(dt),
    the deviation of the increments, enters here alone. Every rho^N, N = 1 to
    4**level, is exp(N log rho): rho^N multiplies rho's rounding error by N.
    w_j = (1 - v_j/3)/2 = lm_j (dofs+1)/2, so lm_j = 2h w_j, is the squared mass
    norm of sine vector j, and ||S c||_M^2 = sum_j w_j c_j^2 (S S = (dofs+1)/2 I).
    """
    h, dt, n = level.mesh_width, level.time_step, level.dofs
    j = np.arange(1, max(count, modes) + 1)
    v = 2.0 * np.sin(j * np.pi * h / 2.0) ** 2
    damping = dt * (2.0 / h) * v[:count]
    mass = 1.0 - v[:count] / 3.0
    denom = h * mass + damping
    r = j[:modes] % (2 * (n + 1))
    sign = np.where(r <= n, 1.0, -1.0)
    sign[(r == 0) | (r == n + 1)] = 0.0
    target = np.where(r <= n, r, 2 * (n + 1) - r) - 1
    target[sign == 0.0] = 0
    amplitude_h = np.sqrt(2.0) * 2.0 * v[:modes] / (j[:modes] ** 2 * np.pi**2)  # a_j h
    return ModeFactors(np.log1p(-damping / denom), mass / 2.0, target,
                       sign * amplitude_h / denom[target])


def initial_decay(level: LevelGeometry, steps: int) -> float:
    """rho_1**steps, as exp(steps log rho_1): the factor of the first sine vector,
    the initial data sin(pi*x), after ``steps`` steps without noise or drift."""
    return float(np.exp(steps * mode_factors(level, 1, 1).log_rho[0]))


class StepOperator:
    """Semi-implicit Euler-Maruyama steps of a level in sine-mode coordinates.

    A state is the coefficient vector c of the nodal values x = S c
    (``sine_transform``). The sine vectors diagonalise M and K and are the nodal
    rows of the KL loads, so without drift mode j follows c_j <- rho_j c_j +
    beta_j z_j, z_j a standard normal; beta_j carries h (``mode_factors``). KL
    modes beyond dofs alias onto sine vector |r| (or vanish), r = j mod
    2(dofs+1) folded into -dofs..dofs, with the sign of r.
    """

    def __init__(self, level: LevelGeometry, modes: Optional[int] = None):
        n = level.dofs
        if n < 1:
            raise UsageError(f"level {level.level} has an empty interior-node space")
        modes = n if modes is None else modes
        self.level = level
        self.modes = modes
        factors = mode_factors(level, n, modes)
        self.log_rho, self.beta = factors.log_rho, factors.beta
        #: Sine-vector index of each KL mode; None when it is the identity.
        self.fold = factors.target if modes > n else None
        exponents = np.arange(BLOCK - 1, -1, -1)[:, None] * self.log_rho[factors.target]
        #: inner[i] = rho**(BLOCK-1-i) and outer[k] = rho**(BLOCK*(BLOCK-1-k)) * beta,
        #: shape (BLOCK, modes): the weight rho**(n-1-m) * beta of step m = k*b + i
        #: of n is inner[-b:][i] * outer[-n//b:][k] (see ``step``). Formed in place:
        #: ``mlmc.chunk_bytes`` budgets an operator as these two tables.
        self.inner = np.exp(exponents)
        exponents *= BLOCK
        self.outer = np.exp(exponents, out=exponents)
        self.outer *= self.beta
        self.outer[(self.outer > -1e-300) & (self.outer < 1e-300)] = 0.0  # no denormals (with h)

    def _add_modes(self, coeffs: np.ndarray, per_mode: np.ndarray) -> np.ndarray:
        if self.fold is None:
            coeffs[:self.modes] += per_mode
        else:
            np.add.at(coeffs, self.fold, per_mode)
        return coeffs

    def step(self, rows: np.ndarray, coeffs: np.ndarray,
             drift: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> np.ndarray:
        """Advance modal coefficients over ``n`` steps of standard normal rows z.

        ``rows`` has shape (n, modes) for one path with ``coeffs`` (dofs,), or
        (n, modes, b) for b paths with ``coeffs`` (dofs, b). Without drift the
        block is one weighted sum, rho**n c + sum_m rho**(n-1-m) beta z_m, taken
        in two stages: the k = n/b groups of b = min(BLOCK, n) rows are summed
        with ``inner``, then the k group sums with ``outer``; n is 1..BLOCK or a
        multiple of BLOCK up to BLOCK**2 = SLAB_STEPS. A drift F, None for F = 0,
        maps nodal values of shape (dofs,) or (dofs, b) to values of the same
        shape, else a ``UsageError`` names both shapes; it must be vectorised and
        globally Lipschitz (documented, not checked). It enters step by step as
        c <- rho (c + dt f) + beta z with f = (2/(dofs+1)) S F(S c), two
        ``sine_transform`` calls per step.
        """
        tail = (1,) * (coeffs.ndim - 1)
        if drift is None:
            n = len(rows)
            b = min(BLOCK, n)
            if n < 1 or n % b or n > BLOCK * BLOCK:
                raise UsageError(f"a block of {n} steps is neither 1..{BLOCK} steps nor a "
                                 f"multiple of {BLOCK} up to {BLOCK * BLOCK}")
            k = n // b
            partial = np.einsum("kij...,ij->kj...", rows.reshape(k, b, *rows.shape[1:]),
                                self.inner[BLOCK - b:])
            weighted = np.einsum("kj...,kj->j...", partial, self.outer[BLOCK - k:])
            return self._add_modes(np.exp(n * self.log_rho).reshape(-1, *tail) * coeffs, weighted)
        rho, beta = np.exp(self.log_rho).reshape(-1, *tail), self.beta.reshape(-1, *tail)
        scale = 2.0 * self.level.time_step / (self.level.dofs + 1)
        for increments in rows:
            values = sine_transform(coeffs)
            forced = drift(values)
            if np.shape(forced) != values.shape:
                raise UsageError(f"the drift maps nodal values of shape {values.shape} to "
                                 f"shape {np.shape(forced)}")
            forcing = sine_transform(forced)
            coeffs = self._add_modes(rho * (coeffs + scale * forcing), beta * increments)
        return coeffs


#: Memory of a deterministic level per dof, an upper bound: with the exact mean,
#: error and mass product of ``det-conv`` it peaks at 6.2 doubles per dof at
#: level 7 and 5.0 from level 12 up (tracemalloc). It admits levels up to 24.
DETERMINISTIC_BYTES_PER_DOF = 11 * 8


def check_deterministic(level: LevelGeometry) -> None:
    """Reject a level whose deterministic run needs over ``MAX_TASK_BYTES``."""
    need = DETERMINISTIC_BYTES_PER_DOF * level.dofs
    if need > MAX_TASK_BYTES:
        raise CapacityError(f"the deterministic solve at level {level.level} needs about "
                            f"{need} bytes, above the {MAX_TASK_BYTES}-byte cap")


def run_deterministic(level: LevelGeometry) -> NodalField:
    """Propagate the initial condition to T = 1 with zero noise and drift.

    The initial data sin(pi*x) is the first sine vector, so the result is
    rho_1**steps times it. It approximates the exact mean exp(-pi^2) sin(pi*x);
    the L2 error decays at second order in the mesh width since dt = h^2.
    Memory is O(dofs): no operator is built. Above level 24 it raises
    CapacityError before it allocates (``check_deterministic``).
    """
    check_deterministic(level)
    return NodalField(level, initial_decay(level, level.steps) * initial_field(level).values)


def mass_norm_sq(level: LevelGeometry, values: np.ndarray):
    """Squared L2(0,1) norm x^T M x of the P1 function with nodal values x on
    ``level``: a float for ``values`` of shape (dofs,), the b column norms for
    shape (dofs, b)."""
    h = level.mesh_width
    product = (2.0 * h / 3.0) * values
    product[:-1] += (h / 6.0) * values[1:]
    product[1:] += (h / 6.0) * values[:-1]
    if values.ndim == 1:
        return float(values @ product)
    return np.einsum("ib,ib->b", values, product)
