"""P1 finite element operators on a level and the semi-implicit time step.

The hat-function basis on the uniform interior grid with homogeneous
Dirichlet conditions makes mass and stiffness symmetric tridiagonal with
constant diagonals: M has 2h/3 and h/6, K has 2/h and -1/h. One
semi-implicit Euler-Maruyama step solves
``(M + dt*K) x_new = M x + dt*M F(x) + load``.

The package assembles neither matrix. The path engine, ``StepOperator``,
takes that step in sine-mode coordinates: on the uniform Dirichlet grid the
sine vectors diagonalise M and K and are the nodal rows of the
Karhunen-Loeve loads, so every mode evolves on its own, and without drift a
block of steps is one weighted sum over its increments, formed in two stages
from two BLOCK x modes tables of powers of the step factors; ``sine_transform``,
an FFT, maps modes to nodal values. The L2(0,1) norms that the estimators
report are x^T M x, formed by ``mass_norm_sq`` from the two diagonals. The
nodal form of the scheme, with the assembled bands and a Thomas solve per
step, lives in ``tests/reference.py`` as the oracle.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import UsageError
from .grid import LevelGeometry, NodalField, make_level
from .noise import kl_modes, load_amplitudes


@dataclass(frozen=True)
class DriftSpec:
    """Nodewise drift F applied to the state. ``func`` must be globally
    Lipschitz (documented contract, not machine-checked) and vectorised
    over numpy arrays. ``func=None`` means F = 0."""

    func: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "zero"

    def apply(self, values: np.ndarray) -> Optional[np.ndarray]:
        if self.func is None:
            return None
        return self.func(values)


ZERO_DRIFT = DriftSpec()


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


def _mode_factors(level: LevelGeometry):
    """Per sine mode j = 1..dofs, the step factor rho_j = lm_j/(lm_j + dt lk_j)
    and the denominator lm_j + dt lk_j (see ``StepOperator``)."""
    h, dt = level.mesh_width, level.time_step
    cos = np.cos(np.arange(1, level.dofs + 1) * np.pi * h)
    lam_m = h * (2.0 / 3.0 + cos / 3.0)
    denom = lam_m + dt * (2.0 / h) * (1.0 - cos)
    return lam_m / denom, denom


class StepOperator:
    """Semi-implicit Euler-Maruyama steps of a level in sine-mode coordinates.

    A state is the coefficient vector c of the nodal values x = S c
    (``sine_transform``). The sine vectors diagonalise M and K (eigenvalues
    lm_j = h(2/3 + cos(j*pi*h)/3) and lk_j = (2/h)(1 - cos(j*pi*h))) and are the
    nodal rows of the KL loads, so without drift mode j follows
    c_j <- rho_j c_j + beta_j dW_j with rho_j = lm_j/(lm_j + dt lk_j) and
    beta_j = a_j/(lm_j + dt lk_j), a_j the load amplitude of KL mode j. KL modes
    beyond dofs alias onto sine vector |r| (or vanish), r = j mod 2(dofs+1)
    folded into -dofs..dofs, with the sign of r.
    """

    def __init__(self, level: LevelGeometry, modes: Optional[int] = None):
        n = level.dofs
        if n < 1:
            raise UsageError(f"level {level.level} has an empty interior-node space")
        modes = n if modes is None else modes
        self.level = level
        self.modes = modes
        self.rho, denom = _mode_factors(level)
        r = np.arange(1, modes + 1) % (2 * (n + 1))
        sign = np.where(r <= n, 1.0, -1.0)
        sign[(r == 0) | (r == n + 1)] = 0.0
        target = np.where(r <= n, r, 2 * (n + 1) - r) - 1
        target[sign == 0.0] = 0
        #: Sine-vector index of each KL mode; None when it is the identity.
        self.fold = target if modes > n else None
        self.beta = sign * load_amplitudes(level, modes) / denom[target]
        rho = self.rho[target]
        powers = np.arange(BLOCK - 1, -1, -1)[:, None]
        #: inner[i] = rho**(BLOCK-1-i) and outer[k] = rho**(BLOCK*(BLOCK-1-k)) * beta,
        #: shape (BLOCK, modes): the weight rho**(n-1-m) * beta of step m = k*b + i
        #: of n is inner[-b:][i] * outer[-n//b:][k] (see ``step``).
        self.inner = rho ** powers
        self.outer = rho ** (BLOCK * powers) * self.beta
        self.outer[np.abs(self.outer) < 1e-300] = 0.0  # keep denormals out of the sums

    def _add_modes(self, coeffs: np.ndarray, per_mode: np.ndarray) -> np.ndarray:
        if self.fold is None:
            coeffs[:self.modes] += per_mode
        else:
            np.add.at(coeffs, self.fold, per_mode)
        return coeffs

    def step(self, rows: np.ndarray, coeffs: np.ndarray,
             drift: DriftSpec = ZERO_DRIFT) -> np.ndarray:
        """Advance modal coefficients over ``n`` steps of KL increments.

        ``rows`` has shape (n, modes) for one path with ``coeffs`` (dofs,), or
        (n, modes, b) for b paths with ``coeffs`` (dofs, b). Without drift the
        block is one weighted sum, rho**n c + sum_m rho**(n-1-m) beta dW_m, taken
        in two stages: the k = n/b groups of b = min(BLOCK, n) rows are summed
        with ``inner``, then the k group sums with ``outer``; n is 1..BLOCK or a
        multiple of BLOCK up to BLOCK**2 = SLAB_STEPS. A drift enters step by
        step as
        c <- rho (c + dt f) + beta dW with f = (2/(dofs+1)) S F(S c), two
        ``sine_transform`` calls per step.
        """
        tail = (1,) * (coeffs.ndim - 1)
        rho = self.rho.reshape(-1, *tail)
        if drift.func is None:
            n = len(rows)
            b = min(BLOCK, n)
            if n < 1 or n % b or n > BLOCK * BLOCK:
                raise UsageError(f"a block of {n} steps is neither 1..{BLOCK} steps nor a "
                                 f"multiple of {BLOCK} up to {BLOCK * BLOCK}")
            k = n // b
            partial = np.einsum("kij...,ij->kj...", rows.reshape(k, b, *rows.shape[1:]),
                                self.inner[BLOCK - b:])
            weighted = np.einsum("kj...,kj->j...", partial, self.outer[BLOCK - k:])
            return self._add_modes(rho**n * coeffs, weighted)
        beta = self.beta.reshape(-1, *tail)
        scale = 2.0 * self.level.time_step / (self.level.dofs + 1)
        for increments in rows:
            forcing = sine_transform(drift.apply(sine_transform(coeffs)))
            coeffs = self._add_modes(rho * (coeffs + scale * forcing), beta * increments)
        return coeffs


@lru_cache(maxsize=None)
def _step_operator(level_index: int, modes: int) -> StepOperator:
    return StepOperator(make_level(level_index), modes)


def step_operator(level: LevelGeometry, modes: Optional[int] = None) -> StepOperator:
    """Cached operator of ``level`` for ``modes`` KL modes (default dofs)."""
    return _step_operator(level.level, kl_modes(level, modes))


def run_deterministic(level: LevelGeometry) -> NodalField:
    """Propagate the initial condition to T = 1 with zero noise and drift.

    The initial data sin(pi*x) is the first sine vector, so the result is
    rho_1**steps times it. It approximates the exact mean exp(-pi^2) sin(pi*x);
    the L2 error decays at second order in the mesh width since dt = h^2.
    Memory is O(dofs): no operator is built.
    """
    initial = initial_field(level)
    rho, _ = _mode_factors(level)
    return NodalField(level, rho[0] ** level.steps * initial.values)


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
