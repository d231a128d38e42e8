"""Building non-commuting operator pairs from classical data, and the
kernel-level diagnostics showing why one classical space cannot carry both.

Two classical laws plus a unitary yield an operator pair whose eigenbasis
overlap controls an entropy bound; transition kernels between the two
variables expose Bayes-rule violations and interference terms; contextual
families record what conditioning remembers and what it forgets.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .classical import (
    Distribution,
    Event,
    FiniteProbabilitySpace,
    RandomVariable,
    as_real,
    condition,
)
from .errors import DimensionError, DomainError
from .hilbert import HermitianOperator, matrix_of

#: Unitarity tolerance for supplied matrices.
UNITARY_TOL = 1e-10
#: Column sums of a transition kernel must be 1 within this.
KERNEL_TOL = 1e-12


def _check_unitary(u) -> np.ndarray:
    m = matrix_of(u)
    dev = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
    if dev > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary: max|U*U - I| = {dev:.3e}")
    return m


def born_map(u, mu: Distribution) -> Distribution:
    """Push a law through the Born weights of a unitary:
    nu(y) = sum_x |U[x, y]|^2 mu(x)."""
    m = _check_unitary(u)
    if m.shape[0] != len(mu):
        raise DimensionError(f"unitary dim {m.shape[0]} != law size {len(mu)}")
    weights = np.abs(m) ** 2
    return Distribution(mu.support, weights.T @ np.asarray(mu.probs))


class ScenarioPair:
    """Two classical laws of equal size and a basis-change unitary,
    packaged for operator construction."""

    __slots__ = ("dist_x", "dist_y", "unitary")

    def __init__(self, dist_x: Distribution, dist_y: Distribution, unitary):
        if len(dist_x) != len(dist_y):
            raise DimensionError(
                f"laws have different cardinality: {len(dist_x)} vs {len(dist_y)}"
            )
        u = _check_unitary(unitary)
        if u.shape[0] != len(dist_x):
            raise DimensionError(f"unitary dim {u.shape[0]} != law size {len(dist_x)}")
        self.dist_x = dist_x
        self.dist_y = dist_y
        self.unitary = u

    @property
    def dim(self) -> int:
        return len(self.dist_x)


def build_pair(pair: ScenarioPair) -> tuple[HermitianOperator, HermitianOperator]:
    """Operators (T_X, T_Y) for a scenario pair.

    T_X is diagonal on the first law's support; T_Y carries the second
    law's support conjugated by the unitary, so its spectrum is exactly
    that support while its eigenbasis is the rotated one.
    """
    t_x = HermitianOperator(np.diag(np.asarray(pair.dist_x.support, dtype=complex)))
    s_y = np.diag(np.asarray(pair.dist_y.support, dtype=complex))
    t_y = HermitianOperator(pair.unitary @ s_y @ pair.unitary.conj().T)
    return t_x, t_y


@dataclass(frozen=True)
class OverlapCheck:
    """Largest |U| entry versus the overlap level an entropy bound demands."""

    max_overlap: float
    bound: float

    @property
    def satisfied(self) -> bool:
        return self.max_overlap <= self.bound + 1e-12


def verify_overlap_bound(u, target_bound: float) -> OverlapCheck:
    """Whether max |U[x,y]| <= exp(-target_bound/2) (within 1e-12 slack).

    A pair built from ``u`` can satisfy an entropy-sum bound of
    ``target_bound`` only if every basis overlap stays under this level.
    """
    if not float(target_bound) >= 0.0:
        raise ValueError(f"target_bound must be >= 0, got {target_bound!r}")
    m = _check_unitary(u)
    return OverlapCheck(float(np.abs(m).max()), float(np.exp(-float(target_bound) / 2.0)))


class TransitionKernel:
    """Conditional laws in both directions between two finite variables.

    ``alpha[x, y]`` is P(X=x | Y=y), so columns sum to 1; ``alpha_tilde``
    is the reverse kernel P(Y=y | X=x), also column-stochastic.
    """

    __slots__ = ("alpha", "alpha_tilde")

    def __init__(self, alpha, alpha_tilde):
        a = self._check("alpha", alpha)
        at = self._check("alpha_tilde", alpha_tilde)
        if a.shape != at.shape[::-1]:
            raise DimensionError(
                f"alpha has shape {a.shape} but alpha_tilde has {at.shape}"
            )
        self.alpha = a
        self.alpha_tilde = at

    @staticmethod
    def _check(name: str, mat) -> np.ndarray:
        if not (isinstance(mat, np.ndarray) and mat.dtype.kind in "iuf"):
            # a numeric array holds no strings or booleans, but nested lists may,
            # and asarray turns "0.5" into 0.5 and [True, 2] into ints
            mat = [[as_real(x) for x in row] for row in mat]
        m = np.asarray(mat, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"{name} must be a matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{name} entries must be finite")
        if m.min() < -KERNEL_TOL or m.max() > 1.0 + KERNEL_TOL:
            raise ValueError(f"{name} entries must lie in [0, 1]")
        sums = m.sum(axis=0)
        if np.abs(sums - 1.0).max() >= KERNEL_TOL:
            raise ValueError(f"{name} columns must sum to 1; got {sums!r}")
        out = np.clip(m, 0.0, 1.0)
        out.setflags(write=False)
        return out

    @classmethod
    def from_joint(cls, joint) -> "TransitionKernel":
        """Both kernels of an actual joint law P(X=x, Y=y) (rows: x)."""
        j = np.asarray(joint, dtype=float)
        if j.ndim != 2 or j.min() < 0 or abs(j.sum() - 1.0) >= KERNEL_TOL:
            raise ValueError("joint must be a non-negative matrix summing to 1")
        mu = j.sum(axis=1)  # law of X
        nu = j.sum(axis=0)  # law of Y
        if mu.min() <= 0 or nu.min() <= 0:
            raise ValueError("joint must have strictly positive marginals")
        alpha = j / nu[np.newaxis, :]
        alpha_tilde = (j / mu[:, np.newaxis]).T
        return cls(alpha, alpha_tilde)

    @classmethod
    def from_unitary(cls, u) -> "TransitionKernel":
        """Born kernel alpha[x, y] = |U[x, y]|^2, symmetric by construction."""
        m = _check_unitary(u)
        a = np.abs(m) ** 2
        return cls(a, a.T)

    @property
    def shape(self) -> tuple[int, int]:
        return self.alpha.shape


def bayes_violation(kernel: TransitionKernel, mu_x: Distribution, nu_y: Distribution) -> np.ndarray:
    """The matrix Delta[x, y] = alpha(x,y) nu(y) - alpha_tilde(y,x) mu(x).

    For kernels derived from an actual joint law evaluated at its true
    marginals every entry vanishes; a nonzero entry certifies that no
    joint description reproduces both conditional families.
    """
    nx, ny = kernel.shape
    if len(mu_x) != nx or len(nu_y) != ny:
        raise DimensionError(
            f"kernel shape {kernel.shape} incompatible with laws of size "
            f"{len(mu_x)} and {len(nu_y)}"
        )
    mu = np.asarray(mu_x.probs)
    nu = np.asarray(nu_y.probs)
    return kernel.alpha * nu[np.newaxis, :] - kernel.alpha_tilde.T * mu[:, np.newaxis]


def interference_delta(mu_xc: Distribution, alpha, mu_yc: Distribution) -> np.ndarray:
    """The defect delta(x) = mu_X|C(x) - sum_y alpha(x,y) mu_Y|C(y).

    Both laws being probability vectors and alpha column-stochastic makes
    the defect sum to 0; classically (total probability) the whole vector
    vanishes, so a nonzero pattern is an interference signature.
    """
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 2 or a.shape != (len(mu_xc), len(mu_yc)):
        raise DimensionError(
            f"kernel shape {a.shape} incompatible with laws of size "
            f"{len(mu_xc)} and {len(mu_yc)}"
        )
    return np.asarray(mu_xc.probs) - a @ np.asarray(mu_yc.probs)


@dataclass(frozen=True)
class BornCheck:
    """How far a kernel sits from the Born weights of a unitary."""

    max_abs_error: float

    @property
    def consistent(self) -> bool:
        return self.max_abs_error <= 1e-9


def born_consistency(u, kernel: TransitionKernel) -> BornCheck:
    """Compare a kernel with |U|^2 entrywise (both directions).

    ``max_abs_error`` covers alpha against |U[x,y]|^2 and alpha_tilde
    against its transpose; consistency means both stay within 1e-9.
    """
    m = _check_unitary(u)
    if kernel.shape != m.shape:
        raise DimensionError(f"kernel shape {kernel.shape} != unitary shape {m.shape}")
    weights = np.abs(m) ** 2
    err_alpha = float(np.abs(kernel.alpha - weights).max())
    err_sym = float(np.abs(kernel.alpha_tilde.T - kernel.alpha).max())
    return BornCheck(max(err_alpha, err_sym))


@dataclass(frozen=True, init=False)
class ContextFamily:
    """Conditioned versions of one space along the level sets of a variable.

    Holds the contexts (as events) in the level-value order and reads
    each conditioned space from the base.  The weights P(context) are
    deliberately absent from the conditioned data: reconstructing the base
    law from the family alone is impossible without them.
    """

    base: FiniteProbabilitySpace
    contexts: tuple
    dropped_levels: tuple

    def __init__(self, base, contexts, *, dropped_levels=()):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "contexts", tuple(contexts))
        object.__setattr__(self, "dropped_levels", tuple(dropped_levels))

    @property
    def conditioned(self) -> tuple:
        return tuple(condition(self.base, ev) for ev in self.contexts)

    def __len__(self) -> int:
        return len(self.contexts)


def contextual_family(space: FiniteProbabilitySpace, level_variable: RandomVariable) -> ContextFamily:
    """Condition a space along the level sets of a variable.

    Levels are visited in ascending value order; level sets of
    probability zero are dropped (recorded in ``dropped_levels``, with a
    warning) since conditioning on them is undefined.
    """
    missing = [o for o in space.outcomes if o not in level_variable.values]
    if missing:
        raise DomainError(
            f"{level_variable.name} is undefined on outcomes {missing!r}"
        )
    levels: dict[float, list] = {}
    for o in space.outcomes:
        levels.setdefault(level_variable.values[o], []).append(o)
    contexts, dropped = [], []
    for z in sorted(levels):
        ev = Event(levels[z])
        if space.prob(ev) == 0.0:
            dropped.append(z)
            continue
        contexts.append(ev)
    if dropped:
        warnings.warn(
            f"dropped zero-probability level sets at {dropped!r} of {level_variable.name}",
            stacklevel=2,
        )
    if not contexts:
        raise DomainError("every level set has probability zero")
    return ContextFamily(space, contexts, dropped_levels=dropped)
