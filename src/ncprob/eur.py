"""Entropic uncertainty bounds and non-commutativity certification.

Coarse-grained measurement entropies over spectrum partitions, the two
analytic lower bounds on the entropy sum (overlap-based and
projector-sum-based), a seeded multi-start minimiser for the entropy sum
over pure states, and a certificate object tying it all together.

Both bounds come from one overlap table, c = max ||P_i Q_j|| over cell
pairs: Maassen-Uffink is -2 ln c and, as ||P + Q|| = 1 + ||P Q|| for
orthogonal projections, the projector-sum bound is 2 ln(2/(1 + c)).
||P_i Q_j|| is the spectral norm of the (i, j) block of W_A* W_B; a stable
sort by cell makes every cell one contiguous block, and the blocks of one
shape are normed in one call, so the table costs O(d^3).  A certification
decomposes each operator once and shares it between the bounds and the
minimiser.

A certificate's verdict rests on the analytic bounds alone.  The numeric
infimum is corroborating evidence and the commutator norm is an
independent cross-check; neither feeds the verdict.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .classical import Distribution, shannon_entropy
from .errors import PartitionError
from .hilbert import (
    EIGENVALUE_TOL,
    PVM,
    HermitianOperator,
    PureState,
    SpectralCell,
    _as_density,
    _born_law,
    _clustered_eigensystem,
    _scaled,
    _with_fixed_phase,
    commutator_norm,
)

#: Analytic bounds above this value certify a non-vanishing commutator.
CERTIFICATION_THRESHOLD = 1e-6
#: Default seed for the entropy-sum minimiser.
DEFAULT_OPTIMIZER_SEED = 1729


@dataclass(frozen=True, init=False)
class SpectrumPartition:
    """Disjoint cells of real values covering an operator's eigenvalue set.

    Cells are stored in canonical order (ascending minimum).  Disjointness
    is checked on exact values; identification with computed eigenvalues
    happens later, with tolerance, when the partition meets a PVM.
    """

    cells: tuple

    def __init__(self, cells: Iterable[SpectralCell]):
        cs = tuple(cells)
        if bad := [type(c).__name__ for c in cs if not isinstance(c, SpectralCell)]:
            raise PartitionError(f"partition cells must be SpectralCell, got {bad[0]}")
        cs = tuple(sorted(cs, key=lambda c: c.representative))
        if not cs:
            raise PartitionError("a partition needs at least one cell")
        seen: set[float] = set()
        for c in cs:
            overlap = seen.intersection(c.values)
            if overlap:
                raise PartitionError(f"cells overlap on values {sorted(overlap)}")
            seen.update(c.values)
        object.__setattr__(self, "cells", cs)

    @classmethod
    def singletons(cls, values: Iterable[float]) -> "SpectrumPartition":
        return cls(SpectralCell((v,)) for v in values)

    @classmethod
    def single_cell(cls, values: Iterable[float]) -> "SpectrumPartition":
        return cls((SpectralCell(values),))

    @classmethod
    def from_groups(cls, groups: Iterable[Iterable[float]]) -> "SpectrumPartition":
        return cls(SpectralCell(g) for g in groups)

    @classmethod
    def from_thresholds(cls, values: Iterable[float], thresholds: Iterable[float]) -> "SpectrumPartition":
        """Split ``values`` at the given thresholds: one cell per occupied
        half-open bin (v <= t_1 < v <= t_2 < ...)."""
        vals = sorted(float(v) for v in values)
        ts = sorted(float(t) for t in thresholds)
        bins: dict[int, list[float]] = {}
        for v in vals:
            k = sum(1 for t in ts if v > t)
            bins.setdefault(k, []).append(v)
        return cls(SpectralCell(g) for g in bins.values())

    def ground_values(self) -> tuple:
        return tuple(sorted(v for c in self.cells for v in c.values))

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)


def is_finer(first: SpectrumPartition, second: SpectrumPartition) -> bool:
    """Whether ``first`` refines ``second``: same ground set, and every
    cell of ``second`` is a union of cells of ``first``."""
    if first.ground_values() != second.ground_values():
        raise PartitionError("partitions have different ground sets")
    coarse = [set(c.values) for c in second.cells]
    for cell in first.cells:
        fine = set(cell.values)
        if not any(fine <= big for big in coarse):
            return False
    return True


# ---------------------------------------------------------------------------
# matching partitions to spectra


def _assign_to_partition(
    spectral_cells: Sequence[SpectralCell], part: SpectrumPartition
) -> np.ndarray:
    """For each spectral cell, the index of the unique partition cell
    containing all of its eigenvalues, matched within ``EIGENVALUE_TOL``."""
    values = [u for c in part.cells for u in c.values]
    eigs = [v for c in spectral_cells for v in c.values]
    tol = _scaled(EIGENVALUE_TOL, values + eigs)
    near = np.abs(np.array(values)[None, :] - np.array(eigs)[:, None]) <= tol  # eigenvalue x value

    absent = [u for u, hit in zip(values, near.any(axis=0)) if not hit]
    if absent:
        raise PartitionError(f"partition references value {min(absent)!r} absent from the spectrum")

    starts = np.cumsum([0] + [len(c) for c in part.cells[:-1]])
    matched = np.logical_or.reduceat(near, starts, axis=1)  # eigenvalue x partition cell
    n_hit, cell_of = matched.sum(axis=1), matched.argmax(axis=1)
    out, lo = [], 0
    for cell in spectral_cells:
        hi = lo + len(cell)
        for v, n in zip(cell.values, n_hit[lo:hi]):
            if n == 0:
                raise PartitionError(f"eigenvalue {v!r} is not covered by the partition")
            if n > 1:
                raise PartitionError(f"eigenvalue {v!r} matches several partition cells")
        if cell_of[lo:hi].min() != cell_of[lo:hi].max():
            raise PartitionError(
                f"spectral cell {cell.values!r} straddles partition cells; refine the operator's "
                "degeneracy clustering or coarsen the partition"
            )
        out.append(int(cell_of[lo]))
        lo = hi
    return np.asarray(out)


def _partition_isometries(
    op: HermitianOperator, part: SpectrumPartition | None
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvector matrix of ``op`` plus, per column, the index of the
    partition cell its eigenvalue belongs to (its spectral cell when
    ``part`` is None)."""
    cells, v, cell = _clustered_eigensystem(op)
    return v, (cell if part is None else _assign_to_partition(cells, part)[cell])


def partition_probabilities(state, pvm: PVM, part: SpectrumPartition) -> Distribution:
    """Measurement law coarse-grained by a spectrum partition.

    Support labels are the partition cells' minima (distinct for disjoint
    cells; the value itself for singleton cells).  Each PVM column's
    Born weight is added into the partition cell its PVM cell falls inside.
    """
    rho = _as_density(state, pvm.dim, "PVM")
    if not all(isinstance(lb, SpectralCell) for lb in pvm.labels):
        raise PartitionError("the PVM must carry spectral-cell labels")
    return _born_law(rho.matrix, pvm.stack, _assign_to_partition(pvm.labels, part)[pvm.cell], part.cells)


def epsilon_entropy(state, op: HermitianOperator, part: SpectrumPartition) -> float:
    """Shannon entropy (nats) of the coarse-grained measurement law.

    Each cell's probability is the sum of <w|rho|w> over the eigenvectors w
    in it, so no d x d projector is formed."""
    rho = _as_density(state, op.dim, "operator")
    return shannon_entropy(_born_law(rho.matrix, *_partition_isometries(op, part), part.cells))


# ---------------------------------------------------------------------------
# analytic bounds


def _decompose(a, b, eps, delta) -> tuple:
    """(W_A, idx_A, W_B, idx_B): each operator's one decomposition, shared
    by the bounds and the minimiser."""
    if a.dim != b.dim:
        raise PartitionError(f"operator dims differ: {a.dim} vs {b.dim}")
    return (*_partition_isometries(a, eps), *_partition_isometries(b, delta))


def _cell_blocks(idx: np.ndarray) -> list[np.ndarray]:
    """One array per cell width w: the columns of every cell of width w,
    one row per cell, in cell order.  A stable argsort of ``idx`` lists
    each cell's columns as one contiguous run, in their original order."""
    order = np.argsort(idx, kind="stable")
    widths = np.bincount(idx)  # every cell holds at least one column
    starts = np.cumsum(widths) - widths
    return [order[starts[widths == w][:, None] + np.arange(w)] for w in np.flatnonzero(np.bincount(widths))]


def _overlap_bounds(wa, idx_a, wb, idx_b) -> tuple[float, float]:
    """(Maassen-Uffink, Partovi) from the largest cell-pair overlap c:
    ||P_i Q_j|| is the spectral norm of the (i, j) cell block of the
    overlap table W_A* W_B, so no d x d projector is formed.  The blocks
    of one shape are gathered into one stack and normed in one call."""
    g = wa.conj().T @ wb
    c = 0.0
    for rows in _cell_blocks(idx_a):
        for cols in _cell_blocks(idx_b):
            blocks = g[rows[:, None, :, None], cols[None, :, None, :]]  # cell_a, cell_b, row, col
            c = max(c, float(np.linalg.norm(blocks, 2, axis=(-2, -1)).max()))
    if c > 1.0 + 1e-8:
        raise ArithmeticError(f"projector overlap {c!r} exceeds 1 beyond tolerance")
    c = min(c, 1.0)
    return -2.0 * math.log(c) + 0.0, 2.0 * math.log(2.0 / (1.0 + c))  # + 0.0: no -0.0


def maassen_uffink_bound(
    a: HermitianOperator,
    b: HermitianOperator,
    eps: SpectrumPartition | None = None,
    delta: SpectrumPartition | None = None,
) -> float:
    """Overlap-based lower bound on the entropy sum: -2 ln max ||P Q||.

    Without partitions the maximum runs over the two operators' spectral
    projectors (for non-degenerate spectra this is the largest eigenbasis
    overlap |<phi_a|psi_b>|).  With partitions the projectors are first
    coarse-grained, which can only lower the bound.
    """
    return _overlap_bounds(*_decompose(a, b, eps, delta))[0]


def partovi_bound(
    a: HermitianOperator,
    b: HermitianOperator,
    eps: SpectrumPartition,
    delta: SpectrumPartition,
) -> float:
    """Projector-sum lower bound on the partitioned entropy sum:
    2 ln(2/s) with s the largest eigenvalue of any P_i + Q_j.

    s = 1 + c with c the Maassen-Uffink overlap, as ||P + Q|| = 1 + ||P Q||
    for orthogonal projections.  Since c <= 1, 2/(1 + c) <= 1/c, so this never
    exceeds Maassen-Uffink; both are 0 when a cell pair shares an eigenvector.
    """
    return _overlap_bounds(*_decompose(a, b, eps, delta))[1]


# ---------------------------------------------------------------------------
# numeric infimum


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the multi-start entropy-sum minimiser."""

    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-8
    seed: int = DEFAULT_OPTIMIZER_SEED


@dataclass(frozen=True)
class MinEntropyResult:
    """Best entropy sum found, with the evidence needed to reproduce it.

    Iterating yields ``(value, state)`` so the result unpacks like a pair.
    ``value`` is the exact entropy sum of ``state``, except that a sum
    within 1e-12 of 0.0 ties with 0.0 and reads 0.0, so it never falls
    more than 1e-12 below the true infimum.  ``evaluations`` holds each
    restart's objective evaluations (value and gradient together) and
    ``iterations_per_restart`` its L-BFGS-B iterations, both as the kernel
    loop counted them; ``restarts`` is their length and ``iterations``
    their sum.
    """

    value: float
    state: PureState
    converged: bool
    seed: int
    best_restart: int
    evaluations: tuple
    iterations_per_restart: tuple

    def __iter__(self):
        return iter((self.value, self.state))

    @property
    def restarts(self) -> int:
        return len(self.evaluations)

    @property
    def iterations(self) -> int:
        return sum(self.iterations_per_restart)


def _checked(opt: OptimizerConfig | None) -> OptimizerConfig:
    opt = opt or OptimizerConfig()
    for field, least in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
        value = getattr(opt, field)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ValueError(f"{field} must be an int >= {least}, got {value!r}")
    if not (math.isfinite(opt.tol) and opt.tol > 0):
        raise ValueError(f"tol must be a finite number > 0, got {opt.tol!r}")
    return opt


def min_entropy_sum(
    a: HermitianOperator,
    b: HermitianOperator,
    eps: SpectrumPartition,
    delta: SpectrumPartition,
    opt: OptimizerConfig | None = None,
) -> MinEntropyResult:
    """Minimise H_eps(A; psi) + H_delta(B; psi) over pure states.

    Multi-start local descent (L-BFGS-B) on the real parameterisation
    z = [Re psi; Im psi] of the state vector; normalisation is enforced by
    projecting to the unit sphere inside the objective, which returns the
    exact gradient of the entropy sum along that sphere with its value.
    One evaluation is one real 4d x 2d product forward, from z to the real
    and imaginary parts of both operators' eigenbasis amplitudes, and its
    transpose back.  L-BFGS-B runs as scipy's C kernel ``setulb`` under
    ncprob's own loop, handed to ``scipy.optimize.minimize`` as a custom
    method together with one callable returning (value, gradient), so
    every restart is one ``minimize`` call and every evaluation passes once
    through that callable, where outside counters see it.  The result's
    evaluation and iteration counts are read from the loop.
    Restarts are drawn from ``default_rng(opt.seed)`` and merged by
    lowest value; end values within 1e-12 relative of the lowest tie, and
    the lowest restart index wins, so the result is deterministic for a
    fixed config and does not hinge on rounding among equal optima.
    """
    opt = _checked(opt)
    return _min_entropy_sum(*_decompose(a, b, eps, delta), opt)


def _lbfgsb(fun, x0, *, maxiter, ftol, gtol, **_):
    """L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) as a custom
    ``scipy.optimize.minimize`` method: scipy's C kernel ``setulb`` (Zhu et
    al. 1997) under the loop of scipy 1.17.1's ``_minimize_lbfgsb``, with no
    bounds.  It keeps that loop's settings (maxcor 10, maxls 20, maxfun
    15000, factr = ftol / eps), its one evaluation at ``x0`` before the
    loop, its memo of the last point under ``np.array_equal`` and its
    float64 copy of the gradient before each kernel call, so ``x``,
    ``fun``, ``nit``, ``nfev`` and ``success`` are bit for bit those of
    scipy's ``"L-BFGS-B"`` with ``jac=True``.  ``fun(x)`` returns the value
    and the gradient at ``x``; it is called once per evaluation, and
    ``nfev`` counts those calls.  The loop drops the per-evaluation copies,
    array-API shims and per-iteration result objects around them.  ``**_``
    takes the arguments ``minimize`` passes that an unbounded L-BFGS-B does
    not use."""
    from scipy.optimize import OptimizeResult
    from scipy.optimize._lbfgsb import setulb  # scipy >= 1.15

    m, maxls, maxfun = 10, 20, 15000
    x = np.array(x0, dtype=np.float64)
    n = x.size
    seen = x.copy()  # the last point evaluated, and its value and gradient
    fg = fun(seen)
    nfev, nit = 1, 0
    f, g = 0.0, np.zeros(n)  # what the kernel's first call gets, as in scipy's loop
    nbd, free = np.zeros(n, np.int32), np.zeros(n)  # nbd 0: no variable is bounded
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    factr = ftol / np.finfo(float).eps
    while True:
        g = g.astype(np.float64)
        setulb(m, x, free, free, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave, dsave, maxls, ln_task)
        if task[0] == 3:  # the kernel asks for f and g at x
            if not np.array_equal(x, seen):
                seen = x.copy()
                fg = fun(seen)
                nfev += 1
            f, g = fg
        elif task[0] == 1:  # a new iterate
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            break
    return OptimizeResult(x=x, fun=f, nit=nit, nfev=nfev, success=bool(task[0] == 4))


def _min_entropy_sum(wa, idx_a, wb, idx_b, opt: OptimizerConfig) -> MinEntropyResult:
    """The minimiser on one decomposition, in the optimizer's real
    coordinates z = [Re psi; Im psi].

    R is the real 4d x 2d matrix taking z to y = [Re; Im] of (W_A* psi,
    W_B* psi), and ``idx`` puts every entry of y in its cell, the cells of
    B after those of A.  An evaluation is y = R z, the cell weights
    p = bincount(idx, y^2) / |z|^2, the entropy sum of p, and the sphere
    gradient -(2 / |z|^2) R^T (log p[idx] * y) with its radial part
    projected out.

    Each restart is one ``scipy.optimize.minimize`` call with
    ``method=_lbfgsb``, handed ``objective``, which returns the value and
    the gradient together; ``minimize`` passes it and the options straight
    to ``_lbfgsb``.  So every evaluation passes once through the callable
    handed to ``minimize``, which is where outside counters see it, and the
    per-restart evaluation and iteration counts are the kernel loop's own
    ``nfev`` and ``nit``.
    """
    from scipy.optimize import minimize  # 0.4-0.75 s to import; most runs never optimise

    d = wa.shape[0]
    m = np.concatenate([wa, wb], axis=1).conj().T  # 2d x d: psi -> (W_A* psi, W_B* psi)
    r = np.block([[m.real, -m.imag], [m.imag, m.real]])
    idx = np.tile(np.concatenate([idx_a, idx_b + idx_a.max() + 1]), 2)

    def objective(z: np.ndarray) -> tuple[float, np.ndarray]:
        n2 = z @ z
        if n2 < 1e-24:
            return 2.0 * math.log(max(d, 2)) + 1.0, np.zeros_like(z)
        y = r @ z
        p = np.bincount(idx, weights=y * y) / n2
        # dH/dy = -2 (log p_k + 1) y / |z|^2 per entry of cell k; the +1
        # terms give a multiple of R^T y = 2z, which is radial and
        # projected out below.  Minimisers sit where some p_k = 0, and then
        # that cell's entries of y are 0 too, so the floor inside the log
        # only avoids 0 * -inf, here and in the value.
        log_p = np.log(np.maximum(p, 1e-300))
        g = (-2.0 / n2) * (r.T @ (log_p[idx] * y))
        g -= (g @ z / n2) * z
        return -float(p @ log_p), g

    rng = np.random.default_rng(opt.seed)
    options = {"maxiter": opt.max_iters, "ftol": max(opt.tol * 1e-6, 2.3e-16), "gtol": 1e-10}
    runs = [
        minimize(objective, rng.standard_normal(2 * d), method=_lbfgsb, options=options)
        for _ in range(opt.restarts)
    ]

    # End values within 1e-12 relative of the lowest tie, and the lowest
    # restart index wins, so rounding does not pick among restarts that
    # reach the same optimum.  0.0, the least any entropy sum can be, ties
    # the same way: a value within 1e-12 of it reads 0.0.
    lowest = min(run.fun for run in runs)
    tie = lowest + 1e-12 * max(1.0, abs(lowest))
    best_k = next(k for k, run in enumerate(runs) if run.fun <= tie)
    best = runs[best_k]

    psi = best.x[:d] + 1j * best.x[d:]
    psi = _with_fixed_phase(psi / np.linalg.norm(psi))
    return MinEntropyResult(
        value=0.0 if best.fun <= 1e-12 else best.fun,
        state=PureState(psi),
        converged=best.success,
        seed=opt.seed,
        best_restart=best_k,
        evaluations=tuple(run.nfev for run in runs),
        iterations_per_restart=tuple(run.nit for run in runs),
    )


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class EURCertificate:
    """Outcome of an uncertainty-based non-commutativity check.

    The verdict is ``"noncommuting"`` exactly when one of the analytic
    bounds exceeds the threshold; the optimizer evidence and commutator
    norm are recorded for cross-checking but never drive the verdict.
    """

    operator_names: tuple
    partitions: tuple
    maassen_uffink: float
    partovi: float
    optimizer_evidence: MinEntropyResult
    commutator_norm: float

    def __post_init__(self):
        if self.numeric_infimum < -1e-9:
            raise ValueError(f"negative entropy infimum {self.numeric_infimum!r}")

    @property
    def analytic_bounds(self) -> dict:
        return {"maassen_uffink": self.maassen_uffink, "partovi": self.partovi}

    @property
    def best_analytic(self) -> float:
        return max(self.maassen_uffink, self.partovi)

    @property
    def threshold(self) -> float:
        return CERTIFICATION_THRESHOLD

    @property
    def verdict(self) -> str:
        return "noncommuting" if self.best_analytic > self.threshold else "inconclusive"

    @property
    def numeric_infimum(self) -> float:
        return self.optimizer_evidence.value

    @property
    def infimum_consistent(self) -> bool:
        return self.numeric_infimum >= self.best_analytic - 1e-4


def certify_noncommutativity(
    a: HermitianOperator,
    b: HermitianOperator,
    eps: SpectrumPartition,
    delta: SpectrumPartition,
    opt: OptimizerConfig | None = None,
    operator_names: tuple = ("A", "B"),
) -> EURCertificate:
    """Assemble an :class:`EURCertificate` for the pair at the given
    partitions.  The verdict is ``"noncommuting"`` when either analytic
    bound exceeds ``CERTIFICATION_THRESHOLD``.

    Both analytic bounds are computed at the partition level, so the
    verdict inherits their partition dependence: a coarse partition can
    leave a genuinely non-commuting pair ``"inconclusive"``.
    """
    pair = _decompose(a, b, eps, delta)
    mu, pv = _overlap_bounds(*pair)
    return EURCertificate(
        operator_names=tuple(operator_names),
        partitions=(eps, delta),
        maassen_uffink=mu,
        partovi=pv,
        optimizer_evidence=_min_entropy_sum(*pair, _checked(opt)),
        commutator_norm=commutator_norm(a, b),
    )
