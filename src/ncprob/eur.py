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

A certificate stores c and reads both bounds from it.  Its verdict rests
on Maassen-Uffink alone: 2/(1 + c) <= 1/c for c <= 1, so the projector-sum
bound never exceeds it, and is reported but never decides.  The numeric
infimum is corroborating evidence and the commutator norm is an
independent cross-check; neither feeds the verdict.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .classical import Distribution, shannon_entropy
from .errors import DimensionError, PartitionError
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
#: The most restarts whose L-BFGS-B kernel state is alive at once (the
#: default restart count).  One row's workspace holds 2mn + 5n + 11m^2 + 8m
#: floats, n = 2d and m = 10: about 419 KB at d = 1024.
MAX_STACK_ROWS = 32


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
        bins = np.searchsorted(np.sort([float(t) for t in thresholds]), vals)  # the thresholds below each value
        return cls(SpectralCell(np.compress(bins == k, vals)) for k in dict.fromkeys(bins.tolist()))

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
        raise DimensionError(f"operator dims differ: {a.dim} vs {b.dim}")
    return (*_partition_isometries(a, eps), *_partition_isometries(b, delta))


def _cell_blocks(idx: np.ndarray) -> list[np.ndarray]:
    """One array per cell width w: the columns of every cell of width w,
    one row per cell, in cell order.  A stable argsort of ``idx`` lists
    each cell's columns as one contiguous run, in their original order."""
    order = np.argsort(idx, kind="stable")
    widths = np.bincount(idx)  # every cell holds at least one column
    starts = np.cumsum(widths) - widths
    return [order[starts[widths == w][:, None] + np.arange(w)] for w in np.flatnonzero(np.bincount(widths))]


def _overlap(wa, idx_a, wb, idx_b) -> float:
    """The largest cell-pair overlap c = max ||P_i Q_j||, clamped to 1:
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
    return min(c, 1.0)


def _maassen_uffink(c: float) -> float:
    return -2.0 * math.log(c) + 0.0  # + 0.0: no -0.0


def _partovi(c: float) -> float:
    return 2.0 * math.log(2.0 / (1.0 + c))


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
    return _maassen_uffink(_overlap(*_decompose(a, b, eps, delta)))


def partovi_bound(
    a: HermitianOperator,
    b: HermitianOperator,
    eps: SpectrumPartition,
    delta: SpectrumPartition,
) -> float:
    """Projector-sum lower bound on the partitioned entropy sum:
    2 ln(2/s) with s the largest eigenvalue of any P_i + Q_j.

    s = 1 + c with c the Maassen-Uffink overlap, as ||P + Q|| = 1 + ||P Q||
    for orthogonal projections, so this is Deutsch's bound (PRL 50, 631,
    1983).  Since c <= 1, 2/(1 + c) <= 1/c, so this never exceeds
    Maassen-Uffink; both are 0 when a cell pair shares an eigenvector.
    """
    return _partovi(_overlap(*_decompose(a, b, eps, delta)))


# ---------------------------------------------------------------------------
# numeric infimum


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the multi-start entropy-sum minimiser, checked where
    they are built (also by ``dataclasses.replace``): ``restarts`` and
    ``max_iters`` are ints >= 1, ``seed`` an int >= 0 and ``tol`` a finite
    number > 0, else ``ValueError``."""

    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-8
    seed: int = DEFAULT_OPTIMIZER_SEED

    def __post_init__(self):
        for field, least in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{field} must be an int >= {least}, got {_shown(value)}")
        # an int beyond the float range is not finite here: it has no float
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real) or not 0 < self.tol <= sys.float_info.max:
            raise ValueError(f"tol must be a finite number > 0, got {_shown(self.tol)}")


def _shown(value) -> str:
    """``repr(value)``, or for a number that holds an int past Python's limit
    on the digits of an int's string, its sign and the number of digits of
    its integer part."""
    try:
        return repr(value)
    except ValueError:
        size = max(abs(int(value)), 1)  # a Fraction's integer part may be 0
        digits = int(math.log10(size)) + 1  # the float log may round across a power of 10
        digits += (size >= 10**digits) - (size < 10 ** (digits - 1))
        return f"{'a negative' if value < 0 else 'a'} number of {digits} digits"


@dataclass(frozen=True)
class MinEntropyResult:
    """Best entropy sum found, with the evidence needed to reproduce it.

    ``value`` is the exact entropy sum of ``state``, except that a sum
    within 1e-12 of 0.0 ties with 0.0 and reads 0.0, so it never falls
    more than 1e-12 below the true infimum.  ``evaluations`` holds each
    restart's objective evaluations (value and gradient together) and
    ``iterations_per_restart`` its L-BFGS-B iterations; ``restarts`` is
    their length and ``iterations`` their sum.
    """

    value: float
    state: PureState
    converged: bool
    seed: int
    best_restart: int
    evaluations: tuple
    iterations_per_restart: tuple

    @property
    def restarts(self) -> int:
        return len(self.evaluations)

    @property
    def iterations(self) -> int:
        return sum(self.iterations_per_restart)


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
    transpose back.  All restarts go to one ``scipy.optimize.minimize``
    call, whose method ``_lbfgsb`` steps them in one flat loop, and each
    evaluation is one row of one call of the callable handed to it.
    Restarts are drawn from ``default_rng(opt.seed)`` and merged by
    lowest value; end values within 1e-12 relative of the lowest tie, and
    the lowest restart index wins, so the result is deterministic for a
    fixed config and does not hinge on rounding among equal optima.
    """
    return _min_entropy_sum(*_decompose(a, b, eps, delta), opt or OptimizerConfig())


class _KernelRow:
    """One problem of ``_lbfgsb``: its row ``k``, ``x`` (a view of that row,
    moved in place by the kernel), the kernel's work arrays, the ``f`` and
    float64 ``g`` its next call gets, the memo ``seen``, ``fg`` and counts."""

    __slots__ = ("k", "x", "wa", "iwa", "task", "ln_task", "lsave", "isave", "dsave", "f", "g", "seen", "fg",
                 "nfev", "nit")

    def __init__(self, k, x, m):
        n = x.size
        self.k, self.x, self.seen = k, x, x.tolist()  # it asks for f and g at x0 first
        self.wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * n, np.int32)
        self.task, self.ln_task, self.lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
        self.isave, self.dsave = np.zeros(44, np.int32), np.zeros(29)
        self.f, self.g = 0.0, np.zeros(n)  # what the kernel's first call gets, as in scipy's loop
        self.nfev = self.nit = 0


def _lbfgsb(fun, x0, *, maxiter, ftol, gtol, rows, **_):
    """L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) on ``rows`` independent
    problems side by side, as a custom ``scipy.optimize.minimize`` method.

    ``x0`` holds the rows' starting points one after another (``minimize``
    takes a 1-d ``x0``).  Each row runs scipy's C kernel ``setulb`` (Zhu et
    al. 1997) under the loop of scipy 1.17.1's ``_minimize_lbfgsb``, with
    no bounds and its own ``_KernelRow``.  It keeps that loop's settings
    (maxcor 10, maxls 20, maxfun 15000, factr = ftol / eps), its evaluation
    at x0 before the kernel's first call, which gets f = 0 and g = 0, its
    memo of the last point (``x.tolist() == seen`` is ``np.array_equal``:
    NaN unequal, -0.0 equal to 0.0) and its float64 copy of g, which the
    kernel may write into: the row's own ``g``, refilled at each answer and
    memo hit, never an array ``fun`` returned.  So every row's ``x``,
    ``fun``, ``nit``, ``nfev`` and ``success`` are bit for bit those of
    scipy's ``"L-BFGS-B"`` with ``jac=True`` on that row alone.

    One flat loop runs in rounds: the rows that ask for f and g go to
    ``fun`` as one stack, a 2-d array with one point per row, and ``fun``
    returns their values and gradients, one per row; then each steps its
    kernel until it asks again at a new point or stops.  So every
    evaluation is one row of one call of ``fun``, where counters wrapped
    around ``minimize`` see it, and a row's ``nfev`` counts its rows.  At
    most ``MAX_STACK_ROWS`` rows hold kernel state at once; a row that
    stops makes room for the next, which asks in the next round.  The
    result holds one entry per row: ``x`` of shape (rows, n), and ``fun``,
    ``nit``, ``nfev`` and ``success`` of shape (rows,).  ``**_`` takes the
    arguments ``minimize`` passes that an unbounded L-BFGS-B does not use."""
    from scipy.optimize import OptimizeResult
    from scipy.optimize._lbfgsb import setulb  # scipy >= 1.15

    m, maxls, maxfun = 10, 20, 15000
    x = np.array(x0, dtype=np.float64).reshape(rows, -1)
    nbd, free = np.zeros(x.shape[1], np.int32), np.zeros(x.shape[1])  # nbd 0: no variable is bounded
    factr = float(ftol) / sys.float_info.epsilon  # inf, not an overflow warning, for a huge ftol
    ends = [None] * rows
    queued = (_KernelRow(k, x[k], m) for k in range(rows))
    asking = list(itertools.islice(queued, MAX_STACK_ROWS))
    while asking:
        stack, asking = asking, []
        values, grads = fun(x.take([row.k for row in stack], 0))
        for row, f, g in zip(stack, values, grads):
            row.nfev += 1
            row.fg = f, g
            if row.task[0] == 3:  # an answer; the x0 evaluation precedes the kernel's first call
                row.f, row.g[:] = f, g
            while True:
                setulb(m, row.x, free, free, nbd, row.f, row.g, factr, gtol, row.wa, row.iwa, row.task,
                       row.lsave, row.isave, row.dsave, maxls, row.ln_task)
                task = row.task.item(0)
                if task == 3:  # the kernel asks for f and g at x
                    point = row.x.tolist()
                    if point != row.seen:
                        row.seen = point
                        asking.append(row)
                        break
                    row.f, row.g[:] = row.fg
                elif task == 1:  # a new iterate
                    row.nit += 1
                    if row.nit >= maxiter:
                        row.task[:] = 5, 504
                    elif row.nfev > maxfun:
                        row.task[:] = 5, 502
                else:
                    ends[row.k] = row.f, row.nit, row.nfev, task == 4
                    asking.extend(itertools.islice(queued, 1))
                    break
    f, nit, nfev, success = (np.array(col) for col in zip(*ends))
    return OptimizeResult(x=x, fun=f, nit=nit, nfev=nfev, success=success)


def _min_entropy_sum(wa, idx_a, wb, idx_b, opt: OptimizerConfig) -> MinEntropyResult:
    """The minimiser on one decomposition, in the optimizer's real
    coordinates z = [Re psi; Im psi].

    R is the real 4d x 2d matrix taking z to y = [Re; Im] of (W_A* psi,
    W_B* psi), and ``idx`` puts every entry of y in its cell, the cells of
    B after those of A.  An evaluation is y = R z, the cell weights
    p = bincount(idx, y^2) / |z|^2, the entropy sum of p, and the sphere
    gradient -(2 / |z|^2) R^T (log p[idx] * y) with its radial part
    projected out.

    All restarts go to one ``scipy.optimize.minimize`` call with
    ``method=_lbfgsb`` and ``rows=opt.restarts``, handed ``stacked``;
    ``minimize`` passes it and the options straight to ``_lbfgsb``, whose
    ``_KernelRow`` per restart counts that restart's ``nfev`` and ``nit``.
    """
    from scipy.optimize import minimize  # 0.4-0.75 s to import; most runs never optimise

    d = wa.shape[0]
    m = np.concatenate([wa, wb], axis=1).conj().T  # 2d x d: psi -> (W_A* psi, W_B* psi)
    r = np.block([[m.real, -m.imag], [m.imag, m.real]])
    idx = np.tile(np.concatenate([idx_a, idx_b + idx_a.max() + 1]), 2)
    cells = int(idx.max()) + 1
    # row i of a stack puts its entries of y in bins i * cells + idx
    bins = idx + cells * np.arange(MAX_STACK_ROWS)[:, None]

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

    def stacked(zs: np.ndarray) -> tuple:
        """``objective`` on each row of zs (at most ``MAX_STACK_ROWS``):
        (values, gradients), one per row, each with the bits ``objective``
        gives that point alone.  So it makes one BLAS gemv per row, as
        ``objective`` does (one GEMM over the stack rounds differently),
        and hands a one-row stack, or one holding a point near 0, to
        ``objective`` itself."""
        if len(zs) == 1:  # the common tail of a run; the stacked form costs more on one row
            value, grad = objective(zs[0])
            return (value,), (grad,)
        n2 = np.vecdot(zs, zs)
        if n2.min() < 1e-24:
            return tuple(zip(*map(objective, zs)))
        at = bins[: len(zs)].ravel()
        y = np.matmul(zs[:, None, :], r.T)[:, 0]
        p = np.bincount(at, weights=(y * y).ravel()).reshape(len(zs), cells) / n2[:, None]
        log_p = np.log(np.maximum(p, 1e-300))
        g = np.matmul((np.take(log_p, at).reshape(y.shape) * y)[:, None, :], r)[:, 0]
        g *= (-2.0 / n2)[:, None]
        g -= (np.vecdot(g, zs) / n2)[:, None] * zs
        return -np.vecdot(p, log_p), g

    rng = np.random.default_rng(opt.seed)
    options = {
        "maxiter": opt.max_iters,
        "ftol": max(opt.tol * 1e-6, 2.3e-16),
        "gtol": 1e-10,
        "rows": opt.restarts,
    }
    starts = rng.standard_normal((opt.restarts, 2 * d))  # the k-th row is the k-th draw of 2d
    run = minimize(stacked, starts.ravel(), method=_lbfgsb, options=options)
    ends = run.fun.tolist()

    # End values within 1e-12 relative of the lowest tie, and the lowest
    # restart index wins, so rounding does not pick among restarts that
    # reach the same optimum.  0.0, the least any entropy sum can be, ties
    # the same way: a value within 1e-12 of it reads 0.0.
    lowest = min(ends)
    tie = lowest + 1e-12 * max(1.0, abs(lowest))
    best_k = next(k for k, end in enumerate(ends) if end <= tie)

    x = run.x[best_k]
    psi = x[:d] + 1j * x[d:]
    psi = _with_fixed_phase(psi / np.linalg.norm(psi))
    return MinEntropyResult(
        value=0.0 if ends[best_k] <= 1e-12 else ends[best_k],
        state=PureState(psi),
        converged=bool(run.success[best_k]),
        seed=opt.seed,
        best_restart=best_k,
        evaluations=tuple(run.nfev.tolist()),
        iterations_per_restart=tuple(run.nit.tolist()),
    )


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class EURCertificate:
    """Outcome of an uncertainty-based non-commutativity check.

    It stores the largest cell-pair overlap c, and both analytic bounds
    are read from it: ``maassen_uffink`` = -2 ln c decides, and
    ``partovi`` = 2 ln(2/(1 + c)) never exceeds it, so it is reported and
    never decides.  The verdict is ``"noncommuting"`` exactly when
    ``maassen_uffink`` exceeds the threshold; the optimizer evidence and
    commutator norm are recorded for cross-checking but never drive it.
    """

    operator_names: tuple
    partitions: tuple
    overlap: float
    optimizer_evidence: MinEntropyResult
    commutator_norm: float

    def __post_init__(self):
        if self.numeric_infimum < -1e-9:
            raise ValueError(f"negative entropy infimum {self.numeric_infimum!r}")

    @property
    def maassen_uffink(self) -> float:
        return _maassen_uffink(self.overlap)

    @property
    def partovi(self) -> float:
        return _partovi(self.overlap)

    @property
    def threshold(self) -> float:
        return CERTIFICATION_THRESHOLD

    @property
    def verdict(self) -> str:
        return "noncommuting" if self.maassen_uffink > self.threshold else "inconclusive"

    @property
    def numeric_infimum(self) -> float:
        return self.optimizer_evidence.value

    @property
    def infimum_consistent(self) -> bool:
        return self.numeric_infimum >= self.maassen_uffink - 1e-4


def certify_noncommutativity(
    a: HermitianOperator,
    b: HermitianOperator,
    eps: SpectrumPartition,
    delta: SpectrumPartition,
    opt: OptimizerConfig | None = None,
    operator_names: tuple = ("A", "B"),
) -> EURCertificate:
    """Assemble an :class:`EURCertificate` for the pair at the given
    partitions.  The verdict is ``"noncommuting"`` when the Maassen-Uffink
    bound exceeds ``CERTIFICATION_THRESHOLD``; the Partovi bound, which
    never exceeds it, is reported and never decides.

    The overlap is taken at the partition level, so the verdict inherits
    its partition dependence: a coarse partition can leave a genuinely
    non-commuting pair ``"inconclusive"``.
    """
    pair = _decompose(a, b, eps, delta)
    return EURCertificate(
        operator_names=tuple(operator_names),
        partitions=(eps, delta),
        overlap=_overlap(*pair),
        optimizer_evidence=_min_entropy_sum(*pair, opt or OptimizerConfig()),
        commutator_norm=commutator_norm(a, b),
    )
