"""Entropic uncertainty bounds and non-commutativity certification.

Coarse-grained measurement entropies over spectrum partitions, the two
analytic lower bounds on the entropy sum (overlap-based and
projector-sum-based), a seeded multi-start minimiser for the entropy sum
over pure states, and a certificate object tying it all together.

Both bounds come from one overlap table, c = max ||P_i Q_j|| over cell
pairs: Maassen-Uffink is -2 ln c and, as ||P + Q|| = 1 + ||P Q|| for
orthogonal projections, the projector-sum bound is 2 ln(2/(1 + c)).

A certificate's verdict rests on the analytic bounds alone.  The numeric
infimum is corroborating evidence and the commutator norm is an
independent cross-check; neither feeds the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import minimize

from .classical import Distribution, shannon_entropy
from .errors import PartitionError
from .hilbert import (
    PVM,
    DensityOperator,
    HermitianOperator,
    PureState,
    SpectralCell,
    _as_density,
    _clustered_eigensystem,
    commutator_norm,
    spectral_pvm,
)

#: Analytic bounds above this value certify a non-vanishing commutator.
CERTIFICATION_THRESHOLD = 1e-6
#: Default seed for the entropy-sum minimiser.
DEFAULT_OPTIMIZER_SEED = 1729
#: Matching tolerance (relative to the largest |eigenvalue|) used when
#: partition cell values are identified with computed eigenvalues.
MATCH_TOL = 1e-8


@dataclass(frozen=True, init=False)
class SpectrumPartition:
    """Disjoint cells of real values covering an operator's eigenvalue set.

    Cells are stored in canonical order (ascending minimum).  Disjointness
    is checked on exact values; identification with computed eigenvalues
    happens later, with tolerance, when the partition meets a PVM.
    """

    cells: tuple

    def __init__(self, cells: Iterable[SpectralCell]):
        cs = tuple(sorted(cells, key=lambda c: c.representative))
        if not cs:
            raise PartitionError("a partition needs at least one cell")
        seen: set[float] = set()
        for c in cs:
            if not isinstance(c, SpectralCell):
                raise PartitionError(f"partition cells must be SpectralCell, got {type(c).__name__}")
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


def _match_tolerance(values: Sequence[float]) -> float:
    return MATCH_TOL * max(1.0, max(abs(v) for v in values))


def _assign_to_partition(
    spectral_cells: Sequence[SpectralCell], part: SpectrumPartition
) -> list[int]:
    """For each spectral cell, the index of the unique partition cell
    containing (within tolerance) all of its eigenvalues."""
    ground = part.ground_values()
    all_eigs = [v for c in spectral_cells for v in c.values]
    tol = _match_tolerance(list(ground) + all_eigs)

    for u in ground:
        if not any(abs(u - v) <= tol for v in all_eigs):
            raise PartitionError(f"partition references value {u!r} absent from the spectrum")

    out = []
    for cell in spectral_cells:
        hits = set()
        for v in cell.values:
            matched = [
                k
                for k, pc in enumerate(part.cells)
                if any(abs(u - v) <= tol for u in pc.values)
            ]
            if not matched:
                raise PartitionError(f"eigenvalue {v!r} is not covered by the partition")
            if len(matched) > 1:
                raise PartitionError(f"eigenvalue {v!r} matches several partition cells")
            hits.add(matched[0])
        if len(hits) > 1:
            raise PartitionError(
                f"spectral cell {cell.values!r} straddles partition cells; refine the operator's "
                "degeneracy clustering or coarsen the partition"
            )
        out.append(hits.pop())
    return out


def _partition_projectors(pvm: PVM, part: SpectrumPartition) -> list[np.ndarray]:
    """One projector per partition cell: the sum of the PVM projectors
    whose cells fall inside it."""
    labels = list(pvm.labels)
    if not all(isinstance(lb, SpectralCell) for lb in labels):
        raise PartitionError("the PVM must carry spectral-cell labels")
    assignment = _assign_to_partition(labels, part)
    out = [np.zeros((pvm.dim, pvm.dim), dtype=complex) for _ in part.cells]
    for k, proj in zip(assignment, pvm.projectors):
        out[k] = out[k] + proj
    return out


def _partition_isometries(
    op: HermitianOperator, part: SpectrumPartition | None
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvector matrix of ``op`` plus, per column, the index of the
    partition cell its eigenvalue belongs to (its spectral cell when
    ``part`` is None)."""
    cells = _clustered_eigensystem(op, None)
    labels = [c for c, _ in cells]
    assignment = range(len(cells)) if part is None else _assign_to_partition(labels, part)
    widths = [iso.shape[1] for _, iso in cells]
    return np.column_stack([iso for _, iso in cells]), np.repeat(list(assignment), widths)


def partition_probabilities(state, pvm: PVM, part: SpectrumPartition) -> Distribution:
    """Measurement law coarse-grained by a spectrum partition.

    Support labels are the partition cells' minima (distinct for disjoint
    cells; the value itself for singleton cells).
    """
    rho = _as_density(state)
    projectors = _partition_projectors(pvm, part)
    probs = []
    for proj in projectors:
        p = float(np.trace(rho.matrix @ proj).real)
        probs.append(max(p, 0.0))
    return Distribution([c.representative for c in part.cells], probs)


def epsilon_entropy(state, op: HermitianOperator, part: SpectrumPartition) -> float:
    """Shannon entropy (nats) of the coarse-grained measurement law."""
    return shannon_entropy(partition_probabilities(state, spectral_pvm(op), part))


# ---------------------------------------------------------------------------
# analytic bounds


def _analytic_bounds(a, b, eps, delta) -> tuple[float, float]:
    """(Maassen-Uffink, Partovi) from the largest cell-pair overlap c:
    ||P_i Q_j|| is the spectral norm of the (i, j) cell block of the
    overlap table W_A* W_B, so no d x d projector is formed."""
    if a.dim != b.dim:
        raise PartitionError(f"operator dims differ: {a.dim} vs {b.dim}")
    wa, idx_a = _partition_isometries(a, eps)
    wb, idx_b = _partition_isometries(b, delta)
    g = wa.conj().T @ wb
    c = max(
        float(np.linalg.norm(g[idx_a == i][:, idx_b == j], 2))
        for i in set(idx_a)
        for j in set(idx_b)
    )
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
    return _analytic_bounds(a, b, eps, delta)[0]


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
    return _analytic_bounds(a, b, eps, delta)[1]


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
    ``value`` is the exact entropy sum of ``state``, clamped at 0.0, hence
    always an upper estimate of the true infimum.
    """

    value: float
    state: PureState
    converged: bool
    restarts: int
    iterations: int
    seed: int
    best_restart: int

    def __iter__(self):
        return iter((self.value, self.state))


def _entropy_of(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def min_entropy_sum(
    a: HermitianOperator,
    b: HermitianOperator,
    eps: SpectrumPartition,
    delta: SpectrumPartition,
    opt: OptimizerConfig | None = None,
) -> MinEntropyResult:
    """Minimise H_eps(A; psi) + H_delta(B; psi) over pure states.

    Multi-start local descent (L-BFGS-B, numerically estimated gradients)
    on the real parameterisation of the state vector; normalisation is
    enforced by projecting to the unit sphere inside the objective.
    Restarts are drawn from ``default_rng(opt.seed)`` and merged by
    lowest value with ties going to the lowest restart index, so the
    result is deterministic for a fixed config.
    """
    opt = opt or OptimizerConfig()
    if opt.restarts < 1 or opt.max_iters < 1:
        raise ValueError("restarts and max_iters must be >= 1")
    if a.dim != b.dim:
        raise PartitionError(f"operator dims differ: {a.dim} vs {b.dim}")
    d = a.dim
    wa, idx_a = _partition_isometries(a, eps)
    wb, idx_b = _partition_isometries(b, delta)
    na, nb = len(eps), len(delta)
    wa_h, wb_h = wa.conj().T, wb.conj().T

    def objective(z: np.ndarray) -> float:
        psi = z[:d] + 1j * z[d:]
        nrm = np.linalg.norm(psi)
        if nrm < 1e-12:
            return 2.0 * math.log(max(d, 2)) + 1.0
        psi = psi / nrm
        pa = np.bincount(idx_a, weights=np.abs(wa_h @ psi) ** 2, minlength=na)
        pb = np.bincount(idx_b, weights=np.abs(wb_h @ psi) ** 2, minlength=nb)
        return _entropy_of(pa) + _entropy_of(pb)

    rng = np.random.default_rng(opt.seed)
    best_val = math.inf
    best_z = None
    best_k = -1
    best_ok = False
    total_iters = 0
    ftol = max(opt.tol * 1e-6, 2.3e-16)
    for k in range(opt.restarts):
        z0 = rng.standard_normal(2 * d)
        res = minimize(
            objective,
            z0,
            method="L-BFGS-B",
            options={"maxiter": opt.max_iters, "ftol": ftol, "gtol": 1e-10},
        )
        total_iters += int(res.nit)
        val = objective(res.x)
        if val < best_val:
            best_val, best_z, best_k, best_ok = val, res.x, k, bool(res.success)

    psi = best_z[:d] + 1j * best_z[d:]
    psi = psi / np.linalg.norm(psi)
    pivot = psi[int(np.argmax(np.abs(psi)))]
    if pivot != 0:
        psi = psi * (pivot.conjugate() / abs(pivot))
    return MinEntropyResult(
        value=max(best_val, 0.0) + 0.0,  # + 0.0 normalises -0.0
        state=PureState(psi),
        converged=best_ok,
        restarts=opt.restarts,
        iterations=total_iters,
        seed=opt.seed,
        best_restart=best_k,
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
    numeric_infimum: float
    optimizer_evidence: MinEntropyResult
    commutator_norm: float
    threshold: float
    verdict: str
    infimum_consistent: bool

    def __post_init__(self):
        if self.verdict not in ("noncommuting", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        want = "noncommuting" if self.best_analytic > self.threshold else "inconclusive"
        if self.verdict != want:
            raise ValueError("verdict inconsistent with analytic bounds")
        if self.numeric_infimum < -1e-9:
            raise ValueError(f"negative entropy infimum {self.numeric_infimum!r}")

    @property
    def analytic_bounds(self) -> dict:
        return {"maassen_uffink": self.maassen_uffink, "partovi": self.partovi}

    @property
    def best_analytic(self) -> float:
        return max(self.maassen_uffink, self.partovi)


def certify_noncommutativity(
    a: HermitianOperator,
    b: HermitianOperator,
    eps: SpectrumPartition,
    delta: SpectrumPartition,
    opt: OptimizerConfig | None = None,
    threshold: float = CERTIFICATION_THRESHOLD,
    operator_names: tuple = ("A", "B"),
) -> EURCertificate:
    """Assemble an :class:`EURCertificate` for the pair at the given
    partitions.

    Both analytic bounds are computed at the partition level, so the
    verdict inherits their partition dependence: a coarse partition can
    leave a genuinely non-commuting pair ``"inconclusive"``.
    """
    mu, pv = _analytic_bounds(a, b, eps, delta)
    numeric = min_entropy_sum(a, b, eps, delta, opt)
    cn = commutator_norm(a, b)
    best = max(mu, pv)
    verdict = "noncommuting" if best > threshold else "inconclusive"
    return EURCertificate(
        operator_names=tuple(operator_names),
        partitions=(eps, delta),
        maassen_uffink=mu,
        partovi=pv,
        numeric_infimum=numeric.value,
        optimizer_evidence=numeric,
        commutator_norm=cn,
        threshold=threshold,
        verdict=verdict,
        infimum_consistent=numeric.value >= best - 1e-4,
    )
