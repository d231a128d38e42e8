"""Shared randomized-object builders for the test suite.

Every builder takes an explicit :class:`numpy.random.Generator` so each
test pins its own seed and stays bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from ncprob import (
    DensityOperator,
    Distribution,
    HermitianOperator,
    SpectralCell,
    SpectrumPartition,
    spectral_pvm,
)
from ncprob.hilbert import fourier_unitary


def fourier_pair(d: int) -> tuple[HermitianOperator, HermitianOperator]:
    """diag(1..d) and its discrete-Fourier conjugate: mutually unbiased bases."""
    u = fourier_unitary(d)
    vals = np.arange(1.0, d + 1.0)
    a = HermitianOperator(np.diag(vals))
    b = HermitianOperator(u @ np.diag(vals) @ u.conj().T)
    return a, b


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> HermitianOperator:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((z + z.conj().T) * (scale / 2.0))


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityOperator:
    """Random density operator of the given rank (full rank by default)."""
    k = dim if rank is None else rank
    z = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    m = z @ z.conj().T
    return DensityOperator(m / np.trace(m))


def random_distribution(rng: np.random.Generator, n: int) -> Distribution:
    """Distribution on n distinct quarter-integer points with Dirichlet weights."""
    values = rng.choice(np.arange(-24, 25), size=n, replace=False)
    return Distribution(np.sort(values) / 4.0, rng.dirichlet(np.ones(n)))


def conjugated_diagonal_pair(
    rng: np.random.Generator, dim: int, *, repeats: bool = False
) -> tuple[HermitianOperator, HermitianOperator]:
    """Two exactly commuting Hermitians: integer diagonals in one random basis.

    With ``repeats=True`` the diagonals draw from a three-value pool so
    degenerate spectra (multi-dimensional spectral cells) are common.
    """
    u = random_unitary(rng, dim)
    pool = np.arange(-4.0, 5.0)
    if repeats:
        d1 = rng.choice(pool[:3], size=dim)
        d2 = rng.choice(pool[:3], size=dim)
    else:
        d1 = rng.choice(pool, size=dim, replace=False)
        d2 = rng.choice(pool, size=dim, replace=False)
    a = HermitianOperator(u @ np.diag(d1) @ u.conj().T)
    b = HermitianOperator(u @ np.diag(d2) @ u.conj().T)
    return a, b


def singleton_partition(op: HermitianOperator) -> SpectrumPartition:
    """The finest partition: one cell per spectral cell of the operator."""
    return SpectrumPartition(label for label, _ in spectral_pvm(op).cells)


def merged_partition(op: HermitianOperator, rng: np.random.Generator) -> SpectrumPartition:
    """A random coarsening: spectral cells merged into contiguous groups."""
    cells = [label for label, _ in spectral_pvm(op).cells]
    if len(cells) == 1:
        return SpectrumPartition(cells)
    n_cuts = int(rng.integers(0, len(cells)))
    cuts = np.sort(rng.choice(np.arange(1, len(cells)), size=n_cuts, replace=False))
    groups, start = [], 0
    for cut in [*cuts.tolist(), len(cells)]:
        merged: list[float] = []
        for cell in cells[start:cut]:
            merged.extend(cell.values)
        groups.append(SpectralCell(merged))
        start = cut
    return SpectrumPartition(groups)


@dataclass
class MinimizeCall:
    """One scipy.optimize.minimize call: the objective ``fun`` it was
    handed (one callable taking a stack of points, one per row, and
    returning their values and gradients), its ``jac`` argument (None when
    absent) and method, how often it called ``fun``, the heights of the
    stacks it handed to ``fun``, and what it reported per row."""

    fun: object
    jac: object
    method: str | None
    fun_calls: int = 0
    heights: list = field(default_factory=list)
    nfev: tuple = ()
    nit: tuple = ()
    end_values: tuple = ()

    @property
    def rows_seen(self) -> int:
        return sum(self.heights)


class MinimizeSpy:
    """Stands in for scipy.optimize.minimize while ``monkeypatch`` is
    active: records every call in ``calls`` and hands on a ``fun`` that
    counts its own calls and the rows of every stack it is handed, and
    returns what the original returns, as perfbench's optimizer counters
    do.  The entropy minimiser makes one call per certification, and every
    evaluation is one row of one call of ``fun``; so ``rows_seen`` counts
    evaluations, and equals the sum of the kernel loop's per-row
    ``nfev``, which the spy reads from the result with ``nit`` and ``fun``."""

    def __init__(self, monkeypatch):
        self.real = scipy.optimize.minimize
        self.calls: list[MinimizeCall] = []
        monkeypatch.setattr(scipy.optimize, "minimize", self)

    def __call__(self, fun, x0, **kwargs):
        call = MinimizeCall(fun, kwargs.get("jac"), kwargs.get("method"))
        self.calls.append(call)

        def counted(zs):
            call.fun_calls += 1
            call.heights.append(len(zs))
            return fun(zs)

        res = self.real(counted, x0, **kwargs)
        call.nfev, call.nit = tuple(res.nfev.tolist()), tuple(res.nit.tolist())
        call.end_values = tuple(res.fun.tolist())
        return res

    @property
    def rows_seen(self) -> int:
        return sum(c.rows_seen for c in self.calls)
