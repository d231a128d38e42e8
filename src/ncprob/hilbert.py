"""Finite-dimensional Hilbert-space machinery.

Classical laws become diagonal operators here, and everything a finite
spectral calculus needs lives in this module: Hermitian/density/pure-state
wrappers with strict construction-time checks, projector-valued measures,
spectral decomposition with degeneracy clustering, joint measures for
commuting pairs, a Gram-matrix GNS construction, CHSH evaluation and
dispersion.

Conventions
-----------
* Operator norm means the spectral (2-) norm throughout.
* A PVM holds its cells' isometries W (projector W W*) side by side in
  one d x d matrix, with each column's cell index, so building and reading
  a PVM costs O(d^3); no d x d projector is formed unless a caller asks
  for ``PVM.projectors``.
* Eigen-decompositions are made deterministic: eigenvalues ascending, and
  each eigenvector is rescaled so its largest-magnitude entry (ties: the
  lowest index) is real and positive.
* One rule per spectral question: :func:`_hermitian_part` is the Hermitian
  gate, :func:`_clustered_eigensystem` the clustering (``apply_function``
  reads single eigenvalues) and :func:`_born_law` the Born law.
* One scale rule: every tolerance on an operator's own values (Hermitian
  and commutation gates, clustering, partition matching, the trace residual)
  is :func:`_scaled`, tol x max(1, largest |value|): absolute below 1.
* One state gate: :func:`_as_density` takes a ``DensityOperator`` or a
  ``PureState`` (``trace_expectation`` too) and checks its dimension.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .classical import Distribution, as_real
from .errors import (
    AlgebraError,
    DimensionError,
    DomainError,
    HypothesisError,
    NonCommutingError,
)

#: Maximum entrywise deviation from Hermitian symmetry accepted at
#: construction (:func:`_scaled`); the stored matrix is then exactly symmetrised.
HERMITIAN_TOL = 1e-10
#: Tolerance for the PVM axioms: ||S* S - I|| <= this for the stacked cell
#: isometries S, which covers idempotency, orthogonality and completeness.
PVM_TOL = 1e-10
#: Density operators: trace within this of 1, eigenvalues >= -this.
DENSITY_TOL = 1e-10
#: Pure states: norm within this of 1.
UNIT_TOL = 1e-12
#: Commutator-norm tolerance for commuting input, scaled by max|A| max|B|.
COMM_TOL = 1e-9
#: Two computed eigenvalues are one value when they differ by at most this
#: times max(1, largest |eigenvalue|): the rule for spectral clustering and
#: for matching partition values to a spectrum (see :func:`_scaled`).
EIGENVALUE_TOL = 1e-8

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (_PAULI_X, _PAULI_Y, _PAULI_Z):
    _m.setflags(write=False)

PAULI_X = _PAULI_X
PAULI_Y = _PAULI_Y
PAULI_Z = _PAULI_Z


def fourier_unitary(dim: int) -> np.ndarray:
    """The discrete Fourier unitary F[j, k] = exp(2*pi*i*j*k/dim)/sqrt(dim).

    Every entry has modulus 1/sqrt(dim), so the eigenbases of a diagonal
    operator and its Fourier conjugate are mutually unbiased.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * np.pi * j * k / dim) / np.sqrt(dim)


def hadamard_unitary() -> np.ndarray:
    """The 2x2 real Hadamard unitary (entries +-1/sqrt(2))."""
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def matrix_of(x) -> np.ndarray:
    """Accept a wrapper type or a raw array-like; return the complex matrix."""
    m = getattr(x, "matrix", None)
    if m is not None:
        return m
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def operator_norm(m) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(matrix_of(m), 2))


def commutator_norm(a, b) -> float:
    """Spectral norm of the commutator a@b - b@a."""
    ma, mb = matrix_of(a), matrix_of(b)
    if ma.shape != mb.shape:
        raise DimensionError(f"operands have shapes {ma.shape} and {mb.shape}")
    return operator_norm(ma @ mb - mb @ ma)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def _scaled(tol: float, values) -> float:
    """``tol`` relative to the largest |value| in ``values``, absolute below 1."""
    return tol * max(1.0, float(np.abs(values).max()))


def _hermitian_part(m: np.ndarray, what: str) -> np.ndarray:
    """(A + A*)/2, if max|A - A*| <= ``HERMITIAN_TOL`` scaled by max|A|; ``what`` names A."""
    dev = float(np.abs(m - m.conj().T).max())
    if dev > _scaled(HERMITIAN_TOL, m):
        raise ValueError(f"{what} not Hermitian: max|A - A*| = {dev:.3e}")
    return (m + m.conj().T) / 2


class HermitianOperator:
    """A Hermitian matrix, symmetrised and frozen at construction.

    Input may deviate from exact symmetry by at most ``HERMITIAN_TOL``
    entrywise, scaled by :func:`_scaled`; the stored matrix is (A + A*)/2.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = _frozen(_hermitian_part(matrix_of(matrix), "matrix is"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def norm(self) -> float:
        return operator_norm(self.matrix)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


class DensityOperator:
    """A state: Hermitian, positive semidefinite (within ``DENSITY_TOL``),
    unit trace.  Stored symmetrised and trace-normalised."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        h = _hermitian_part(matrix_of(matrix), "density matrix")
        eigs = np.linalg.eigvalsh(h)
        if eigs.min() < -DENSITY_TOL:
            raise ValueError(f"density matrix not positive: min eigenvalue {eigs.min():.3e}")
        tr = float(np.trace(h).real)
        if abs(tr - 1.0) > DENSITY_TOL:
            raise ValueError(f"density matrix trace {tr!r} is not 1 within {DENSITY_TOL}")
        self.matrix = _frozen(h / tr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


class PureState:
    """A unit vector (norm within ``UNIT_TOL`` of 1, then normalised)."""

    __slots__ = ("vector",)

    def __init__(self, vector):
        v = np.asarray(vector, dtype=complex)
        if v.ndim != 1:
            raise ValueError(f"state vector must be 1-d, got shape {v.shape}")
        if v.size == 0 or not np.all(np.isfinite(v)):
            raise ValueError("state vector must be non-empty and finite")
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > UNIT_TOL:
            raise ValueError(f"state vector norm {n!r} is not 1 within {UNIT_TOL}")
        out = v / n
        out.setflags(write=False)
        self.vector = out

    @property
    def dim(self) -> int:
        return self.vector.size

    def density(self) -> DensityOperator:
        v = self.vector
        return DensityOperator(np.outer(v, v.conj()))

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


@dataclass(frozen=True, init=False)
class SpectralCell:
    """A non-empty set of real eigenvalues grouped into one measurement cell.

    ``representative`` is the cell minimum — distinct for disjoint cells,
    so it can serve as a real-valued label.  ``mean`` is the value used
    when the cell stands in for a single (clustered) eigenvalue.
    """

    values: tuple

    def __init__(self, values: Iterable[float]):
        vals = tuple(sorted(as_real(v) for v in values))
        if not vals:
            raise ValueError("a spectral cell must contain at least one value")
        object.__setattr__(self, "values", vals)

    @property
    def representative(self) -> float:
        return self.values[0]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    def __len__(self) -> int:
        return len(self.values)


class PVM:
    """A projector-valued measure: labelled cells with orthogonal
    projectors summing to the identity.

    The cells' isometries sit side by side in one d x d matrix ``stack``
    S = [W_1 ... W_k], and ``cell`` gives, for each column of S, the index
    of its cell in ``labels``; cell k's projector is W_k W_k*.  One check
    covers every axiom (Hermitian, idempotent, orthogonal, complete): S has
    d columns and ||S* S - I|| <= ``PVM_TOL``.  ``PVM(cells)`` takes
    (label, projector) pairs and factorises each projector with one
    ``eigh``; ``cells``, ``projectors`` and iteration give the projectors
    back as W W*.
    """

    __slots__ = ("labels", "stack", "cell")

    def __init__(self, cells: Iterable[tuple[object, np.ndarray]]):
        labels, isos = [], []
        for label, proj in cells:
            w, v = np.linalg.eigh(_hermitian_part(matrix_of(proj), f"cell {label!r}: projector"))
            if float(np.abs(w * (w - 1.0)).max()) > PVM_TOL:  # ||P^2 - P||
                raise ValueError(f"cell {label!r}: projector not idempotent")
            labels.append(label)
            isos.append(v[:, w > 0.5])
        if not isos:
            raise ValueError("a PVM needs at least one cell")
        if any(w.shape[0] != isos[0].shape[0] for w in isos):
            raise DimensionError("all projectors must share one dimension")
        self._store(labels, np.hstack(isos), np.repeat(np.arange(len(isos)), [w.shape[1] for w in isos]))

    @classmethod
    def _from_stack(cls, labels: Sequence, stack: np.ndarray, cell: np.ndarray) -> PVM:
        pvm = object.__new__(cls)
        pvm._store(labels, stack, cell)
        return pvm

    def _store(self, labels, stack, cell) -> None:
        stack, cell = _frozen(stack), np.array(cell, dtype=np.intp)
        cell.setflags(write=False)
        dev = stack.conj().T @ stack - np.eye(stack.shape[1])
        if operator_norm(dev) > PVM_TOL:
            # every W comes from eigh, so its own block of S* S is I to rounding
            # and the worst entry lies between two overlapping cells
            i, j = sorted(cell[list(np.unravel_index(np.argmax(np.abs(dev)), dev.shape))])
            raise ValueError(f"cells {labels[i]!r} and {labels[j]!r} are not orthogonal")
        if stack.shape[1] != stack.shape[0]:
            raise ValueError("projectors do not sum to the identity")
        self.labels, self.stack, self.cell = tuple(labels), stack, cell

    @property
    def dim(self) -> int:
        return self.stack.shape[0]

    @property
    def projectors(self) -> tuple:
        isos = (self.stack[:, self.cell == k] for k in range(len(self)))
        return tuple(w @ w.conj().T for w in isos)

    @property
    def cells(self) -> tuple:
        return tuple(zip(self.labels, self.projectors))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.cells)

    def __repr__(self) -> str:
        return f"PVM(dim={self.dim}, cells={len(self)})"


# ---------------------------------------------------------------------------
# deterministic eigen-machinery


def _with_fixed_phase(vec: np.ndarray) -> np.ndarray:
    """``vec`` with its largest-magnitude entry (lowest index on ties) made
    real and positive; a zero vector is returned as it is."""
    pivot = vec[int(np.argmax(np.abs(vec)))]
    return vec * (pivot.conjugate() / abs(pivot)) if pivot != 0 else vec


def _fixed_phase_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh with a deterministic phase: see :func:`_with_fixed_phase`."""
    w, v = np.linalg.eigh(matrix)
    for k in range(v.shape[1]):
        v[:, k] = _with_fixed_phase(v[:, k])
    return w, v


def _clustered_eigensystem(op: HermitianOperator) -> tuple[tuple[SpectralCell, ...], np.ndarray, np.ndarray]:
    """(cells, V, cell): the spectral cells in ascending order, the
    eigenvector matrix V and, per column of V, the index of its cell.

    Ascending eigenvalues form one cell while each successive gap is within
    ``EIGENVALUE_TOL``, scaled by :func:`_scaled`."""
    w, v = _fixed_phase_eigh(op.matrix)
    splits = np.diff(w) > _scaled(EIGENVALUE_TOL, w)
    cells = tuple(SpectralCell(g) for g in np.split(w, np.flatnonzero(splits) + 1))
    return cells, v, np.concatenate(([0], np.cumsum(splits)))


# ---------------------------------------------------------------------------
# observables and spectral calculus


def observable_from_distribution(dist: Distribution) -> tuple[HermitianOperator, PVM]:
    """Diagonal operator carrying a classical law, plus its eigen-PVM.

    The operator is diag(support) on C^len(support); the PVM has one
    singleton cell per support value, labelled by that value's cell.
    """
    op = HermitianOperator(np.diag(np.asarray(dist.support, dtype=complex)))
    labels = [SpectralCell((x,)) for x in dist.support]
    return op, PVM._from_stack(labels, np.eye(len(dist)), np.arange(len(dist)))


def _spectral_sum(stack: np.ndarray, cell: np.ndarray, values: Sequence[float]) -> np.ndarray:
    """sum_k values[k] W_k W_k*, formed as one product S diag(values[cell]) S*
    over the isometries S = [W_1 ... W_k] side by side, so no per-cell
    projector."""
    return (stack * np.asarray(values, dtype=float)[cell]) @ stack.conj().T


def _born_law(rho: np.ndarray, stack: np.ndarray, cell: np.ndarray, labels: Sequence) -> Distribution:
    """Law of the cells ``labels`` in the state ``rho``: cell k's Born weight
    is Re diag(S* rho S) summed over its columns, so no projector is formed.
    A weight below -``DENSITY_TOL`` is an error naming its cell; the others
    are clamped at 0 and renormalised, on each label's real value, ascending."""
    weights = np.bincount(cell, weights=((rho @ stack) * stack.conj()).sum(axis=0).real, minlength=len(labels))
    if (low := weights < -DENSITY_TOL).any():
        k = int(low.argmax())
        raise ValueError(f"cell {labels[k]!r}: negative probability {float(weights[k])!r}")
    weights = np.maximum(weights, 0.0)
    values = np.array([_cell_label_value(label) for label in labels])
    order = np.argsort(values, kind="stable")
    return Distribution(values[order], weights[order] / weights.sum())


def density_from_distribution(dist: Distribution, pvm: PVM) -> DensityOperator:
    """The state sum_i p_i P_i.  Requires one PVM cell per support value."""
    if len(pvm) != len(dist):
        raise DimensionError(
            f"distribution has {len(dist)} values but the PVM has {len(pvm)} cells"
        )
    return DensityOperator(_spectral_sum(pvm.stack, pvm.cell, dist.probs))


def spectral_pvm(op: HermitianOperator) -> PVM:
    """Spectral measure of ``op`` with eigenvalues clustered into cells.

    Successive eigenvalues with gap <= ``EIGENVALUE_TOL`` relative to the
    spectral radius (absolute when the radius is below 1) share a cell.
    """
    return PVM._from_stack(*_clustered_eigensystem(op))


def apply_function(f, op: HermitianOperator) -> HermitianOperator:
    """Spectral function calculus: f applied to the eigenvalues of ``op``.

    ``f`` may be a callable on reals or a mapping from (approximate)
    eigenvalues to values; mapping keys are matched within 1e-6.  ``f`` is
    evaluated at each computed eigenvalue, so distinct eigenvalues are never
    merged, however close.
    """
    w, v = _fixed_phase_eigh(op.matrix)
    ys = []
    for x in w.tolist():
        try:
            ys.append(_evaluate(f, x))
        except DomainError:
            raise
        except Exception as exc:
            raise DomainError(f"function undefined at eigenvalue {x!r}: {exc}") from exc
    return HermitianOperator(_spectral_sum(v, np.arange(len(ys)), ys))


def _evaluate(f, x: float) -> float:
    if isinstance(f, Mapping):
        best = None
        for key, val in f.items():
            gap = abs(float(key) - x)
            if best is None or gap < best[0]:
                best = (gap, val)
        if best is None or best[0] > 1e-6:
            raise DomainError(f"no table entry within 1e-6 of eigenvalue {x!r}")
        return float(best[1])
    return float(f(x))


def _as_density(state, dim: int, what: str) -> DensityOperator:
    """The state as a ``DensityOperator`` of dimension ``dim``, the dimension of ``what``."""
    if isinstance(state, PureState):
        state = state.density()
    elif not isinstance(state, DensityOperator):
        raise TypeError(f"expected DensityOperator or PureState, got {type(state).__name__}")
    if state.dim != dim:
        raise DimensionError(f"state dim {state.dim} != {what} dim {dim}")
    return state


def _cell_label_value(label) -> float:
    if isinstance(label, SpectralCell):
        return label.representative
    if isinstance(label, numbers.Real):
        return float(label)
    raise ValueError(f"PVM cell label {label!r} has no real-valued representative")


def spectral_measure(state, pvm: PVM) -> Distribution:
    """Measurement law of a PVM in a state: prob(cell) = <P> in the state,
    by the Born rule of :func:`_born_law`.

    The output support carries each cell's representative value (the cell
    minimum; equal to the eigenvalue itself for singleton cells).
    """
    rho = _as_density(state, pvm.dim, "PVM")
    return _born_law(rho.matrix, pvm.stack, pvm.cell, pvm.labels)


def trace_expectation(state, op: HermitianOperator) -> float:
    """Tr(rho A) in a state, asserted real: |Im| <= ``HERMITIAN_TOL`` scaled by max|A|."""
    rho = _as_density(state, op.dim, "operator")
    val = complex(np.trace(rho.matrix @ op.matrix))
    if abs(val.imag) > _scaled(HERMITIAN_TOL, op.matrix):
        raise ValueError(f"trace expectation has imaginary residual {val.imag:.3e}")
    return val.real


# ---------------------------------------------------------------------------
# joint measures for commuting pairs


def _commutator_gate(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(||[A,B]||, its tolerance): ``COMM_TOL`` scaled by max|A| max|B|."""
    return commutator_norm(a, b), _scaled(COMM_TOL, np.abs(a).max() * np.abs(b).max())


def _joint_blocks(a: HermitianOperator, b: HermitianOperator) -> tuple[list, np.ndarray, np.ndarray]:
    """Simultaneous block diagonalisation of a commuting pair.

    Returns the (labels, stack, cell) of a PVM: labels are (cell_of_a,
    cell_of_b) pairs and the cells' isometries are mutually orthogonal and
    jointly complete.  Inside each eigenspace of ``a`` the restriction of
    ``b`` is diagonalised, and the restricted eigenvalues are matched to the
    cells of ``b``'s own spectral measure.
    """
    if a.dim != b.dim:
        raise DimensionError(f"operator dims differ: {a.dim} vs {b.dim}")
    c, tol = _commutator_gate(a.matrix, b.matrix)
    if c > tol:
        raise NonCommutingError(f"operators do not commute: ||[A,B]|| = {c:.3e} > {tol:.1e}")
    cells_b, _, cell_b = _clustered_eigensystem(b)
    eigs_b = np.concatenate([cell.values for cell in cells_b])  # ascending
    assign_tol = _scaled(1e-6, eigs_b)

    labels, isos = [], []
    cells_a, va, cell_of = _clustered_eigensystem(a)
    for k, cell_a in enumerate(cells_a):
        iso_a = va[:, cell_of == k]
        restricted = iso_a.conj().T @ b.matrix @ iso_a
        w, v = _fixed_phase_eigh((restricted + restricted.conj().T) / 2)
        # each restricted eigenvalue joins the cell of its nearest eigenvalue
        # of b; cells ascend, so the first nearest lies in the first nearest cell
        gaps = np.abs(w[:, None] - eigs_b[None, :])
        if (far := gaps.min(axis=1) > assign_tol).any():
            raise NonCommutingError(
                f"restricted eigenvalue {float(w[far.argmax()])!r} matches no cell of the second "
                f"operator within {assign_tol:.1e}"
            )
        js = cell_b[gaps.argmin(axis=1)]
        for j in np.unique(js).tolist():
            labels.append((cell_a, cells_b[j]))
            isos.append(iso_a @ v[:, js == j])
    return labels, np.hstack(isos), np.repeat(np.arange(len(isos)), [w.shape[1] for w in isos])


def joint_pvm(a: HermitianOperator, b: HermitianOperator) -> PVM:
    """Joint spectral measure of a commuting pair.

    Cells are labelled ``(cell_of_a, cell_of_b)`` and only cells of
    positive rank appear.  Each joint projector agrees with the product
    of the marginal projectors, and summing over the second index
    recovers the first operator's spectral projector exactly.

    Raises :class:`NonCommutingError` when ||[A,B]|| > ``COMM_TOL`` x max(1, max|A| max|B|).
    """
    return PVM._from_stack(*_joint_blocks(a, b))


def common_refiner(
    a: HermitianOperator, b: HermitianOperator
) -> tuple[HermitianOperator, dict, dict]:
    """A single operator C with integer spectrum plus value tables f1, f2
    such that applying f1 (resp. f2) to C reproduces ``a`` (resp. ``b``).

    The joint cells of the pair are enumerated 0..m-1; C = sum_k k*Q_k.
    """
    labels, stack, cell = _joint_blocks(a, b)
    c = _spectral_sum(stack, cell, range(len(labels)))
    f1 = {k: cell_a.mean for k, (cell_a, _) in enumerate(labels)}
    f2 = {k: cell_b.mean for k, (_, cell_b) in enumerate(labels)}
    return HermitianOperator(c), f1, f2


# ---------------------------------------------------------------------------
# GNS construction


class GNSRepresentation:
    """Result of a GNS construction over a matrix algebra and a state.

    The orthonormal quotient basis is held as matrices E_l = sum_j
    cols[j, l] a_j, and every representation matrix comes from one
    formula: pi(x)[k, l] = <e_k, x e_l>_omega = Tr(E_k* x E_l rho).

    Attributes
    ----------
    rep_dim:
        Dimension of the quotient representation space.
    images:
        pi(a_i) for each input basis element.  The quotient basis comes from
        a Gram eigendecomposition, so the images are fixed only up to a
        unitary, as any GNS representation is.
    cyclic_vector:
        The class of the algebra unit, psi_k = Tr(E_k* rho); a unit vector
        cyclic for the represented algebra.
    reproduction_error:
        max_i |<Psi| pi(a_i) Psi> - Tr(rho a_i)| over the input basis, which
        :func:`gns_construct` checks is at most 1e-9.
    """

    __slots__ = ("rep_dim", "images", "cyclic_vector", "reproduction_error", "_flat", "_flat_pinv", "_quotient_conj", "_quotient_rho")

    def __init__(self, basis, rho, quotient, flat, flat_pinv):
        self.rep_dim = len(quotient)
        self._flat, self._flat_pinv = flat, flat_pinv
        self._quotient_conj = quotient.reshape(self.rep_dim, -1).conj()
        self._quotient_rho = quotient @ rho
        self.images = tuple(_frozen(self._pi(m)) for m in basis)
        self.cyclic_vector = PureState(self._quotient_conj @ rho.reshape(-1))

    def _pi(self, m: np.ndarray) -> np.ndarray:
        return self._quotient_conj @ (m @ self._quotient_rho).reshape(self.rep_dim, -1).T

    def represent(self, element) -> np.ndarray:
        """Representation matrix of an arbitrary algebra element, which must
        lie in the span of the input basis (relative residual <= ``GNS_SPAN_TOL``)."""
        m = matrix_of(element)
        vec = m.reshape(-1)
        resid = float(np.linalg.norm(vec @ self._flat_pinv @ self._flat - vec))
        if resid > _scaled(GNS_SPAN_TOL, np.linalg.norm(vec)):
            raise AlgebraError(f"element lies outside the algebra span (residual {resid:.3e})")
        return self._pi(m)


#: Gram eigenvalues at or below this threshold are treated as the null
#: space quotiented away by the GNS construction.
GNS_NULL_TOL = 1e-10
#: Relative residual allowed when checking the basis spans a unital
#: *-closed algebra.
GNS_SPAN_TOL = 1e-8


def gns_construct(algebra_basis: Sequence, omega) -> GNSRepresentation:
    """GNS construction: quotient the algebra by the null space of the
    state's sesquilinear form and represent it by left multiplication.

    ``algebra_basis`` must span a unital *-closed algebra (identity,
    adjoints and pairwise products all within span, relative residual
    <= ``GNS_SPAN_TOL``; the products a_i [a_1 ... a_n] are checked as one
    stack per i).  The Gram matrix G[i,j] = Tr(rho a_i* a_j) is
    diagonalised; eigenvalues <= ``GNS_NULL_TOL`` span the null space, and
    the others give the orthonormal quotient basis E_l of
    :class:`GNSRepresentation`.  The returned cyclic vector Psi satisfies
    <Psi| pi(a) Psi> = Tr(rho a) for every basis element (checked to 1e-9).
    """
    mats = [matrix_of(m) for m in algebra_basis]
    if not mats:
        raise AlgebraError("empty algebra basis")
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise DimensionError("algebra basis matrices must share one shape")
    omega = _as_density(omega, d, "algebra")

    basis = np.array(mats)  # n x d x d
    flat = basis.reshape(len(basis), -1)  # row j is a_j
    flat_pinv = np.linalg.pinv(flat)

    def _outside(ms: np.ndarray) -> np.ndarray:
        """Which of the stacked matrices leave the span; argmax is the first."""
        y = ms.reshape(len(ms), -1)
        resid = np.linalg.norm(y @ flat_pinv @ flat - y, axis=1)
        return resid > GNS_SPAN_TOL * np.maximum(1.0, np.linalg.norm(y, axis=1))

    if _outside(np.eye(d, dtype=complex)[None]).any():
        raise AlgebraError("identity is not in the span of the basis")
    if (bad := _outside(basis.conj().transpose(0, 2, 1))).any():
        raise AlgebraError(f"basis element {bad.argmax()} has its adjoint outside the span")
    for i, mi in enumerate(basis):
        if (bad := _outside(mi @ basis)).any():
            raise AlgebraError(f"product of basis elements {i},{bad.argmax()} leaves the span")

    rho = omega.matrix
    gram = flat.conj() @ (basis @ rho).reshape(len(basis), -1).T
    lam, vv = np.linalg.eigh((gram + gram.conj().T) / 2)
    keep = lam > GNS_NULL_TOL
    rep_dim = int(keep.sum())
    if rep_dim == 0:
        raise AlgebraError("state annihilates the whole algebra")
    cols = vv[:, keep] / np.sqrt(lam[keep])  # n x rep_dim, orthonormal in <.,.>_omega
    rep = GNSRepresentation(basis, rho, (cols.T @ flat).reshape(rep_dim, d, d), flat, flat_pinv)

    psi = rep.cyclic_vector.vector
    orbit = np.array([img @ psi for img in rep.images])  # row i is pi(a_i) psi
    got, want = orbit @ psi.conj(), flat @ rho.T.reshape(-1)  # want: Tr(a_i rho)
    errors = np.abs(got - want)
    if (bad := errors > 1e-9).any():
        i = bad.argmax()
        raise AlgebraError(
            f"state reproduction failed on basis element {i}: |{complex(got[i])!r} - {complex(want[i])!r}|"
        )
    rep.reproduction_error = float(errors.max())
    if np.linalg.matrix_rank(orbit, tol=1e-8) != rep_dim:
        raise AlgebraError("cyclic vector does not generate the representation space")
    return rep


# ---------------------------------------------------------------------------
# CHSH, dispersion


def chsh_beta(a1, a2, b1, b2, omega) -> float:
    """The CHSH functional Re Tr(omega (a1(b1+b2) + a2(b1-b2))).

    Requires ||a_i||, ||b_j|| <= 1 (within 1e-9) and every a_i to commute
    with every b_j (the commutation gate of :func:`joint_pvm`); violations
    raise :class:`HypothesisError`.
    """
    ops = [matrix_of(x) for x in (a1, a2, b1, b2)]
    names = ("a1", "a2", "b1", "b2")
    rho = omega
    for name, m in zip(names, ops):
        rho = _as_density(rho, m.shape[0], name)  # converts a PureState once
        nrm = operator_norm(m)
        if nrm > 1.0 + 1e-9:
            raise HypothesisError(f"||{name}|| = {nrm!r} exceeds 1")
    for i in (0, 1):
        for j in (2, 3):
            c, tol = _commutator_gate(ops[i], ops[j])
            if c > tol:
                raise HypothesisError(f"[{names[i]},{names[j]}] has norm {c:.3e}; the two sides must commute")
    ma1, ma2, mb1, mb2 = ops
    functional = ma1 @ (mb1 + mb2) + ma2 @ (mb1 - mb2)
    return float(np.trace(rho.matrix @ functional).real)


def dispersion(omega, op: HermitianOperator) -> float:
    """Variance of an observable in a state: <(A - <A>)^2>."""
    rho = _as_density(omega, op.dim, "operator")
    m = float(np.trace(rho.matrix @ op.matrix).real)
    shifted = op.matrix - m * np.eye(op.dim)
    return float(np.trace(rho.matrix @ shifted @ shifted).real)


def dispersion_free_state(a: HermitianOperator, b: HermitianOperator) -> PureState:
    """A joint eigenvector of a commuting pair: dispersion-free for both.

    Deterministic: the first basis vector of the first joint block (cells
    ordered ascending in both eigenvalues).  Non-commuting input raises
    :class:`NonCommutingError`.
    """
    return PureState(_joint_blocks(a, b)[1][:, 0])
