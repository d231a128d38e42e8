"""Operators, PVMs, spectral calculus, joint measurements, GNS, CHSH, dispersion."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    conjugated_diagonal_pair,
    fourier_pair,
    random_density,
    random_hermitian,
    random_unitary,
)
from ncprob import (
    AlgebraError,
    DensityOperator,
    DimensionError,
    Distribution,
    DomainError,
    HermitianOperator,
    HypothesisError,
    NonCommutingError,
    PVM,
    PureState,
    SpectralCell,
    SpectrumPartition,
    apply_function,
    chsh_beta,
    common_refiner,
    commutator_norm,
    density_from_distribution,
    dispersion,
    dispersion_free_state,
    epsilon_entropy,
    gns_construct,
    joint_pvm,
    observable_from_distribution,
    partition_probabilities,
    spectral_measure,
    spectral_pvm,
    trace_expectation,
)
from ncprob.hilbert import (
    COMM_TOL,
    GNS_NULL_TOL,
    HERMITIAN_TOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _clustered_eigensystem,
    _with_fixed_phase,
    fourier_unitary,
    hadamard_unitary,
    operator_norm,
)


def basis_state(dim, k):
    v = np.zeros(dim)
    v[k] = 1.0
    return PureState(v)


class TestWrappers:
    def test_hermitian_symmetrisation_within_tolerance(self):
        m = np.array([[1.0, 0.5 + 1e-12j], [0.5 - 1e-12j, 2.0]])
        h = HermitianOperator(m)
        assert np.allclose(h.matrix, h.matrix.conj().T)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    # entries <= 1: the gate is HERMITIAN_TOL absolute; beyond 1 it scales with max|A|
    @pytest.mark.parametrize("top", [1.0, 1e6])
    def test_hermitian_gate_on_both_sides_of_its_threshold(self, top):
        def skewed(dev):
            return np.array([[top, 0.5], [0.5 + dev, 0.25]])

        assert HermitianOperator(skewed(0.9 * HERMITIAN_TOL * top)).matrix[0, 0] == top
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian: max\|A - A\*\| = 1\.1"):
            HermitianOperator(skewed(1.1 * HERMITIAN_TOL * top))

    def test_density_gate_on_both_sides_of_its_threshold(self):
        def skewed(dev):
            return np.array([[0.5, 0.25], [0.25 + dev, 0.5]])

        DensityOperator(skewed(0.9 * HERMITIAN_TOL))
        with pytest.raises(ValueError, match="density matrix not Hermitian"):
            DensityOperator(skewed(1.1 * HERMITIAN_TOL))

    def test_density_requires_unit_trace_and_positivity(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([0.7, 0.7]))
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_pure_state_requires_unit_norm(self):
        with pytest.raises(ValueError):
            PureState([1.0, 1.0])
        s = PureState([1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert np.trace(s.density().matrix) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_must_be_1d(self):
        # a 2 x 2 array of norm 1 is not a 4-dim state
        with pytest.raises(ValueError, match=r"1-d, got shape \(2, 2\)"):
            PureState(np.eye(2) / np.sqrt(2))

    def test_matrices_are_read_only(self):
        h = HermitianOperator(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 5.0


class TestPVMValidation:
    def test_accepts_orthogonal_complete_family(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        pvm = PVM([("lo", p0), ("hi", p1)])
        assert pvm.labels == ("lo", "hi")
        assert pvm.dim == 2

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            PVM([("x", np.diag([0.5, 0.5])), ("y", np.diag([0.5, 0.5]))])

    def test_rejects_incomplete_family(self):
        with pytest.raises(ValueError):
            PVM([("x", np.diag([1.0, 0.0]))])

    def test_rejects_non_orthogonal_family(self):
        plus = np.full((2, 2), 0.5)
        p0 = np.diag([1.0, 0.0])
        with pytest.raises(ValueError):
            PVM([("a", plus), ("b", p0), ("c", np.eye(2) - plus - p0)])

    def test_rejects_overlapping_projectors_naming_both_cells(self):
        plus = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="cells 'zero' and 'plus' are not orthogonal"):
            PVM([("zero", np.diag([1.0, 0.0])), ("plus", plus)])

    def test_rejects_non_hermitian_naming_the_cell(self):
        skew = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="cell 'skew': projector not Hermitian"):
            PVM([("skew", skew), ("rest", np.eye(2) - skew)])

    def test_projector_gate_on_both_sides_of_its_threshold(self):
        def cells(dev):
            skew = np.array([[1.0, 0.0], [dev, 0.0]])
            return [("skew", skew), ("rest", np.diag([0.0, 1.0]))]

        assert len(PVM(cells(0.9 * HERMITIAN_TOL))) == 2
        with pytest.raises(ValueError, match="cell 'skew': projector not Hermitian"):
            PVM(cells(1.1 * HERMITIAN_TOL))

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError, match="at least one cell"):
            PVM([])

    def test_rejects_cells_of_different_dimensions(self):
        with pytest.raises(DimensionError):
            PVM([("a", np.diag([1.0, 0.0])), ("b", np.diag([0.0, 0.0, 1.0]))])

    def test_stored_isometries_have_the_cell_ranks(self):
        rng = np.random.default_rng(13)
        u = random_unitary(rng, 5)
        blocks = [u[:, :1], u[:, 1:3], u[:, 3:]]
        pvm = PVM([(k, b @ b.conj().T) for k, b in enumerate(blocks)])
        assert pvm.stack.shape == (5, 5)
        assert pvm.cell.tolist() == [0, 1, 1, 2, 2]
        isos = [pvm.stack[:, pvm.cell == k] for k in range(len(pvm))]
        assert [w.shape for w in isos] == [(5, 1), (5, 2), (5, 2)]
        for w in isos:
            assert np.abs(w.conj().T @ w - np.eye(w.shape[1])).max() <= 1e-12


class TestSpectralCell:
    def test_values_are_never_coerced(self):
        for bad in ["1", b"1", True, np.True_]:
            with pytest.raises(TypeError, match="real number"):
                SpectralCell([bad, 2.0])
        cell = SpectralCell([np.int64(3), 1, np.float64(2.5)])
        assert cell.values == (1.0, 2.5, 3.0)
        assert all(type(v) is float for v in cell.values)


class TestDiagonalModel:
    def test_observable_is_diagonal_in_support_order(self):
        d = Distribution((1.0, 2.0, 3.0), (0.5, 0.25, 0.25))
        op, pvm = observable_from_distribution(d)
        assert np.array_equal(op.matrix, np.diag([1.0, 2.0, 3.0]))
        assert [c.values for c in pvm.labels] == [(1.0,), (2.0,), (3.0,)]
        for _, proj in pvm.cells:
            assert np.trace(proj).real == pytest.approx(1.0, abs=1e-12)

    def test_density_matches_probabilities(self):
        d = Distribution((1.0, 2.0, 3.0), (0.5, 0.25, 0.25))
        _, pvm = observable_from_distribution(d)
        rho = density_from_distribution(d, pvm)
        assert np.allclose(rho.matrix, np.diag([0.5, 0.25, 0.25]), atol=1e-15)

    def test_round_trip_spectral_pvm_recovers_support(self):
        d = Distribution((-1.5, 0.25, 2.0), (0.2, 0.3, 0.5))
        op, _ = observable_from_distribution(d)
        cells = spectral_pvm(op).cells
        assert [label.representative for label, _ in cells] == list(d.support)
        assert all(label.values == (v,) for (label, _), v in zip(cells, d.support))

    def test_classical_quantum_expectation_equivalence(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            support = np.sort(rng.choice(np.arange(-12, 13), n, replace=False)) / 2.0
            d = Distribution(support, rng.dirichlet(np.ones(n)))
            op, pvm = observable_from_distribution(d)
            rho = density_from_distribution(d, pvm)
            f = lambda x: 0.5 * x * x - x + 1.0
            got = trace_expectation(rho, apply_function(f, op))
            want = sum(p * f(x) for x, p in zip(d.support, d.probs))
            assert abs(got - want) <= 1e-12


class TestSpectralPVM:
    def test_axioms_on_random_operators(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            op = random_hermitian(rng, dim, scale=3.0)
            pvm = spectral_pvm(op)
            total = np.zeros((dim, dim), dtype=complex)
            recon = np.zeros((dim, dim), dtype=complex)
            for label, proj in pvm.cells:
                assert operator_norm(proj @ proj - proj) <= 1e-10
                assert operator_norm(proj - proj.conj().T) <= 1e-10
                total += proj
                recon += label.mean * proj
            assert operator_norm(total - np.eye(dim)) <= 1e-10
            assert operator_norm(recon - op.matrix) <= 1e-9

    def test_near_degenerate_eigenvalues_cluster(self):
        op = HermitianOperator(np.diag([1.0, 1.0 + 1e-12, 5.0]))
        cells = spectral_pvm(op).cells
        assert len(cells) == 2
        ranks = [int(round(np.trace(p).real)) for _, p in cells]
        assert ranks == [2, 1]

    def test_clustering_tolerance_is_absolute_below_one_and_relative_above(self):
        # 1e-8 absolute while every |eigenvalue| <= 1, 1e-8 x max |eigenvalue| beyond
        def n_cells(values):
            return len(spectral_pvm(HermitianOperator(np.diag(values))).cells)

        assert n_cells([0.5, 0.5 + 5e-9]) == 1
        assert n_cells([0.5, 0.5 + 5e-8]) == 2
        assert n_cells([0.0, 1e6, 1e6 + 5e-3]) == 2
        assert n_cells([0.0, 1e6, 1e6 + 5e-2]) == 3
        # successive gaps decide: a chain of 6e-9 gaps joins although its
        # span exceeds the tolerance, and one 1.1e-8 gap splits
        assert n_cells([0.0, 6e-9, 1.2e-8, 1.0]) == 2
        assert n_cells([0.0, 6e-9, 1.7e-8]) == 2

    def test_eigenvector_phase_pins_the_largest_entry(self):
        assert np.array_equal(_with_fixed_phase(np.array([1j, -1.0, 0.5])), [1.0, 1j, -0.5j])  # lowest index on ties
        assert np.array_equal(_with_fixed_phase(np.zeros(3, dtype=complex)), np.zeros(3))
        rng = np.random.default_rng(58)
        op = random_hermitian(rng, 6)
        _, v, _ = _clustered_eigensystem(op)
        for col in v.T:
            pivot = col[int(np.argmax(np.abs(col)))]
            assert pivot.real > 0.0 and abs(pivot.imag) <= 1e-15

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(55)
        op = random_hermitian(rng, 5)
        first = spectral_pvm(op)
        second = spectral_pvm(op)
        for (_, p1), (_, p2) in zip(first.cells, second.cells):
            assert np.array_equal(p1, p2)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 8),
        kind=st.sampled_from(["generic", "degenerate", "near_degenerate"]),
    )
    def test_projectors_are_the_eigensystem_products(self, seed, dim, kind):
        rng = np.random.default_rng(seed)
        if kind == "degenerate":
            vals = rng.choice([-1.0, 0.5, 2.0], size=dim)
        else:
            vals = rng.uniform(-3.0, 3.0, size=dim)
            if kind == "near_degenerate" and dim > 1:
                # a gap below or above the default clustering tolerance
                vals[1] = vals[0] + rng.choice([1e-10, 1e-6])
        u = random_unitary(rng, dim)
        op = HermitianOperator(u @ np.diag(vals) @ u.conj().T)
        pvm = spectral_pvm(op)
        cells, v, cell = _clustered_eigensystem(op)
        assert pvm.labels == cells
        isos = [v[:, cell == k] for k in range(len(cells))]
        for proj, iso in zip(pvm.projectors, isos, strict=True):
            assert np.array_equal(proj, iso @ iso.conj().T)
        back = PVM(pvm.cells)
        assert back.labels == pvm.labels
        for p1, p2 in zip(back.projectors, pvm.projectors, strict=True):
            assert np.abs(p1 - p2).max() <= 1e-12

    def test_one_spectral_norm_per_construction(self, monkeypatch):
        rng = np.random.default_rng(16)
        u = random_unitary(rng, 16)
        op = HermitianOperator(u @ np.diag(np.arange(1.0, 17.0)) @ u.conj().T)
        real, calls = np.linalg.norm, []

        def counting(x, ord=None, *args, **kwargs):
            if ord == 2:
                calls.append(np.shape(x))
            return real(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        assert len(spectral_pvm(op)) == 16
        assert len(calls) <= 1


class TestApplyFunction:
    def test_square_equals_matrix_square(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            op = random_hermitian(rng, int(rng.integers(2, 6)))
            sq = apply_function(lambda x: x * x, op)
            assert operator_norm(sq.matrix - op.matrix @ op.matrix) <= 1e-12

    def test_homomorphism_on_products(self):
        rng = np.random.default_rng(9)
        f = lambda x: x + 1.0
        g = lambda x: 2.0 * x - 3.0
        for _ in range(15):
            op = random_hermitian(rng, int(rng.integers(2, 6)))
            fg = apply_function(lambda x: f(x) * g(x), op)
            prod = apply_function(f, op).matrix @ apply_function(g, op).matrix
            assert operator_norm(fg.matrix - prod) <= 1e-9

    def test_exact_clustering_keeps_distinct_floats_apart(self):
        # spectral_pvm puts 1 and 1 + 1e-12 in one cell; a step between them
        # must still tell them apart, as they are different eigenvalues
        op = HermitianOperator(np.diag([1.0, 1.0 + 1e-12, 5.0]))
        step = apply_function(lambda x: 0.0 if x <= 1.0 else 1.0, op)
        assert np.allclose(step.matrix, np.diag([0.0, 1.0, 1.0]), rtol=0.0, atol=1e-12)

    def test_identity_returns_each_eigenvalue_exactly(self):
        # f is evaluated at each eigenvalue, not at the mean of equal ones
        vals = [0.1, 0.1, 0.1, 2.0]
        out = apply_function(lambda x: x, HermitianOperator(np.diag(vals)))
        assert np.diag(out.matrix).real.tolist() == vals

    def test_result_commutes_with_argument(self):
        rng = np.random.default_rng(10)
        op = random_hermitian(rng, 4)
        img = apply_function(math.exp, op)
        assert commutator_norm(op, img) <= 1e-9

    def test_reciprocal_on_singular_operator_rejected(self):
        op = HermitianOperator(np.diag([0.0, 1.0]))
        with pytest.raises(DomainError):
            apply_function(lambda x: 1.0 / x, op)

    def test_mapping_matches_within_tolerance(self):
        op = HermitianOperator(np.diag([1.0, 2.0]))
        out = apply_function({1.0: 10.0, 2.0: 20.0}, op)
        assert np.allclose(out.matrix, np.diag([10.0, 20.0]))

    def test_mapping_missing_eigenvalue_rejected(self):
        op = HermitianOperator(np.diag([1.0, 3.0]))
        with pytest.raises(DomainError):
            apply_function({1.0: 10.0}, op)
        with pytest.raises(DomainError, match="no table entry within 1e-6 of eigenvalue 1.0"):
            apply_function({}, op)

    def test_mapping_takes_the_nearest_key_and_the_first_of_equal_gaps(self):
        op = HermitianOperator(np.diag([1.0, 2.0]))
        out = apply_function({1.0 + 4e-7: 10.0, 1.0 + 2e-7: 11.0, 2.0: 20.0, "2": 30.0}, op)
        assert np.diag(out.matrix).real.tolist() == [11.0, 20.0]


class TestSpectralMeasure:
    def test_eigenstate_gives_delta(self):
        op = HermitianOperator(np.diag([-1.0, 4.0, 7.0]))
        pvm = spectral_pvm(op)
        mu = spectral_measure(basis_state(3, 1), pvm)
        assert mu.prob_of(4.0) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_superposition_gives_born_weights(self):
        op = HermitianOperator(np.diag([0.0, 1.0]))
        pvm = spectral_pvm(op)
        mu = spectral_measure(PureState([1 / math.sqrt(2), 1 / math.sqrt(2)]), pvm)
        assert mu.probs == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_density_round_trip(self):
        d = Distribution((1.0, 2.0, 3.0), (0.5, 0.25, 0.25))
        op, pvm = observable_from_distribution(d)
        rho = density_from_distribution(d, pvm)
        back = spectral_measure(rho, pvm)
        assert back.support == d.support
        assert np.max(np.abs(np.array(back.probs) - d.probs)) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        op = HermitianOperator(np.diag([0.0, 1.0]))
        with pytest.raises(DimensionError):
            spectral_measure(basis_state(3, 0), spectral_pvm(op))

    # two eigenvalues each within DENSITY_TOL of 0 add up past it on one cell
    _SLIGHTLY_NEGATIVE = DensityOperator(np.diag([-0.9e-10, -0.9e-10, 1 + 1.8e-10]))
    _RANK_TWO = PVM([(SpectralCell((0.0,)), np.diag([1.0, 1.0, 0.0])), (SpectralCell((1.0,)), np.diag([0.0, 0.0, 1.0]))])

    def test_negative_cell_weight_is_rejected(self):
        with pytest.raises(ValueError) as err:
            spectral_measure(self._SLIGHTLY_NEGATIVE, self._RANK_TWO)
        assert str(err.value) == "cell SpectralCell(values=(0.0,)): negative probability -1.8e-10"

    def test_partition_probabilities_clamps_a_rounding_negative_weight(self):
        part = SpectrumPartition.singletons([0.0, 1.0])
        rho = DensityOperator(np.diag([-4e-13, -4e-13, 1 + 8e-13]))
        assert partition_probabilities(rho, self._RANK_TWO, part).prob_of(0.0) == 0.0
        # a weight below -DENSITY_TOL is no rounding: the law names its cell
        with pytest.raises(ValueError) as err:
            partition_probabilities(self._SLIGHTLY_NEGATIVE, self._RANK_TWO, part)
        assert str(err.value) == "cell SpectralCell(values=(0.0,)): negative probability -1.8e-10"

    def test_epsilon_entropy_names_a_negative_cell(self):
        op = HermitianOperator(np.diag([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError) as err:
            epsilon_entropy(self._SLIGHTLY_NEGATIVE, op, SpectrumPartition.singletons([0.0, 1.0]))
        assert str(err.value) == "cell SpectralCell(values=(0.0,)): negative probability -1.8e-10"

    def test_every_accepted_state_has_a_law(self):
        # DensityOperator accepts an eigenvalue down to -DENSITY_TOL; the
        # clamped weight leaves a mass the law renormalises
        rho = DensityOperator(np.diag([-5e-11, 1 + 5e-11]))
        op = HermitianOperator(np.diag([0.0, 1.0]))
        part = SpectrumPartition.singletons([0.0, 1.0])
        for law in (spectral_measure(rho, spectral_pvm(op)), partition_probabilities(rho, spectral_pvm(op), part)):
            assert (law.support, law.probs) == ((0.0, 1.0), (0.0, 1.0))
        h = epsilon_entropy(rho, op, part)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0


class TestCommutator:
    def test_pauli_z_x_norm_frozen(self):
        assert commutator_norm(PAULI_Z, PAULI_X) == pytest.approx(2.0, abs=1e-12)

    def test_commuting_pair_is_zero(self):
        rng = np.random.default_rng(2)
        a, b = conjugated_diagonal_pair(rng, 4)
        assert commutator_norm(a, b) <= 1e-12


class TestJointPVM:
    def test_distinct_and_degenerate_diagonals(self):
        a = HermitianOperator(np.diag([1.0, 2.0]))
        b = HermitianOperator(np.diag([3.0, 3.0]))
        pvm = joint_pvm(a, b)
        labels = [(la.representative, lb.representative) for la, lb in pvm.labels]
        assert labels == [(1.0, 3.0), (2.0, 3.0)]
        for _, proj in pvm.cells:
            assert np.trace(proj).real == pytest.approx(1.0, abs=1e-12)

    def test_self_joint_is_diagonal(self):
        rng = np.random.default_rng(14)
        op = random_hermitian(rng, 4)
        pvm = joint_pvm(op, op)
        own = spectral_pvm(op)
        assert len(pvm.cells) == len(own.cells)
        for (la, lb), (_, proj), (_, pown) in zip(pvm.labels, pvm.cells, own.cells):
            assert la.representative == pytest.approx(lb.representative, abs=1e-9)
            assert operator_norm(proj - pown) <= 1e-9

    def test_product_and_marginal_identities(self):
        rng = np.random.default_rng(77)
        for trial in range(20):
            dim = int(rng.integers(2, 6))
            a, b = conjugated_diagonal_pair(rng, dim, repeats=bool(trial % 2))
            joint = joint_pvm(a, b)
            pa = {la.representative: proj for la, proj in spectral_pvm(a).cells}
            pb = {lb.representative: proj for lb, proj in spectral_pvm(b).cells}
            marginals = {}
            for (la, lb), (_, proj) in zip(joint.labels, joint.cells):
                prod = pa[la.representative] @ pb[lb.representative]
                assert operator_norm(proj - prod) <= 1e-9
                key = la.representative
                marginals[key] = marginals.get(key, 0) + proj
            for key, total in marginals.items():
                assert operator_norm(total - pa[key]) <= 1e-9

    def test_non_commuting_raises(self):
        a = HermitianOperator(np.diag([0.0, 1.0]))
        with pytest.raises(NonCommutingError):
            joint_pvm(a, HermitianOperator(PAULI_X))

    def test_unmatched_restricted_eigenvalue_is_named_as_a_float(self):
        # ||[A, B]|| = 8e-10 passes COMM_TOL, but B mixes A's two cells 0 and 2e-8
        a = HermitianOperator(np.diag([0.0, 2e-8, 1.0]))
        b = HermitianOperator(np.array([[0.0, 0.04, 0.0], [0.04, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        assert commutator_norm(a, b) <= 1e-9
        for build in (joint_pvm, dispersion_free_state, common_refiner):
            with pytest.raises(NonCommutingError) as err:
                build(a, b)
            assert str(err.value) == (
                "restricted eigenvalue 0.0 matches no cell of the second operator within 1.0e-06"
            )

    def test_non_commuting_error_is_a_hypothesis_error(self):
        a = HermitianOperator(np.diag([0.0, 1.0]))
        with pytest.raises(HypothesisError):
            joint_pvm(a, HermitianOperator(PAULI_X))


class TestCommonRefiner:
    def test_diagonal_pair_functions_recover_inputs(self):
        a = HermitianOperator(np.diag([1.0, 2.0]))
        b = HermitianOperator(np.diag([3.0, 4.0]))
        c, f_a, f_b = common_refiner(a, b)
        assert operator_norm(apply_function(f_a, c).matrix - a.matrix) <= 1e-9
        assert operator_norm(apply_function(f_b, c).matrix - b.matrix) <= 1e-9

    def test_conjugated_pairs_recovered(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a, b = conjugated_diagonal_pair(rng, int(rng.integers(2, 6)))
            c, f_a, f_b = common_refiner(a, b)
            assert commutator_norm(c, a) <= 1e-8
            assert operator_norm(apply_function(f_a, c).matrix - a.matrix) <= 1e-8
            assert operator_norm(apply_function(f_b, c).matrix - b.matrix) <= 1e-8


class TestGNS:
    @staticmethod
    def full_algebra(d):
        units = []
        for i in range(d):
            for j in range(d):
                m = np.zeros((d, d), dtype=complex)
                m[i, j] = 1.0
                units.append(m)
        return units

    def test_full_algebra_full_rank_state(self):
        rng = np.random.default_rng(33)
        for d in (2, 3):
            rep = gns_construct(self.full_algebra(d), random_density(rng, d))
            assert rep.rep_dim == d * d

    def test_full_algebra_pure_state(self):
        rng = np.random.default_rng(34)
        for d in (2, 3):
            rep = gns_construct(self.full_algebra(d), random_density(rng, d, rank=1))
            assert rep.rep_dim == d

    def test_a_pure_state_and_its_density_give_one_representation(self):
        rng = np.random.default_rng(35)
        for d in (2, 3):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi = PureState(v / np.linalg.norm(v))
            pure, dense = (gns_construct(self.full_algebra(d), s) for s in (psi, psi.density()))
            assert pure.rep_dim == dense.rep_dim == d
            assert pure.reproduction_error == dense.reproduction_error

    def test_diagonal_algebra_faithful_state(self):
        basis = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
        rho = DensityOperator(np.diag([0.5, 0.3, 0.2]))
        rep = gns_construct(basis, rho)
        assert rep.rep_dim == 3
        for img in rep.images:
            off = img - np.diag(np.diagonal(img))
            assert operator_norm(off) <= 1e-10

    def test_state_reproduction_and_homomorphism(self):
        rng = np.random.default_rng(35)
        basis = self.full_algebra(2)
        rho = random_density(rng, 2)
        rep = gns_construct(basis, rho)
        psi = rep.cyclic_vector.vector
        for _ in range(10):
            x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            px, py = rep.represent(x), rep.represent(y)
            got = complex(psi.conj() @ (px @ psi))
            assert abs(got - np.trace(rho.matrix @ x)) <= 1e-9
            assert operator_norm(rep.represent(x @ y) - px @ py) <= 1e-8
            assert operator_norm(rep.represent(x.conj().T) - px.conj().T) <= 1e-8

    def test_state_functional_positive_and_normalised(self):
        rng = np.random.default_rng(36)
        basis = self.full_algebra(3)
        rep = gns_construct(basis, random_density(rng, 3, rank=2))
        psi = rep.cyclic_vector.vector
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)
        assert complex(psi.conj() @ (rep.represent(np.eye(3)) @ psi)).real == pytest.approx(
            1.0, abs=1e-9
        )
        for _ in range(10):
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            val = complex(psi.conj() @ (rep.represent(x.conj().T @ x) @ psi))
            assert val.real >= -1e-10
            assert abs(val.imag) <= 1e-9

    def test_cyclicity(self):
        rng = np.random.default_rng(37)
        rep = gns_construct(self.full_algebra(2), random_density(rng, 2))
        orbit = np.column_stack([img @ rep.cyclic_vector.vector for img in rep.images])
        assert np.linalg.matrix_rank(orbit, tol=1e-8) == rep.rep_dim

    def test_non_star_closed_basis_rejected(self):
        raiser = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(AlgebraError):
            gns_construct([np.eye(2), raiser], DensityOperator(np.eye(2) / 2))

    def test_represent_rejects_an_element_outside_the_span(self):
        rep = gns_construct([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], DensityOperator(np.eye(2) / 2))
        assert np.allclose(rep.represent(np.diag([3e8, -1e8])), np.diag([3e8, -1e8]))
        with pytest.raises(AlgebraError, match=r"element lies outside the algebra span \(residual 1\.414e\+00\)"):
            rep.represent(PAULI_X)

    def test_basis_without_identity_rejected(self):
        e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
        e10 = e01.T.copy()
        with pytest.raises(AlgebraError):
            gns_construct([e01, e10], DensityOperator(np.eye(2) / 2))

    @pytest.mark.parametrize(
        "basis, message",
        [
            ([np.diag([0.0, 1.0]), np.diag([1.0, 0.0]) + PAULI_X], "identity is not in the span of the basis"),
            # the adjoints of elements 1 and 2 both leave the span: the first is named
            ([np.eye(2), np.triu(np.ones((2, 2))), np.diag([1.0, 0.0]) + 2 * np.triu(np.ones((2, 2)), 1)],
             "basis element 1 has its adjoint outside the span"),
            # products (1, 2) and (2, 1) both leave the span: row-major order names (1, 2)
            ([np.eye(2), np.diag([1.0, 0.0]), PAULI_X], "product of basis elements 1,2 leaves the span"),
        ],
        ids=["identity", "adjoint", "product"],
    )
    def test_closure_errors_name_the_first_offender(self, basis, message):
        with pytest.raises(AlgebraError, match=f"^{message}$"):
            gns_construct(basis, DensityOperator(np.eye(2) / 2))

    def test_peak_memory_of_the_full_algebra_at_d8(self):
        # the construction keeps O(n^2) numbers for n = d^2 basis elements:
        # an n^3 structure tensor alone would be 4 MiB here
        d = 8
        basis = self.full_algebra(d)
        rho = random_density(np.random.default_rng(38), d, rank=1)
        tracemalloc.start()
        try:
            rep = gns_construct(basis, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.rep_dim == d
        assert peak < 1_000_000

    @staticmethod
    def other_basis(kind, d, rng):
        """A basis of a *-algebra that is not a set of matrix units."""
        u = random_unitary(rng, d)
        if kind == "rotated_units":
            return [u @ m @ u.conj().T for m in TestGNS.full_algebra(d)]
        if kind == "rotated_diagonal":
            return [u @ np.diag(row) @ u.conj().T for row in np.eye(d, dtype=complex)]
        # M_2 + C^(d-2): the 2 x 2 units in the top corner and the diagonal
        # units below it, recombined by a random invertible matrix
        blocks = [np.pad(m, (0, d - 2)) for m in TestGNS.full_algebra(2)]
        blocks += [np.diag(row) for row in np.eye(d, dtype=complex)[2:]]
        mix = rng.normal(size=(len(blocks), len(blocks))) + 1j * rng.normal(size=(len(blocks), len(blocks)))
        return list(np.tensordot(mix, np.array(blocks), axes=1))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["rotated_units", "block_recombined", "rotated_diagonal"])
    def test_invariants_on_other_bases_and_every_rank(self, kind, d):
        # images are fixed only up to a unitary, so the test checks what a
        # GNS representation determines: its dimension, the state's form on
        # the orbit of Psi, and the *-homomorphism property
        rng = np.random.default_rng(39 + 7 * d)
        for rank in range(1, d + 1):
            basis = self.other_basis(kind, d, rng)
            rho = random_density(rng, d, rank=rank).matrix
            gram = np.array([[np.trace(rho @ x.conj().T @ y) for y in basis] for x in basis])
            rep = gns_construct(basis, DensityOperator(rho))
            assert rep.rep_dim == int((np.linalg.eigvalsh((gram + gram.conj().T) / 2) > GNS_NULL_TOL).sum())
            psi = rep.cyclic_vector.vector
            orbit = np.column_stack([img @ psi for img in rep.images])
            assert np.abs(orbit.conj().T @ orbit - gram).max() <= 1e-10
            # the stored reproduction error is the worst |<Psi|pi(x)Psi> - Tr(rho x)| over the basis
            want = max(abs(complex(psi.conj() @ px @ psi) - complex(np.trace(rho @ x))) for x, px in zip(basis, rep.images))
            assert abs(rep.reproduction_error - want) <= 1e-12
            for x, px in zip(basis, rep.images):
                assert np.abs(rep.represent(x.conj().T) - px.conj().T).max() <= 1e-9
                for y, py in zip(basis, rep.images):
                    assert np.abs(rep.represent(x @ y) - px @ py).max() <= 1e-9


class TestCHSH:
    @staticmethod
    def tsirelson_fixture():
        a1 = np.kron(PAULI_Z, np.eye(2))
        a2 = np.kron(PAULI_X, np.eye(2))
        b1 = np.kron(np.eye(2), (PAULI_Z + PAULI_X) / math.sqrt(2))
        b2 = np.kron(np.eye(2), (PAULI_Z - PAULI_X) / math.sqrt(2))
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        return a1, a2, b1, b2, PureState(bell).density()

    def test_tsirelson_value(self):
        beta = chsh_beta(*self.tsirelson_fixture())
        assert beta == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)

    def test_norm_bound_enforced(self):
        a1, a2, b1, b2, omega = self.tsirelson_fixture()
        with pytest.raises(HypothesisError):
            chsh_beta(2.0 * a1, a2, b1, b2, omega)

    def test_cross_commutation_enforced(self):
        a1, a2, b1, b2, omega = self.tsirelson_fixture()
        bad_b1 = np.kron(PAULI_X, np.eye(2))  # acts on the same side as a1
        with pytest.raises(HypothesisError):
            chsh_beta(a1, a2, bad_b1, b2, omega)

    def test_cross_commutation_reads_the_shared_tolerance(self, monkeypatch):
        import ncprob.hilbert as hilbert

        a1, a2, b1, b2, omega = self.tsirelson_fixture()
        skew = b1 + 1e-9 * np.kron(PAULI_X, np.eye(2))  # ||[a1, skew]|| = 2e-9
        with pytest.raises(HypothesisError, match=r"\[a1,b1\] has norm 2\.000e-09"):
            chsh_beta(a1, a2, skew, b2, omega)
        monkeypatch.setattr(hilbert, "COMM_TOL", 1e-8)
        assert chsh_beta(a1, a2, skew, b2, omega) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-8)

    def test_cross_commutation_on_both_sides_of_its_threshold(self):
        # ||[Z, Z + e X]|| = 2e, and every entry is at most 1
        state = basis_state(2, 0)
        near = lambda c: PAULI_Z + (c / 2) * PAULI_X
        assert chsh_beta(PAULI_Z, PAULI_Z, near(0.9 * COMM_TOL), PAULI_Z, state) == pytest.approx(2.0)
        with pytest.raises(HypothesisError, match=r"\[a1,b1\] has norm 1\.100e-09"):
            chsh_beta(PAULI_Z, PAULI_Z, near(1.1 * COMM_TOL), PAULI_Z, state)

    def test_abelian_side_respects_classical_bound(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            diag1 = rng.uniform(-1, 1, size=2)
            diag2 = rng.uniform(-1, 1, size=2)
            v = random_unitary(rng, 2)
            a1 = np.kron(v @ np.diag(diag1) @ v.conj().T, np.eye(2))
            a2 = np.kron(v @ np.diag(diag2) @ v.conj().T, np.eye(2))
            b = [random_hermitian(rng, 2).matrix for _ in range(2)]
            b = [m / max(1.0, operator_norm(m)) for m in b]
            b1, b2 = (np.kron(np.eye(2), m) for m in b)
            omega = random_density(rng, 4)
            assert chsh_beta(a1, a2, b1, b2, omega) <= 2.0 + 1e-9


class TestDispersion:
    def test_uniform_superposition_quarter(self):
        op = HermitianOperator(np.diag([0.0, 1.0]))
        s = PureState([1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert dispersion(s, op) == pytest.approx(0.25, abs=1e-12)

    def test_eigenstate_zero(self):
        op = HermitianOperator(np.diag([3.0, 8.0]))
        assert dispersion(basis_state(2, 1), op) <= 1e-12

    def test_never_negative(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            assert dispersion(random_density(rng, dim), random_hermitian(rng, dim)) >= 0.0

    def test_dispersion_free_state_for_commuting_pairs(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            a, b = conjugated_diagonal_pair(rng, int(rng.integers(2, 6)))
            s = dispersion_free_state(a, b)
            assert dispersion(s, a) <= 1e-10
            assert dispersion(s, b) <= 1e-10

    def test_dispersion_free_requires_commutation(self):
        with pytest.raises(NonCommutingError):
            dispersion_free_state(
                HermitianOperator(PAULI_Z), HermitianOperator(PAULI_X)
            )


_OP3 = HermitianOperator(np.diag([-1.0, 0.0, 1.0]))
_PART3 = SpectrumPartition.singletons([-1.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda s: spectral_measure(s, spectral_pvm(_OP3)), "PVM"),
        (lambda s: partition_probabilities(s, spectral_pvm(_OP3), _PART3), "PVM"),
        (lambda s: epsilon_entropy(s, _OP3, _PART3), "operator"),
        (lambda s: trace_expectation(s, _OP3), "operator"),
        (lambda s: chsh_beta(_OP3, _OP3, _OP3, _OP3, s), "a1"),
        (lambda s: dispersion(s, _OP3), "operator"),
        (lambda s: gns_construct([np.eye(3)], s), "algebra"),
    ],
    ids=[
        "spectral_measure",
        "partition_probabilities",
        "epsilon_entropy",
        "trace_expectation",
        "chsh_beta",
        "dispersion",
        "gns_construct",
    ],
)
@pytest.mark.parametrize("state", [basis_state(2, 0), basis_state(2, 0).density()], ids=["pure", "density"])
def test_state_of_another_dimension_is_a_dimension_error(call, what, state):
    with pytest.raises(DimensionError, match=rf"^state dim 2 != {what} dim 3$"):
        call(state)


@pytest.mark.parametrize(
    "call",
    [lambda s: trace_expectation(s, _OP3), lambda s: gns_construct([np.eye(3)], s)],
    ids=["trace_expectation", "gns_construct"],
)
def test_a_state_that_is_neither_pure_nor_density_is_a_type_error(call):
    with pytest.raises(TypeError, match="expected DensityOperator or PureState, got ndarray"):
        call(np.eye(3) / 3)


class TestScaleRule:
    """Tolerances on an operator's own values scale with its largest value,
    so rounding that grows with the supports fails no check."""

    @staticmethod
    def reversed_pair(scale):
        # diag(1..4) and diag(4..1) in one Haar basis: they commute exactly
        u = random_unitary(np.random.default_rng(0), 4)
        a = HermitianOperator(u @ np.diag(scale * np.arange(1.0, 5.0)) @ u.conj().T)
        b = HermitianOperator(u @ np.diag(scale * np.arange(4.0, 0.0, -1.0)) @ u.conj().T)
        return a, b

    @pytest.mark.parametrize("scale", [1e3, 1e7])
    def test_commuting_pair_at_scale_has_a_joint_measure(self, scale):
        a, b = self.reversed_pair(scale)
        pvm = joint_pvm(a, b)
        pairs = np.array([(la.representative, lb.representative) for la, lb in pvm.labels]) / scale
        assert np.abs(pairs - [(1, 4), (2, 3), (3, 2), (4, 1)]).max() <= 1e-9
        psi = dispersion_free_state(a, b)
        assert dispersion(psi, a) <= 1e-9 * scale**2
        c, f_a, f_b = common_refiner(a, b)
        for f, op in ((f_a, a), (f_b, b)):
            assert operator_norm(apply_function(f, c).matrix - op.matrix) <= 1e-9 * scale

    def test_non_commuting_pair_at_scale_is_still_rejected(self):
        a = HermitianOperator(1e7 * PAULI_Z)
        with pytest.raises(NonCommutingError, match=r"\|\|\[A,B\]\|\| = 2\.000e\+14 > 1\.0e\+05"):
            joint_pvm(a, HermitianOperator(1e7 * PAULI_X))

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_apply_function_scales_a_constructed_operator(self, d):
        _, t_y = fourier_pair(d)
        got = apply_function(lambda x: 1e6 * x, t_y)
        assert operator_norm(got.matrix - 1e6 * t_y.matrix) <= 1e-9 * 1e6 * d

    def test_trace_expectation_at_operator_scale_1e8(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            rho, op = random_density(rng, dim), random_hermitian(rng, dim, scale=1e8)
            assert trace_expectation(rho, op) == pytest.approx(np.trace(rho.matrix @ op.matrix).real, rel=1e-12)

    def test_trace_expectation_takes_a_pure_state(self):
        op = HermitianOperator(np.array([[1.0, 2.0], [2.0, -1.0]]))
        # <psi|A|psi> = 0.36 + 2 * 2 * 0.48 - 0.64
        assert trace_expectation(PureState([0.6, 0.8]), op) == pytest.approx(1.64, abs=1e-15)
