"""Spectrum partitions, entropic bounds, the entropy-sum optimizer, certification."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    MinimizeSpy,
    conjugated_diagonal_pair,
    fourier_pair,
    merged_partition,
    random_density,
    random_hermitian,
    random_unitary,
    singleton_partition,
)
from ncprob import (
    Distribution,
    HermitianOperator,
    OptimizerConfig,
    PartitionError,
    PureState,
    SpectralCell,
    SpectrumPartition,
    certify_noncommutativity,
    density_from_distribution,
    epsilon_entropy,
    is_finer,
    maassen_uffink_bound,
    min_entropy_sum,
    observable_from_distribution,
    partition_probabilities,
    partovi_bound,
    shannon_entropy,
    spectral_pvm,
)
import ncprob.eur as ncprob_eur
from ncprob.eur import CERTIFICATION_THRESHOLD
from ncprob.hilbert import PAULI_X, PAULI_Z

PAULI_PARTOVI = 2.0 * math.log(2.0 / (1.0 + 1.0 / math.sqrt(2.0)))


def pauli_pair():
    return HermitianOperator(PAULI_Z), HermitianOperator(PAULI_X)


PM = SpectrumPartition.singletons([-1.0, 1.0])


class TestSpectrumPartition:
    def test_cells_sorted_by_minimum(self):
        p = SpectrumPartition.from_groups([[5.0, 6.0], [1.0, 2.0]])
        assert [c.representative for c in p.cells] == [1.0, 5.0]

    def test_overlapping_cells_rejected(self):
        with pytest.raises(PartitionError):
            SpectrumPartition.from_groups([[1.0, 2.0], [2.0, 3.0]])

    def test_empty_partition_rejected(self):
        with pytest.raises(PartitionError):
            SpectrumPartition([])

    def test_cells_of_another_type_rejected(self):
        with pytest.raises(PartitionError, match="partition cells must be SpectralCell, got float"):
            SpectrumPartition([1.0, 2.0])

    def test_from_thresholds(self):
        p = SpectrumPartition.from_thresholds([1.0, 2.0, 3.0, 4.0], [2.5])
        assert [c.values for c in p.cells] == [(1.0, 2.0), (3.0, 4.0)]

    def test_is_finer_chain(self):
        fine = SpectrumPartition.singletons([1.0, 2.0, 3.0, 4.0])
        coarse = SpectrumPartition.from_groups([[1.0, 2.0], [3.0, 4.0]])
        assert is_finer(fine, coarse)
        assert not is_finer(coarse, fine)
        assert is_finer(fine, fine)

    def test_is_finer_needs_matching_ground_sets(self):
        with pytest.raises(PartitionError):
            is_finer(SpectrumPartition.singletons([1.0, 2.0]),
                     SpectrumPartition.singletons([1.0, 3.0]))

    def test_crossing_partitions_are_incomparable(self):
        left = SpectrumPartition.from_groups([[1.0, 2.0], [3.0]])
        right = SpectrumPartition.from_groups([[1.0], [2.0, 3.0]])
        assert not is_finer(left, right)
        assert not is_finer(right, left)


class TestPartitionProbabilities:
    def test_singletons_recover_spectral_measure(self):
        d = Distribution((1.0, 2.0, 3.0), (0.5, 0.25, 0.25))
        op, pvm = observable_from_distribution(d)
        rho = density_from_distribution(d, pvm)
        mu = partition_probabilities(rho, pvm, SpectrumPartition.singletons(d.support))
        assert mu.support == d.support
        assert np.max(np.abs(np.array(mu.probs) - d.probs)) <= 1e-12

    def test_halves_of_uniform_four_level(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        op = HermitianOperator(np.diag(vals))
        pvm = spectral_pvm(op)
        rho = density_from_distribution(Distribution.uniform(vals), pvm)
        mu = partition_probabilities(
            rho, pvm, SpectrumPartition.from_groups([[1.0, 2.0], [3.0, 4.0]])
        )
        assert mu.support == (1.0, 3.0)  # cell representatives are minima
        assert mu.probs == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_partition_value_absent_from_spectrum_rejected(self):
        op = HermitianOperator(np.diag([1.0, 2.0]))
        pvm = spectral_pvm(op)
        rho = density_from_distribution(Distribution.uniform([1.0, 2.0]), pvm)
        with pytest.raises(PartitionError):
            partition_probabilities(rho, pvm, SpectrumPartition.singletons([1.0, 7.0]))

    def test_partition_values_match_at_the_clustering_tolerance(self):
        # the spectrum's clustering rule: 1e-8 x max |value|, here 2e-2
        vals = [1e6, 2e6]
        pvm = spectral_pvm(HermitianOperator(np.diag(vals)))
        rho = density_from_distribution(Distribution.uniform(vals), pvm)
        mu = partition_probabilities(rho, pvm, SpectrumPartition.singletons([1e6 + 1e-2, 2e6]))
        assert mu.probs == pytest.approx((0.5, 0.5), abs=1e-12)
        with pytest.raises(PartitionError):
            partition_probabilities(rho, pvm, SpectrumPartition.singletons([1e6 + 5e-2, 2e6]))

    def test_partition_must_cover_spectrum(self):
        op = HermitianOperator(np.diag([1.0, 2.0]))
        pvm = spectral_pvm(op)
        rho = density_from_distribution(Distribution.uniform([1.0, 2.0]), pvm)
        with pytest.raises(PartitionError):
            partition_probabilities(rho, pvm, SpectrumPartition.singletons([1.0]))


class TestEpsilonEntropy:
    def test_single_cell_is_zero(self):
        rng = np.random.default_rng(50)
        op = random_hermitian(rng, 4)
        part = SpectrumPartition.single_cell(
            [v for c in spectral_pvm(op).labels for v in c.values]
        )
        assert epsilon_entropy(random_density(rng, 4), op, part) == 0.0

    def test_point_mass_is_positive_zero(self):
        op = HermitianOperator(np.diag([1.0, 2.0, 3.0]))
        h = epsilon_entropy(PureState([0.0, 1.0, 0.0]), op, singleton_partition(op))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_bounded_by_log_cell_count(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            op = random_hermitian(rng, dim)
            part = merged_partition(op, rng)
            h = epsilon_entropy(random_density(rng, dim), op, part)
            assert -1e-12 <= h <= math.log(len(part.cells)) + 1e-12

    def test_coarsening_cannot_increase_entropy(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            op = random_hermitian(rng, dim)
            fine = singleton_partition(op)
            coarse = merged_partition(op, rng)
            rho = random_density(rng, dim)
            assert is_finer(fine, coarse)
            assert epsilon_entropy(rho, op, coarse) <= epsilon_entropy(rho, op, fine) + 1e-12

    def test_concave_in_the_state(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            op = random_hermitian(rng, dim)
            part = merged_partition(op, rng)
            rho1, rho2 = random_density(rng, dim), random_density(rng, dim)
            lam = float(rng.uniform(0.05, 0.95))
            from ncprob import DensityOperator

            mix = DensityOperator(lam * rho1.matrix + (1 - lam) * rho2.matrix)
            mixed = epsilon_entropy(mix, op, part)
            split = lam * epsilon_entropy(rho1, op, part) + (1 - lam) * epsilon_entropy(
                rho2, op, part
            )
            assert mixed >= split - 1e-10


    @pytest.mark.parametrize("grain", ["singleton", "merged"])
    @pytest.mark.parametrize("purity", ["pure", "mixed"])
    def test_matches_the_projector_oracle_on_degenerate_spectra(self, grain, purity):
        rng = np.random.default_rng(54)
        for _ in range(15):
            dim = int(rng.integers(3, 7))
            vals = rng.uniform(-3.0, 3.0, size=dim)
            vals[1] = vals[0]  # one doubly degenerate eigenvalue
            u = random_unitary(rng, dim)
            op = HermitianOperator(u @ np.diag(vals) @ u.conj().T)
            part = singleton_partition(op) if grain == "singleton" else merged_partition(op, rng)
            if purity == "pure":
                v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                state = PureState(v / np.linalg.norm(v))
            else:
                state = random_density(rng, dim)
            want = shannon_entropy(partition_probabilities(state, spectral_pvm(op), part))
            assert abs(epsilon_entropy(state, op, part) - want) <= 1e-12

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(s=st.floats(0.0, 1e-3) | st.floats(-323.0, -3.0).map(lambda e: 10.0**e), dim=st.integers(2, 6))
    @example(s=0.0, dim=2)
    @example(s=5e-324, dim=2)
    @example(s=2.2250738585072014e-308 / 3, dim=3)
    @example(s=1e-12, dim=2)
    def test_continuous_as_a_cell_probability_goes_to_zero(self, s, dim):
        # psi = sqrt(1 - s) e_0 + sqrt(s) e_1 on singleton cells: the binary entropy h(s)
        op = HermitianOperator(np.diag(np.arange(1.0, dim + 1.0)))
        psi = np.zeros(dim, dtype=complex)
        psi[0], psi[1] = math.sqrt(1.0 - s), math.sqrt(s)
        h = -(1.0 - s) * math.log1p(-s) - (s * math.log(s) if s > 0.0 else 0.0)
        assert abs(epsilon_entropy(PureState(psi), op, singleton_partition(op)) - h) <= 1e-12


class TestMaassenUffink:
    def test_pauli_pair_ln2(self):
        a, b = pauli_pair()
        assert maassen_uffink_bound(a, b) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_fourier_bounds(self):
        for d in (3, 6):
            a, b = fourier_pair(d)
            assert maassen_uffink_bound(a, b) == pytest.approx(math.log(d), abs=1e-9)

    def test_same_basis_is_zero(self):
        a = HermitianOperator(np.diag([1.0, 2.0, 3.0]))
        b = HermitianOperator(np.diag([-5.0, 0.5, 9.0]))
        assert 0.0 <= maassen_uffink_bound(a, b) <= 1e-12
        assert maassen_uffink_bound(a, a) <= 1e-12

    def test_symmetric_in_the_arguments(self):
        rng = np.random.default_rng(58)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
            assert maassen_uffink_bound(a, b) == pytest.approx(
                maassen_uffink_bound(b, a), abs=1e-10
            )

    def test_single_cell_partitions_collapse_the_bound(self):
        a, b = pauli_pair()
        whole = SpectrumPartition.single_cell([-1.0, 1.0])
        assert maassen_uffink_bound(a, b, eps=whole, delta=whole) <= 1e-12

    def test_never_negative(self):
        rng = np.random.default_rng(59)
        for _ in range(15):
            dim = int(rng.integers(2, 5))
            assert maassen_uffink_bound(
                random_hermitian(rng, dim), random_hermitian(rng, dim)
            ) >= 0.0


class TestPartovi:
    def test_pauli_singletons_frozen_value(self):
        a, b = pauli_pair()
        assert partovi_bound(a, b, PM, PM) == pytest.approx(PAULI_PARTOVI, abs=1e-9)

    def test_pauli_matches_projector_sum_oracle(self):
        # Independent oracle: s = max_(i,j) lambda_max(P_i + Q_j) from
        # explicitly constructed eigenprojectors.
        a, b = pauli_pair()
        projs_a = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        plus = np.full((2, 2), 0.5)
        projs_b = [plus, np.eye(2) - plus]
        s = max(
            float(np.linalg.eigvalsh(p + q)[-1]) for p in projs_a for q in projs_b
        )
        want = 2.0 * math.log(2.0 / s)
        assert partovi_bound(a, b, PM, PM) == pytest.approx(want, abs=1e-9)

    def test_s_always_in_unit_band(self):
        rng = np.random.default_rng(60)
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
            ea, eb = singleton_partition(a), merged_partition(b, rng)
            bound = partovi_bound(a, b, ea, eb)
            s = 2.0 * math.exp(-bound / 2.0)
            assert 1.0 - 1e-9 <= s <= 2.0 + 1e-9

    def test_common_eigenvector_cells_give_zero(self):
        theta = 0.7
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0.0],
                [math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        a = HermitianOperator(np.diag([1.0, 2.0, 3.0]))
        b = HermitianOperator(rot @ np.diag([4.0, 5.0, 6.0]) @ rot.T)
        ea = SpectrumPartition.singletons([1.0, 2.0, 3.0])
        eb = SpectrumPartition.singletons([4.0, 5.0, 6.0])
        # e3 is an eigenvector of both: cells {3} and {6} share it, s = 2.
        assert abs(partovi_bound(a, b, ea, eb)) <= 1e-9

    def test_single_cell_partitions_give_zero(self):
        a, b = pauli_pair()
        whole = SpectrumPartition.single_cell([-1.0, 1.0])
        assert abs(partovi_bound(a, b, whole, whole)) <= 1e-9


SPECTRA = ("generic", "degenerate", "near_degenerate")


def _spectrum(rng, dim, kind):
    """Eigenvalues for the oracle pairs: generic, exactly degenerate, or
    with one pair split by a gap above or below the clustering tolerance."""
    if kind == "degenerate":
        return rng.choice([-1.0, 0.5, 2.0], size=dim)
    vals = rng.uniform(-3.0, 3.0, size=dim)
    if kind == "near_degenerate":
        vals[1] = vals[0] + rng.choice([1e-6, 1e-10])
    return vals


def _oracle_projectors(op, part):
    """One explicit d x d projector per partition cell, from numpy's eigh."""
    w, v = np.linalg.eigh(op.matrix)
    values = [(u, i) for i, c in enumerate(part.cells) for u in c.values]
    cell = np.array([min(values, key=lambda ui: abs(ui[0] - x))[1] for x in w])
    return [v[:, cell == i] @ v[:, cell == i].conj().T for i in range(len(part))]


def _interleaved_partition(op):
    """Alternate spectral cells in two partition cells, so that neither
    partition cell is a contiguous run of the spectrum."""
    cells = singleton_partition(op).cells
    return SpectrumPartition.from_groups(
        [v for c in cells[k::2] for v in c.values] for k in (0, 1) if cells[k::2]
    )


class TestOverlapTableOracle:
    """Both bounds against projector-level oracles built in the test."""

    @pytest.mark.parametrize("kind", SPECTRA)
    @pytest.mark.parametrize("grain", ["singleton", "merged", "single_cell", "interleaved"])
    def test_bounds_match_projector_oracles(self, kind, grain):
        rng = np.random.default_rng(70 + SPECTRA.index(kind))
        for _ in range(12):
            # interleaved cells of degenerate spectra have mixed widths
            dim = int(rng.integers(2, 11 if grain == "interleaved" else 7))
            a, b = (
                HermitianOperator(u @ np.diag(_spectrum(rng, dim, kind)) @ u.conj().T)
                for u in (random_unitary(rng, dim), random_unitary(rng, dim))
            )
            if grain == "singleton":
                ea, eb = singleton_partition(a), singleton_partition(b)
            elif grain == "merged":
                ea, eb = merged_partition(a, rng), merged_partition(b, rng)
            elif grain == "interleaved":
                ea, eb = _interleaved_partition(a), _interleaved_partition(b)
            else:
                ea, eb = (
                    SpectrumPartition.single_cell(singleton_partition(op).ground_values())
                    for op in (a, b)
                )
            ps, qs = _oracle_projectors(a, ea), _oracle_projectors(b, eb)
            c = max(float(np.linalg.norm(p @ q, 2)) for p in ps for q in qs)
            s = max(float(np.linalg.eigvalsh(p + q)[-1]) for p in ps for q in qs)
            mu = maassen_uffink_bound(a, b, ea, eb)
            pv = partovi_bound(a, b, ea, eb)
            assert abs(mu - (-2.0 * math.log(min(c, 1.0)))) <= 1e-12
            assert abs(pv - 2.0 * math.log(2.0 / min(s, 2.0))) <= 1e-12
            assert pv <= mu + 1e-12
            if grain == "singleton":
                assert abs(maassen_uffink_bound(a, b) - mu) <= 1e-12


class TestNearDegenerateCommutingSoundness:
    """A commuting pair is never certified, even when each spectrum has a
    pair of eigenvalues just above the clustering tolerance, where the
    computed eigenvectors of the two operators need not line up."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 8),
        gaps=st.tuples(st.floats(1.01, 100.0), st.floats(1.01, 100.0)),
        grain=st.sampled_from(["singleton", "merged"]),
    )
    def test_bounds_stay_below_the_threshold(self, seed, dim, gaps, grain):
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, dim)
        spectra = []
        for gap in gaps:
            vals = np.sort(rng.uniform(-3.0, 3.0, size=dim))
            k = int(rng.integers(0, dim - 1))
            # the default clustering tolerance: 1e-8 relative to the spectral radius
            vals[k + 1] = vals[k] + gap * 1e-8 * max(1.0, float(np.abs(vals).max()))
            spectra.append(vals)
        a, b = (HermitianOperator(u @ np.diag(vals) @ u.conj().T) for vals in spectra)
        if grain == "singleton":
            ea, eb = singleton_partition(a), singleton_partition(b)
        else:
            ea, eb = merged_partition(a, rng), merged_partition(b, rng)
        worst = max(maassen_uffink_bound(a, b, ea, eb), partovi_bound(a, b, ea, eb))
        assert worst <= CERTIFICATION_THRESHOLD


class TestMinEntropySum:
    def test_pauli_reaches_ln2(self):
        a, b = pauli_pair()
        res = min_entropy_sum(a, b, PM, PM)
        assert res.value == pytest.approx(math.log(2.0), abs=1e-6)
        assert res.converged

    def test_value_matches_reported_state(self):
        a, b = pauli_pair()
        res = min_entropy_sum(a, b, PM, PM, OptimizerConfig(restarts=4))
        recomputed = epsilon_entropy(res.state, a, PM) + epsilon_entropy(res.state, b, PM)
        assert res.value == pytest.approx(recomputed, abs=1e-12)

    def test_best_state_has_its_largest_entry_real_and_positive(self):
        a, b = pauli_pair()
        psi = min_entropy_sum(a, b, PM, PM, OptimizerConfig(restarts=4)).state.vector
        pivot = psi[int(np.argmax(np.abs(psi)))]
        assert pivot.real > 0.0 and abs(pivot.imag) <= 1e-15

    def test_deterministic_for_fixed_config(self):
        a, b = pauli_pair()
        cfg = OptimizerConfig(restarts=3, max_iters=120, seed=99)
        r1 = min_entropy_sum(a, b, PM, PM, cfg)
        r2 = min_entropy_sum(a, b, PM, PM, cfg)
        assert r1.value == r2.value
        assert np.array_equal(r1.state.vector, r2.state.vector)
        assert r1.seed == 99 and r1.restarts == 3

    def test_counts_are_read_from_the_restarts(self):
        res = min_entropy_sum(*pauli_pair(), PM, PM, OptimizerConfig(restarts=3, max_iters=60))
        assert res.restarts == len(res.evaluations) == 3
        assert res.iterations == sum(res.iterations_per_restart)
        for removed in ("restarts", "iterations"):
            with pytest.raises(TypeError):
                dataclasses.replace(res, **{removed: 0})

    def test_never_undercuts_analytic_bounds(self):
        rng = np.random.default_rng(61)
        cfg = OptimizerConfig(restarts=5, max_iters=200)
        for _ in range(8):
            dim = int(rng.integers(2, 5))
            a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
            ea, eb = singleton_partition(a), singleton_partition(b)
            res = min_entropy_sum(a, b, ea, eb, cfg)
            analytic = max(maassen_uffink_bound(a, b), partovi_bound(a, b, ea, eb))
            assert res.value >= analytic - 1e-4

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_tied_restarts_go_to_the_lowest_index(self, d):
        # Every restart here ends within 1e-14 of ln d; rounding alone
        # ranks them, so the tie rule must pick restart 0.
        a, b = fourier_pair(d)
        part = SpectrumPartition.singletons(range(1, d + 1))
        res = min_entropy_sum(a, b, part, part, OptimizerConfig(restarts=8, max_iters=300, tol=1e-8))
        assert res.best_restart == 0
        assert abs(res.value - math.log(d)) <= 1e-12

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        a, b = fourier_pair(4)
        part = SpectrumPartition.singletons(range(1, 5))
        with pytest.raises(ValueError, match="tol"):
            min_entropy_sum(a, b, part, part, OptimizerConfig(restarts=4, tol=tol))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("restarts", 0),
            ("restarts", 2.5),
            ("restarts", True),
            ("max_iters", 0),
            ("max_iters", 2.5),
            ("max_iters", math.inf),
            ("max_iters", False),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", True),
        ],
    )
    def test_counts_and_seed_must_be_ints_in_range(self, field, value):
        a, b = fourier_pair(4)
        part = SpectrumPartition.singletons(range(1, 5))
        opt = dataclasses.replace(OptimizerConfig(restarts=4), **{field: value})
        for run in (min_entropy_sum, certify_noncommutativity):
            with pytest.raises(ValueError, match=field):
                run(a, b, part, part, opt)

    def test_numpy_integer_counts_and_seed_are_accepted(self):
        a, b = fourier_pair(4)
        part = SpectrumPartition.singletons(range(1, 5))
        plain = min_entropy_sum(a, b, part, part, OptimizerConfig(restarts=2, max_iters=30, seed=5))
        res = min_entropy_sum(
            a, b, part, part, OptimizerConfig(restarts=np.int64(2), max_iters=np.int32(30), seed=np.uint8(5))
        )
        assert (res.value, res.iterations) == (plain.value, plain.iterations)

    def test_pure_states_reach_the_mixed_infimum(self):
        # Mixing can never help: the best pure state ties or beats a
        # sample of mixed states on the d=2 grid.
        rng = np.random.default_rng(62)
        a, b = pauli_pair()
        res = min_entropy_sum(a, b, PM, PM, OptimizerConfig(restarts=8))
        for _ in range(150):
            rho = random_density(rng, 2)
            mixed = epsilon_entropy(rho, a, PM) + epsilon_entropy(rho, b, PM)
            assert res.value <= mixed + 1e-6


def captured_objective(monkeypatch, a, b, eps, delta):
    """The minimiser's objective z -> (value, gradient), as min_entropy_sum
    hands it to L-BFGS-B, caught by a scipy.optimize.minimize spy."""
    with monkeypatch.context() as m:
        spy = MinimizeSpy(m)
        min_entropy_sum(a, b, eps, delta, OptimizerConfig(restarts=1, max_iters=1))
    return spy.calls[0].fun


def central_differences(fun, z, h=1e-6):
    return np.array([(fun(z + e)[0] - fun(z - e)[0]) / (2.0 * h) for e in h * np.eye(z.size)])


def _gradient_case(kind, rng):
    """(a, b, eps, delta) for the gradient checks."""
    dim = int(rng.integers(3, 7))
    spec = "degenerate" if kind == "degenerate" else "generic"
    a, b = (
        HermitianOperator(u @ np.diag(_spectrum(rng, dim, spec)) @ u.conj().T)
        for u in (random_unitary(rng, dim), random_unitary(rng, dim))
    )
    if kind == "coarse":
        return a, b, merged_partition(a, rng), merged_partition(b, rng)
    if kind == "single_cell":
        whole = SpectrumPartition.single_cell(singleton_partition(a).ground_values())
        return a, b, whole, singleton_partition(b)
    if kind == "interleaved":
        return a, b, _interleaved_partition(a), _interleaved_partition(b)
    return a, b, singleton_partition(a), singleton_partition(b)


def _oracle_objective(a, b, eps, delta):
    """The entropy sum and its sphere gradient in z = [Re psi; Im psi] by
    the complex formula on explicit projectors: p_k = <psi|P_k|psi> and
    dH/dpsi* = -sum_k (log p_k + 1) P_k psi, whose +1 terms are radial."""
    projectors = _oracle_projectors(a, eps) + _oracle_projectors(b, delta)
    d = a.dim

    def fun(z):
        nrm = np.linalg.norm(z)
        psi = (z[:d] + 1j * z[d:]) / nrm
        images = [p @ psi for p in projectors]
        probs = [np.vdot(psi, x).real for x in images]
        value = -sum(q * math.log(q) for q in probs if q > 0.0)
        g = -2.0 * sum(math.log(max(q, 1e-300)) * x for q, x in zip(probs, images))
        g = (g - np.vdot(psi, g).real * psi) / nrm
        return value, np.concatenate([g.real, g.imag])

    return fun


class TestEntropySumGradient:
    @pytest.mark.parametrize("kind", ["generic", "degenerate", "coarse", "single_cell"])
    def test_matches_central_differences(self, monkeypatch, kind):
        rng = np.random.default_rng(80)
        for _ in range(6):
            a, b, eps, delta = _gradient_case(kind, rng)
            fun = captured_objective(monkeypatch, a, b, eps, delta)
            z = rng.standard_normal(2 * a.dim) * rng.uniform(0.5, 2.0)
            value, grad = fun(z)
            num = central_differences(fun, z)
            assert np.linalg.norm(grad - num) <= 1e-6 * np.linalg.norm(num)

    @pytest.mark.parametrize("kind", ["generic", "degenerate", "coarse", "single_cell", "interleaved"])
    def test_matches_the_complex_projector_oracle(self, monkeypatch, kind):
        # Central differences allow 1e-6; the oracle pins value and
        # gradient to rounding, and so do the sphere invariances.
        rng = np.random.default_rng(82)
        for _ in range(6):
            a, b, eps, delta = _gradient_case(kind, rng)
            fun = captured_objective(monkeypatch, a, b, eps, delta)
            oracle = _oracle_objective(a, b, eps, delta)
            for _ in range(4):
                z = rng.standard_normal(2 * a.dim)
                z *= rng.uniform(0.5, 2.0) / np.linalg.norm(z)
                value, grad = fun(z)
                want, want_grad = oracle(z)
                assert abs(value - want) <= 1e-12
                assert np.linalg.norm(grad - want_grad) <= 1e-10 * np.linalg.norm(want_grad)
                c = rng.uniform(0.5, 2.0)
                scaled, scaled_grad = fun(c * z)
                assert abs(scaled - value) <= 1e-12
                assert np.linalg.norm(scaled_grad - grad / c) <= 1e-10 * np.linalg.norm(grad / c)
                assert abs(grad @ z) <= 1e-12 * np.linalg.norm(grad) * np.linalg.norm(z)

    def test_vanishes_when_both_partitions_are_single_cells(self, monkeypatch):
        a, b = pauli_pair()
        whole = SpectrumPartition.single_cell([-1.0, 1.0])
        fun = captured_objective(monkeypatch, a, b, whole, whole)
        value, grad = fun(np.random.default_rng(81).standard_normal(4))
        assert abs(value) <= 1e-12
        assert np.linalg.norm(grad) <= 1e-12

    @pytest.mark.parametrize("d", [2, 4, 6])
    @pytest.mark.parametrize("diagonal_first", [True, False])
    def test_finite_at_an_eigenvector(self, monkeypatch, d, diagonal_first):
        # At a basis vector p_k = 0 exactly for every other eigenvector of
        # the diagonal operator: the entropy's derivative diverges there,
        # but the gradient must stay finite, whichever side that operator is.
        a, b = fourier_pair(d)
        part = SpectrumPartition.singletons(range(1, d + 1))
        pair = (a, b) if diagonal_first else (b, a)
        fun = captured_objective(monkeypatch, *pair, part, part)
        for k in range(d):
            z = np.zeros(2 * d)
            z[k] = 1.0
            value, grad = fun(z)
            assert value == pytest.approx(math.log(d), abs=1e-12)
            assert np.all(np.isfinite(grad))

    def test_d16_fourier_reaches_ln_d_in_few_evaluations(self, monkeypatch):
        a, b = fourier_pair(16)
        part = SpectrumPartition.singletons(range(1, 17))
        spy, counts = MinimizeSpy(monkeypatch), []
        for _ in range(2):
            spy.calls.clear()
            res = min_entropy_sum(a, b, part, part, OptimizerConfig(restarts=8, max_iters=300, tol=1e-8))
            assert abs(res.value - math.log(16)) <= 1e-9
            counts.append(spy.fun_calls)
        assert 0 < counts[0] == counts[1] < 1000  # finite differences took 13,860


class TestOptimizerCallContract:
    """Optimizer work is observable from outside: every restart is one
    scipy.optimize.minimize call, looked up on that module at call time.
    L-BFGS-B gets one evaluation's value and gradient from one callable,
    handed to minimize as ``fun`` with no ``jac``, and every evaluation
    passes once through it.  perfbench's optimizer counters wrap
    that call and that ``fun``, and nothing else."""

    @pytest.mark.parametrize("restarts", [1, 3, 8])
    def test_a_minimize_wrapper_sees_every_restart_and_evaluation(self, monkeypatch, restarts):
        a, b = fourier_pair(4)
        part = SpectrumPartition.singletons(range(1, 5))
        opt = OptimizerConfig(restarts=restarts, max_iters=60)
        plain = min_entropy_sum(a, b, part, part, opt)
        spy = MinimizeSpy(monkeypatch)
        for run in (certify_noncommutativity, min_entropy_sum):
            spy.calls.clear()
            seen = run(a, b, part, part, opt)
            seen = getattr(seen, "optimizer_evidence", seen)
            assert len(spy.calls) == restarts
            assert all(c.method is ncprob_eur._lbfgsb and c.jac is None for c in spy.calls)
            assert [c.fun_calls for c in spy.calls] == [c.nfev for c in spy.calls]
            assert spy.fun_calls > 0
            assert seen.iterations == sum(c.nit for c in spy.calls)
            assert seen.iterations_per_restart == tuple(c.nit for c in spy.calls)
            assert seen.evaluations == tuple(c.fun_calls for c in spy.calls) == tuple(c.nfev for c in spy.calls)
            assert (seen.value, seen.best_restart, seen.iterations) == (
                plain.value, plain.best_restart, plain.iterations
            )
        assert not hasattr(ncprob_eur, "minimize")

    def test_the_reported_value_is_the_best_restarts_end_value(self, monkeypatch):
        rng = np.random.default_rng(7)
        a, b = random_hermitian(rng, 5), random_hermitian(rng, 5)
        part_a, part_b = singleton_partition(a), singleton_partition(b)
        spy = MinimizeSpy(monkeypatch)
        res = min_entropy_sum(a, b, part_a, part_b, OptimizerConfig(restarts=6, max_iters=60))
        assert res.value == spy.calls[res.best_restart].end_value
        assert res.evaluations == tuple(c.nfev for c in spy.calls)


def _smooth_objective(rng, n):
    """A smooth, coercive objective on R^n as x -> (value, gradient):
    sum log cosh(A x - y) + sum w x^4 / 10 + |x|^2 / 20."""
    a, y, w = rng.standard_normal((n, n)), rng.standard_normal(n), rng.uniform(0.1, 1.0, n)

    def fun(x):
        value = float(np.sum(np.log(np.cosh(a @ x - y))) + 0.1 * (w @ x**4) + 0.05 * (x @ x))
        return value, a.T @ np.tanh(a @ x - y) + 0.4 * w * x**3 + 0.1 * x

    return fun


class TestLbfgsbKernelLoop:
    """``eur._lbfgsb`` runs scipy's L-BFGS-B kernel ``setulb`` under
    ncprob's own loop.  It must end every run exactly where scipy's own
    ``"L-BFGS-B"`` method ends it, handed the same (value, gradient)
    callable with ``jac=True``: same bytes of ``x``, same ``fun``,
    ``nit``, ``nfev`` and ``success``.  This is the guard on the private
    kernel it calls."""

    @staticmethod
    def assert_runs_match(fg, x0, options):
        want = scipy.optimize.minimize(fg, x0, method="L-BFGS-B", jac=True, options=options)
        got = scipy.optimize.minimize(fg, x0, method=ncprob_eur._lbfgsb, options=options)
        assert got.x.tobytes() == want.x.tobytes()
        assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
        assert (got.nit, got.nfev, got.success) == (want.nit, want.nfev, want.success)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        maxiter=st.integers(1, 200),
        log_ftol=st.floats(-15.0, -3.0),
        log_gtol=st.floats(-12.0, -3.0),
    )
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    def test_matches_scipy_on_smooth_objectives(self, seed, n, maxiter, log_ftol, log_gtol):
        rng = np.random.default_rng(seed)
        fg = _smooth_objective(rng, n)
        x0 = 3.0 * rng.standard_normal(n)
        self.assert_runs_match(fg, x0, {"maxiter": maxiter, "ftol": 10.0**log_ftol, "gtol": 10.0**log_gtol})

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 12),
        haar=st.booleans(),
        merged=st.booleans(),
        maxiter=st.integers(1, 300),
        tol=st.sampled_from([1e-3, 1e-8, 1e-12]),
    )
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    def test_matches_scipy_on_the_entropy_objective(self, seed, d, haar, merged, maxiter, tol):
        rng = np.random.default_rng(seed)
        a, b = fourier_pair(d)
        if haar:
            u = random_unitary(rng, d)
            b = HermitianOperator(u @ a.matrix @ u.conj().T)
        eps, delta = (
            (merged_partition(a, rng), merged_partition(b, rng))
            if merged
            else (singleton_partition(a), singleton_partition(b))
        )
        fg = captured_objective(pytest.MonkeyPatch(), a, b, eps, delta)
        options = {"maxiter": maxiter, "ftol": max(tol * 1e-6, 2.3e-16), "gtol": 1e-10}
        self.assert_runs_match(fg, rng.standard_normal(2 * d), options)


class TestCertification:
    def test_pauli_fine_partitions_certified(self):
        a, b = pauli_pair()
        cert = certify_noncommutativity(a, b, PM, PM)
        assert cert.verdict == "noncommuting"
        assert cert.maassen_uffink == pytest.approx(math.log(2.0), abs=1e-9)
        assert cert.partovi == pytest.approx(PAULI_PARTOVI, abs=1e-9)
        assert cert.commutator_norm == pytest.approx(2.0, abs=1e-12)
        assert cert.best_analytic == pytest.approx(math.log(2.0), abs=1e-9)
        assert cert.infimum_consistent

    def test_pauli_single_cell_partitions_inconclusive(self):
        a, b = pauli_pair()
        whole = SpectrumPartition.single_cell([-1.0, 1.0])
        cert = certify_noncommutativity(a, b, whole, whole)
        assert cert.verdict == "inconclusive"
        assert cert.commutator_norm == pytest.approx(2.0, abs=1e-12)

    def test_commuting_pair_inconclusive(self):
        rng = np.random.default_rng(63)
        a, b = conjugated_diagonal_pair(rng, 3)
        cert = certify_noncommutativity(
            a, b, singleton_partition(a), singleton_partition(b),
            OptimizerConfig(restarts=2, max_iters=60),
        )
        assert cert.verdict == "inconclusive"
        assert cert.maassen_uffink <= cert.threshold
        assert cert.partovi <= cert.threshold

    def test_refinement_persistence(self):
        a, b = fourier_pair(6)
        vals = [float(v) for v in range(1, 7)]
        coarse = SpectrumPartition.from_groups([vals[:3], vals[3:]])
        fine = SpectrumPartition.singletons(vals)
        opt = OptimizerConfig(restarts=2, max_iters=60)
        at_coarse = certify_noncommutativity(a, b, coarse, coarse, opt)
        at_fine = certify_noncommutativity(a, b, fine, fine, opt)
        assert at_coarse.partovi > 0.0
        assert at_fine.partovi >= 0.0
        assert at_coarse.verdict == "noncommuting"
        assert at_fine.verdict == "noncommuting"

    def test_operator_names_recorded(self):
        a, b = pauli_pair()
        cert = certify_noncommutativity(
            a, b, PM, PM, OptimizerConfig(restarts=2), operator_names=("Z", "X")
        )
        assert cert.operator_names == ("Z", "X")
        assert set(cert.analytic_bounds) == {"maassen_uffink", "partovi"}

    def test_soundness_on_random_pairs(self):
        rng = np.random.default_rng(64)
        opt = OptimizerConfig(restarts=2, max_iters=60)
        from ncprob import commutator_norm

        for trial in range(20):
            dim = int(rng.integers(2, 5))
            if trial % 2 == 0:
                a, b = conjugated_diagonal_pair(rng, dim)
            else:
                a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
            cert = certify_noncommutativity(
                a, b, singleton_partition(a), singleton_partition(b), opt
            )
            if cert.verdict == "noncommuting":
                assert commutator_norm(a, b) > 1e-9

    def test_each_operator_is_decomposed_once(self, monkeypatch):
        a, b = fourier_pair(4)
        part = SpectrumPartition.singletons(range(1, 5))
        real, calls = np.linalg.eigh, []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        certify_noncommutativity(a, b, part, part, OptimizerConfig(restarts=2, max_iters=60))
        assert len(calls) == 2

    def test_partition_errors_come_before_optimizer_errors(self):
        a, b = fourier_pair(4)
        part = SpectrumPartition.singletons(range(1, 5))
        bad = OptimizerConfig(restarts=0)
        with pytest.raises(PartitionError, match="dims differ"):
            certify_noncommutativity(a, HermitianOperator(PAULI_Z), part, PM, bad)
        with pytest.raises(PartitionError, match="absent"):
            certify_noncommutativity(a, b, SpectrumPartition.singletons(range(1, 6)), part, bad)
        with pytest.raises(ValueError, match="restarts"):
            certify_noncommutativity(a, b, part, part, bad)

    def test_verdict_is_read_from_the_bounds(self):
        a, b = pauli_pair()
        cert = certify_noncommutativity(a, b, PM, PM, OptimizerConfig(restarts=2))
        assert cert.verdict == "noncommuting"
        assert dataclasses.replace(cert, maassen_uffink=0.0, partovi=0.0).verdict == "inconclusive"
        with pytest.raises(TypeError):
            dataclasses.replace(cert, verdict="inconclusive")
