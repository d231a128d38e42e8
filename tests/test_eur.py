"""Spectrum partitions, entropic bounds, the entropy-sum optimizer, certification."""

import dataclasses
import fractions
import math
import sys
import tracemalloc
import warnings

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
    DimensionError,
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
from ncprob.hilbert import PAULI_X, PAULI_Z, fourier_unitary

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

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        values=st.lists(st.one_of(st.floats(), st.integers(-4, 4), st.just("x")), max_size=8),
        thresholds=st.lists(st.one_of(st.floats(), st.integers(-4, 4), st.just("x")), max_size=4),
    )
    @example(values=[4, 1, 3, 2, 5], thresholds=[4.0, 0.0, 2.0, 2.5])
    @example(values=[2.0, 1.0], thresholds=[])
    @example(values=[], thresholds=[1.0])
    @example(values=[1.0, math.nan, 5.0], thresholds=[2.0])
    def test_from_thresholds_matches_the_per_value_loop(self, values, thresholds):
        def loop(values, thresholds):
            vals = sorted(float(v) for v in values)
            ts = sorted(float(t) for t in thresholds)
            bins = {}
            for v in vals:
                bins.setdefault(sum(1 for t in ts if v > t), []).append(v)
            return SpectrumPartition(SpectralCell(g) for g in bins.values())

        def outcome(build):
            try:  # NaN != NaN, so cells compare by repr
                return repr([c.values for c in build(iter(values), iter(thresholds)).cells])
            except (PartitionError, ValueError) as exc:
                return type(exc), str(exc)

        assert outcome(SpectrumPartition.from_thresholds) == outcome(loop)

    @pytest.mark.parametrize("values", [[3.0, math.nan, 1.0], [1.0, math.nan, 3.0], [1.0, math.inf, 3.0]])
    def test_a_non_finite_value_is_rejected_in_any_order(self, values):
        with pytest.raises(ValueError, match="^spectral cell values must be finite$"):
            SpectrumPartition.from_thresholds(values, [2.0])
        with pytest.raises(ValueError, match="^spectral cell values must be finite$"):
            SpectralCell(values)

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

    @pytest.mark.parametrize("route", ["epsilon_entropy", "partition_probabilities", "certify_noncommutativity"])
    def test_a_spectral_cell_may_not_straddle_partition_cells(self, route):
        # 0 and 9e-9 are one computed eigenvalue (clustering tolerance 1e-8).
        # Each matches one partition cell, -9e-9 and 1.8e-8, but not the same one.
        spectrum = [0.0, 9e-9, 1.0]
        a = HermitianOperator(np.diag(spectrum))
        part = SpectrumPartition.from_groups([[-9e-9], [1.8e-8], [1.0]])
        psi = PureState(np.ones(3) / math.sqrt(3.0))
        u = fourier_unitary(3)
        b = HermitianOperator(u @ a.matrix @ u.conj().T)
        runs = {
            "epsilon_entropy": lambda: epsilon_entropy(psi, a, part),
            "partition_probabilities": lambda: partition_probabilities(psi, spectral_pvm(a), part),
            "certify_noncommutativity": lambda: certify_noncommutativity(
                a, b, part, part, OptimizerConfig(restarts=1, max_iters=1)
            ),
        }
        with pytest.raises(PartitionError, match=r"^spectral cell \(0\.0, 9e-09\) straddles partition cells; "):
            runs[route]()


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

    @pytest.mark.parametrize(
        "tol",
        [
            math.nan,
            math.inf,
            0.0,
            -1.0,
            pytest.param(10**400, id="int-beyond-float"),
            pytest.param(10**5000, id="int-too-long-to-print"),
        ],
    )
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            OptimizerConfig(restarts=4, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            dataclasses.replace(OptimizerConfig(restarts=4), tol=tol)

    @pytest.mark.parametrize("tol", [1e300, sys.float_info.max])
    def test_a_huge_tol_runs_without_a_warning(self, tol):
        # L-BFGS-B's factr = ftol / eps is inf here; it must not warn on the way
        a, b = fourier_pair(4)
        part = SpectrumPartition.singletons(range(1, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = min_entropy_sum(a, b, part, part, OptimizerConfig(restarts=2, max_iters=30, tol=tol))
        assert res.value >= math.log(4) - 1e-4

    @pytest.mark.parametrize(
        "field, value",
        [
            ("restarts", 0),
            ("restarts", 2.5),
            ("restarts", True),
            pytest.param("restarts", -(10**5000), id="restarts-int-too-long-to-print"),
            ("max_iters", 0),
            ("max_iters", 2.5),
            ("max_iters", math.inf),
            ("max_iters", False),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", True),
            ("tol", True),
            ("tol", "1e-8"),
        ],
    )
    def test_counts_and_seed_must_be_ints_in_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{"restarts": 4, field: value})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(OptimizerConfig(restarts=4), **{field: value})

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            pytest.param("tol", 10**5000, "a number of 5001 digits", id="tol-10**5000"),
            pytest.param("tol", 10**5000 - 1, "a number of 5000 digits", id="tol-10**5000-1"),
            pytest.param("tol", fractions.Fraction(10**5000, 3), "a number of 5000 digits", id="tol-10**5000/3"),
            pytest.param("tol", fractions.Fraction(-1, 10**5000), "a negative number of 1 digits", id="tol--1/10**5000"),
            pytest.param("restarts", -(10**5000), "a negative number of 5001 digits", id="restarts--10**5000"),
            pytest.param("seed", -(10**4300), "a negative number of 4301 digits", id="seed--10**4300"),
        ],
    )
    def test_a_number_too_long_to_print_is_shown_by_its_digits(self, field, value, shown):
        # Python will not turn an int of more than 4,300 digits into a
        # string, so the message counts the digits of the number's integer
        # part instead of showing them
        with pytest.raises(ValueError) as err:
            OptimizerConfig(**{"restarts": 4, field: value})
        assert str(err.value).startswith(f"{field} must be ") and str(err.value).endswith(f", got {shown}")

    @pytest.mark.parametrize("end, value", [(5e-13, 0.0), (1e-12, 0.0), (5e-10, 5e-10), (2e-12, 2e-12)])
    def test_an_end_value_within_1e_12_of_zero_reads_zero(self, monkeypatch, end, value):
        # A stand-in kernel ends every restart at ``end``: up to 1e-12 reads
        # 0.0, and above it the end value stands, 5e-10 (below 1e-9) too.
        def ends_at(fun, x0, *, rows, **_):
            ones = np.ones(rows, dtype=int)
            return scipy.optimize.OptimizeResult(
                x=np.reshape(x0, (rows, -1)), fun=np.full(rows, end), nit=ones, nfev=ones, success=ones == 1
            )

        monkeypatch.setattr(ncprob_eur, "_lbfgsb", ends_at)
        res = min_entropy_sum(*pauli_pair(), PM, PM, OptimizerConfig(restarts=3))
        assert (res.value, res.best_restart) == (value, 0)

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
    """The minimiser's stacked objective zs -> (values, gradients), one per
    row of zs, as min_entropy_sum hands it to L-BFGS-B, caught by a
    scipy.optimize.minimize spy."""
    with monkeypatch.context() as m:
        spy = MinimizeSpy(m)
        min_entropy_sum(a, b, eps, delta, OptimizerConfig(restarts=1, max_iters=1))
    return spy.calls[0].fun


def stack_rows(fun, zs):
    """(value, gradient) at every point of zs, from one stack of them all."""
    values, grads = fun(np.array(zs))
    return list(zip(values, grads))


def one_row(fun):
    """The stacked objective at one point, as a one-row stack: the path
    that runs the minimiser's 1-d objective itself."""

    def at(z):
        (value,), (grad,) = fun(z[None])
        return value, grad

    return at


def both_paths(fun, zs):
    """(value, gradient) at every point of zs (two or more), once from one
    stack of them all and once from a one-row stack per point."""
    return stack_rows(fun, zs) + [one_row(fun)(z) for z in zs]


def central_differences(fun, z, h=1e-6):
    steps = h * np.eye(z.size)
    values = np.asarray(fun(np.concatenate([z + steps, z - steps]))[0])
    return (values[: z.size] - values[z.size :]) / (2.0 * h)


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
    """The stacked objective's gradient, on both of its paths: rows of a
    stack of two or more points, and a one-row stack, which runs the 1-d
    objective."""

    @pytest.mark.parametrize("kind", ["generic", "degenerate", "coarse", "single_cell"])
    def test_matches_central_differences(self, monkeypatch, kind):
        rng = np.random.default_rng(80)
        for _ in range(6):
            a, b, eps, delta = _gradient_case(kind, rng)
            fun = captured_objective(monkeypatch, a, b, eps, delta)
            z = rng.standard_normal(2 * a.dim) * rng.uniform(0.5, 2.0)
            num = central_differences(fun, z)
            for _, grad in (stack_rows(fun, [z, -z])[0], one_row(fun)(z)):
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
            zs, cs = [], []
            for _ in range(4):
                z = rng.standard_normal(2 * a.dim)
                zs.append(z * (rng.uniform(0.5, 2.0) / np.linalg.norm(z)))
                cs.append(rng.uniform(0.5, 2.0))
            unscaled = both_paths(fun, zs)
            rescaled = both_paths(fun, [c * z for c, z in zip(cs, zs)])
            for z, c, (value, grad), (scaled, scaled_grad) in zip(zs * 2, cs * 2, unscaled, rescaled):
                want, want_grad = oracle(z)
                assert abs(value - want) <= 1e-12
                assert np.linalg.norm(grad - want_grad) <= 1e-10 * np.linalg.norm(want_grad)
                assert abs(scaled - value) <= 1e-12
                assert np.linalg.norm(scaled_grad - grad / c) <= 1e-10 * np.linalg.norm(grad / c)
                assert abs(grad @ z) <= 1e-12 * np.linalg.norm(grad) * np.linalg.norm(z)

    def test_vanishes_when_both_partitions_are_single_cells(self, monkeypatch):
        a, b = pauli_pair()
        whole = SpectrumPartition.single_cell([-1.0, 1.0])
        fun = captured_objective(monkeypatch, a, b, whole, whole)
        for value, grad in both_paths(fun, np.random.default_rng(81).standard_normal((3, 4))):
            assert abs(value) <= 1e-12
            assert np.linalg.norm(grad) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_the_zero_vector_is_above_every_entropy_sum(self, monkeypatch, d):
        # No state has z = 0 (or |z|^2 < 1e-24): the objective must rank it
        # above every entropy sum, which never exceeds ln d + ln d, and
        # send the kernel nowhere, on a one-row stack and in a stack.
        a, b = fourier_pair(d)
        part = SpectrumPartition.singletons(range(1, d + 1))
        fun = captured_objective(monkeypatch, a, b, part, part)
        tiny = [np.zeros(2 * d), np.full(2 * d, 1e-13)]
        in_a_stack = stack_rows(fun, tiny + [np.random.default_rng(d).standard_normal(2 * d)])[:2]
        for value, grad in in_a_stack + [one_row(fun)(z) for z in tiny]:
            assert value > 2.0 * math.log(d)
            assert not np.any(grad)

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
        for value, grad in both_paths(fun, np.eye(2 * d)[:d]):
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
            counts.append(spy.rows_seen)
        assert 0 < counts[0] == counts[1] < 1000  # finite differences took 13,860


class TestStackedObjective:
    """Every row of a stack gets the bits that the minimiser's 1-d
    objective gives its point alone, which a one-row stack runs; so
    stacking restarts moves no trajectory."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 12),
        haar=st.booleans(),
        grain=st.sampled_from(["singleton", "merged", "single_cell"]),
        rows=st.integers(2, 8),
        tiny=st.booleans(),
    )
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    def test_every_row_carries_the_one_row_bits(self, seed, d, haar, grain, rows, tiny):
        rng = np.random.default_rng(seed)
        a, b = fourier_pair(d)
        if haar:
            u = random_unitary(rng, d)
            b = HermitianOperator(u @ a.matrix @ u.conj().T)
        if grain == "merged":
            eps, delta = merged_partition(a, rng), merged_partition(b, rng)
        else:
            eps, delta = singleton_partition(a), singleton_partition(b)
            if grain == "single_cell":
                eps = SpectrumPartition.single_cell(eps.ground_values())
        fun = captured_objective(pytest.MonkeyPatch(), a, b, eps, delta)
        zs = rng.standard_normal((rows, 2 * d)) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
        if tiny:
            zs[rng.integers(rows)] *= 1e-14  # |z|^2 < 1e-24: the 1-d objective's own branch
        for z, (value, grad) in zip(zs, stack_rows(fun, zs)):
            want, want_grad = one_row(fun)(z)
            assert np.float64(value).tobytes() == np.float64(want).tobytes()
            assert grad.tobytes() == want_grad.tobytes()


class TestOptimizerCallContract:
    """Optimizer work is observable from outside: every certification is
    one scipy.optimize.minimize call, looked up on that module at call
    time, with one row per restart.  L-BFGS-B gets the values and
    gradients of a stack of points, one per restart that asks, from one
    callable, handed to minimize as ``fun`` with no ``jac``, and every
    evaluation is one row of one call of it.  perfbench's optimizer
    counters wrap that call and that ``fun``, and nothing else."""

    @pytest.mark.parametrize("restarts", [1, 3, 8, 40])
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
            assert len(spy.calls) == 1
            (call,) = spy.calls
            assert call.method is ncprob_eur._lbfgsb and call.jac is None
            assert call.rows_seen == sum(call.nfev) == sum(seen.evaluations)
            assert 0 < call.fun_calls == len(call.heights)
            assert max(call.heights) <= ncprob_eur.MAX_STACK_ROWS
            assert seen.iterations == sum(call.nit)
            assert seen.iterations_per_restart == call.nit
            assert seen.evaluations == call.nfev
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
        (call,) = spy.calls
        assert res.value == call.end_values[res.best_restart]
        assert res.evaluations == call.nfev

    def test_at_most_the_cap_of_restarts_hold_kernel_state_at_once(self):
        # One row's workspace at d = 64 is 4,380 floats; without the cap,
        # 256 restarts would hold eight times what 32 hold.
        a, b = fourier_pair(64)
        part = SpectrumPartition.singletons(range(1, 65))

        def peak(restarts):
            tracemalloc.start()
            try:
                min_entropy_sum(a, b, part, part, OptimizerConfig(restarts=restarts, max_iters=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # imports outside the measured runs
        assert peak(256) <= 2 * peak(ncprob_eur.MAX_STACK_ROWS)


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
    ncprob's own loop, one row per problem, side by side.  It must end
    every row exactly where scipy's own ``"L-BFGS-B"`` method ends that
    row's problem alone, handed the same (value, gradient) callable with
    ``jac=True``: same bytes of ``x``, same ``fun``, ``nit``, ``nfev`` and
    ``success``.  This is the guard on the private kernel it calls and on
    keeping each row's kernel state its own."""

    @staticmethod
    def assert_rows_match(stacked, fg, x0s, options, cap=None):
        with pytest.MonkeyPatch.context() as m:
            if cap is not None:
                m.setattr(ncprob_eur, "MAX_STACK_ROWS", cap)
            got = scipy.optimize.minimize(
                stacked, x0s.ravel(), method=ncprob_eur._lbfgsb, options={**options, "rows": len(x0s)}
            )
        for k, x0 in enumerate(x0s):
            want = scipy.optimize.minimize(fg, x0, method="L-BFGS-B", jac=True, options=options)
            assert got.x[k].tobytes() == want.x.tobytes()
            assert np.float64(got.fun[k]).tobytes() == np.float64(want.fun).tobytes()
            assert (got.nit[k], got.nfev[k], got.success[k]) == (want.nit, want.nfev, want.success)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        rows=st.integers(1, 8),
        cap=st.integers(1, 8),
        maxiter=st.integers(1, 200),
        log_ftol=st.floats(-15.0, -3.0),
        log_gtol=st.floats(-12.0, -3.0),
    )
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    def test_matches_scipy_on_smooth_objectives(self, seed, n, rows, cap, maxiter, log_ftol, log_gtol):
        rng = np.random.default_rng(seed)
        fg = _smooth_objective(rng, n)
        x0s = 3.0 * rng.standard_normal((rows, n))
        options = {"maxiter": maxiter, "ftol": 10.0**log_ftol, "gtol": 10.0**log_gtol}
        self.assert_rows_match(lambda xs: tuple(zip(*map(fg, xs))), fg, x0s, options, cap)

    def test_the_kernels_writes_never_reach_a_gradient_fun_returned(self, monkeypatch):
        # When a line search fails near convergence, setulb copies the last
        # iterate's gradient back into the g it was handed.  That g must be
        # the loop's own float64 copy, as in scipy's loop, and never an
        # array ``fun`` returned, which the memo of the last point reuses.
        from scipy.optimize import _lbfgsb as kernel

        real, writes, returned = kernel.setulb, [], []

        def setulb(m, x, low, up, nbd, f, g, *rest):
            before = g.tobytes()
            real(m, x, low, up, nbd, f, g, *rest)
            writes.append(g.tobytes() != before)

        def stacked(xs):
            values, grads = zip(*map(fg, xs))
            returned.extend((g, g.tobytes()) for g in grads)
            return values, grads

        monkeypatch.setattr(kernel, "setulb", setulb)
        rng = np.random.default_rng(3)
        fg = _smooth_objective(rng, 4)
        options = {"maxiter": 200, "ftol": 2.3e-16, "gtol": 1e-12, "rows": 4}
        scipy.optimize.minimize(stacked, 3.0 * rng.standard_normal(16), method=ncprob_eur._lbfgsb, options=options)
        assert any(writes)
        assert all(g.tobytes() == kept for g, kept in returned)

    def test_each_kernel_call_gets_what_scipys_loop_hands_it(self, monkeypatch):
        # Call by call, each row's kernel gets the x, f and g that scipy's
        # loop hands it on that row alone: f = 0 and g = 0 at the first call
        # (the kernel reads neither there, so no end result shows them), then
        # the last evaluation's or the memo's value and gradient, with the
        # kernel's own writes.
        from scipy.optimize import _lbfgsb as kernel

        real, calls = kernel.setulb, {}

        def setulb(m, x, low, up, nbd, f, g, *rest):
            calls.setdefault(x.ctypes.data, []).append((x.tobytes(), np.float64(f).tobytes(), g.tobytes()))
            real(m, x, low, up, nbd, f, g, *rest)

        monkeypatch.setattr(kernel, "setulb", setulb)
        rng = np.random.default_rng(3)
        fg = _smooth_objective(rng, 4)
        x0s = 3.0 * rng.standard_normal((4, 4))
        options = {"maxiter": 200, "ftol": 2.3e-16, "gtol": 1e-12}
        got = scipy.optimize.minimize(
            lambda xs: tuple(zip(*map(fg, xs))), x0s.ravel(), method=ncprob_eur._lbfgsb, options={**options, "rows": 4}
        )
        rows = [calls.pop(row.ctypes.data) for row in got.x]
        for k, x0 in enumerate(x0s):
            scipy.optimize.minimize(fg, x0, method="L-BFGS-B", jac=True, options=options)
            (alone,) = calls.values()
            assert rows[k][0][1:] == (np.float64(0.0).tobytes(), np.zeros(4).tobytes())
            assert rows[k] == alone
            calls.clear()

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 12),
        haar=st.booleans(),
        merged=st.booleans(),
        rows=st.integers(1, 8),
        maxiter=st.integers(1, 300),
        tol=st.sampled_from([1e-3, 1e-8, 1e-12]),
    )
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    def test_matches_scipy_on_the_entropy_objective(self, seed, d, haar, merged, rows, maxiter, tol):
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
        stacked = captured_objective(pytest.MonkeyPatch(), a, b, eps, delta)
        options = {"maxiter": maxiter, "ftol": max(tol * 1e-6, 2.3e-16), "gtol": 1e-10}
        self.assert_rows_match(stacked, one_row(stacked), rng.standard_normal((rows, 2 * d)), options)


class TestCertification:
    def test_pauli_fine_partitions_certified(self):
        a, b = pauli_pair()
        cert = certify_noncommutativity(a, b, PM, PM)
        assert cert.verdict == "noncommuting"
        assert cert.maassen_uffink == pytest.approx(math.log(2.0), abs=1e-9)
        assert cert.partovi == pytest.approx(PAULI_PARTOVI, abs=1e-9)
        assert cert.commutator_norm == pytest.approx(2.0, abs=1e-12)
        assert -2.0 * math.log(cert.overlap) == pytest.approx(math.log(2.0), abs=1e-9)
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
        assert (cert.maassen_uffink, cert.partovi) == (maassen_uffink_bound(a, b, PM, PM), partovi_bound(a, b, PM, PM))

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
        # an invalid config cannot be built, so a run meets only the
        # operator and partition errors, the same at both entry points
        a, b = fourier_pair(4)
        part = SpectrumPartition.singletons(range(1, 5))
        with pytest.raises(ValueError, match="restarts"):
            OptimizerConfig(restarts=0)
        opt = OptimizerConfig(restarts=1, max_iters=1)
        for run in (min_entropy_sum, certify_noncommutativity):
            with pytest.raises(DimensionError, match="dims differ"):
                run(a, HermitianOperator(PAULI_Z), part, PM, opt)
            with pytest.raises(PartitionError, match="absent"):
                run(a, b, SpectrumPartition.singletons(range(1, 6)), part, opt)

    @pytest.mark.parametrize(
        "route", [maassen_uffink_bound, partovi_bound, min_entropy_sum, certify_noncommutativity]
    )
    def test_operators_of_different_dimension_are_a_dimension_error(self, route):
        a, _ = fourier_pair(4)
        part = SpectrumPartition.singletons(range(1, 5))
        with pytest.raises(DimensionError, match="^operator dims differ: 4 vs 2$"):
            route(a, HermitianOperator(PAULI_Z), part, PM)
        with pytest.raises(DimensionError, match="^operator dims differ: 2 vs 4$"):
            route(HermitianOperator(PAULI_Z), a, PM, part)

    def test_verdict_is_read_from_the_bounds(self):
        a, b = pauli_pair()
        cert = certify_noncommutativity(a, b, PM, PM, OptimizerConfig(restarts=2))
        assert cert.verdict == "noncommuting"
        assert dataclasses.replace(cert, overlap=1.0).verdict == "inconclusive"
        with pytest.raises(TypeError):
            dataclasses.replace(cert, verdict="inconclusive")


class TestCertificateGuards:
    """Each guard constant of a certificate, checked on each side."""

    def pauli_cert(self):
        return certify_noncommutativity(*pauli_pair(), PM, PM, OptimizerConfig(restarts=2))

    def test_partovi_never_exceeds_maassen_uffink(self):
        cert = self.pauli_cert()

        @given(c=st.floats(0.0, 1.0, exclude_min=True))
        @example(c=5e-324)
        @example(c=sys.float_info.min)
        @example(c=math.nextafter(1.0, 0.0))
        @example(c=1.0)
        @settings(derandomize=True, database=None, deadline=None, max_examples=500)
        def check(c):
            at = dataclasses.replace(cert, overlap=c)
            assert at.partovi <= at.maassen_uffink

        check()

    @pytest.mark.parametrize("mu, verdict", [(1.5e-6, "noncommuting"), (0.9e-6, "inconclusive")])
    def test_the_verdict_reads_maassen_uffink_alone(self, mu, verdict):
        # at MU = 1.5e-6 Partovi is about 7.5e-7, below the threshold
        cert = dataclasses.replace(self.pauli_cert(), overlap=math.exp(-mu / 2.0))
        assert cert.partovi < cert.threshold
        assert cert.maassen_uffink == pytest.approx(mu, rel=1e-9)
        assert cert.verdict == verdict

    @pytest.mark.parametrize("excess, clamps", [(5e-9, True), (2e-8, False)])
    def test_an_overlap_above_1_clamps_only_within_1e_8(self, excess, clamps):
        one = np.array([[1.0]])
        at = (np.array([[1.0 + excess]]), np.array([0]), one, np.array([0]))
        if not clamps:
            with pytest.raises(ArithmeticError, match="exceeds 1 beyond tolerance"):
                ncprob_eur._overlap(*at)
            return
        cert = dataclasses.replace(self.pauli_cert(), overlap=ncprob_eur._overlap(*at))
        assert cert.overlap == 1.0
        assert math.copysign(1.0, cert.maassen_uffink) == 1.0 and cert.maassen_uffink == 0.0
        assert cert.verdict == "inconclusive"

    @pytest.mark.parametrize("below, consistent", [(0.99e-4, True), (1.01e-4, False)])
    def test_an_infimum_is_consistent_within_1e_4_below_the_bound(self, below, consistent):
        cert = self.pauli_cert()
        evidence = dataclasses.replace(cert.optimizer_evidence, value=cert.maassen_uffink - below)
        assert dataclasses.replace(cert, optimizer_evidence=evidence).infimum_consistent is consistent

    @pytest.mark.parametrize("value, builds", [(-0.9e-9, True), (-1.1e-9, False)])
    def test_a_negative_infimum_builds_only_within_1e_9(self, value, builds):
        cert = self.pauli_cert()
        evidence = dataclasses.replace(cert.optimizer_evidence, value=value)
        if builds:
            assert dataclasses.replace(cert, optimizer_evidence=evidence).numeric_infimum == value
        else:
            with pytest.raises(ValueError, match="negative entropy infimum"):
                dataclasses.replace(cert, optimizer_evidence=evidence)
