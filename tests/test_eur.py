"""Spectrum partitions, entropic bounds, the entropy-sum optimizer, certification."""

import math

import numpy as np
import pytest

from helpers import (
    conjugated_diagonal_pair,
    merged_partition,
    random_density,
    random_hermitian,
    random_unitary,
    singleton_partition,
)
from ncprob import (
    Distribution,
    EURCertificate,
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
    spectral_pvm,
)
from ncprob.hilbert import PAULI_X, PAULI_Z, fourier_unitary

PAULI_PARTOVI = 2.0 * math.log(2.0 / (1.0 + 1.0 / math.sqrt(2.0)))


def pauli_pair():
    return HermitianOperator(PAULI_Z), HermitianOperator(PAULI_X)


def fourier_pair(d):
    u = fourier_unitary(d)
    vals = np.arange(1.0, d + 1.0)
    a = HermitianOperator(np.diag(vals))
    b = HermitianOperator(u @ np.diag(vals) @ u.conj().T)
    return a, b


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


class TestOverlapTableOracle:
    """Both bounds against projector-level oracles built in the test."""

    @pytest.mark.parametrize("kind", SPECTRA)
    @pytest.mark.parametrize("grain", ["singleton", "merged", "single_cell"])
    def test_bounds_match_projector_oracles(self, kind, grain):
        rng = np.random.default_rng(70 + SPECTRA.index(kind))
        for _ in range(12):
            dim = int(rng.integers(2, 7))
            a, b = (
                HermitianOperator(u @ np.diag(_spectrum(rng, dim, kind)) @ u.conj().T)
                for u in (random_unitary(rng, dim), random_unitary(rng, dim))
            )
            if grain == "singleton":
                ea, eb = singleton_partition(a), singleton_partition(b)
            elif grain == "merged":
                ea, eb = merged_partition(a, rng), merged_partition(b, rng)
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

    def test_deterministic_for_fixed_config(self):
        a, b = pauli_pair()
        cfg = OptimizerConfig(restarts=3, max_iters=120, seed=99)
        r1 = min_entropy_sum(a, b, PM, PM, cfg)
        r2 = min_entropy_sum(a, b, PM, PM, cfg)
        assert r1.value == r2.value
        assert np.array_equal(r1.state.vector, r2.state.vector)
        assert r1.seed == 99 and r1.restarts == 3

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

    def test_inconsistent_verdict_rejected(self):
        a, b = pauli_pair()
        good = certify_noncommutativity(a, b, PM, PM, OptimizerConfig(restarts=2))
        with pytest.raises(ValueError):
            EURCertificate(
                operator_names=good.operator_names,
                partitions=good.partitions,
                maassen_uffink=good.maassen_uffink,
                partovi=good.partovi,
                numeric_infimum=good.numeric_infimum,
                optimizer_evidence=good.optimizer_evidence,
                commutator_norm=good.commutator_norm,
                threshold=good.threshold,
                verdict="inconclusive",  # contradicts the positive bounds
                infimum_consistent=good.infimum_consistent,
            )
