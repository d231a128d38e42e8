"""Pair construction from classical laws, kernel diagnostics, contextual families."""

import math

import numpy as np
import pytest

from helpers import random_unitary
from ncprob import (
    DimensionError,
    Distribution,
    DomainError,
    Event,
    FiniteProbabilitySpace,
    RandomVariable,
    ScenarioPair,
    TransitionKernel,
    bayes_violation,
    born_consistency,
    build_pair,
    commutator_norm,
    condition,
    contextual_family,
    interference_delta,
    maassen_uffink_bound,
    verify_overlap_bound,
)
from ncprob.construct import BornCheck, ContextFamily, OverlapCheck, born_map
from ncprob.hilbert import fourier_unitary, hadamard_unitary

UNIT = Distribution.uniform([0.0, 1.0])


def hadamard_pair():
    return ScenarioPair(UNIT, UNIT, hadamard_unitary())


class TestScenarioPair:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            ScenarioPair(UNIT, UNIT, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_cardinality_mismatch_rejected(self):
        tri = Distribution.uniform([0.0, 1.0, 2.0])
        with pytest.raises(DimensionError):
            ScenarioPair(UNIT, tri, hadamard_unitary())
        with pytest.raises(DimensionError):
            ScenarioPair(tri, tri, hadamard_unitary())


class TestBuildPair:
    def test_identity_unitary_keeps_both_diagonal(self):
        lo = Distribution.uniform([1.0, 2.0, 3.0])
        hi = Distribution.uniform([4.0, 5.0, 6.0])
        t_x, t_y = build_pair(ScenarioPair(lo, hi, np.eye(3)))
        assert np.allclose(t_x.matrix, np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(t_y.matrix, np.diag([4.0, 5.0, 6.0]))
        assert commutator_norm(t_x, t_y) <= 1e-12

    def test_hadamard_pair_frozen_oracle(self):
        # Hand oracle: T_Y = H diag(0,1) H = [[1/2, -1/2], [-1/2, 1/2]],
        # so [T_X, T_Y] = [[0, 1/2], [-1/2, 0]] with spectral norm 1/2.
        t_x, t_y = build_pair(hadamard_pair())
        assert np.allclose(t_x.matrix, np.diag([0.0, 1.0]), atol=1e-12)
        assert np.allclose(
            t_y.matrix, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-12
        )
        assert np.allclose(t_y.eigenvalues(), [0.0, 1.0], atol=1e-12)
        assert commutator_norm(t_x, t_y) == pytest.approx(0.5, abs=1e-12)

    def test_spectrum_preserved_under_any_unitary(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            sup_x = np.sort(rng.choice(np.arange(-10, 11), d, replace=False)) / 2.0
            sup_y = np.sort(rng.choice(np.arange(-10, 11), d, replace=False)) / 2.0
            pair = ScenarioPair(
                Distribution(sup_x, rng.dirichlet(np.ones(d))),
                Distribution(sup_y, rng.dirichlet(np.ones(d))),
                random_unitary(rng, d),
            )
            t_x, t_y = build_pair(pair)
            assert np.max(np.abs(t_y.eigenvalues() - sup_y)) <= 1e-9

    def test_fourier_pair_is_maximally_spread(self):
        pair = ScenarioPair(
            Distribution.uniform(np.arange(6.0)),
            Distribution.uniform(np.arange(6.0)),
            fourier_unitary(6),
        )
        t_x, t_y = build_pair(pair)
        assert maassen_uffink_bound(t_x, t_y) == pytest.approx(math.log(6.0), abs=1e-9)


class TestOverlapCheck:
    def test_fourier_hits_the_bound_exactly(self):
        for d in range(2, 9):
            chk = verify_overlap_bound(fourier_unitary(d), math.log(d))
            assert chk.max_overlap == pytest.approx(1.0 / math.sqrt(d), abs=1e-12)
            assert chk.bound == pytest.approx(1.0 / math.sqrt(d), abs=1e-12)
            assert chk.satisfied

    def test_stricter_target_fails(self):
        chk = verify_overlap_bound(fourier_unitary(4), math.log(4.0) + 0.1)
        assert not chk.satisfied

    def test_zero_target_always_satisfied(self):
        chk = verify_overlap_bound(np.eye(3), 0.0)
        assert chk.bound == 1.0
        assert chk.satisfied

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            verify_overlap_bound(np.eye(2), -1.0)

    def test_satisfied_is_read_from_the_overlap(self):
        assert OverlapCheck(0.5, 0.5).satisfied and not OverlapCheck(0.5, 0.49).satisfied
        with pytest.raises(TypeError):
            OverlapCheck(0.5, 0.5, True)


class TestBornMap:
    def test_hadamard_spreads_a_point_mass(self):
        point = Distribution((0.0, 1.0), (1.0, 0.0))
        nu = born_map(hadamard_unitary(), point)
        assert nu.support == (0.0, 1.0)
        assert nu.probs == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_mass_preserved(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            mu = Distribution(np.arange(d, dtype=float), rng.dirichlet(np.ones(d)))
            nu = born_map(random_unitary(rng, d), mu)
            assert abs(sum(nu.probs) - 1.0) <= 1e-12


class TestTransitionKernel:
    def test_columns_must_be_stochastic(self):
        bad = np.array([[0.5, 0.2], [0.4, 0.8]])
        with pytest.raises(ValueError):
            TransitionKernel(bad, bad.T)

    def test_entries_are_never_coerced(self):
        # np.asarray([[True, 0.0], ...]) would read True as 1.0
        for bad in ["0.5", b"0.5", True, np.True_]:
            with pytest.raises(TypeError, match="real number"):
                TransitionKernel([[bad, 0.0], [0.0, 1.0]], np.eye(2).tolist())
            with pytest.raises(TypeError, match="real number"):
                TransitionKernel(np.eye(2), [[1.0, 0.0], [0.0, bad]])
        k = TransitionKernel([[1, 0], [0, 1]], np.eye(2, dtype=np.float32))
        assert k.alpha.dtype == float
        assert np.array_equal(k.alpha, np.eye(2))

    def test_from_unitary_is_symmetric_and_born_consistent(self):
        u = hadamard_unitary()
        k = TransitionKernel.from_unitary(u)
        assert np.allclose(k.alpha, 0.5)
        chk = born_consistency(u, k)
        assert chk.consistent
        assert chk.max_abs_error <= 1e-12

    def test_identity_kernel_is_not_born_consistent_with_hadamard(self):
        k = TransitionKernel(np.eye(2), np.eye(2))
        chk = born_consistency(hadamard_unitary(), k)
        assert not chk.consistent
        assert chk.max_abs_error == pytest.approx(0.5, abs=1e-12)

    def test_consistent_is_read_from_the_error(self):
        assert BornCheck(1e-9).consistent and not BornCheck(2e-9).consistent
        with pytest.raises(TypeError):
            BornCheck(0.5, True)

    def test_from_joint_never_violates_bayes(self):
        rng = np.random.default_rng(72)
        for _ in range(25):
            nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            joint = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny) + 1e-6
            joint /= joint.sum()
            kernel = TransitionKernel.from_joint(joint)
            mu = Distribution(np.arange(nx, dtype=float), joint.sum(axis=1))
            nu = Distribution(np.arange(ny, dtype=float), joint.sum(axis=0))
            delta = bayes_violation(kernel, mu, nu)
            assert np.abs(delta).max() <= 1e-12

    def test_born_kernel_at_deltas_violates_bayes(self):
        kernel = TransitionKernel.from_unitary(hadamard_unitary())
        point = Distribution((0.0, 1.0), (1.0, 0.0))
        delta = bayes_violation(kernel, point, point)
        assert np.allclose(delta, [[0.0, -0.5], [0.5, 0.0]], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        kernel = TransitionKernel.from_unitary(hadamard_unitary())
        tri = Distribution.uniform([0.0, 1.0, 2.0])
        with pytest.raises(DimensionError):
            bayes_violation(kernel, tri, UNIT)


class TestInterference:
    def test_born_hadamard_signature(self):
        alpha = TransitionKernel.from_unitary(hadamard_unitary()).alpha
        sure = Distribution((0.0, 1.0), (1.0, 0.0))
        balanced = Distribution.uniform([0.0, 1.0])
        delta = interference_delta(sure, alpha, balanced)
        assert np.allclose(delta, [0.5, -0.5], atol=1e-12)

    def test_classical_kernel_shows_no_interference(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            joint = rng.dirichlet(np.ones(n * n)).reshape(n, n) + 1e-6
            joint /= joint.sum()
            kernel = TransitionKernel.from_joint(joint)
            mu = Distribution(np.arange(n, dtype=float), joint.sum(axis=1))
            nu = Distribution(np.arange(n, dtype=float), joint.sum(axis=0))
            assert np.abs(interference_delta(mu, kernel.alpha, nu)).max() <= 1e-12

    def test_defect_always_sums_to_zero(self):
        rng = np.random.default_rng(74)
        for _ in range(25):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            alpha = rng.dirichlet(np.ones(nx), size=ny).T  # columns sum to 1
            mu = Distribution(np.arange(nx, dtype=float), rng.dirichlet(np.ones(nx)))
            nu = Distribution(np.arange(ny, dtype=float), rng.dirichlet(np.ones(ny)))
            assert abs(interference_delta(mu, alpha, nu).sum()) <= 1e-12


class TestContextualFamily:
    @staticmethod
    def parity_of(space):
        return RandomVariable("parity", {o: float(o % 2) for o in space.outcomes})

    def test_die_split_by_parity(self):
        die = FiniteProbabilitySpace(range(1, 7), [1 / 6] * 6)
        fam = contextual_family(die, self.parity_of(die))
        assert len(fam) == 2
        evens, odds = Event({2, 4, 6}), Event({1, 3, 5})
        assert fam.contexts == (evens, odds)
        for ev, sp in zip(fam.contexts, fam.conditioned):
            expect = condition(die, ev)
            assert sp.weights == pytest.approx(expect.weights, abs=1e-15)

    def test_zero_probability_level_dropped_with_warning(self):
        space = FiniteProbabilitySpace((1, 2, 3), (0.5, 0.5, 0.0))
        levels = RandomVariable("z", {1: 0.0, 2: 0.0, 3: 1.0})
        with pytest.warns(UserWarning):
            fam = contextual_family(space, levels)
        assert fam.dropped_levels == (1.0,)
        assert len(fam) == 1

    def test_conditioned_spaces_are_read_from_the_base(self):
        die = FiniteProbabilitySpace(range(1, 7), [1 / 6] * 6)
        fam = contextual_family(die, self.parity_of(die))
        again = ContextFamily(die, fam.contexts)
        assert again == fam and again.conditioned == fam.conditioned
        with pytest.raises(TypeError):
            ContextFamily(die, fam.contexts, fam.conditioned)

    def test_variable_must_cover_the_space(self):
        space = FiniteProbabilitySpace((1, 2), (0.5, 0.5))
        with pytest.raises(DomainError):
            contextual_family(space, RandomVariable("z", {1: 0.0}))

    def test_family_does_not_determine_the_base(self):
        # Two different base laws whose conditioned families coincide:
        # the dropped weights P(C_i) are exactly the unrecoverable data.
        outcomes = (1, 2, 3, 4)
        base1 = FiniteProbabilitySpace(outcomes, (0.25, 0.25, 0.25, 0.25))
        base2 = FiniteProbabilitySpace(outcomes, (0.3, 0.2, 0.3, 0.2))
        var = self.parity_of(base1)
        fam1 = contextual_family(base1, var)
        fam2 = contextual_family(base2, var)
        assert fam1.contexts == fam2.contexts
        for s1, s2 in zip(fam1.conditioned, fam2.conditioned):
            assert s1.outcomes == s2.outcomes
            assert s1.weights == pytest.approx(s2.weights, abs=1e-12)
        assert base1.weights != base2.weights  # the family forgot this
