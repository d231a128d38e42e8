"""Finite probability spaces, random variables, pushforwards, entropy, LLN."""

import math

import numpy as np
import pytest

from ncprob import (
    Distribution,
    DomainError,
    Event,
    FiniteProbabilitySpace,
    NullEventError,
    RandomVariable,
    condition,
    expectation,
    lln_frequency,
    pushforward,
    shannon_entropy,
)

# The eight-outcome die model: a fair-looking die whose printed values
# collide (three faces print 2 or 5), so the pushforward merges cells.
PRINTED = {1: 1, 2: 5, 3: 3, 4: 4, 5: 2, 6: 6, 7: 5, 8: 2}


def eight_cell_space(weights):
    return FiniteProbabilitySpace(range(1, 9), weights)


def printed_value():
    return RandomVariable("D", PRINTED)


#: Values that ``float()`` would coerce but that are not numbers.
NOT_REAL = ["0.5", b"0.5", True, np.True_]


class TestSpace:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FiniteProbabilitySpace(("a", "b"), (0.6, 0.5))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            FiniteProbabilitySpace(("a", "b"), (1.5, -0.5))

    def test_duplicate_outcomes_rejected(self):
        with pytest.raises(ValueError):
            FiniteProbabilitySpace(("a", "a"), (0.5, 0.5))

    def test_tiny_normalisation_slack_renormalised(self):
        eps = 4e-13
        space = FiniteProbabilitySpace(("a", "b"), (0.5 + eps, 0.5))
        assert math.isclose(sum(space.weights), 1.0, abs_tol=1e-15)

    def test_event_probability_is_additive(self):
        space = eight_cell_space([0.1, 0.2, 0.05, 0.15, 0.1, 0.1, 0.2, 0.1])
        assert space.prob(Event({1, 3})) == pytest.approx(0.15, abs=1e-15)
        assert space.prob(Event(())) == 0.0
        assert space.prob(Event(range(1, 9))) == pytest.approx(1.0, abs=1e-15)

    def test_weight_of_reads_the_renormalised_weight(self):
        eps = 4e-13
        space = FiniteProbabilitySpace(("a", "b"), (0.5 + eps, 0.5))
        assert (space.weight_of("a"), space.weight_of("b")) == space.weights
        assert space.weight_of("a") == pytest.approx((0.5 + eps) / (1.0 + eps), rel=1e-15, abs=0.0)
        assert space.weight_of("b") == pytest.approx(0.5 / (1.0 + eps), rel=1e-15, abs=0.0)
        assert space.weight_of("a") != 0.5 + eps
        with pytest.raises(DomainError, match="'c'"):
            space.weight_of("c")

    def test_event_with_unknown_outcome_rejected(self):
        space = eight_cell_space([1 / 8] * 8)
        with pytest.raises(DomainError):
            space.prob(Event({9}))

    def test_weights_are_never_coerced(self):
        for bad in NOT_REAL:
            with pytest.raises(TypeError, match="real number"):
                FiniteProbabilitySpace(("a", "b"), (bad, 0.5))
        space = FiniteProbabilitySpace(("a", "b"), np.array([0.5, 0.5]))
        assert space.weights == (0.5, 0.5)
        assert type(space.weights[0]) is float


class TestDistribution:
    def test_support_and_probs_are_never_coerced(self):
        for bad in NOT_REAL:
            with pytest.raises(TypeError, match="real number"):
                Distribution([bad, 1.0], [0.5, 0.5])
            with pytest.raises(TypeError, match="real number"):
                Distribution([0.0, 1.0], [bad, 0.5])
        d = Distribution([np.int64(1), 2, np.float32(3.5)], np.array([0.25, 0.25, 0.5]))
        assert d.support == (1.0, 2.0, 3.5)
        assert d.probs == (0.25, 0.25, 0.5)
        assert all(type(x) is float for x in d.support + d.probs)

    def test_uniform_on_no_values_is_a_value_error(self):
        with pytest.raises(ValueError, match="non-empty"):
            Distribution.uniform([])


class TestRandomVariable:
    def test_lookup_and_domain_error(self):
        d = printed_value()
        assert d(2) == 5
        with pytest.raises(DomainError):
            d(9)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RandomVariable("X", {**PRINTED, 6: bad})

    def test_values_are_never_coerced(self):
        for bad in NOT_REAL:
            with pytest.raises(TypeError, match="real number"):
                RandomVariable("X", {**PRINTED, 6: bad})
        assert RandomVariable("X", {1: np.int64(3), 2: np.float64(0.5)}).values == {1: 3.0, 2: 0.5}


class TestPushforward:
    def test_eight_outcome_die_collapses_to_six_values(self):
        space = eight_cell_space([1 / 8] * 8)
        mu = pushforward(printed_value(), space)
        assert mu.support == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert mu.probs == pytest.approx(
            (1 / 8, 1 / 4, 1 / 8, 1 / 8, 1 / 4, 1 / 8), abs=1e-15
        )
        assert mu.mean() == pytest.approx(3.5, abs=1e-12)

    def test_merge_formula_for_randomised_weights(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            q = rng.dirichlet(np.ones(8))
            mu = pushforward(printed_value(), eight_cell_space(q))
            want = (q[0], q[4] + q[7], q[2], q[3], q[1] + q[6], q[5])
            assert mu.support == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
            assert np.max(np.abs(np.array(mu.probs) - want)) <= 1e-12

    def test_mass_is_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            space = FiniteProbabilitySpace(range(n), rng.dirichlet(np.ones(n)))
            x = RandomVariable("X", {k: float(rng.integers(-3, 4)) for k in range(n)})
            mu = pushforward(x, space)
            assert abs(sum(mu.probs) - 1.0) <= 1e-12
            assert list(mu.support) == sorted(mu.support)


class TestExpectation:
    def test_square_oracle(self):
        d = Distribution((0.0, 2.0), (0.5, 0.5))
        assert expectation(lambda x: x * x, d) == pytest.approx(2.0, abs=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            d = Distribution(np.sort(rng.choice(np.arange(-20, 21), n, replace=False)) / 4.0,
                             rng.dirichlet(np.ones(n)))
            a, b = rng.uniform(-2, 2, size=2)
            f = lambda x: x * x - 1.0
            g = lambda x: math.sin(x)
            lhs = expectation(lambda x: a * f(x) + b * g(x), d)
            rhs = a * expectation(f, d) + b * expectation(g, d)
            assert abs(lhs - rhs) <= 1e-12


class TestCondition:
    def test_uniform_die_on_evens(self):
        die = FiniteProbabilitySpace(range(1, 7), [1 / 6] * 6)
        cond = condition(die, Event({2, 4, 6}))
        assert cond.outcomes == die.outcomes
        assert cond.weights == pytest.approx((0, 1 / 3, 0, 1 / 3, 0, 1 / 3), abs=1e-15)

    def test_idempotence(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            space = FiniteProbabilitySpace(range(n), rng.dirichlet(np.ones(n)))
            ev = Event({k for k in range(n) if rng.random() < 0.6} or {0})
            once = condition(space, ev)
            twice = condition(once, ev)
            assert np.max(np.abs(np.array(twice.weights) - once.weights)) <= 1e-12

    def test_null_event_raises(self):
        space = FiniteProbabilitySpace(("a", "b", "c"), (0.5, 0.5, 0.0))
        with pytest.raises(NullEventError):
            condition(space, Event({"c"}))


class TestEntropy:
    def test_half_quarter_quarter(self):
        d = Distribution((1.0, 2.0, 3.0), (0.5, 0.25, 0.25))
        assert shannon_entropy(d) == pytest.approx(1.5 * math.log(2.0), abs=1e-15)

    def test_delta_has_zero_entropy(self):
        assert shannon_entropy(Distribution.delta(4.0)) == 0.0

    def test_delta_entropy_is_positive_zero(self):
        h = shannon_entropy(Distribution.delta(1.0))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_uniform_maximises(self):
        d = Distribution.uniform(range(5))
        assert shannon_entropy(d) == pytest.approx(math.log(5.0), abs=1e-15)

    def test_bounds_and_delta_characterisation(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            d = Distribution(np.arange(n, dtype=float), rng.dirichlet(np.ones(n)))
            h = shannon_entropy(d)
            assert -1e-15 <= h <= math.log(max(n, 2)) + 1e-12
            if n == 1:
                assert h == 0.0


class TestLln:
    def test_fair_coin_frozen_seed(self):
        coin = FiniteProbabilitySpace(("h", "t"), (0.5, 0.5))
        f = lln_frequency(coin, Event({"h"}), 100_000)
        assert f == 0.50098  # bit-reproducible at the default seed
        assert abs(f - 0.5) < 0.005

    def test_die_evens_frozen_seeds(self):
        die = FiniteProbabilitySpace(range(1, 7), [1 / 6] * 6)
        assert lln_frequency(die, Event({2, 4, 6}), 100_000) == 0.49318
        assert lln_frequency(die, Event({2, 4, 6}), 100_000, seed=123) == 0.50089

    def test_reproducible_across_calls(self):
        space = FiniteProbabilitySpace(("x", "y", "z"), (0.2, 0.3, 0.5))
        ev = Event({"y", "z"})
        runs = {lln_frequency(space, ev, 2_000, seed=77) for _ in range(3)}
        assert len(runs) == 1

    def test_concentrates_with_trials(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            n = int(rng.integers(2, 6))
            space = FiniteProbabilitySpace(range(n), rng.dirichlet(np.ones(n)))
            members = {k for k in range(n) if rng.random() < 0.5}
            ev = Event(members)
            p = space.prob(ev)
            f = lln_frequency(space, ev, 40_000, seed=trial)
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / 40_000)
            assert abs(f - p) <= 5 * sigma + 1e-9

    def test_zero_trials_rejected(self):
        space = FiniteProbabilitySpace(("a",), (1.0,))
        with pytest.raises(ValueError):
            lln_frequency(space, Event({"a"}), 0)
