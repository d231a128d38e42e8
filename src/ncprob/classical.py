"""Finite measure-theoretic probability at desk scale.

Sample spaces are finite, the event algebra is the full power set, and
weights are plain floats.  All types are immutable after construction;
anything that looks like mutation returns a new object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping

import numpy as np

from .errors import DomainError, NullEventError

#: Constructors accept weight/probability vectors whose sum deviates from 1
#: by strictly less than this; the vector is then renormalised exactly.
#: Anything further off is rejected rather than silently repaired.
NORMALIZATION_TOL = 1e-12

#: Default seed for :func:`lln_frequency`.  The generator is NumPy's
#: ``default_rng`` (PCG64), so runs are bit-reproducible for a fixed seed
#: across platforms.
DEFAULT_LLN_SEED = 0

Outcome = Hashable


def as_real(x) -> float:
    """``float(x)`` for a number; a string or a boolean is rejected, not
    coerced (``float("0.5")`` and ``float(True)`` would both succeed)."""
    if isinstance(x, (str, bytes, bool, np.bool_)):
        raise TypeError(f"expected a real number, got {x!r}")
    return float(x)


def _normalised(weights: Iterable[float], what: str) -> tuple[float, ...]:
    w = np.asarray([as_real(x) for x in weights], dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{what} must be finite")
    if np.any(w < 0.0):
        raise ValueError(f"{what} must be non-negative, got min {w.min()!r}")
    total = float(w.sum())
    if abs(total - 1.0) >= NORMALIZATION_TOL:
        raise ValueError(f"{what} sum to {total!r}; expected 1 within {NORMALIZATION_TOL}")
    return tuple(float(x) for x in w / total)


@dataclass(frozen=True)
class Event:
    """A subset of a sample space's outcomes."""

    members: frozenset

    def __init__(self, members: Iterable[Outcome]):
        object.__setattr__(self, "members", frozenset(members))

    def __contains__(self, outcome: Outcome) -> bool:
        return outcome in self.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True, init=False)
class FiniteProbabilitySpace:
    """A finite probability space with the power set as its event algebra.

    Parameters
    ----------
    outcomes:
        Pairwise-distinct hashable labels.
    weights:
        One non-negative weight per outcome, summing to 1 within
        ``NORMALIZATION_TOL`` (then renormalised exactly).
    """

    outcomes: tuple
    weights: tuple

    def __init__(self, outcomes: Iterable[Outcome], weights: Iterable[float]):
        outs = tuple(outcomes)
        w = _normalised(weights, "weights")
        if len(outs) != len(w):
            raise ValueError(f"{len(outs)} outcomes but {len(w)} weights")
        if len(set(outs)) != len(outs):
            raise ValueError("outcome labels must be pairwise distinct")
        object.__setattr__(self, "outcomes", outs)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_index", {o: i for i, o in enumerate(outs)})

    def weight_of(self, outcome: Outcome) -> float:
        try:
            return self.weights[self._index[outcome]]
        except KeyError:
            raise DomainError(f"outcome {outcome!r} not in sample space") from None

    def prob(self, event: Event) -> float:
        """P(event); the event must be a subset of the outcomes."""
        if not event.members <= set(self.outcomes):
            extra = event.members - set(self.outcomes)
            raise DomainError(f"event references outcomes outside the space: {sorted(map(repr, extra))}")
        return float(sum(self.weights[self._index[o]] for o in event.members))

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True, init=False)
class RandomVariable:
    """A real-valued function on a sample space, given as an explicit table."""

    name: str
    values: Mapping[Outcome, float]

    def __init__(self, name: str, values: Mapping[Outcome, float]):
        table = {k: as_real(v) for k, v in values.items()}
        if any(not math.isfinite(v) for v in table.values()):
            raise ValueError(f"values of {name} must be finite")
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "values", table)

    def __call__(self, outcome: Outcome) -> float:
        try:
            return self.values[outcome]
        except KeyError:
            raise DomainError(f"{self.name} is undefined at outcome {outcome!r}") from None


@dataclass(frozen=True, init=False)
class Distribution:
    """A probability law on a finite set of real values.

    ``support`` is strictly increasing (this is the canonical order used
    everywhere downstream: diagonal operators, PVM cells, reports).
    """

    support: tuple
    probs: tuple

    def __init__(self, support: Iterable[float], probs: Iterable[float]):
        sup = tuple(as_real(x) for x in support)
        p = _normalised(probs, "probs")
        if len(sup) != len(p):
            raise ValueError(f"{len(sup)} support values but {len(p)} probabilities")
        if any(not math.isfinite(x) for x in sup):
            raise ValueError("support values must be finite")
        if any(b <= a for a, b in zip(sup, sup[1:])):
            raise ValueError("support must be strictly increasing")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "probs", p)

    @classmethod
    def delta(cls, value: float) -> "Distribution":
        return cls((value,), (1.0,))

    @classmethod
    def uniform(cls, support: Iterable[float]) -> "Distribution":
        sup = tuple(support)
        return cls(sup, (1.0 / max(len(sup), 1),) * len(sup))

    def prob_of(self, value: float) -> float:
        for x, p in zip(self.support, self.probs):
            if x == value:
                return p
        raise DomainError(f"value {value!r} not in support")

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))

    def __len__(self) -> int:
        return len(self.support)


def pushforward(variable: RandomVariable, space: FiniteProbabilitySpace) -> Distribution:
    """Law of ``variable`` under ``space``: mass transported to the image.

    Outcomes mapping to the same value (exact float equality) have their
    weights summed; the support comes out sorted ascending.
    """
    missing = [o for o in space.outcomes if o not in variable.values]
    if missing:
        raise DomainError(f"{variable.name} is undefined on outcomes {missing!r}")
    acc: dict[float, float] = {}
    for o, w in zip(space.outcomes, space.weights):
        v = variable.values[o]
        acc[v] = acc.get(v, 0.0) + w
    sup = sorted(acc)
    return Distribution(sup, [acc[v] for v in sup])


def expectation(f: Callable[[float], float], dist: Distribution) -> float:
    """E[f(X)] for X distributed according to ``dist``."""
    return float(sum(p * f(x) for x, p in zip(dist.support, dist.probs)))


def condition(space: FiniteProbabilitySpace, event: Event) -> FiniteProbabilitySpace:
    """Bayes conditioning: the space with weights w(omega)/P(event) on the
    event and 0 elsewhere.  Conditioning on a null event is an error."""
    p_event = space.prob(event)  # also validates membership
    if p_event == 0.0:
        raise NullEventError(f"cannot condition on event of probability zero: {sorted(map(repr, event.members))}")
    new_w = [w / p_event if o in event.members else 0.0 for o, w in zip(space.outcomes, space.weights)]
    return FiniteProbabilitySpace(space.outcomes, new_w)


def shannon_entropy(dist: Distribution) -> float:
    """Shannon entropy in nats, with the 0*ln(0) = 0 convention; a point
    mass gives 0.0, not -0.0."""
    p = np.asarray(dist.probs)
    nz = p[p > 0.0]
    return 0.0 - float((nz * np.log(nz)).sum())


def lln_frequency(
    space: FiniteProbabilitySpace,
    event: Event,
    trials: int,
    seed: int = DEFAULT_LLN_SEED,
) -> float:
    """Empirical frequency of ``event`` over ``trials`` i.i.d. draws.

    Sampling uses ``np.random.default_rng(seed)``, so the result is
    reproducible bit-for-bit for a fixed seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not event.members <= set(space.outcomes):
        raise DomainError("event references outcomes outside the space")
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(space.outcomes), size=trials, p=np.asarray(space.weights))
    member = np.asarray([o in event.members for o in space.outcomes])
    return float(member[draws].sum() / trials)
