"""Scenario files and deterministic reports.

A scenario is a JSON document (conventionally ``*.scenario``) declaring
named distributions, spaces, variables, partitions, contexts, a unitary,
an optimizer configuration, and an ordered task list.  Running it yields
a report whose numeric content is deterministic byte-for-byte for a
fixed scenario, seed, and platform; wall-clock readings are isolated in
a trailing ``timing`` section so they can be excluded from comparisons.

Every object whose keys are field names has one table of kinds, and one
checker reads them all: the top level (``_SCENARIO_FIELDS``), each entry
of ``distributions``, ``spaces`` and ``variables``, ``unitary``,
``kernel``, ``optimizer``, each task entry, and each task's ``args``
(``TASKS``).  The same kinds check the command-line overrides.

Floats are emitted with 17 significant digits (lossless for binary64);
complex entries appear as two-element ``[re, im]`` arrays.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import __version__, construct, eur, hilbert
from .classical import (
    DEFAULT_LLN_SEED,
    Distribution,
    Event,
    FiniteProbabilitySpace,
    RandomVariable,
    as_real,
    lln_frequency,
    pushforward,
    shannon_entropy,
)
from .errors import PartitionError, ScenarioError
from .eur import OptimizerConfig, SpectrumPartition
from .hilbert import DensityOperator, PureState

TOOL_NAME = "ncprob"

#: Largest accepted scenario dimension: a d x d complex unitary at this
#: size is 16 MiB, while an unchecked d can ask for terabytes at load.
MAX_DIMENSION = 1024
#: Largest accepted ``lln`` trial count (80 MB of draws).
MAX_TRIALS = 10_000_000
#: Largest ``dimension`` a ``gns`` task accepts, per algebra: the full
#: algebra's images alone hold d^6 complex numbers (one BLAS thread: about
#: 3.3 s and 300 MB at d = 16, 16 s and 1 GB at d = 20; diagonal, d = 64: 2 s).
MAX_GNS_DIMENSION = {"full": 16, "diagonal": 64}
#: Largest accepted optimizer restart count: each restart is a full
#: L-BFGS-B run, so an unchecked count can keep a run busy for hours.
MAX_RESTARTS = 1024

#: What the model constructors raise on a malformed value (OverflowError:
#: an integer literal beyond the float range).
_BAD_VALUE = (ValueError, TypeError, OverflowError, PartitionError)


# ---------------------------------------------------------------------------
# field kinds and the one checker


@dataclass(frozen=True)
class Ref:
    """The name of an entry in a scenario section; with ``of_dimension``
    the named distribution must also have one value per basis vector."""

    section: str
    of_dimension: bool = False

    def check(self, value, field: str, scenario) -> None:
        table, noun, d = getattr(scenario, self.section), self.section[:-1], scenario.dimension
        if not isinstance(value, str):
            raise ScenarioError(f"must name a {noun}, got {value!r}", field=field)
        if value not in table:
            raise ScenarioError(f"references unknown {noun} {value!r}", field=field)
        if self.of_dimension and len(table[value]) != d:
            raise ScenarioError(f"{noun} {value!r} has {len(table[value])} values, not dimension {d}", field=field)

    def __str__(self) -> str:
        text = f"name in '{self.section}'"
        return text + " with one value per dimension" if self.of_dimension else text


@dataclass(frozen=True)
class Number:
    """A finite JSON number (not a boolean), >= 0, or > 0 when ``positive``."""

    positive: bool = False

    def check(self, value, field: str, scenario=None) -> None:
        try:
            ok = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number; an integer beyond the float range
            ok = False
        if not (ok and (value > 0 if self.positive else value >= 0)):
            raise ScenarioError(f"must be a {self}, got {value!r}", field=field)

    def __str__(self) -> str:
        return "finite number > 0" if self.positive else "finite number >= 0"


@dataclass(frozen=True)
class Integer:
    """A JSON integer (not a boolean) in [lo, hi]."""

    lo: int
    hi: float = math.inf

    def check(self, value, field: str, scenario=None) -> None:
        if isinstance(value, bool) or not isinstance(value, int) or not self.lo <= value <= self.hi:
            raise ScenarioError(f"must be an {self}, got {value!r}", field=field)

    def __str__(self) -> str:
        return f"integer >= {self.lo}" if self.hi == math.inf else f"integer in [{self.lo}, {self.hi:,}]"


@dataclass(frozen=True)
class Choice:
    """One of a fixed set of strings."""

    options: tuple

    def check(self, value, field: str, scenario=None) -> None:
        if value not in self.options:
            raise ScenarioError(f"must be {self}, got {value!r}", field=field)

    def __str__(self) -> str:
        return "one of " + ", ".join(repr(o) for o in self.options)


@dataclass(frozen=True)
class Is:
    """A JSON object, array, string or boolean: a strict ``isinstance``,
    so ``0`` and ``1`` are not booleans."""

    type: type

    def check(self, value, field: str, scenario=None) -> None:
        if not isinstance(value, self.type):
            raise ScenarioError(f"must be {self}, got {type(value).__name__}", field=field)

    def __str__(self) -> str:
        return {dict: "an object", list: "an array", str: "a string", bool: "a boolean"}[self.type]


@dataclass(frozen=True)
class Arg:
    """One declared field: its kind, its help text, and whether it is required."""

    kind: Ref | Number | Integer | Choice | Is
    help: str
    required: bool = True


def _check_fields(table: dict, given, where: str, scenario=None) -> dict:
    """Check that ``given`` is an object matching ``table`` (name ->
    :class:`Arg`): no unknown names, no missing required ones, every value
    of its kind.  Errors name ``<where>.<name>``, or the bare name when
    ``where`` is empty (the top level).  Returns the given fields in table
    order."""
    Is(dict).check(given, where)
    prefix = f"{where}." if where else ""
    for name in given:
        if name not in table:
            raise ScenarioError(f"unknown field; known: {list(table)}", field=prefix + name)
    for name, arg in table.items():
        if name in given:
            arg.kind.check(given[name], prefix + name, scenario)
        elif arg.required:
            raise ScenarioError("required field missing", field=prefix + name)
    return {name: given[name] for name in table if name in given}


_SCENARIO_FIELDS = {
    "name": Arg(Is(str), "echoed in the report"),
    "dimension": Arg(Integer(1, MAX_DIMENSION), "Hilbert-space dimension; checked before the unitary is built"),
    "distributions": Arg(Is(dict), "name -> law", required=False),
    "spaces": Arg(Is(dict), "name -> finite probability space", required=False),
    "variables": Arg(Is(dict), "name -> random variable on a space", required=False),
    "unitary": Arg(Is(dict), "basis change, default identity", required=False),
    "partitions": Arg(Is(dict), "name -> list of value groups", required=False),
    "contexts": Arg(Is(dict), "name -> list of outcomes", required=False),
    "kernel": Arg(Is(dict), "transition kernel between two variables", required=False),
    "optimizer": Arg(Is(dict), "optimizer settings", required=False),
    "tasks": Arg(Is(list), "task entries, run in order"),
}
_DISTRIBUTION_FIELDS = {
    "support": Arg(Is(list), "strictly increasing real values"),
    "probs": Arg(Is(list), "one probability per support value"),
}
_SPACE_FIELDS = {
    "outcomes": Arg(Is(list), "pairwise-distinct labels"),
    "weights": Arg(Is(list), "one weight per outcome"),
}
_VARIABLE_FIELDS = {
    "space": Arg(Ref("spaces"), "the sample space"),
    "values": Arg(Is(dict), "outcome -> real value, for exactly the outcomes of the space"),
}
#: ``entries`` is given exactly when ``kind`` is ``explicit``.
_UNITARY_FIELDS = {
    "kind": Arg(Choice(("identity", "fourier", "hadamard", "explicit")), "the unitary"),
    "entries": Arg(Is(list), "rows of [re, im] pairs", required=False),
}
#: Either ``{"from_unitary": true}`` or both ``alpha`` and ``alpha_tilde``.
_KERNEL_FIELDS = {
    "from_unitary": Arg(Is(bool), "the Born kernel |U[x, y]|^2 of the unitary", required=False),
    "alpha": Arg(Is(list), "P(X=x | Y=y), one row per x", required=False),
    "alpha_tilde": Arg(Is(list), "P(Y=y | X=x), one row per y", required=False),
}
_TASK_FIELDS = {
    "task": Arg(Is(str), "task name, see `ncprob tasks`"),
    "args": Arg(Is(dict), "task arguments, see `ncprob describe <task>`", required=False),
}


#: The ``optimizer`` section; every field is optional (defaults from
#: :class:`OptimizerConfig`).
_OPTIMIZER_FIELDS = {
    "restarts": Arg(Integer(1, MAX_RESTARTS), "multi-start count", required=False),
    "max_iters": Arg(Integer(1), "L-BFGS-B iteration cap per restart", required=False),
    "tol": Arg(Number(positive=True), "convergence tolerance", required=False),
    "seed": Arg(Integer(0), "seed of the restart generator", required=False),
}


# ---------------------------------------------------------------------------
# scenario model


@dataclass(frozen=True)
class TaskSpec:
    name: str
    args: dict


@dataclass
class Scenario:
    """Parsed scenario file; see :func:`load_scenario`."""

    name: str
    dimension: int
    distributions: dict
    spaces: dict
    variables: dict  # name -> (space name, RandomVariable)
    unitary: np.ndarray
    partitions: dict
    contexts: dict
    kernel: construct.TransitionKernel | None
    optimizer: OptimizerConfig
    tasks: list

    def effective_optimizer(self, seed_override: int | None = None) -> OptimizerConfig:
        """The scenario's optimizer config after the ``--seed`` override."""
        if seed_override is None:
            return self.optimizer
        _OPTIMIZER_FIELDS["seed"].kind.check(seed_override, "--seed")
        return replace(self.optimizer, seed=seed_override)


def _parse_outcome(key: str, labels: dict):
    """JSON object keys are strings; read them back as outcome labels: the
    space's own outcome whose ``str`` is ``key`` (``labels`` maps each
    ``str(o)`` to ``o``), else a number, else ``key`` itself."""
    if key in labels:
        return labels[key]
    for number in (int, float):
        try:
            return number(key)
        except ValueError:
            pass
    return key


def _make(where: str, build: Callable, *args, **kwargs):
    """``build(*args, **kwargs)``; a model constructor's error names ``where``."""
    try:
        return build(*args, **kwargs)
    except _BAD_VALUE as exc:
        raise ScenarioError(str(exc), field=where) from None


def _build_unitary(spec, dimension: int) -> np.ndarray:
    spec = _check_fields(_UNITARY_FIELDS, spec, "unitary")
    kind = spec["kind"]
    if ("entries" in spec) != (kind == "explicit"):
        raise ScenarioError("given with kind 'explicit' and only then", field="unitary.entries")
    if kind == "identity":
        return np.eye(dimension, dtype=complex)
    if kind == "fourier":
        return hilbert.fourier_unitary(dimension)
    if kind == "hadamard":
        if dimension != 2:
            raise ScenarioError(
                f"hadamard unitary requires dimension 2, scenario has {dimension}",
                field="unitary.kind",
            )
        return hilbert.hadamard_unitary()
    try:
        m = np.asarray([[complex(as_real(re), as_real(im)) for re, im in row] for row in spec["entries"]], dtype=complex)
    except _BAD_VALUE as exc:
        raise ScenarioError(
            f"entries must be rows of [re, im] pairs ({exc})", field="unitary.entries"
        ) from None
    if m.shape != (dimension, dimension):
        raise ScenarioError(
            f"explicit unitary has shape {m.shape}, scenario dimension is {dimension}",
            field="unitary.entries",
        )
    return _make("unitary.entries", construct._check_unitary, m)


def load_scenario(path) -> Scenario:
    """Parse and structurally validate a scenario file.

    Raises :class:`ScenarioError` (naming the offending field) on any
    problem; cross-reference and dimension checks happen in
    :func:`validate_scenario`.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc}", field="path")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also over-long integer literals
        raise ScenarioError(f"not valid JSON: {exc}", field=str(p)) from None
    if not isinstance(doc, dict):
        raise ScenarioError("top level must be an object", field=str(p))
    doc = _check_fields(_SCENARIO_FIELDS, doc, "")
    dimension = doc["dimension"]

    distributions = {}
    for dname, dspec in doc.get("distributions", {}).items():
        where = f"distributions.{dname}"
        distributions[dname] = _make(where, Distribution, **_check_fields(_DISTRIBUTION_FIELDS, dspec, where))

    spaces = {}
    for sname, sspec in doc.get("spaces", {}).items():
        where = f"spaces.{sname}"
        spaces[sname] = _make(where, FiniteProbabilitySpace, **_check_fields(_SPACE_FIELDS, sspec, where))

    variables = {}
    for vname, vspec in doc.get("variables", {}).items():
        where = f"variables.{vname}"
        vspec = _check_fields(_VARIABLE_FIELDS, vspec, where, SimpleNamespace(spaces=spaces, dimension=dimension))
        space_name = vspec["space"]
        outcomes = spaces[space_name].outcomes
        labels = {str(o): o for o in outcomes}
        table = {_parse_outcome(k, labels): v for k, v in vspec["values"].items()}
        rv = _make(f"{where}.values", RandomVariable, vname, table)
        missing = [o for o in outcomes if o not in rv.values]
        stray = [o for o in rv.values if o not in outcomes]
        if missing or stray:
            raise ScenarioError(
                f"must cover exactly the outcomes of space {space_name!r}: missing {missing!r}, extra {stray!r}",
                field=f"{where}.values",
            )
        variables[vname] = (space_name, rv)

    unitary = _build_unitary(doc.get("unitary", {"kind": "identity"}), dimension)

    partitions = {}
    for pname, groups in doc.get("partitions", {}).items():
        where = f"partitions.{pname}"
        if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
            raise ScenarioError("must be a list of value groups", field=where)
        partitions[pname] = _make(where, SpectrumPartition.from_groups, groups)

    contexts = {}
    for cname, members in doc.get("contexts", {}).items():
        if not isinstance(members, list):
            raise ScenarioError("must be a list of outcomes", field=f"contexts.{cname}")
        contexts[cname] = tuple(members)

    kernel = None
    if "kernel" in doc:
        kspec = _check_fields(_KERNEL_FIELDS, doc["kernel"], "kernel")
        if kspec == {"from_unitary": True}:
            kernel = _make("kernel", construct.TransitionKernel.from_unitary, unitary)
        elif set(kspec) == {"alpha", "alpha_tilde"}:
            kernel = _make("kernel", construct.TransitionKernel, **kspec)
        else:
            raise ScenarioError("give either from_unitary: true or both alpha and alpha_tilde", field="kernel")

    optimizer = OptimizerConfig(**_check_fields(_OPTIMIZER_FIELDS, doc.get("optimizer", {}), "optimizer"))

    tasks = []
    for i, tspec in enumerate(doc["tasks"]):
        tspec = _check_fields(_TASK_FIELDS, tspec, f"tasks[{i}]")
        tasks.append(TaskSpec(tspec["task"], dict(tspec.get("args", {}))))

    return Scenario(
        name=doc["name"],
        dimension=dimension,
        distributions=distributions,
        spaces=spaces,
        variables=variables,
        unitary=unitary,
        partitions=partitions,
        contexts=contexts,
        kernel=kernel,
        optimizer=optimizer,
        tasks=tasks,
    )


# ---------------------------------------------------------------------------
# task registry


@dataclass(frozen=True)
class TaskDef:
    summary: str
    args: dict  # argument name -> Arg, in the order `describe` lists them
    run: Callable  # (scenario, args, opt) -> result mapping
    check: Callable | None = None  # cross-field rule: (scenario, args in table order, where)


def _operator_pair(scenario: Scenario, args, kx: str, ky: str):
    dx = scenario.distributions[args[kx]]
    dy = scenario.distributions[args[ky]]
    pair = construct.ScenarioPair(dx, dy, scenario.unitary)
    return construct.build_pair(pair)


def _check_partitions(scenario, args, where):
    """Each partition covers exactly the support of its operator's law."""
    for pkey, dkey in (("eps", "dist_x"), ("delta", "dist_y")):
        pname, dname = args[pkey], args[dkey]
        ground = set(scenario.partitions[pname].ground_values())
        support = set(scenario.distributions[dname].support)
        if ground != support:
            bits = []
            if ground - support:
                bits.append(f"references values {sorted(ground - support)} absent from the support of {dname!r}")
            if support - ground:
                bits.append(f"fails to cover support values {sorted(support - ground)} of {dname!r}")
            raise ScenarioError(f"partition {pname!r} " + "; ".join(bits), field=f"{where}.{pkey}")


def _run_entropy(scenario, args, opt):
    if "variable" in args:
        space_name, rv = scenario.variables[args["variable"]]
        dist = pushforward(rv, scenario.spaces[space_name])
    else:
        dist = scenario.distributions[args["distribution"]]
    return {
        "support": list(dist.support),
        "probs": list(dist.probs),
        "mean": dist.mean(),
        "entropy_nats": shannon_entropy(dist),
    }


def _check_entropy(scenario, args, where):
    """Exactly one of the two arguments is given."""
    if ("distribution" in args) == ("variable" in args):
        raise ScenarioError("exactly one of 'distribution' or 'variable' is required", field=where)


def _run_mu_bound(scenario, args, opt):
    tx, ty = _operator_pair(scenario, args, "dist_x", "dist_y")
    return {
        "maassen_uffink": eur.maassen_uffink_bound(tx, ty),
        "commutator_norm": hilbert.commutator_norm(tx, ty),
    }


def _run_partovi(scenario, args, opt):
    tx, ty = _operator_pair(scenario, args, "dist_x", "dist_y")
    bound = eur.partovi_bound(
        tx, ty, scenario.partitions[args["eps"]], scenario.partitions[args["delta"]]
    )
    return {"partovi": bound}


def _run_certify(scenario, args, opt):
    tx, ty = _operator_pair(scenario, args, "dist_x", "dist_y")
    cert = eur.certify_noncommutativity(
        tx,
        ty,
        scenario.partitions[args["eps"]],
        scenario.partitions[args["delta"]],
        opt=opt,
        operator_names=(args["dist_x"], args["dist_y"]),
    )
    return certificate_payload(cert)


def _run_build_pair(scenario, args, opt):
    tx, ty = _operator_pair(scenario, args, "dist_x", "dist_y")
    return {
        "t_x": tx.matrix,
        "t_y": ty.matrix,
        "spectrum_y": ty.eigenvalues(),
        "commutator_norm": hilbert.commutator_norm(tx, ty),
    }


def _run_overlap(scenario, args, opt):
    check = construct.verify_overlap_bound(scenario.unitary, float(args["target_bound"]))
    return {
        "max_overlap": check.max_overlap,
        "bound": check.bound,
        "satisfied": check.satisfied,
    }


def _run_chsh(scenario, args, opt):
    a1 = np.kron(hilbert.PAULI_Z, np.eye(2))
    a2 = np.kron(hilbert.PAULI_X, np.eye(2))
    b1 = np.kron(np.eye(2), (hilbert.PAULI_Z + hilbert.PAULI_X) / np.sqrt(2))
    b2 = np.kron(np.eye(2), (hilbert.PAULI_Z - hilbert.PAULI_X) / np.sqrt(2))
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    beta = hilbert.chsh_beta(a1, a2, b1, b2, PureState(bell))
    return {"configuration": args["configuration"], "beta": beta}


def _check_chsh(scenario, args, where):
    """The two-qubit configuration needs dimension 4."""
    if scenario.dimension != 4:
        raise ScenarioError(
            f"the tsirelson configuration lives on dimension 4, scenario has {scenario.dimension}",
            field=f"{where}.configuration",
        )


def _gns_basis(kind: str, d: int):
    """The matrix units E_ij in row-major order, or the diagonal ones E_ii."""
    if kind == "full":
        return np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return np.array([np.diag(row) for row in np.eye(d, dtype=complex)])


def _run_gns(scenario, args, opt):
    d = scenario.dimension
    basis = _gns_basis(args["algebra"], d)
    probs = scenario.distributions[args["state"]].probs
    rho = DensityOperator(np.diag(np.asarray(probs, dtype=complex)))
    rep = hilbert.gns_construct(basis, rho)
    return {
        "algebra": args["algebra"],
        "algebra_size": len(basis),
        "representation_dim": rep.rep_dim,
        "reproduction_error": rep.reproduction_error,
    }


def _check_gns(scenario, args, where):
    """The dimension is within the algebra's ceiling."""
    limit = MAX_GNS_DIMENSION[args["algebra"]]
    if scenario.dimension > limit:
        raise ScenarioError(
            f"the {args['algebra']} algebra takes dimension at most {limit}, scenario has {scenario.dimension}",
            field=f"{where}.algebra",
        )


def _run_interference(scenario, args, opt):
    mu_xc = scenario.distributions[args["mu_xc"]]
    mu_yc = scenario.distributions[args["mu_yc"]]
    delta = construct.interference_delta(mu_xc, scenario.kernel.alpha, mu_yc)
    return {"delta": delta, "sum": float(delta.sum())}


def _check_kernel(scenario, args, where):
    """The scenario has a kernel, and the two laws, in table order, have its
    row and column counts."""
    if scenario.kernel is None:
        raise ScenarioError("task requires a 'kernel' section", field=where)
    for (key, dname), want in zip(args.items(), scenario.kernel.shape):
        size = len(scenario.distributions[dname])
        if size != want:
            raise ScenarioError(
                f"distribution {dname!r} has {size} values; kernel expects {want}",
                field=f"{where}.{key}",
            )


def _run_bayes(scenario, args, opt):
    mu = scenario.distributions[args["mu_x"]]
    nu = scenario.distributions[args["nu_y"]]
    delta = construct.bayes_violation(scenario.kernel, mu, nu)
    return {"delta_matrix": delta, "max_abs": float(np.abs(delta).max())}


def _run_lln(scenario, args, opt):
    space = scenario.spaces[args["space"]]
    event = Event(scenario.contexts[args["event"]])
    trials = args["trials"]
    seed = args.get("seed", DEFAULT_LLN_SEED)
    freq = lln_frequency(space, event, trials, seed)
    prob = space.prob(event)
    return {
        "trials": trials,
        "seed": seed,
        "frequency": freq,
        "probability": prob,
        "abs_gap": abs(freq - prob),
    }


def _check_lln(scenario, args, where):
    """The context lies inside the space."""
    space = scenario.spaces[args["space"]]
    stray = [m for m in scenario.contexts[args["event"]] if m not in space.outcomes]
    if stray:
        raise ScenarioError(
            f"context {args['event']!r} references outcomes {stray!r} outside space {args['space']!r}",
            field=f"{where}.event",
        )


def _marginal_residual(pvm, apvm) -> float:
    """Largest ||P - Q||_2 over the cells of A, P = W W* in ``apvm`` and Q = V V*
    the sum of its joint projectors in ``pvm``, read from the isometries:
    ||P - Q|| = max(||(I - P)Q||, ||(I - Q)P||) = max(||V - W(W*V)||, ||W - V(V*W)||)."""
    a_value = np.array([ca.representative for ca, _ in pvm.labels])[pvm.cell]  # per joint column
    residual = 0.0
    for k, c in enumerate(apvm.labels):
        w, v = apvm.stack[:, apvm.cell == k], pvm.stack[:, a_value == c.representative]
        for x, y in ((v, w), (w, v)):
            residual = max(residual, float(np.linalg.norm(x - y @ (y.conj().T @ x), 2)))
    return residual


def _run_joint_pvm(scenario, args, opt):
    ta, tb = _operator_pair(scenario, args, "dist_a", "dist_b")
    pvm = hilbert.joint_pvm(ta, tb)
    return {
        "cells": [[ca.representative, cb.representative] for ca, cb in pvm.labels],
        "ranks": np.bincount(pvm.cell).tolist(),
        "marginal_residual": _marginal_residual(pvm, hilbert.spectral_pvm(ta)),
    }


def _run_dispersion_free(scenario, args, opt):
    ta, tb = _operator_pair(scenario, args, "dist_a", "dist_b")
    psi = hilbert.dispersion_free_state(ta, tb)
    return {
        "state": psi.vector,
        "dispersion_a": hilbert.dispersion(psi, ta),
        "dispersion_b": hilbert.dispersion(psi, tb),
    }


_LAW = Ref("distributions", of_dimension=True)  # a law that becomes a d x d operator
_PAIR = {"dist_x": Arg(_LAW, "law of the first operator"), "dist_y": Arg(_LAW, "law of the second operator")}
_PARTITIONED_PAIR = {
    **_PAIR,
    "eps": Arg(Ref("partitions"), "partition of the first operator's spectrum, covering its support"),
    "delta": Arg(Ref("partitions"), "partition of the second operator's spectrum, covering its support"),
}
_COMMUTING_PAIR = {"dist_a": Arg(_LAW, "first law"), "dist_b": Arg(_LAW, "second law")}

TASKS: dict[str, TaskDef] = {
    "entropy": TaskDef(
        "Law, mean and Shannon entropy (nats) of a named distribution, or of the pushforward of a named variable.",
        {
            "distribution": Arg(Ref("distributions"), "the law (give this or 'variable')", required=False),
            "variable": Arg(Ref("variables"), "its pushforward law is reported (give this or 'distribution')", required=False),
        },
        _run_entropy,
        _check_entropy,
    ),
    "mu_bound": TaskDef(
        "Overlap-based entropy bound for the operator pair built from two laws and the scenario unitary.",
        _PAIR,
        _run_mu_bound,
    ),
    "partovi_bound": TaskDef(
        "Projector-sum entropy bound at the named spectrum partitions.",
        _PARTITIONED_PAIR,
        _run_partovi,
        _check_partitions,
    ),
    "certify": TaskDef(
        "Full non-commutativity certificate: analytic bounds at the partitions, seeded optimizer evidence, commutator cross-check, verdict.",
        _PARTITIONED_PAIR,
        _run_certify,
        _check_partitions,
    ),
    "build_pair": TaskDef(
        "Operators (T_X, T_Y) from two laws and the scenario unitary, with spectrum and commutator norm.",
        _PAIR,
        _run_build_pair,
    ),
    "overlap_check": TaskDef(
        "Whether the scenario unitary's largest entry stays under exp(-target_bound/2).",
        {"target_bound": Arg(Number(), "entropy bound the pair should support")},
        _run_overlap,
    ),
    "chsh": TaskDef(
        "CHSH functional on a shipped two-qubit configuration.",
        {"configuration": Arg(Choice(("tsirelson",)), "shipped configuration; needs dimension 4")},
        _run_chsh,
        _check_chsh,
    ),
    "gns": TaskDef(
        "Cyclic representation of the full or diagonal matrix algebra with a diagonal state built from a named law's probabilities.",
        {
            "algebra": Arg(Choice(tuple(MAX_GNS_DIMENSION)), "the matrix algebra; "
                           + ", ".join(f"{k!r} takes dimension <= {v}" for k, v in MAX_GNS_DIMENSION.items())),
            "state": Arg(_LAW, "law whose probabilities form the diagonal state"),
        },
        _run_gns,
        _check_gns,
    ),
    "interference": TaskDef(
        "Total-probability defect delta(x) of the scenario kernel at two conditional laws.",
        {
            "mu_xc": Arg(Ref("distributions"), "conditional law of the first variable, one value per kernel row"),
            "mu_yc": Arg(Ref("distributions"), "conditional law of the second variable, one value per kernel column"),
        },
        _run_interference,
        _check_kernel,
    ),
    "bayes_delta": TaskDef(
        "Bayes-rule violation matrix of the scenario kernel at two marginal laws.",
        {
            "mu_x": Arg(Ref("distributions"), "marginal law of the first variable, one value per kernel row"),
            "nu_y": Arg(Ref("distributions"), "marginal law of the second variable, one value per kernel column"),
        },
        _run_bayes,
        _check_kernel,
    ),
    "lln": TaskDef(
        "Empirical frequency of a context over seeded i.i.d. draws from a named space.",
        {
            "space": Arg(Ref("spaces"), "sample space to draw from"),
            "event": Arg(Ref("contexts"), "context whose frequency is tracked; its outcomes lie in the space"),
            "trials": Arg(Integer(1, MAX_TRIALS), "number of draws"),
            "seed": Arg(Integer(0), f"generator seed, default {DEFAULT_LLN_SEED}", required=False),
        },
        _run_lln,
        _check_lln,
    ),
    "joint_pvm": TaskDef(
        "Joint spectral measure of the commuting pair built from two laws; errors when the pair does not commute.",
        _COMMUTING_PAIR,
        _run_joint_pvm,
    ),
    "dispersion_free": TaskDef(
        "A joint eigenvector of the commuting pair built from two laws, with both dispersions.",
        _COMMUTING_PAIR,
        _run_dispersion_free,
    ),
}


def list_tasks() -> str:
    """One line per task name, in registry order."""
    return "\n".join(f"{name}: {TASKS[name].summary}" for name in TASKS)


def describe_task(name: str) -> str:
    """Argument table of one task; unknown names raise KeyError."""
    td = TASKS[name]
    lines = [f"{name}: {td.summary}", "arguments:"]
    for arg, spec in td.args.items():
        status = "required" if spec.required else "optional"
        lines.append(f"  {arg} ({status}; {spec.kind}): {spec.help}")
    return "\n".join(lines)


def validate_scenario(scenario: Scenario) -> None:
    """Task names, arguments and cross-field rules; raises :class:`ScenarioError`."""
    for i, tspec in enumerate(scenario.tasks):
        td = TASKS.get(tspec.name)
        if td is None:
            raise ScenarioError(
                f"unknown task {tspec.name!r}; known: {sorted(TASKS)}", field=f"tasks[{i}]"
            )
        where = f"tasks[{i}].args"
        args = _check_fields(td.args, tspec.args, where, scenario)
        if td.check is not None:
            td.check(scenario, args, where)


# ---------------------------------------------------------------------------
# serialization


def certificate_payload(cert: eur.EURCertificate) -> dict:
    ev = cert.optimizer_evidence
    return {
        "operators": list(cert.operator_names),
        "partitions": [
            [list(c.values) for c in part.cells] for part in cert.partitions
        ],
        "maassen_uffink": cert.maassen_uffink,
        "partovi": cert.partovi,
        "numeric_infimum": cert.numeric_infimum,
        "commutator_norm": cert.commutator_norm,
        "threshold": cert.threshold,
        "verdict": cert.verdict,
        "infimum_consistent": cert.infimum_consistent,
        "optimizer_evidence": {
            "restarts": ev.restarts,
            "iterations": ev.iterations,
            "seed": ev.seed,
            "best_restart": ev.best_restart,
            "converged": ev.converged,
            "best_state": ev.state.vector,
        },
    }


#: Values a one-line list may hold; a complex number is a pair, so it may not.
_SCALARS = (type(None), bool, int, float, str, np.bool_, np.integer, np.floating)


def _float_texts(xs) -> list[str]:
    """Finite floats, -0.0 already folded, at 17 significant digits; an
    integral one gains ".0"."""
    return [s if "." in s or "e" in s else s + ".0" for s in map(format, xs, repeat(".17g"))]


def dumps_report(obj) -> str:
    """Deterministic JSON text of task results as the runners return them.

    Dicts keep insertion order, nested lines indent by 2 spaces, and a list,
    tuple or 1-d array of scalars sits on one line.  Floats carry 17
    significant digits, -0.0 is written 0.0, and a non-finite float raises
    ValueError.  A complex number is an [re, im] pair, so a complex array is
    written as a real one with a trailing axis of 2.  Besides these, only
    None, bool, int and str (or their numpy kinds) are accepted; anything
    else raises TypeError.
    """
    out: list[str] = []
    _write(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _write(obj, out: list, indent: int) -> None:
    """Append the text of ``obj`` to ``out``, its nested lines ``indent`` levels deep."""
    if isinstance(obj, (float, complex, np.floating, np.complexfloating)):
        obj = np.asarray(obj)
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "fc":
        # One finiteness check and one -0.0 fold per array, not per entry.
        with np.errstate(over="ignore"):  # a longdouble past binary64 casts to inf, rejected below
            a = np.asarray(np.stack((obj.real, obj.imag), axis=-1) if obj.dtype.kind == "c" else obj, dtype=float)
        if not np.isfinite(a).all():
            raise ValueError(f"cannot emit non-finite float {float(a[~np.isfinite(a)][0])!r}")
        a = a + 0.0
        if a.ndim == 0:
            out.append(_float_texts([float(a)])[0])
            return
        if a.ndim == 1:
            out.append("[" + ", ".join(_float_texts(a.tolist())) + "]")
            return
        if a.ndim == 2 and a.size:
            # The block's texts in one pass, then taken a row's length at a time.
            texts = iter(_float_texts(a.ravel().tolist()))
            inner = "  " * (indent + 1)
            rows = [inner + "[" + ", ".join(row) + "]" for row in zip(*[texts] * a.shape[1])]
            out.append("[\n" + ",\n".join(rows) + "\n" + "  " * indent + "]")
            return
        obj = list(a)
    elif isinstance(obj, np.ndarray):
        obj = obj.tolist()  # integer, boolean and object arrays
    if isinstance(obj, dict):
        brackets, items = "{}", [(json.dumps(str(k)) + ": ", v) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        values = [v[()] if isinstance(v, np.ndarray) and v.ndim == 0 else v for v in obj]
        if values and all(isinstance(v, _SCALARS) for v in values):
            parts: list[str] = []
            for v in values:
                _write(v, parts, 0)
            out.append("[" + ", ".join(parts) + "]")
            return
        brackets, items = "[]", [("", v) for v in values]
    else:  # None, bool, int or str
        out.append(json.dumps(obj.item() if isinstance(obj, np.generic) else obj))
        return
    if not items:
        out.append(brackets)
        return
    inner = "  " * (indent + 1)
    out.append(brackets[0] + "\n")
    for i, (prefix, v) in enumerate(items):
        out.append(inner + prefix)
        _write(v, out, indent + 1)
        out.append(",\n" if i < len(items) - 1 else "\n")
    out.append("  " * indent + brackets[1])


# ---------------------------------------------------------------------------
# execution


def execute_scenario(scenario: Scenario, seed_override: int | None = None) -> tuple[dict, bool]:
    """Run all tasks in order; returns (report dict, all_ok).

    Each entry holds the task's arguments and result as they are, for
    :func:`dumps_report` to write, and ``timing.wall_clock_s`` times each
    task's run alone.
    """
    opt = scenario.effective_optimizer(seed_override)
    results = []
    wall = []
    ok = True
    for tspec in scenario.tasks:
        td = TASKS[tspec.name]
        entry = {"task": tspec.name, "args": tspec.args}
        t0 = time.perf_counter()
        try:
            entry["status"] = "ok"
            entry["result"] = td.run(scenario, tspec.args, opt)
        except Exception as exc:
            ok = False
            entry["status"] = "error"
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
        wall.append(time.perf_counter() - t0)
        results.append(entry)
    report = {
        "tool": TOOL_NAME,
        "version": __version__,
        "scenario": scenario.name,
        "seed": opt.seed,
        "results": results,
        "timing": {"wall_clock_s": wall},
    }
    return report, ok


def _check_out(out: Path) -> None:
    """Reject a report path that cannot be written, before any task runs."""
    if out.is_dir():
        raise ScenarioError(f"{str(out)!r} is a directory", field="out")
    if not out.parent.is_dir():
        raise ScenarioError(f"directory {str(out.parent)!r} of {str(out)!r} does not exist", field="out")


def run_scenario(path, out=None, seed: int | None = None) -> int:
    """Load, validate and execute a scenario file; write the report.

    Returns the process exit code: 0 on success, 2 on validation errors
    (nothing is written) or when writing the report fails, 3 when
    some task failed at runtime (the report, including error records, is
    still written).  The report goes to ``out`` when given, else to stdout;
    an ``out`` that is a directory, or lies in a directory that does not
    exist, is a validation error.
    """
    import sys

    try:
        if out is not None:
            _check_out(Path(out))
        scenario = load_scenario(path)
        validate_scenario(scenario)
        report, ok = execute_scenario(scenario, seed_override=seed)  # raises only for the --seed override
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    text = dumps_report(report)
    where = "stdout: cannot write report" if out is None else f"out: cannot write report to {str(out)!r}"
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()  # a report short enough to stay buffered would fail only at exit
        else:
            Path(out).write_text(text)
    except OSError as exc:
        print(f"scenario error: {where}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# shipped fixtures


def shipped_scenarios() -> dict:
    """Name -> filesystem path of the scenario files shipped in the package."""
    from importlib.resources import files

    base = files("ncprob") / "scenarios"
    out = {}
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".scenario"):
            out[entry.name.removesuffix(".scenario")] = Path(str(entry))
    return out


def resolve_scenario_path(spec: str):
    """A filesystem path if it exists, else a shipped scenario by name."""
    p = Path(spec)
    if p.exists():
        return p
    shipped = shipped_scenarios()
    name = spec.removesuffix(".scenario")
    if name in shipped:
        return shipped[name]
    return None
