"""Scenario files and deterministic reports.

A scenario is a JSON document (conventionally ``*.scenario``) declaring
named distributions, spaces, variables, partitions, contexts, a unitary,
an optimizer configuration, and an ordered task list.  Running it yields
a report whose numeric content is deterministic byte-for-byte for a
fixed scenario, seed, and platform; wall-clock readings are isolated in
a trailing ``timing`` section so they can be excluded from comparisons.

Floats are emitted with 17 significant digits (lossless for binary64);
complex entries appear as two-element ``[re, im]`` arrays.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import construct, eur, hilbert
from .classical import (
    Distribution,
    Event,
    FiniteProbabilitySpace,
    RandomVariable,
    lln_frequency,
    pushforward,
    shannon_entropy,
)
from .errors import ScenarioError
from .eur import OptimizerConfig, SpectrumPartition
from .hilbert import DensityOperator, HermitianOperator, PureState

#: Environment variable overriding the optimizer restart count for a CLI
#: run.  Takes precedence over the scenario file's value.
RESTARTS_ENV_VAR = "NCPROB_RESTARTS"

TOOL_NAME = "ncprob"

#: Largest accepted scenario dimension: a d x d complex unitary at this
#: size is 16 MiB, while an unchecked d can ask for terabytes at load.
MAX_DIMENSION = 1024
#: Largest accepted ``lln`` trial count (80 MB of draws).
MAX_TRIALS = 10_000_000


def _tool_version() -> str:
    from . import __version__

    return __version__


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
    unitary_kind: str
    unitary: np.ndarray
    partitions: dict
    contexts: dict
    kernel: construct.TransitionKernel | None
    optimizer: OptimizerConfig
    tasks: list

    def effective_optimizer(self, seed_override: int | None = None) -> OptimizerConfig:
        """The optimizer config after CLI/environment overrides."""
        cfg = self.optimizer
        restarts = cfg.restarts
        env = os.environ.get(RESTARTS_ENV_VAR)
        if env is not None:
            try:
                restarts = int(env)
            except ValueError:
                raise ScenarioError(
                    f"environment override {RESTARTS_ENV_VAR}={env!r} is not an integer"
                ) from None
            if restarts < 1:
                raise ScenarioError(f"{RESTARTS_ENV_VAR} must be >= 1, got {restarts}")
        seed = cfg.seed if seed_override is None else int(seed_override)
        return OptimizerConfig(
            restarts=restarts, max_iters=cfg.max_iters, tol=cfg.tol, seed=seed
        )


def _parse_outcome(value):
    """JSON object keys are strings; coerce them back to outcome labels."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError:
                return value
    return value


def _expect(mapping, key, types, where, default=None, required=False):
    if key not in mapping:
        if required:
            raise ScenarioError("required field missing", field=f"{where}.{key}")
        return default
    val = mapping[key]
    if types is not None and not isinstance(val, types):
        raise ScenarioError(
            f"expected {getattr(types, '__name__', types)}, got {type(val).__name__}",
            field=f"{where}.{key}",
        )
    return val


def _build_unitary(spec, dimension: int) -> tuple[str, np.ndarray]:
    if spec is None:
        spec = {"kind": "identity"}
    if not isinstance(spec, dict):
        raise ScenarioError("unitary must be an object with a 'kind'", field="unitary")
    kind = _expect(spec, "kind", str, "unitary", required=True)
    if kind == "identity":
        return kind, np.eye(dimension, dtype=complex)
    if kind == "fourier":
        return kind, hilbert.fourier_unitary(dimension)
    if kind == "hadamard":
        if dimension != 2:
            raise ScenarioError(
                f"hadamard unitary requires dimension 2, scenario has {dimension}",
                field="unitary.kind",
            )
        return kind, hilbert.hadamard_unitary()
    if kind == "explicit":
        entries = _expect(spec, "entries", list, "unitary", required=True)
        try:
            rows = [[complex(re, im) for re, im in row] for row in entries]
            m = np.asarray(rows, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(
                f"entries must be rows of [re, im] pairs ({exc})", field="unitary.entries"
            ) from None
        if m.shape != (dimension, dimension):
            raise ScenarioError(
                f"explicit unitary has shape {m.shape}, scenario dimension is {dimension}",
                field="unitary.entries",
            )
        try:
            construct._check_unitary(m)
        except ValueError as exc:
            raise ScenarioError(str(exc), field="unitary.entries") from None
        return kind, m
    raise ScenarioError(f"unknown unitary kind {kind!r}", field="unitary.kind")


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
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}", field=str(p))
    if not isinstance(doc, dict):
        raise ScenarioError("top level must be an object", field=str(p))

    name = _expect(doc, "name", str, "scenario", required=True)
    dimension = _expect(doc, "dimension", int, "scenario", required=True)
    if isinstance(dimension, bool) or dimension < 1:
        raise ScenarioError(f"dimension must be a positive integer, got {dimension!r}", field="dimension")
    if dimension > MAX_DIMENSION:
        raise ScenarioError(f"dimension {dimension} exceeds the limit {MAX_DIMENSION}", field="dimension")

    distributions = {}
    for dname, dspec in (_expect(doc, "distributions", dict, "scenario", default={}) or {}).items():
        where = f"distributions.{dname}"
        if not isinstance(dspec, dict):
            raise ScenarioError("must be an object with support/probs", field=where)
        support = _expect(dspec, "support", list, where, required=True)
        probs = _expect(dspec, "probs", list, where, required=True)
        try:
            distributions[dname] = Distribution(support, probs)
        except (ValueError, TypeError) as exc:
            raise ScenarioError(str(exc), field=where) from None

    spaces = {}
    for sname, sspec in (_expect(doc, "spaces", dict, "scenario", default={}) or {}).items():
        where = f"spaces.{sname}"
        if not isinstance(sspec, dict):
            raise ScenarioError("must be an object with outcomes/weights", field=where)
        outcomes = _expect(sspec, "outcomes", list, where, required=True)
        weights = _expect(sspec, "weights", list, where, required=True)
        try:
            spaces[sname] = FiniteProbabilitySpace(outcomes, weights)
        except (ValueError, TypeError) as exc:
            raise ScenarioError(str(exc), field=where) from None

    variables = {}
    for vname, vspec in (_expect(doc, "variables", dict, "scenario", default={}) or {}).items():
        where = f"variables.{vname}"
        if not isinstance(vspec, dict):
            raise ScenarioError("must be an object with space/values", field=where)
        space_name = _expect(vspec, "space", str, where, required=True)
        if space_name not in spaces:
            raise ScenarioError(f"references unknown space {space_name!r}", field=f"{where}.space")
        values = _expect(vspec, "values", dict, where, required=True)
        table = {_parse_outcome(k): v for k, v in values.items()}
        try:
            rv = RandomVariable(vname, table)
        except (ValueError, TypeError) as exc:
            raise ScenarioError(str(exc), field=f"{where}.values") from None
        missing = [o for o in spaces[space_name].outcomes if o not in rv.values]
        if missing:
            raise ScenarioError(
                f"variable undefined on outcomes {missing!r} of space {space_name!r}",
                field=f"{where}.values",
            )
        variables[vname] = (space_name, rv)

    unitary_kind, unitary = _build_unitary(doc.get("unitary"), dimension)

    partitions = {}
    for pname, groups in (_expect(doc, "partitions", dict, "scenario", default={}) or {}).items():
        where = f"partitions.{pname}"
        if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
            raise ScenarioError("must be a list of value groups", field=where)
        try:
            partitions[pname] = SpectrumPartition.from_groups(groups)
        except Exception as exc:
            raise ScenarioError(str(exc), field=where) from None

    contexts = {}
    for cname, members in (_expect(doc, "contexts", dict, "scenario", default={}) or {}).items():
        where = f"contexts.{cname}"
        if not isinstance(members, list):
            raise ScenarioError("must be a list of outcomes", field=where)
        contexts[cname] = tuple(members)

    kernel = None
    kspec = _expect(doc, "kernel", dict, "scenario", default=None)
    if kspec is not None:
        if kspec.get("from_unitary"):
            try:
                kernel = construct.TransitionKernel.from_unitary(unitary)
            except ValueError as exc:
                raise ScenarioError(str(exc), field="kernel") from None
        else:
            alpha = _expect(kspec, "alpha", list, "kernel", required=True)
            alpha_tilde = _expect(kspec, "alpha_tilde", list, "kernel", required=True)
            try:
                kernel = construct.TransitionKernel(alpha, alpha_tilde)
            except (ValueError, TypeError) as exc:
                raise ScenarioError(str(exc), field="kernel") from None

    ospec = _expect(doc, "optimizer", dict, "scenario", default={}) or {}
    try:
        optimizer = OptimizerConfig(
            restarts=int(ospec.get("restarts", OptimizerConfig.restarts)),
            max_iters=int(ospec.get("max_iters", OptimizerConfig.max_iters)),
            tol=float(ospec.get("tol", OptimizerConfig.tol)),
            seed=int(ospec.get("seed", OptimizerConfig.seed)),
        )
    except (ValueError, TypeError) as exc:
        raise ScenarioError(str(exc), field="optimizer") from None
    if optimizer.restarts < 1 or optimizer.max_iters < 1:
        raise ScenarioError("restarts and max_iters must be >= 1", field="optimizer")

    tasks = []
    raw_tasks = _expect(doc, "tasks", list, "scenario", required=True)
    for i, tspec in enumerate(raw_tasks):
        where = f"tasks[{i}]"
        if not isinstance(tspec, dict):
            raise ScenarioError("each task must be an object", field=where)
        tname = _expect(tspec, "task", str, where, required=True)
        targs = _expect(tspec, "args", dict, where, default={}) or {}
        extra = set(tspec) - {"task", "args"}
        if extra:
            raise ScenarioError(f"unknown keys {sorted(extra)}", field=where)
        tasks.append(TaskSpec(tname, dict(targs)))

    known = {
        "name", "dimension", "distributions", "spaces", "variables", "unitary",
        "partitions", "contexts", "kernel", "optimizer", "tasks",
    }
    extra = set(doc) - known
    if extra:
        raise ScenarioError(f"unknown top-level sections {sorted(extra)}", field="scenario")

    return Scenario(
        name=name,
        dimension=dimension,
        distributions=distributions,
        spaces=spaces,
        variables=variables,
        unitary_kind=unitary_kind,
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
    name: str
    summary: str
    arg_schema: dict  # arg name -> (kind, required: bool, help)
    run: Callable
    check: Callable | None = None  # extra validation: (scenario, args, where) -> None


def _ref(scenario: Scenario, section: str, key: str, where: str):
    table = getattr(scenario, section)
    if not isinstance(key, str):
        raise ScenarioError(f"must name a {section[:-1]}, got {key!r}", field=where)
    if key not in table:
        raise ScenarioError(f"references unknown {section[:-1]} {key!r}", field=where)
    return table[key]


def _need_dim(scenario: Scenario, dist: Distribution, name: str, where: str):
    if len(dist) != scenario.dimension:
        raise ScenarioError(
            f"distribution {name!r} has {len(dist)} values but the scenario dimension is "
            f"{scenario.dimension}",
            field=where,
        )


def _check_partition_covers(part: SpectrumPartition, dist: Distribution, pname: str, dname: str, where: str):
    ground = set(part.ground_values())
    support = set(dist.support)
    if ground != support:
        missing = sorted(support - ground)
        absent = sorted(ground - support)
        bits = []
        if absent:
            bits.append(f"references values {absent} absent from the support of {dname!r}")
        if missing:
            bits.append(f"fails to cover support values {missing} of {dname!r}")
        raise ScenarioError(f"partition {pname!r} " + "; ".join(bits), field=where)


def _operator_pair(scenario: Scenario, args, kx: str, ky: str):
    dx = scenario.distributions[args[kx]]
    dy = scenario.distributions[args[ky]]
    pair = construct.ScenarioPair(dx, dy, scenario.unitary)
    return construct.build_pair(pair)


def _check_pair_task(scenario, args, where, kx="dist_x", ky="dist_y"):
    dx = _ref(scenario, "distributions", args[kx], f"{where}.args.{kx}")
    dy = _ref(scenario, "distributions", args[ky], f"{where}.args.{ky}")
    _need_dim(scenario, dx, args[kx], f"{where}.args.{kx}")
    _need_dim(scenario, dy, args[ky], f"{where}.args.{ky}")


def _check_certify(scenario, args, where):
    _check_pair_task(scenario, args, where)
    eps = _ref(scenario, "partitions", args["eps"], f"{where}.args.eps")
    delta = _ref(scenario, "partitions", args["delta"], f"{where}.args.delta")
    _check_partition_covers(
        eps, scenario.distributions[args["dist_x"]], args["eps"], args["dist_x"], f"{where}.args.eps"
    )
    _check_partition_covers(
        delta, scenario.distributions[args["dist_y"]], args["delta"], args["dist_y"], f"{where}.args.delta"
    )


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
    has_d = "distribution" in args
    has_v = "variable" in args
    if has_d == has_v:
        raise ScenarioError(
            "exactly one of 'distribution' or 'variable' is required", field=f"{where}.args"
        )
    if has_d:
        _ref(scenario, "distributions", args["distribution"], f"{where}.args.distribution")
    else:
        _ref(scenario, "variables", args["variable"], f"{where}.args.variable")


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
        "spectrum_y": np.sort(ty.eigenvalues()),
        "commutator_norm": hilbert.commutator_norm(tx, ty),
    }


def _run_overlap(scenario, args, opt):
    check = construct.verify_overlap_bound(scenario.unitary, float(args["target_bound"]))
    return {
        "max_overlap": check.max_overlap,
        "bound": check.bound,
        "satisfied": check.satisfied,
    }


_CHSH_CONFIGS = ("tsirelson",)


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
    if args["configuration"] not in _CHSH_CONFIGS:
        raise ScenarioError(
            f"unknown configuration {args['configuration']!r}; known: {list(_CHSH_CONFIGS)}",
            field=f"{where}.args.configuration",
        )
    if scenario.dimension != 4:
        raise ScenarioError(
            f"the tsirelson configuration lives on dimension 4, scenario has {scenario.dimension}",
            field=f"{where}.args.configuration",
        )


def _gns_basis(kind: str, d: int):
    if kind == "full":
        basis = []
        for i in range(d):
            for j in range(d):
                m = np.zeros((d, d), dtype=complex)
                m[i, j] = 1.0
                basis.append(m)
        return basis
    basis = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    return basis


def _run_gns(scenario, args, opt):
    d = scenario.dimension
    basis = _gns_basis(args["algebra"], d)
    probs = scenario.distributions[args["state"]].probs
    rho = DensityOperator(np.diag(np.asarray(probs, dtype=complex)))
    rep = hilbert.gns_construct(basis, rho)
    err = max(
        abs(complex(rep.cyclic_vector.vector.conj() @ (img @ rep.cyclic_vector.vector))
            - complex(np.trace(rho.matrix @ m)))
        for img, m in zip(rep.images, basis)
    )
    return {
        "algebra": args["algebra"],
        "algebra_size": len(basis),
        "representation_dim": rep.rep_dim,
        "reproduction_error": float(err),
    }


def _check_gns(scenario, args, where):
    if args["algebra"] not in ("full", "diagonal"):
        raise ScenarioError(
            f"algebra must be 'full' or 'diagonal', got {args['algebra']!r}",
            field=f"{where}.args.algebra",
        )
    dist = _ref(scenario, "distributions", args["state"], f"{where}.args.state")
    _need_dim(scenario, dist, args["state"], f"{where}.args.state")


def _run_interference(scenario, args, opt):
    mu_xc = scenario.distributions[args["mu_xc"]]
    mu_yc = scenario.distributions[args["mu_yc"]]
    delta = construct.interference_delta(mu_xc, scenario.kernel.alpha, mu_yc)
    return {"delta": delta, "sum": float(delta.sum())}


def _check_kernel_task(scenario, args, where, keys):
    if scenario.kernel is None:
        raise ScenarioError("task requires a 'kernel' section", field=f"{where}.args")
    nx, ny = scenario.kernel.shape
    sizes = (nx, ny)
    for key, want in zip(keys, sizes):
        dist = _ref(scenario, "distributions", args[key], f"{where}.args.{key}")
        if len(dist) != want:
            raise ScenarioError(
                f"distribution {args[key]!r} has {len(dist)} values; kernel expects {want}",
                field=f"{where}.args.{key}",
            )


def _run_bayes(scenario, args, opt):
    mu = scenario.distributions[args["mu_x"]]
    nu = scenario.distributions[args["nu_y"]]
    delta = construct.bayes_violation(scenario.kernel, mu, nu)
    return {"delta_matrix": delta, "max_abs": float(np.abs(delta).max())}


def _run_lln(scenario, args, opt):
    space = scenario.spaces[args["space"]]
    event = Event(scenario.contexts[args["event"]])
    trials = int(args["trials"])
    seed = int(args.get("seed", 0))
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
    space = _ref(scenario, "spaces", args["space"], f"{where}.args.space")
    members = _ref(scenario, "contexts", args["event"], f"{where}.args.event")
    stray = [m for m in members if m not in space.outcomes]
    if stray:
        raise ScenarioError(
            f"context {args['event']!r} references outcomes {stray!r} outside space {args['space']!r}",
            field=f"{where}.args.event",
        )
    if not isinstance(args["trials"], int) or args["trials"] < 1:
        raise ScenarioError("trials must be a positive integer", field=f"{where}.args.trials")
    if args["trials"] > MAX_TRIALS:
        raise ScenarioError(
            f"trials {args['trials']} exceeds the limit {MAX_TRIALS}", field=f"{where}.args.trials"
        )


def _run_joint_pvm(scenario, args, opt):
    ta, tb = _operator_pair(scenario, args, "dist_a", "dist_b")
    pvm = hilbert.joint_pvm(ta, tb)
    marg: dict[float, np.ndarray] = {}
    for (ca, _), proj in pvm:
        marg[ca.representative] = marg.get(ca.representative, 0) + proj
    apvm = hilbert.spectral_pvm(ta)
    residual = max(
        float(np.linalg.norm(marg[c.representative] - p, 2))
        for (c, p) in apvm
    )
    return {
        "cells": [[ca.representative, cb.representative] for ca, cb in pvm.labels],
        "ranks": [int(round(float(np.trace(p).real))) for p in pvm.projectors],
        "marginal_residual": residual,
    }


def _run_dispersion_free(scenario, args, opt):
    ta, tb = _operator_pair(scenario, args, "dist_a", "dist_b")
    psi = hilbert.dispersion_free_state(ta, tb)
    return {
        "state": psi.vector,
        "dispersion_a": hilbert.dispersion(psi, ta),
        "dispersion_b": hilbert.dispersion(psi, tb),
    }


def _schema(**kw):
    return kw


TASKS: dict[str, TaskDef] = {}


def _register(name, summary, arg_schema, run, check=None):
    TASKS[name] = TaskDef(name, summary, arg_schema, run, check)


_register(
    "entropy",
    "Law, mean and Shannon entropy (nats) of a named distribution, or of the pushforward of a named variable.",
    _schema(
        distribution="name of a distribution (exclusive with 'variable')",
        variable="name of a variable; its pushforward law is reported",
    ),
    _run_entropy,
    _check_entropy,
)
_register(
    "mu_bound",
    "Overlap-based entropy bound for the operator pair built from two laws and the scenario unitary.",
    _schema(dist_x="first law (required)", dist_y="second law (required)"),
    _run_mu_bound,
    _check_pair_task,
)
_register(
    "partovi_bound",
    "Projector-sum entropy bound at the named spectrum partitions.",
    _schema(
        dist_x="first law (required)",
        dist_y="second law (required)",
        eps="partition of the first spectrum (required)",
        delta="partition of the second spectrum (required)",
    ),
    _run_partovi,
    _check_certify,
)
_register(
    "certify",
    "Full non-commutativity certificate: analytic bounds at the partitions, seeded optimizer evidence, commutator cross-check, verdict.",
    _schema(
        dist_x="law of the first operator (required)",
        dist_y="law of the second operator (required)",
        eps="partition of the first operator's spectrum (required)",
        delta="partition of the second operator's spectrum (required)",
    ),
    _run_certify,
    _check_certify,
)
_register(
    "build_pair",
    "Operators (T_X, T_Y) from two laws and the scenario unitary, with spectrum and commutator norm.",
    _schema(dist_x="first law (required)", dist_y="second law (required)"),
    _run_build_pair,
    _check_pair_task,
)
_register(
    "overlap_check",
    "Whether the scenario unitary's largest entry stays under exp(-target_bound/2).",
    _schema(target_bound="entropy bound the pair should support (required, >= 0)"),
    _run_overlap,
    lambda sc, args, where: None
    if isinstance(args["target_bound"], (int, float)) and float(args["target_bound"]) >= 0
    else (_ for _ in ()).throw(
        ScenarioError("target_bound must be a number >= 0", field=f"{where}.args.target_bound")
    ),
)
_register(
    "chsh",
    "CHSH functional on a shipped two-qubit configuration.",
    _schema(configuration="'tsirelson' (required)"),
    _run_chsh,
    _check_chsh,
)
_register(
    "gns",
    "Cyclic representation of the full or diagonal matrix algebra with a diagonal state built from a named law's probabilities.",
    _schema(
        algebra="'full' or 'diagonal' (required)",
        state="law whose probabilities form the diagonal state (required)",
    ),
    _run_gns,
    _check_gns,
)
_register(
    "interference",
    "Total-probability defect delta(x) of the scenario kernel at two conditional laws.",
    _schema(
        mu_xc="conditional law of the first variable (required)",
        mu_yc="conditional law of the second variable (required)",
    ),
    _run_interference,
    lambda sc, args, where: _check_kernel_task(sc, args, where, ("mu_xc", "mu_yc")),
)
_register(
    "bayes_delta",
    "Bayes-rule violation matrix of the scenario kernel at two marginal laws.",
    _schema(
        mu_x="marginal law of the first variable (required)",
        nu_y="marginal law of the second variable (required)",
    ),
    _run_bayes,
    lambda sc, args, where: _check_kernel_task(sc, args, where, ("mu_x", "nu_y")),
)
_register(
    "lln",
    "Empirical frequency of a context over seeded i.i.d. draws from a named space.",
    _schema(
        space="sample space to draw from (required)",
        event="context whose frequency is tracked (required)",
        trials=f"number of draws (required, positive integer, at most {MAX_TRIALS:,})",
        seed="generator seed (optional, default 0)",
    ),
    _run_lln,
    _check_lln,
)
_register(
    "joint_pvm",
    "Joint spectral measure of the commuting pair built from two laws; errors when the pair does not commute.",
    _schema(dist_a="first law (required)", dist_b="second law (required)"),
    _run_joint_pvm,
    lambda sc, args, where: _check_pair_task(sc, args, where, "dist_a", "dist_b"),
)
_register(
    "dispersion_free",
    "A joint eigenvector of the commuting pair built from two laws, with both dispersions.",
    _schema(dist_a="first law (required)", dist_b="second law (required)"),
    _run_dispersion_free,
    lambda sc, args, where: _check_pair_task(sc, args, where, "dist_a", "dist_b"),
)

_OPTIONAL_ARGS = {("entropy", "distribution"), ("entropy", "variable"), ("lln", "seed")}


def list_tasks() -> str:
    """One line per task name, in registry order."""
    return "\n".join(f"{name}: {TASKS[name].summary}" for name in TASKS)


def describe_task(name: str) -> str:
    """Argument schema of one task; unknown names raise KeyError."""
    td = TASKS[name]
    lines = [f"{td.name}: {td.summary}", "arguments:"]
    for arg, help_text in td.arg_schema.items():
        lines.append(f"  {arg}: {help_text}")
    return "\n".join(lines)


def validate_scenario(scenario: Scenario) -> None:
    """Cross-reference and dimension checks; raises :class:`ScenarioError`."""
    for i, tspec in enumerate(scenario.tasks):
        where = f"tasks[{i}]"
        td = TASKS.get(tspec.name)
        if td is None:
            raise ScenarioError(
                f"unknown task {tspec.name!r}; known: {sorted(TASKS)}", field=where
            )
        unknown = set(tspec.args) - set(td.arg_schema)
        if unknown:
            raise ScenarioError(f"unknown arguments {sorted(unknown)}", field=f"{where}.args")
        for arg in td.arg_schema:
            if arg not in tspec.args and (tspec.name, arg) not in _OPTIONAL_ARGS:
                raise ScenarioError(f"missing required argument {arg!r}", field=f"{where}.args")
        if td.check is not None:
            td.check(scenario, tspec.args, where)


# ---------------------------------------------------------------------------
# serialization


def _payload(value):
    """Convert task results to JSON-emittable structures.

    Complex scalars and complex-typed arrays become [re, im] pairs;
    real-typed arrays stay plain numbers.
    """
    if isinstance(value, dict):
        return {k: _payload(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_payload(v) for v in value]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return _payload([[float(z.real), float(z.imag)] for z in value] if value.ndim == 1
                            else [[[float(z.real), float(z.imag)] for z in row] for row in value])
        return _payload(value.tolist())
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot serialise {type(value).__name__}")


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


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot emit non-finite float {x!r}")
    s = format(x + 0.0, ".17g")  # + 0.0 folds -0.0 into 0.0
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def dumps_report(obj) -> str:
    """Deterministic JSON text: 2-space indent, insertion order, floats at
    17 significant digits."""
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{inner}{json.dumps(str(k))}: ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        simple = all(isinstance(v, (int, float, bool, str, type(None))) for v in obj)
        if simple:
            parts = [_scalar(v) for v in obj]
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(inner)
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(obj))


def _scalar(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot emit {type(obj).__name__}")


# ---------------------------------------------------------------------------
# execution


def execute_scenario(scenario: Scenario, seed_override: int | None = None) -> tuple[dict, bool]:
    """Run all tasks in order; returns (report dict, all_ok)."""
    opt = scenario.effective_optimizer(seed_override)
    results = []
    wall = []
    ok = True
    for tspec in scenario.tasks:
        td = TASKS[tspec.name]
        t0 = time.perf_counter()
        entry = {"task": tspec.name, "args": _payload(tspec.args)}
        try:
            entry["status"] = "ok"
            entry["result"] = _payload(td.run(scenario, tspec.args, opt))
        except Exception as exc:
            ok = False
            entry["status"] = "error"
            entry.pop("result", None)
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
        wall.append(time.perf_counter() - t0)
        results.append(entry)
    report = {
        "tool": TOOL_NAME,
        "version": _tool_version(),
        "scenario": scenario.name,
        "seed": opt.seed,
        "results": results,
        "timing": {"wall_clock_s": wall},
    }
    return report, ok


def run_scenario(path, out=None, seed: int | None = None) -> int:
    """Load, validate and execute a scenario file; write the report.

    Returns the process exit code: 0 on success, 2 on validation errors
    (nothing is written), 3 when some task failed at runtime (the report,
    including error records, is still written).  The report goes to
    ``out`` when given, else to stdout.
    """
    import sys

    try:
        scenario = load_scenario(path)
        validate_scenario(scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    try:
        report, ok = execute_scenario(scenario, seed_override=seed)
    except ScenarioError as exc:  # override-variable problems
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    text = dumps_report(report)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
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
