"""The in-process workload ``certify_fourier``.

It builds all of its inputs itself, hands the library only those inputs,
and checks every output against an oracle that does not come from the
library's own results.  A pass is a fixed list of operations; a run
measures whole passes so that every run mixes the operation kinds in the
same proportions.
"""

from __future__ import annotations

import math

import numpy as np

from ncprob import (
    Distribution,
    OptimizerConfig,
    SpectrumPartition,
    build_pair,
    certify_noncommutativity,
    commutator_norm,
    epsilon_entropy,
    fourier_unitary,
    maassen_uffink_bound,
    min_entropy_sum,
    partovi_bound,
    spectral_pvm,
)
from ncprob.construct import ScenarioPair

from tracer import NullTracer

NULL_TRACER = NullTracer()

#: Shift applied to expected values by the self-test, which must then see
#: every affected operation fail.
SABOTAGE_SHIFT = 1e-3


class CertifyFourier:
    """``certify_noncommutativity`` on Fourier-conjugate pairs, plus one
    commuting control per pass.  d = 64 is left out: one certification
    there takes about 20 s on a 2-CPU machine and would dominate every
    run.

    Every certification uses the library's default optimizer seed.  The
    minimiser's work depends strongly on that seed (at d = 8, 195 to 407
    iterations over seeds 0..29, and time follows iterations), so a seed
    drawn per operation would make each run's median hinge on the dozen
    seeds it drew.  The workload seed orders the operations of each pass."""

    dims = (2, 4, 8, 16, 32)
    control_dim = 8
    #: The headline configuration; its seed is the library default.
    opt = OptimizerConfig(restarts=8, max_iters=300, tol=1e-8)

    def __init__(self, seed: int, smoke: bool = False, sabotage: bool = False):
        self.seed = seed
        self.shift = SABOTAGE_SHIFT if sabotage else 0.0
        if smoke:
            self.dims = (2, 4)
        self.inputs = {d: self._pair(d, fourier_unitary(d)) for d in self.dims}
        self.control = self._pair(self.control_dim, np.eye(self.control_dim))

    @staticmethod
    def _pair(d: int, unitary) -> tuple:
        support = list(range(1, d + 1))
        law = Distribution.uniform(support)
        return ScenarioPair(law, law, unitary), SpectrumPartition.singletons(support)

    def pass_ops(self, k: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, k])
        ops = [{"kind": "fourier", "d": d, "tag": f"d{d}", "input": self.inputs[d]} for d in self.dims]
        ops.append({"kind": "control", "d": self.control_dim, "tag": None, "input": self.control})
        return [ops[i] for i in rng.permutation(len(ops))]

    def warm_up(self) -> None:
        for op in self.pass_ops(0):
            if op["d"] <= self.control_dim:
                self.run(op, NULL_TRACER)

    def run(self, op: dict, tracer) -> dict:
        pair, part = op["input"]
        with tracer.span("construct.build_pair"):
            a, b = build_pair(pair)
        with tracer.span("eur.certify"):
            cert = certify_noncommutativity(a, b, part, part, self.opt)
        return {"a": a, "b": b, "cert": cert}

    def replay(self, op: dict, out: dict, tracer) -> None:
        """Repeat the certificate's component calls, each under its own span."""
        a, b = out["a"], out["b"]
        part = op["input"][1]
        for x in (a, b):
            with tracer.span("hilbert.spectral_pvm", replay=True):
                spectral_pvm(x)
        with tracer.span("eur.maassen_uffink_bound", replay=True):
            maassen_uffink_bound(a, b, part, part)
        with tracer.span("eur.partovi_bound", replay=True):
            partovi_bound(a, b, part, part)
        with tracer.span("eur.min_entropy_sum", replay=True) as rec:
            rec["iterations"] = min_entropy_sum(a, b, part, part, self.opt).iterations
        with tracer.span("hilbert.commutator_norm", replay=True):
            commutator_norm(a, b)
        state = out["cert"].optimizer_evidence.state
        for x in (a, b):
            with tracer.span("eur.epsilon_entropy", replay=True):
                epsilon_entropy(state, x, part)

    def check(self, op: dict, out: dict) -> list[str]:
        cert = out["cert"]
        fails = []
        if op["kind"] == "control":
            if cert.verdict != "inconclusive":
                fails.append(f"commuting control: verdict {cert.verdict!r}")
            return fails
        d = op["d"]
        if cert.verdict != "noncommuting":
            fails.append(f"d={d}: verdict {cert.verdict!r}")
        want = math.log(d) + self.shift
        if abs(cert.maassen_uffink - want) > 1e-9:
            fails.append(f"d={d}: MU {cert.maassen_uffink!r} != ln d")
        if cert.numeric_infimum < cert.maassen_uffink - 1e-9:
            fails.append(f"d={d}: infimum {cert.numeric_infimum!r} undercuts MU")
        return fails
