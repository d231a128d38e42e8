"""Acceptance suite: eleven end-to-end criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each test also enforces its own wall-clock budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    conjugated_diagonal_pair,
    fourier_pair,
    merged_partition,
    random_density,
    random_hermitian,
    random_unitary,
    singleton_partition,
)
from ncprob import (
    DensityOperator,
    Distribution,
    FiniteProbabilitySpace,
    HermitianOperator,
    NonCommutingError,
    OptimizerConfig,
    PureState,
    RandomVariable,
    ScenarioPair,
    SpectrumPartition,
    TransitionKernel,
    apply_function,
    bayes_violation,
    build_pair,
    certify_noncommutativity,
    chsh_beta,
    commutator_norm,
    density_from_distribution,
    dispersion,
    dispersion_free_state,
    epsilon_entropy,
    gns_construct,
    interference_delta,
    joint_pvm,
    maassen_uffink_bound,
    min_entropy_sum,
    observable_from_distribution,
    partovi_bound,
    pushforward,
    spectral_pvm,
    trace_expectation,
    verify_overlap_bound,
)
from ncprob.hilbert import (
    PAULI_X,
    PAULI_Z,
    fourier_unitary,
    hadamard_unitary,
    operator_norm,
)


@contextmanager
def criterion(num: int, budget_s: float, label: str):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds the {budget_s:g}s budget"
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(
            f"ACCEPTANCE {num:2d} [{status}] {elapsed:6.2f}s / {budget_s:g}s  {label}",
            flush=True,
        )


def test_criterion_01_die_pipeline():
    with criterion(1, 1.0, "die pushforward merge + quantum/classical expectation match"):
        rng = np.random.default_rng(2025)
        printed = RandomVariable(
            "D", {1: 1, 2: 5, 3: 3, 4: 4, 5: 2, 6: 6, 7: 5, 8: 2}
        )
        for _ in range(20):
            q = rng.dirichlet(np.ones(8))
            mu = pushforward(printed, FiniteProbabilitySpace(range(1, 9), q))
            want = (q[0], q[4] + q[7], q[2], q[3], q[1] + q[6], q[5])
            assert mu.support == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
            assert np.max(np.abs(np.array(mu.probs) - want)) <= 1e-12

        support = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        op, pvm = observable_from_distribution(Distribution.uniform(support))
        for _ in range(100):
            p = rng.dirichlet(np.ones(6))
            rho = density_from_distribution(Distribution(support, p), pvm)
            ca, cb, cc = rng.uniform(-1.0, 1.0, size=3)
            f = lambda x: ca * x * x + cb * x + cc
            got = trace_expectation(rho, apply_function(f, op))
            want = float(sum(pi * f(x) for pi, x in zip(p, support)))
            assert abs(got - want) <= 1e-12


def test_criterion_02_maassen_uffink_fourier_sweep():
    with criterion(2, 1.0, "Fourier pairs give ln d; same-basis pairs give 0"):
        for d in range(2, 9):
            a, b = fourier_pair(d)
            assert abs(maassen_uffink_bound(a, b) - math.log(d)) <= 1e-9
        rng = np.random.default_rng(7)
        for _ in range(5):
            d = int(rng.integers(2, 7))
            vals1 = np.sort(rng.choice(np.arange(-9, 10), d, replace=False)).astype(float)
            vals2 = np.sort(rng.choice(np.arange(-9, 10), d, replace=False)).astype(float)
            u = random_unitary(rng, d)
            a = HermitianOperator(u @ np.diag(vals1) @ u.conj().T)
            b = HermitianOperator(u @ np.diag(vals2) @ u.conj().T)
            assert maassen_uffink_bound(a, b) <= 1e-12


def test_criterion_03_partovi_bound():
    with criterion(3, 1.0, "s in [1,2]; shared-eigenvector cells give 0; Pauli value vs oracle"):
        rng = np.random.default_rng(11)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            a = random_hermitian(rng, dim, scale=2.0)
            b = random_hermitian(rng, dim, scale=2.0)
            bound = partovi_bound(a, b, singleton_partition(a), merged_partition(b, rng))
            s = 2.0 * math.exp(-bound / 2.0)
            assert 1.0 - 1e-9 <= s <= 2.0 + 1e-9

        for dim in (3, 4, 5):
            theta = float(rng.uniform(0.2, 1.2))
            rot = np.eye(dim)
            rot[0, 0] = rot[1, 1] = math.cos(theta)
            rot[0, 1], rot[1, 0] = -math.sin(theta), math.sin(theta)
            vals = np.arange(1.0, dim + 1.0)
            a = HermitianOperator(np.diag(vals))
            b = HermitianOperator(rot @ np.diag(vals + dim) @ rot.T)
            ea = SpectrumPartition.singletons(vals)
            eb = SpectrumPartition.singletons(vals + dim)
            assert abs(partovi_bound(a, b, ea, eb)) <= 1e-9

        a = HermitianOperator(PAULI_Z)
        b = HermitianOperator(PAULI_X)
        pm = SpectrumPartition.singletons([-1.0, 1.0])
        plus = np.full((2, 2), 0.5)
        s_oracle = max(
            float(np.linalg.eigvalsh(p + q)[-1])
            for p in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
            for q in (plus, np.eye(2) - plus)
        )
        want = 2.0 * math.log(2.0 / s_oracle)
        assert abs(want - 2.0 * math.log(2.0 / (1.0 + 1.0 / math.sqrt(2.0)))) <= 1e-12
        assert abs(partovi_bound(a, b, pm, pm) - want) <= 1e-9


def test_criterion_04_certification_soundness_concavity_coarsening():
    with criterion(4, 30.0, "no false certifications; entropy concave; coarsening monotone"):
        rng = np.random.default_rng(17)
        opt = OptimizerConfig(restarts=2, max_iters=60)
        false_positives = 0
        for trial in range(200):
            dim = int(rng.integers(2, 5))
            if trial % 2 == 0:
                a, b = conjugated_diagonal_pair(rng, dim)
            else:
                a = random_hermitian(rng, dim, scale=2.0)
                b = random_hermitian(rng, dim, scale=2.0)
            cert = certify_noncommutativity(
                a, b, singleton_partition(a), singleton_partition(b), opt
            )
            if cert.verdict == "noncommuting" and commutator_norm(a, b) <= 1e-9:
                false_positives += 1
        assert false_positives == 0

        for _ in range(500):
            dim = int(rng.integers(2, 6))
            op = random_hermitian(rng, dim)
            part = merged_partition(op, rng)
            rho1, rho2 = random_density(rng, dim), random_density(rng, dim)
            lam = float(rng.uniform(0.05, 0.95))
            mix = DensityOperator(lam * rho1.matrix + (1.0 - lam) * rho2.matrix)
            assert epsilon_entropy(mix, op, part) >= (
                lam * epsilon_entropy(rho1, op, part)
                + (1.0 - lam) * epsilon_entropy(rho2, op, part)
                - 1e-10
            )

        for _ in range(200):
            dim = int(rng.integers(2, 6))
            op = random_hermitian(rng, dim)
            fine = singleton_partition(op)
            coarse = merged_partition(op, rng)
            rho = random_density(rng, dim)
            assert (
                epsilon_entropy(rho, op, coarse)
                <= epsilon_entropy(rho, op, fine) + 1e-12
            )


def bloch_grid_minimum(n_theta=601, n_phi=601):
    """Dense-grid oracle for the Pauli entropy-sum infimum over pure qubit states."""
    theta = np.linspace(0.0, math.pi, n_theta)[:, None]
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi)[None, :]
    pz = np.cos(theta / 2.0) ** 2 + 0.0 * phi
    px = 0.5 * (1.0 + np.sin(theta) * np.cos(phi))

    def h2(p):
        q = np.clip(p, 1e-300, 1.0)
        r = np.clip(1.0 - p, 1e-300, 1.0)
        return -(q * np.log(q) + r * np.log(r))

    return float(np.min(h2(pz) + h2(px)))


def test_criterion_05_optimizer_consistency():
    with criterion(5, 60.0, "optimizer hits the Bloch-grid minimum and never undercuts bounds"):
        a = HermitianOperator(PAULI_Z)
        b = HermitianOperator(PAULI_X)
        pm = SpectrumPartition.singletons([-1.0, 1.0])
        res = min_entropy_sum(a, b, pm, pm)
        grid = bloch_grid_minimum()
        assert abs(res.value - grid) <= 1e-4
        assert abs(res.value - math.log(2.0)) <= 1e-4

        rng = np.random.default_rng(23)
        opt = OptimizerConfig(restarts=6, max_iters=200)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            a = random_hermitian(rng, dim, scale=2.0)
            b = random_hermitian(rng, dim, scale=2.0)
            ea, eb = singleton_partition(a), singleton_partition(b)
            res = min_entropy_sum(a, b, ea, eb, opt)
            assert res.value >= maassen_uffink_bound(a, b) - 1e-4


def test_criterion_06_overlap_chain():
    with criterion(6, 1.0, "Fourier overlap meets exp(-D/2) and the built pair meets D"):
        for d in range(2, 9):
            target = math.log(d)
            chk = verify_overlap_bound(fourier_unitary(d), target)
            assert chk.satisfied
            assert abs(chk.max_overlap - math.exp(-target / 2.0)) <= 1e-12
            sup = np.arange(1.0, d + 1.0)
            uniform = Distribution.uniform(sup)
            t_x, t_y = build_pair(ScenarioPair(uniform, uniform, fourier_unitary(d)))
            assert maassen_uffink_bound(t_x, t_y) >= target - 1e-9


def test_criterion_07_chsh():
    with criterion(7, 10.0, "Tsirelson fixture hits 2*sqrt(2); abelian sides stay classical"):
        a1 = np.kron(PAULI_Z, np.eye(2))
        a2 = np.kron(PAULI_X, np.eye(2))
        b1 = np.kron(np.eye(2), (PAULI_Z + PAULI_X) / math.sqrt(2.0))
        b2 = np.kron(np.eye(2), (PAULI_Z - PAULI_X) / math.sqrt(2.0))
        bell = np.zeros(4)
        bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
        omega = PureState(bell).density()
        assert abs(chsh_beta(a1, a2, b1, b2, omega) - 2.0 * math.sqrt(2.0)) <= 1e-9

        rng = np.random.default_rng(29)
        for _ in range(1000):
            v = random_unitary(rng, 2)
            a1 = np.kron(v @ np.diag(rng.uniform(-1, 1, 2)) @ v.conj().T, np.eye(2))
            a2 = np.kron(v @ np.diag(rng.uniform(-1, 1, 2)) @ v.conj().T, np.eye(2))
            bs = []
            for _ in range(2):
                m = random_hermitian(rng, 2).matrix
                bs.append(np.kron(np.eye(2), m / max(1.0, operator_norm(m))))
            omega = random_density(rng, 4)
            assert chsh_beta(a1, a2, bs[0], bs[1], omega) <= 2.0 + 1e-9


def test_criterion_08_joint_pvm():
    with criterion(8, 5.0, "joint cells are products and marginalize back; non-commuting raises"):
        rng = np.random.default_rng(31)
        for trial in range(100):
            dim = int(rng.integers(2, 6))
            a, b = conjugated_diagonal_pair(rng, dim, repeats=bool(trial % 2))
            joint = joint_pvm(a, b)
            pa = {l.representative: p for l, p in spectral_pvm(a).cells}
            pb = {l.representative: p for l, p in spectral_pvm(b).cells}
            marginals: dict = {}
            for (la, lb), (_, proj) in zip(joint.labels, joint.cells):
                product = pa[la.representative] @ pb[lb.representative]
                assert operator_norm(proj - product) <= 1e-9
                key = la.representative
                marginals[key] = marginals.get(key, 0.0) + proj
            for key, total in marginals.items():
                assert operator_norm(total - pa[key]) <= 1e-9
        with pytest.raises(NonCommutingError):
            joint_pvm(
                HermitianOperator(np.diag([0.0, 1.0])), HermitianOperator(PAULI_X)
            )


def test_criterion_09_gns():
    with criterion(9, 5.0, "full algebras: rep_dim d^2 (faithful) / d (pure); state reproduced"):
        rng = np.random.default_rng(37)
        for d in (2, 3):
            units = []
            for i in range(d):
                for j in range(d):
                    m = np.zeros((d, d), dtype=complex)
                    m[i, j] = 1.0
                    units.append(m)

            for _ in range(3):
                rho = random_density(rng, d)
                rep = gns_construct(units, rho)
                assert rep.rep_dim == d * d
                psi = rep.cyclic_vector.vector
                for _ in range(10):
                    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                    got = complex(psi.conj() @ (rep.represent(x) @ psi))
                    assert abs(got - np.trace(rho.matrix @ x)) <= 1e-9

            for _ in range(3):
                rho = random_density(rng, d, rank=1)
                rep = gns_construct(units, rho)
                assert rep.rep_dim == d
                psi = rep.cyclic_vector.vector
                for _ in range(10):
                    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                    got = complex(psi.conj() @ (rep.represent(x) @ psi))
                    assert abs(got - np.trace(rho.matrix @ x)) <= 1e-9


def test_criterion_10_dispersion_free():
    with criterion(10, 5.0, "every commuting pair admits a dispersion-free joint state"):
        rng = np.random.default_rng(41)
        for trial in range(100):
            dim = int(rng.integers(2, 6))
            a, b = conjugated_diagonal_pair(rng, dim, repeats=bool(trial % 3 == 0))
            state = dispersion_free_state(a, b)
            assert dispersion(state, a) <= 1e-10
            assert dispersion(state, b) <= 1e-10


def test_criterion_11_contextual_diagnostics():
    with criterion(11, 1.0, "joint kernels never violate Bayes; Born-Hadamard interferes by 1/2"):
        rng = np.random.default_rng(43)
        for _ in range(20):
            nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            joint = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny) + 1e-6
            joint /= joint.sum()
            kernel = TransitionKernel.from_joint(joint)
            mu = Distribution(np.arange(nx, dtype=float), joint.sum(axis=1))
            nu = Distribution(np.arange(ny, dtype=float), joint.sum(axis=0))
            assert np.abs(bayes_violation(kernel, mu, nu)).max() <= 1e-12

        alpha = TransitionKernel.from_unitary(hadamard_unitary()).alpha
        sure = Distribution((0.0, 1.0), (1.0, 0.0))
        balanced = Distribution.uniform([0.0, 1.0])
        delta = interference_delta(sure, alpha, balanced)
        assert np.max(np.abs(delta - np.array([0.5, -0.5]))) <= 1e-12

        for _ in range(25):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            alpha = rng.dirichlet(np.ones(nx), size=ny).T
            mu = Distribution(np.arange(nx, dtype=float), rng.dirichlet(np.ones(nx)))
            nu = Distribution(np.arange(ny, dtype=float), rng.dirichlet(np.ones(ny)))
            assert abs(interference_delta(mu, alpha, nu).sum()) <= 1e-12
