"""Certifying non-commutativity from entropy bounds alone.

A strictly positive analytic lower bound on the entropy sum means no
state makes both measurements sharp, which is impossible for commuting
operators, so a positive bound certifies non-commutation.  The numeric
optimizer corroborates but never decides; the commutator norm is logged
as a cross-check.
"""

import numpy as np

from ncprob import (
    Distribution,
    HermitianOperator,
    ScenarioPair,
    SpectrumPartition,
    build_pair,
    certify_noncommutativity,
)
from ncprob.hilbert import PAULI_X, PAULI_Z, fourier_unitary


def show(title, cert):
    print(f"{title}")
    print(f"  overlap bound     : {cert.maassen_uffink:.9f}")
    print(f"  projector bound   : {cert.partovi:.9f}")
    print(f"  numeric infimum   : {cert.numeric_infimum:.9f} "
          f"(consistent: {cert.infimum_consistent})")
    print(f"  commutator norm   : {cert.commutator_norm:.9f}")
    print(f"  verdict           : {cert.verdict}\n")


def main():
    pm = SpectrumPartition.singletons([-1.0, 1.0])
    z, x = HermitianOperator(PAULI_Z), HermitianOperator(PAULI_X)
    show("spin pair (sigma_z, sigma_x), fine partitions:",
         certify_noncommutativity(z, x, pm, pm, operator_names=("sigma_z", "sigma_x")))

    whole = SpectrumPartition.single_cell([-1.0, 1.0])
    show("same pair, all eigenvalues merged into one cell:",
         certify_noncommutativity(z, x, whole, whole, operator_names=("sigma_z", "sigma_x")))
    print("  -> the pair still fails to commute, but these partitions cannot see it:")
    print("     an inconclusive verdict is not a commutation proof.\n")

    vals = np.arange(1.0, 7.0)
    law = Distribution.uniform(vals)
    a, b = build_pair(ScenarioPair(law, law, fourier_unitary(6)))
    parts = SpectrumPartition.singletons(vals)
    show("Fourier-conjugate pair, d = 6:",
         certify_noncommutativity(a, b, parts, parts, operator_names=("T_X", "T_Y")))

    c = HermitianOperator(np.diag([1.0, 2.0, 3.0]))
    d = HermitianOperator(np.diag([4.0, 5.0, 6.0]))
    show("commuting control pair (two diagonals):",
         certify_noncommutativity(
             c, d,
             SpectrumPartition.singletons([1.0, 2.0, 3.0]),
             SpectrumPartition.singletons([4.0, 5.0, 6.0]),
             operator_names=("C", "D"),
         ))


if __name__ == "__main__":
    main()
