"""Entropy bounds for incompatible measurements, and how partitions move them.

Two analytic lower bounds on the entropy sum H(A) + H(B):

* the overlap bound  -2 ln max|<a_i|b_j>|  from the two eigenbases, and
* the projector-sum bound  2 ln(2/s)  with s the largest eigenvalue of
  any P_i + Q_j at a chosen pair of spectrum partitions.

Coarsening a partition can only lower (never raise) the certified
uncertainty: merging all cells into one collapses both bounds to zero.
"""

import math

import numpy as np

from ncprob import (
    Distribution,
    HermitianOperator,
    ScenarioPair,
    SpectrumPartition,
    build_pair,
    maassen_uffink_bound,
    min_entropy_sum,
    partovi_bound,
)
from ncprob.hilbert import PAULI_X, PAULI_Z, fourier_unitary


def main():
    print("Fourier-conjugate pairs: the overlap bound equals ln d")
    for d in (2, 3, 4, 6, 8):
        law = Distribution.uniform(np.arange(1.0, d + 1.0))
        a, b = build_pair(ScenarioPair(law, law, fourier_unitary(d)))
        mu = maassen_uffink_bound(a, b)
        print(f"  d={d}:  bound = {mu:.9f}   ln d = {math.log(d):.9f}")

    a, b = HermitianOperator(PAULI_Z), HermitianOperator(PAULI_X)
    fine = SpectrumPartition.singletons([-1.0, 1.0])
    whole = SpectrumPartition.single_cell([-1.0, 1.0])

    print("\nA spin pair (sigma_z, sigma_x) at different partitions:")
    print(f"  overlap bound (partition-free)        : {maassen_uffink_bound(a, b):.9f}")
    print(f"  projector-sum bound, fine partitions  : {partovi_bound(a, b, fine, fine):.9f}")
    print(f"  projector-sum bound, single cell      : {partovi_bound(a, b, whole, whole):.9f}")
    print("  merging every eigenvalue into one cell makes any state 'certain',")
    print("  so the certified uncertainty collapses to zero.")

    res = min_entropy_sum(a, b, fine, fine)
    print("\nSeeded multi-start search for the minimal entropy sum:")
    print(f"  numeric minimum  : {res.value:.9f}")
    print(f"  ln 2             : {math.log(2.0):.9f}")
    print(f"  restarts         : {res.restarts}, converged: {res.converged}")
    amp = np.round(res.state.vector, 6)
    print(f"  minimizing state : {amp}  (an eigenstate of one of the two)")


if __name__ == "__main__":
    main()
