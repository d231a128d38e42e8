"""From two classical laws to a provably incompatible operator pair.

Given two finite laws of equal size and a unitary basis change, build
T_X (diagonal) and T_Y (conjugated diagonal).  If every entry of the
unitary stays below exp(-D/2), the pair's entropy-sum bound reaches D,
and any positive D forces a nonzero commutator: two ordinary dice, one
basis rotation, and no state can sharpen both at once.
"""

import math

import numpy as np

from ncprob import (
    Distribution,
    ScenarioPair,
    build_pair,
    commutator_norm,
    maassen_uffink_bound,
    verify_overlap_bound,
)
from ncprob.hilbert import fourier_unitary, hadamard_unitary


def main():
    target = math.log(2.0)
    u = hadamard_unitary()
    chk = verify_overlap_bound(u, target)
    print(f"two-level example, target bound D = ln 2 = {target:.6f}")
    print(f"  max |U| entry = {chk.max_overlap:.6f}  <=  exp(-D/2) = {chk.bound:.6f}?  "
          f"{chk.satisfied}")

    coin = Distribution.uniform([0.0, 1.0])
    t_x, t_y = build_pair(ScenarioPair(coin, coin, u))
    print("  T_X =", np.round(t_x.matrix.real, 3).tolist())
    print("  T_Y =", np.round(t_y.matrix.real, 3).tolist())
    print(f"  spectrum of T_Y      : {np.round(t_y.eigenvalues(), 12)}")
    print(f"  entropy-sum bound    : {maassen_uffink_bound(t_x, t_y):.6f}  (>= D)")
    print(f"  commutator norm      : {commutator_norm(t_x, t_y):.6f}  (> 0)")

    print("\nthe same chain at d = 6 with the discrete Fourier basis:")
    target = math.log(6.0)
    u = fourier_unitary(6)
    chk = verify_overlap_bound(u, target)
    print(f"  max |U| entry = {chk.max_overlap:.6f}  vs  exp(-D/2) = {chk.bound:.6f}  "
          f"-> satisfied: {chk.satisfied}")
    die = Distribution.uniform(np.arange(1.0, 7.0))
    t_x, t_y = build_pair(ScenarioPair(die, die, u))
    print(f"  entropy-sum bound    : {maassen_uffink_bound(t_x, t_y):.6f}  "
          f"(ln 6 = {target:.6f})")
    print(f"  commutator norm      : {commutator_norm(t_x, t_y):.6f}")

    print("\na stricter target than the unitary can carry fails the check:")
    chk = verify_overlap_bound(u, target + 0.1)
    print(f"  D = ln 6 + 0.1 -> max overlap {chk.max_overlap:.6f} > {chk.bound:.6f} "
          f"-> satisfied: {chk.satisfied}")


if __name__ == "__main__":
    main()
