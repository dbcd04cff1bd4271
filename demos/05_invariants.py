"""Invariant functions behind the classified right-hand sides.

Each classification row comes from solving X(I) = 0 for the lifted
normal-form generator X acting on (x, y, z, f).  The stated invariants
are checked symbolically (the generator annihilates them with the row
parameters left symbolic), checked for functional independence via the
Jacobian rank at random points, and finally, solvability for f is what
separates rows with an f family from the one that has none.
"""

from hessym import verify_invariants
from hessym.catalog import invariant_datasets
from hessym.expr import ONE, ZERO, to_text

datasets = {d.label: d for d in invariant_datasets()}
checks = {c.label: c for c in verify_invariants()}

for label, ds in datasets.items():
    chk = checks[label]
    gen = " + ".join(f"({to_text(c)})*Z{i + 1}" if c != ONE else f"Z{i + 1}"
                     for i, c in enumerate(ds.coeffs) if c != ZERO)
    print(f"dataset {label}: generator {gen}")
    for text, verdict in zip(ds.invariants, chk.annihilation):
        print(f"  X({text}) = 0: {verdict}")
    print(f"  jacobian rank {chk.jacobian_rank} "
          f"(independent: {chk.jacobian_rank == len(chk.annihilation)})")
    print(f"  solvable for f: {chk.f_solvable} "
          f"(stated: {chk.expected_f_solvable})")
    print(f"  passed: {chk.passed}\n")
