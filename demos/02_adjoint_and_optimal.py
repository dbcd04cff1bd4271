"""Adjoint actions and reduction to the optimal system.

Ad(exp(eps*Zg)) acts linearly on the algebra.  Hand-computed matrices
(translations shear, rotations rotate, the pure scaling acts trivially,
the anisotropic scaling rescales the translations) are cross-checked
numerically against expm(-eps * ad_g).  Reduction then drives arbitrary
coefficient vectors onto one of the 12 published normal forms.

The expm cross-check uses numpy and scipy, which hessym itself does not
need: `pip install -e '.[test]'`.
"""

import numpy as np

from hessym import adjoint, reduce_to_optimal, reduced_basis, replay
from hessym.catalog import OPTIMAL_PATTERNS, Z_NAMES
from hessym.fields import format_combination, structure_table
from hessym.optimal import replay_deviation

basis = reduced_basis()
table = structure_table(basis)

# The adjoint action of the anisotropic scaling Z8 dilates each
# translation and leaves everything else alone.
ad8 = adjoint(table, 7)
print("Ad(exp(eps*Z8)) images:")
for i, name in enumerate(Z_NAMES):
    image = format_combination(ad8.column(i), Z_NAMES) or "0"
    print(f"  {name} -> {image}")

# Numeric cross-check of the same matrix at a concrete eps.
eps = 0.7
sym = ad8.eval_at(eps)
from scipy.linalg import expm

ad_g = np.array([[float(x) for x in row] for row in table.ad_matrix(7)])
num = expm(-eps * ad_g)
print(f"\nmax |symbolic - expm| at eps={eps}: {np.abs(sym - num).max():.2e}")

# Reduce a generic vector to its normal form and replay the recorded
# adjoint word to confirm the trace is honest.
rng = np.random.default_rng(7)
a = rng.uniform(-2.0, 2.0, size=8)
trace = reduce_to_optimal(a)
print(f"\ninput:   {np.round(a, 3).tolist()}")
print(f"pattern: {trace.pattern} "
      f"(sign {trace.sign}, parameters {trace.parameters})")
print(trace.describe())
print(f"replay deviation: {replay_deviation(trace):.2e}")

# The 12 normal-form patterns, for reference.  Each maps a 1-based
# basis index to its coefficient symbol ('pm' is a fixed sign).
print("\noptimal system patterns:")
for label, pattern in OPTIMAL_PATTERNS.items():
    text = " + ".join(f"{c}*Z{i}" if c != "1" else f"Z{i}"
                      for i, c in sorted(pattern.items()))
    print(f"  {label}: {text}")
