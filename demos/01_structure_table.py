"""Recompute the commutator table of the reduced symmetry algebra.

The equation's symmetry algebra (for constant right-hand side) is
spanned by three translations, three rotations, and two scalings.  Every
bracket [Zi, Zj] lands back in the span, and the resulting 8x8 table is
checked entry by entry against the published one.
"""

from hessym import commutator, reduced_basis, structure_table
from hessym.catalog import PUBLISHED_BRACKETS, Z_NAMES
from hessym.fields import decompose, format_combination

basis = reduced_basis()
table = structure_table(basis)

print("reduced algebra: dimension", len(basis.fields))
for name, field in zip(Z_NAMES, basis.fields):
    print(f"  {name} = {field}")

# Render the full table.  Entry (i, j) holds the coefficients of
# [Zi, Zj] in the Z basis.
print("\ncommutator table:")
header = "      " + "".join(f"{n:>8}" for n in Z_NAMES)
print(header)
for i in range(table.dim):
    cells = []
    for j in range(table.dim):
        text = format_combination(table.c[i][j], Z_NAMES) or "0"
        cells.append(f"{text:>8}")
    print(f"{Z_NAMES[i]:>4}: " + "".join(cells))

# Every entry agrees with the published table.
mismatches = 0
for i in range(8):
    for j in range(8):
        got = format_combination(table.c[i][j], Z_NAMES) or "0"
        want = PUBLISHED_BRACKETS[i][j]
        if got != want:
            mismatches += 1
            print(f"MISMATCH [{Z_NAMES[i]},{Z_NAMES[j]}]: {got} != {want}")
print(f"\npublished-table agreement: {64 - mismatches}/64 entries")

# Spot check: the bracket of a rotation with a translation is another
# translation, computed directly from the fields.
z1, z5 = basis.fields[0], basis.fields[4]
print("\n[Z1, Z5] =", format_combination(decompose(commutator(z1, z5), basis), Z_NAMES))
