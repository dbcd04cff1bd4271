"""Replaying the preliminary group classification table.

Each row of the classification pairs a normal-form generator with a
family of right-hand sides f it leaves invariant.  verify_row checks
two things per row: the stated f actually solves the transport
condition for that generator (the ansatz check, exact where possible),
and the lifted generator passes the randomized prolongation test on
S2[u] = f (the symmetry check).  A few rows carry documented
corrections; those are flagged, never silently patched.
"""

from hessym import classification_rows, row_by_id, verify_row

rows = classification_rows()
print(f"classification table: {len(rows)} rows\n")

print(f"{'row':<6} {'constraint':<28} {'f family'}")
for row in rows:
    print(f"{row.row_id:<6} {row.constraint:<28} {row.f_text}")

# Verify one clean row and one flagged row in detail.
for row_id in ("A2", "A11b"):
    row = row_by_id(row_id)
    chk = verify_row(row)
    print(f"\nrow {row_id}: f = {row.f_text}")
    print(f"  ansatz verdicts:   {[str(v) for v in chk.ansatz_verdicts]}")
    print(f"  symmetry residual: {chk.symmetry.max_residual:.2e} "
          f"over {chk.symmetry.n_points} points")
    print(f"  flags:             {list(chk.flags) or 'none'}")
    print(f"  passed:            {chk.passed}")
