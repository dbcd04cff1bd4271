"""One-parameter flows acting on explicit solutions.

Every normal-form generator integrates to an affine flow on
(x, y, z, u).  Exponentiating the generator, checking the group law
and equivariance of S2 under the flow, and pushing a known solution
through it are all mechanical; the interesting part is the scale
factor e^(rate*t) that f must absorb, with rate fixed by the field's
scaling weights.
"""

from fractions import Fraction

from hessym import apply_case, case_by_id, tian_base, verify_case
from hessym.fields import E4, vf
from hessym.catalog import flow_cases
from hessym.flows import equivariance_weight

print(f"{'case':>4} {'row':<6} {'rate':>5}  readings matched")
for case in flow_cases():
    chk = verify_case(case)
    matched = ", ".join(f"({s:+d},{m})" for s, m in chk.matched_readings)
    row = case.row_id or "-"
    print(f"{case.case_id:>4} {row:<6} {float(chk.weight_rate):>+5.0f}  {matched}")

# The scaling weight comes straight from the field components.
print("\nrate for pure dilation:",
      equivariance_weight(vf(E4, x="x", y="y", z="z")))
print("rate for u-translation:", equivariance_weight(vf(E4, u="1")))

# Push the quadratic base solution through the x-dilation flow
# (case 14).  S2 picks up the predicted constant factor.
u0 = tian_base(Fraction(3, 4), Fraction(-1, 2), Fraction(5, 4), with_bump=False)
out = apply_case(14, 0.6, u0)
print(f"\ncase 14 at t=0.6:")
print(f"  transformed u:  {out.transformed_text}")
print(f"  S2 factor:      {out.s2_factor:.6f} = exp({out.weight_rate}*t)")
print(f"  check residual: {out.check.max_residual:.2e} over {out.check.n_points} points")
for note in out.notes:
    print(f"  note: {note}")

# A rotation case with a symbolic parameter pinned to a chosen value.
out = apply_case(11, 0.25, u0, values={"b1": 2})
print(f"\ncase 11 (rotation, b1=2) at t=0.25:")
print(f"  transformed u:  {out.transformed_text}")
print(f"  check residual: {out.check.max_residual:.2e}")

# Case-by-case data is exposed for inspection.
case = case_by_id(5)
print(f"\ncase 5 printed data: image {case.image_text}, "
      f"u scale {case.u_scale_text!r}")
