"""Walkthrough: exact critical structure of a rank-2 torus action on C^3.

The torus T^2 acts on C^3 with weights (1,0), (0,1), (1,-1), i.e.
(a,b).(z1,z2,z3) = (a z1, b z2, a b^-1 z3), and the momentum map is
shifted so that Phi(0) = (-3, 1).  We enumerate the critical components
of |Phi|^2 exactly, inspect their invariants, and draw the momentum
image with its critical values.
"""

from fractions import Fraction

from momentmorse import (
    component_squares,
    criterion_predicates,
    enumerate_critical_components,
    momentum_value,
    polarization_certificate,
    validate_spec,
)
from momentmorse.cli import format_vector, render_momentum_svg

spec = validate_spec(
    rank=2,
    weights=[((1, 0), 1), ((0, 1), 1), ((1, -1), 1)],
    shift=(-3, 1),
)

print("weights:", [format_vector(w.weight) for w in spec.weights])
print("shift:  ", format_vector(spec.shift))
eta = polarization_certificate(spec)
print("polarization certificate:", format_vector(eta),
      "(all weights pair >= 1 with it, so |Phi|^2 is proper)")
print()

# Every critical value of |Phi|^2 is the foot of the perpendicular from the
# target onto shift + span(F) for some weight flat F (a set of weights
# closed under linear span), kept when the foot lies in the strict cone of
# F.  Four components survive here.  The witness-flats column lists the
# flats of each value; the last one is its generic support.
components = enumerate_critical_components(spec, target=(0, 0))
print(f"{len(components)} critical components of |Phi|^2:")
print("value      f-value  index  minimizing-coords  stab-rank  witness-flats")
for comp in components:
    print(f"{format_vector(comp.value):10s} {str(comp.f_value):8s} "
          f"{comp.index:5d}  {str(comp.minimizing_coords):17s}  "
          f"{comp.stabilizer_rank:9d}  {comp.witnesses}")
print()

# Each component carries an exact point: radial squares q_j = |z_j|^2 / 2
# solving Phi(q) = value with the generic support positive.  The four
# classical criticality tests agree on it, exactly.
for comp in components:
    q = component_squares(spec, comp)
    assert momentum_value(spec, q) == comp.value
    preds = criterion_predicates(spec, q)
    print(f"component {format_vector(comp.value)}: witness squares "
          f"{tuple(str(v) for v in q)} -> predicates {preds}")
print()

# The rank-0 stabilizer of the minimum component is what makes the reduced
# space at (0,0) an honest manifold (a two-sphere; see the next demo).
minimum = [c for c in components if c.value == (Fraction(0), Fraction(0))][0]
print("minimum component: support =", minimum.generic_support,
      "stabilizer rank =", minimum.stabilizer_rank)

svg = render_momentum_svg(spec, (Fraction(0), Fraction(0)))
with open("c3_momentum_image.svg", "w", encoding="utf-8") as fh:
    fh.write(svg)
print("wrote c3_momentum_image.svg (shaded cone, critical rays, dots)")
