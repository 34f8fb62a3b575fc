"""The deformation pipeline: cubic brackets, graphs, obstructions, complements.

A Dirac-Jacobi structure inside a split Courant-Jacobi algebroid deforms
along L-valued 2-forms.  The engine builds the governing cubic structure by
higher derived brackets, matches Maurer-Cartan solutions with involutive
graphs, detects Kuranishi obstructions order by order, and transports
everything along a change of Lagrangian complement.
"""

from fractions import Fraction

from cjde.cjalg import (
    DeformationForm,
    SplitCJInstance,
    change_complement,
    deformation_brackets,
    graph_frame,
    is_dirac_jacobi,
    mc_residual_form,
)
from cjde.deform import cohomology, extend_mc, kuranishi

print("== an obstructed deformation problem ==")
# dual-side bracket only; found by the seeded search over small instances
obst = SplitCJInstance(0, 3, c_dual={(0, 0, 2): -1, (0, 1, 2): -1}, name="OBST1")
print("H^2 dimension:", cohomology(obst, 2).dimension)
print("H^3 dimension:", cohomology(obst, 3).dimension)

eta = DeformationForm.from_dict(obst, {(1, 2): 1})
coords, rep = kuranishi(obst, eta)
print("Kuranishi class of eta = u2 u3:", rep)

curve = extend_mc(obst, eta, order=4)
print("formal extension obstructed at order:", curve.obstructed_at)

print()
print("== the MC <-> involutivity dictionary ==")
residual = mc_residual_form(obst, eta)
involutive, witness = is_dirac_jacobi(obst, graph_frame(obst, eta))
print("MC residual:", residual)
print("graph of eta involutive:", involutive, " witness:", witness[1])

print()
print("== an unobstructed problem needs genuine higher corrections ==")
dgla = SplitCJInstance(0, 3, c={(1, 0, 1): 1, (2, 0, 2): 1},
                       c_dual={(1, 0, 2): 1}, name="DGLA1")
eta1 = DeformationForm.from_dict(dgla, {(0, 2): 1})
curve = extend_mc(dgla, eta1, order=4)
print("extension coefficients:", [str(c) for c in curve.coefficients])
print("(the order-2 correction is forced; higher orders vanish here)")

print()
print("== changing the Lagrangian complement ==")
heis = SplitCJInstance(0, 2, lam={0: 1}, name="HEIS2")
out = change_complement(heis, {(0, 1): Fraction(1, 2)})
print("Theta_0 =", heis.theta)
print("Theta_1 =", out["theta1"])
inst1 = out["instance"]
zero = inst1.context.algebra.zero()
print("transported dual weights lam~ =",
      [str(inst1.lam_dual.get((a,), zero)) for a in range(inst1.n)])
Q0 = deformation_brackets(heis)
Q1 = deformation_brackets(inst1)
print("old structure curved:", 0 in Q0.arities(), " new structure curved:", 0 in Q1.arities())
print("(the coalgebra isomorphism between the two is exercised in the tests)")
