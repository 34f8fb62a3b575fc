"""From structure functions to the cubic section Theta, and back.

A split Courant-Jacobi algebroid is a package of anchors, brackets,
representation weights and two antisymmetric tensors.  All of it is encoded
in one degree-3 section Theta, and the whole axiom system is equivalent to
the single equation {Theta, Theta} = 0.  The engine checks both sides
independently and confirms they agree.
"""

from fractions import Fraction

from cjde.cjalg import (
    SplitCJInstance,
    check_cj_axioms,
    derived_operations,
    embed_anchored,
    extract_instance,
    pairing,
)

print("== a gauge-algebroid example over a 1-dimensional base ==")
# frame (1, Delta) of the derivations of a trivialized line bundle:
# weight (1,0), anchor (0,1), everything else zero
omni = SplitCJInstance(1, 2, lam={0: 1}, rho={(0, 1): 1}, name="OMNI1")
print("Theta =", omni.theta)

report = check_cj_axioms(omni)
print("{Theta,Theta} = 0:", report.mc_ok)
print("direct axioms (Jacobi-Leibniz + flatness) hold:", report.direct_ok)

print()
print("== a broken structure fails on both sides at once ==")
broken = SplitCJInstance(0, 2, lam={0: 1, 1: 1}, c={(1, 0, 1): 1})
rb = check_cj_axioms(broken)
print("{Theta,Theta} =", rb.mc_residual)
print("first nonzero direct residual:", rb.witness())
print("biconditional holds anyway:", rb.biconditional)

print()
print("== operations recovered from Theta by double brackets ==")
u = embed_anchored(omni, xi=[1, 0], alpha=[0, 0])            # e_1
v = embed_anchored(omni, xi=[0, {(1,): 1}], alpha=[0, 0])    # x e_2
ops = derived_operations(omni, u, v, lam=omni.context.section(1))
print("[[e1, x e2]] =", ops["bracket"])
print("nabla_{e1} mu =", ops["nabla"])
alpha = embed_anchored(omni, xi=[0, 0], alpha=[Fraction(1, 2), 0])
print("<<e1, (1/2) eps^1>> =", pairing(u, alpha))

print()
print("== every cubic section of the right bidegrees is a split structure ==")
ctx = omni.context
weird = ctx.section(ctx.pa(0) * ctx.p + ctx.u(0) * ctx.u(1) * ctx.pa(1))
inst2 = extract_instance(omni, weird, name="extracted")
print("extracted dual weight lam~^1 =", inst2.lam_dual[(0,)])
print("extracted bracket c^2_{12}  =", inst2.c[1][(0, 1)])
