"""A tour of the graded contact algebra underlying everything else.

The coordinate algebra has base coordinates x^i, odd fiber coordinates u^a,
odd momenta pa_a, and even momenta pi_i and p.  Sections of the (trivialized)
contact line bundle are polynomials times a frame mu, and the canonical
degree -2 Jacobi bracket is given in Darboux coordinates.  Everything is
exact rational arithmetic: every identity printed below holds on the nose.
"""

from cjde.contact import (
    ContactContext,
    LineDerivation,
    contract_theta,
    hamiltonian_lift,
    jacobi_bracket,
    legendre_pullback,
    reeb_field,
)

ctx = ContactContext(m=1, n=2)
S = ctx.section
u1, u2, p, x = ctx.u(0), ctx.u(1), ctx.p, ctx.x(0)

print("== the canonical Jacobi bracket ==")
print("{p mu, u2 mu}        =", jacobi_bracket(S(p), S(u2)))
print("{u1 mu, pa1 mu}      =", jacobi_bracket(S(u1), S(ctx.pa(0))))
print("{x u1 mu, pa1 p mu}  =", jacobi_bracket(S(x * u1), S(ctx.pa(0) * p)))

print()
print("== Hamiltonian lifts encode derivations of the line bundle ==")
# d mu = u^1 mu, d x = u^2, d u^a = 0: a typical degree-1 derivation
d = LineDerivation(ctx, 1, u1, [u2], [ctx.algebra.zero(), ctx.algebra.zero()])
h = hamiltonian_lift(d)
print("h_d =", h)
lam = S(x * x)
print("{h_d, pi* (x^2 mu)}  =", jacobi_bracket(h, lam), "  (equals -pi*(d(x^2 mu)))")
print("-pi*(d (x^2 mu))     =", d(lam).scale(-1))

print()
print("== Reeb vector fields ==")
lam = S(u1)
X = reeb_field(lam)
print("Reeb field of u1 mu acts on p as", X.values[ctx.ix_p],
      "and on pa1 as", X.values[ctx.ix_pa[0]])
print("iota_X theta =", contract_theta(ctx, X), " (= (-1)^{|u1|} u1 mu)")

print()
print("== the Legendre transform swaps the two bundle structures ==")
mir = ctx.mirror
print("F* p~  =", legendre_pullback(mir.section(mir.p), ctx))
print("F* u~1 =", legendre_pullback(mir.section(mir.u(0)), ctx))
s, t = mir.section(mir.u(0) * mir.p), mir.section(mir.pa(1))
lhs = jacobi_bracket(legendre_pullback(s, ctx), legendre_pullback(t, ctx))
rhs = legendre_pullback(jacobi_bracket(s, t), ctx)
print("F* is a bracket morphism:", lhs == rhs)
