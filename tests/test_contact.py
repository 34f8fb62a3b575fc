"""Contact model: the coordinate bracket, lifts, Legendre transform, Reeb fields."""

import random

import pytest

from cjde.contact import (
    ContactContext,
    LineDerivation,
    Section,
    bidegree_decompose,
    contract_theta,
    hamiltonian_lift,
    jacobi_bracket,
    legendre_pullback,
    project_P,
    reeb_field,
)
from cjde.gca import ContextMismatch, Derivation

from conftest import (ParametricContext, generic_section, hom_line_derivation,
                      legendre_pushforward, random_base_poly, random_homogeneous_section,
                      random_poly, random_vector_field)


@pytest.fixture
def ctx():
    return ContactContext(1, 2)


def S(ctx, body):
    return ctx.section(body)


# --- the bracket -----------------------------------------------------------


def test_bracket_examples(ctx):
    u1, u2, p = ctx.u(0), ctx.u(1), ctx.p
    pa1, pa2 = ctx.pa(0), ctx.pa(1)
    assert jacobi_bracket(S(ctx, p), S(ctx, u2)) == S(ctx, -u2)
    assert jacobi_bracket(S(ctx, u1), S(ctx, pa1)) == S(ctx, -ctx.algebra.one())
    assert jacobi_bracket(S(ctx, u1), S(ctx, pa2)).is_zero()
    # base pull-backs commute
    rng = random.Random(0)
    for _ in range(10):
        f, g = random_base_poly(ctx, rng), random_base_poly(ctx, rng)
        assert jacobi_bracket(S(ctx, f), S(ctx, g)).is_zero()


def test_bracket_context_mismatch(ctx):
    other = ContactContext(1, 2)
    with pytest.raises(ContextMismatch):
        jacobi_bracket(ctx.section(1), other.section(1))


def test_bracket_bidegree(ctx):
    rng = random.Random(1)
    for _ in range(40):
        s = Section(ctx, random_poly(ctx, rng, weight=3, terms=1))
        t = Section(ctx, random_poly(ctx, rng, weight=3, terms=1))
        b = jacobi_bracket(s, t)
        if s.is_zero() or t.is_zero() or b.is_zero():
            continue
        (bs,) = s.body.bidegree_components()
        (bt,) = t.body.bidegree_components()
        (bb,) = b.body.bidegree_components()
        assert bb == (bs[0] + bt[0] - 1, bs[1] + bt[1] - 1)


def test_bracket_skew_and_jacobi(ctx):
    rng = random.Random(2)
    count = 0
    while count < 80:
        a = random_homogeneous_section(ctx, rng)
        b = random_homogeneous_section(ctx, rng)
        c = random_homogeneous_section(ctx, rng)
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        count += 1
        da, db = a.degree() - 2, b.degree() - 2
        skew = jacobi_bracket(a, b) + jacobi_bracket(b, a).scale((-1) ** (da * db))
        assert skew.is_zero()
        jac = jacobi_bracket(a, jacobi_bracket(b, c)) \
            - jacobi_bracket(jacobi_bracket(a, b), c) \
            - jacobi_bracket(b, jacobi_bracket(a, c)).scale((-1) ** (da * db))
        assert jac.is_zero()


@pytest.mark.parametrize("m, n", [(1, 2), (2, 2), (1, 3)])
def test_even_jacobi_and_skew_on_generic_sections(m, n):
    """{a,{b,c}} - {b,{a,c}} - {{a,b},c} = 0 and {a,b} + {b,a} = 0 for all
    sections a, b of degree 2 (even: |s| = deg s - 2) and c of degree 1 or 0.

    Why two letters suffice: {f, g} = sum_k C_k dg/dk + C_0 g with the C's
    linear in f and its first partials, so the bracket is bilinear and of
    order <= 1 in each argument.  The Jacobiator is then trilinear and of
    order <= 2 in each argument, and skew symmetry of order <= 1.  A monomial
    of a fixed degree is g N, g a monomial in the x's (degree 0) and N one of
    finitely many monomials in the other generators (degree >= 1 each).  An
    operator of order <= 2 takes g N to sum_{|beta| <= 2} E_beta d^beta g with
    E_beta independent of g, so it vanishes for every g once it does for g =
    1, x_i and x_i x_j.  Argument by argument, the identity holds for all
    sections once it holds on every tuple of monomials with at most 2 letters
    among the x's, and so on generic sections with that bound.  The controls
    flip one sign of each identity and must leave a nonzero residual."""
    ctx = ParametricContext(m, n, 140)  # (2, 2) takes 54 + 54 + 24 + 6
    a, b = generic_section(ctx, 2, 2), generic_section(ctx, 2, 2)
    ab, ba = jacobi_bracket(a, b), jacobi_bracket(b, a)
    assert (ab + ba).is_zero()
    assert not (ab - ba).is_zero()
    for degree in (1, 0):
        c = generic_section(ctx, degree, 2)
        left = jacobi_bracket(a, jacobi_bracket(b, c)) - jacobi_bracket(b, jacobi_bracket(a, c))
        right = jacobi_bracket(ab, c)
        assert (left - right).is_zero()
        assert not (left + right).is_zero()


# --- Hamiltonian lift ------------------------------------------------------


def test_lift_examples(ctx):
    one = LineDerivation(ctx, 0, ctx.algebra.one(),
                         [ctx.algebra.zero()] * ctx.m, [ctx.algebra.zero()] * ctx.n)
    assert hamiltonian_lift(one) == S(ctx, ctx.p)
    delta_a = LineDerivation(ctx, -1, ctx.algebra.zero(),
                             [ctx.algebra.zero()] * ctx.m,
                             [ctx.algebra.one(), ctx.algebra.zero()])
    assert hamiltonian_lift(delta_a) == S(ctx, ctx.pa(0))
    # HEIS2-style: d mu = u^1 mu
    d = LineDerivation(ctx, 1, ctx.u(0),
                       [ctx.algebra.zero()] * ctx.m, [ctx.algebra.zero()] * ctx.n)
    assert hamiltonian_lift(d) == S(ctx, ctx.u(0) * ctx.p)


def test_lift_rejects_momenta(ctx):
    with pytest.raises(ValueError):
        LineDerivation(ctx, 0, ctx.p, [ctx.algebra.zero()] * ctx.m,
                       [ctx.algebra.zero()] * ctx.n)


def test_lift_identities_100(ctx):
    rng = random.Random(3)
    for _ in range(100):
        d1 = hom_line_derivation(ctx, rng, rng.choice([0, 1, 2]))
        d2 = hom_line_derivation(ctx, rng, rng.choice([0, 1, 2]))
        lam = S(ctx, random_base_poly(ctx, rng))
        lam2 = S(ctx, random_base_poly(ctx, rng))
        h1, h2 = hamiltonian_lift(d1), hamiltonian_lift(d2)
        assert jacobi_bracket(h1, h2) == -hamiltonian_lift(d1.commutator(d2))
        assert jacobi_bracket(h1, lam) == -d1(lam)
        assert jacobi_bracket(lam, lam2).is_zero()


# --- projection and bidegrees ---------------------------------------------


def test_project_examples(ctx):
    u1, u2, p = ctx.u(0), ctx.u(1), ctx.p
    assert project_P(S(ctx, u1 * u2)) == S(ctx, u1 * u2)
    assert project_P(S(ctx, u1 * p)).is_zero()
    mixed = S(ctx, u1 * u2 + ctx.pa(0) * ctx.pa(1) * u2)
    assert project_P(mixed) == S(ctx, u1 * u2)
    rng = random.Random(4)
    for _ in range(20):
        s = Section(ctx, random_poly(ctx, rng))
        assert project_P(project_P(s)) == project_P(s)


def test_bidegree_decompose(ctx):
    u1, u2, p = ctx.u(0), ctx.u(1), ctx.p
    parts = bidegree_decompose(S(ctx, u1 * p))
    assert set(parts) == {(1, 2)}
    parts = bidegree_decompose(S(ctx, u1 * u2 + ctx.pa(0) * u2))
    assert set(parts) == {(0, 2), (1, 1)}
    assert bidegree_decompose(ctx.zero_section()) == {}
    rng = random.Random(5)
    for _ in range(15):
        s = Section(ctx, random_poly(ctx, rng))
        total = ctx.zero_section()
        for comp in bidegree_decompose(s).values():
            total = total + comp
        assert total == s


# --- Legendre transform -----------------------------------------------------


def test_legendre_generator_images(ctx):
    mir = ctx.mirror
    assert legendre_pullback(mir.section(mir.p), ctx) == \
        S(ctx, ctx.p - ctx.u(0) * ctx.pa(0) - ctx.u(1) * ctx.pa(1))
    assert legendre_pullback(mir.section(mir.u(0)), ctx) == S(ctx, ctx.pa(0))
    assert legendre_pullback(mir.section(mir.pa(1)), ctx) == S(ctx, ctx.u(1))
    assert legendre_pullback(mir.section(mir.pi(0)), ctx) == S(ctx, ctx.pi(0))


def test_legendre_involution(ctx):
    mir = ctx.mirror
    rng = random.Random(6)
    for _ in range(20):
        s = Section(ctx, random_poly(ctx, rng))
        roundtrip = legendre_pullback(legendre_pullback(s, mir), ctx)
        assert roundtrip == s


def test_legendre_bracket_morphism_100(ctx):
    mir = ctx.mirror
    rng = random.Random(7)
    for _ in range(100):
        s = Section(mir, random_poly(mir, rng, weight=3))
        t = Section(mir, random_poly(mir, rng, weight=3))
        lhs = jacobi_bracket(legendre_pullback(s, ctx), legendre_pullback(t, ctx))
        assert lhs == legendre_pullback(jacobi_bracket(s, t), ctx)


def test_legendre_dimension_mismatch(ctx):
    other = ContactContext(0, 2)
    with pytest.raises(ContextMismatch):
        legendre_pullback(other.section(1), ctx)


def test_legendre_preserves_contact_form_50(ctx):
    """(F^* theta~)(X) = theta(X) for 50 random vector fields."""
    mir = ctx.mirror
    rng = random.Random(8)
    for _ in range(50):
        X = random_vector_field(ctx, rng)
        FX = legendre_pushforward(X, mir)
        assert legendre_pullback(contract_theta(mir, FX), ctx) == contract_theta(ctx, X)


# --- Reeb fields -------------------------------------------------------------


def test_reeb_examples(ctx):
    X = reeb_field(S(ctx, ctx.algebra.one()))
    assert X.values[ctx.ix_p] == ctx.algebra.one()
    assert all(X.values[i].is_zero() for i in range(len(ctx.algebra.gens))
               if i != ctx.ix_p)
    Xp = reeb_field(S(ctx, ctx.p))
    assert Xp.values[ctx.ix_p] == ctx.p
    assert Xp.values[ctx.ix_pa[0]] == ctx.pa(0)
    assert Xp.values[ctx.ix_pi[0]] == ctx.pi(0)


def test_reeb_field_is_a_plain_derivation(ctx):
    # no subclass and no scalar: a value on every generator, degree |lam| - 2
    X = reeb_field(S(ctx, ctx.u(0) * ctx.p))
    assert type(X) is Derivation and X.scalar is None and X.degree == 1
    assert set(X.values) == set(range(len(ctx.algebra.gens)))


def test_contract_theta_rejects_a_field_from_another_context(ctx):
    mir = ctx.mirror
    lam = mir.section(mir.u(0))
    Y = reeb_field(lam)
    with pytest.raises(ContextMismatch):
        contract_theta(ctx, Y)
    assert contract_theta(mir, Y) == -lam


def test_reeb_rejects_inhomogeneous(ctx):
    with pytest.raises(ValueError):
        reeb_field(S(ctx, ctx.p + ctx.u(0)))


def test_reeb_contraction(ctx):
    rng = random.Random(9)
    count = 0
    while count < 40:
        lam = random_homogeneous_section(ctx, rng)
        if lam.is_zero():
            continue
        count += 1
        sign = (-1) ** (lam.degree() % 2)
        assert contract_theta(ctx, reeb_field(lam)) == lam.scale(sign)


def test_reeb_commutator_consistency(ctx):
    rng = random.Random(10)
    count = 0
    while count < 40:
        l1 = random_homogeneous_section(ctx, rng)
        l2 = random_homogeneous_section(ctx, rng)
        if l1.is_zero() or l2.is_zero():
            continue
        count += 1
        sign = (-1) ** ((l1.degree() + l2.degree()) % 2)
        lhs = jacobi_bracket(l1, l2)
        rhs = contract_theta(ctx, reeb_field(l1).commutator(reeb_field(l2))).scale(sign)
        assert lhs == rhs


def test_bracket_is_reeb_field_plus_zeroth_order_term(ctx):
    # {lam, g} = X_lam(g) - dlam/dp g: the bracket's first-order coefficients
    # are the Reeb field's values, kept on lam whichever of the two asks first
    rng = random.Random(11)
    count = 0
    while count < 30:
        lam = random_homogeneous_section(ctx, rng)
        g = random_homogeneous_section(ctx, rng).body
        if lam.is_zero():
            continue
        count += 1
        if count % 2:
            X = reeb_field(lam)
            bracket = jacobi_bracket(lam, S(ctx, g)).body
        else:
            bracket = jacobi_bracket(lam, S(ctx, g)).body
            X = reeb_field(lam)
        assert bracket == X(g) - lam.body.partial(ctx.ix_p) * g
    # the bracket operator is a Derivation of no degree, memoised without a __dict__
    op = lam._hamiltonian()
    assert isinstance(op, Derivation) and op.degree is None and not hasattr(op, "__dict__")
    with pytest.raises(TypeError):
        op.commutator(X)
