"""Graded-commutative engine: normal forms, Koszul signs, derivations."""

import random
from fractions import Fraction

import pytest

from cjde.contact import ContactContext
from cjde.gca import (
    MAX_FIELD_EXPONENT,
    ContextMismatch,
    Derivation,
    ExponentOverflow,
    UnknownGenerator,
    koszul_sign,
)

from conftest import random_poly


@pytest.fixture
def ctx():
    return ContactContext(1, 2)


def test_normalize_odd_transposition(ctx):
    sign, mono = ctx.algebra.normalize_word(["u2", "u1"])
    assert sign == -1
    assert ctx.algebra.monomial_str(mono) == "u1*u2"


def test_normalize_odd_square_is_zero(ctx):
    sign, mono = ctx.algebra.normalize_word(["u1", "u1"])
    assert mono is None


def test_normalize_even_commutes(ctx):
    sign, mono = ctx.algebra.normalize_word(["p", "u1"])
    assert sign == 1
    assert ctx.algebra.monomial_str(mono) == "u1*p"


def test_normalize_idempotent(ctx):
    rng = random.Random(1)
    for _ in range(50):
        word = [rng.randrange(len(ctx.algebra.gens)) for _ in range(rng.randint(0, 5))]
        sign, mono = ctx.algebra.normalize_word(word)
        if mono is None:
            continue
        letters = [idx for idx, exp in mono for _ in range(exp)]
        again_sign, again = ctx.algebra.normalize_word(letters)
        assert again_sign == 1 and again == mono


def test_unknown_generator(ctx):
    with pytest.raises(UnknownGenerator):
        ctx.algebra.normalize_word(["nope"])


def test_mul_examples(ctx):
    u1, u2, p = ctx.u(0), ctx.u(1), ctx.p
    assert str(u1 * u2) == "u1*u2"
    assert u2 * u1 == -(u1 * u2)
    assert str(p * p) == "p^2"
    assert (u1 + u2) * u1 == -(u1 * u2)


def test_mul_context_mismatch(ctx):
    other = ContactContext(1, 2)
    with pytest.raises(ContextMismatch):
        ctx.u(0) * other.u(0)


def test_koszul_sign_basics():
    assert koszul_sign([1, 0], [1, 1]) == -1       # odd-odd swap
    assert koszul_sign([1, 0], [1, 2]) == 1        # odd-even swap
    # 3-cycle on three odd elements: two transpositions
    assert koszul_sign([1, 2, 0], [1, 1, 1]) == 1
    with pytest.raises(ValueError):
        koszul_sign([0, 1], [1])


def test_koszul_sign_multiplicative():
    rng = random.Random(4)
    degs = [1, 1, 0, 1, 2, 1]
    n = len(degs)
    for _ in range(40):
        s = list(range(n))
        t = list(range(n))
        rng.shuffle(s)
        rng.shuffle(t)
        # composite permutation: first t, then s applied to the result
        comp = [t[s[i]] for i in range(n)]
        degs_after_t = [degs[t[i]] for i in range(n)]
        assert koszul_sign(comp, degs) == \
            koszul_sign(t, degs) * koszul_sign(s, degs_after_t)


def test_associativity_and_commutativity_500(ctx):
    rng = random.Random(2024)
    for _ in range(500):
        f = random_poly(ctx, rng, weight=4, terms=3)
        g = random_poly(ctx, rng, weight=4, terms=3)
        h = random_poly(ctx, rng, weight=4, terms=3)
        assert (f * g) * h == f * (g * h)
        for pf, fc in f.parity_components().items():
            for pg, gc in g.parity_components().items():
                sign = -1 if pf and pg else 1
                assert fc * gc == (gc * fc).scale(sign)


def test_bidegrees_add(ctx):
    rng = random.Random(7)
    for _ in range(30):
        f = random_poly(ctx, rng, weight=3, terms=1)
        g = random_poly(ctx, rng, weight=3, terms=1)
        if f.is_zero() or g.is_zero() or (f * g).is_zero():
            continue
        (bf,) = f.bidegree_components()
        (bg,) = g.bidegree_components()
        (bfg,) = (f * g).bidegree_components()
        assert bfg == (bf[0] + bg[0], bf[1] + bg[1])


def test_partial_examples(ctx):
    u1, u2, p = ctx.u(0), ctx.u(1), ctx.p
    assert (u1 * p).partial(ctx.ix_p) == u1
    assert (u1 * u2).partial(ctx.ix_u[0]) == u2
    # left derivative picks up the sign of the crossing
    assert (u1 * u2).partial(ctx.ix_u[1]) == -u1


def test_derivation_apply_examples(ctx):
    u1, p = ctx.u(0), ctx.p
    # D_a = d/du^a + pa_a d/dp applied to u^1 p
    for a in range(2):
        result = (u1 * p).partial(ctx.ix_u[a]) + ctx.pa(a) * (u1 * p).partial(ctx.ix_p)
        expected = (p if a == 0 else ctx.algebra.zero()) + ctx.pa(a) * u1
        assert result == expected


def test_derivation_leibniz_and_commutator(ctx):
    rng = random.Random(5)
    alg = ctx.algebra

    def random_derivation(degree):
        # homogeneous: the value on g has degree |D| + |g|
        values = {}
        for idx in range(len(alg.gens)):
            target = degree + alg.gens[idx].degree
            out = alg.zero()
            for _ in range(3):
                k = rng.randint(0, 3)
                word = [rng.randrange(len(alg.gens)) for _ in range(k)]
                _, mono = alg.normalize_word(word)
                if mono is None or alg.monomial_degree(mono) != target:
                    continue
                out = out + alg.monomial(mono, rng.randint(-2, 2))
            values[idx] = out
        return Derivation(alg, degree, values)

    for _ in range(20):
        da, db = rng.choice([0, 1]), rng.choice([0, 1])
        D = random_derivation(da)
        E = random_derivation(db)
        f = random_poly(ctx, rng, weight=2, terms=2)
        g = random_poly(ctx, rng, weight=2, terms=2)
        # graded Leibniz on products, parity-split to get the sign right
        for pf, fc in f.parity_components().items():
            sign = -1 if (da % 2) and pf else 1
            assert D(fc * g) == D(fc) * g + (fc * D(g)).scale(sign)
        # the commutator is again a derivation
        C = D.commutator(E)
        for pf, fc in f.parity_components().items():
            sign = -1 if ((da + db) % 2) and pf else 1
            assert C(fc * g) == C(fc) * g + (fc * C(g)).scale(sign)


def test_derivation_missing_value(ctx):
    D = Derivation(ctx.algebra, 0, {ctx.ix_p: ctx.algebra.one()})
    with pytest.raises(UnknownGenerator):
        D(ctx.u(0))


def test_substitute_is_algebra_morphism(ctx):
    rng = random.Random(6)
    mir = ctx.mirror
    # an arbitrary parity-preserving generator map
    images = {}
    for idx, gen in enumerate(ctx.algebra.gens):
        target = [g for g in mir.algebra.gens if g.parity == gen.parity]
        pick = rng.choice(target)
        images[idx] = mir.algebra.gen(pick.index)
    for _ in range(25):
        f = random_poly(ctx, rng, weight=3, terms=2)
        g = random_poly(ctx, rng, weight=3, terms=2)
        assert (f * g).substitute(mir.algebra, images) == \
            f.substitute(mir.algebra, images) * g.substitute(mir.algebra, images)


def test_str_deterministic(ctx):
    f = ctx.u(0) * ctx.u(1) + ctx.p.scale(Fraction(1, 2))
    assert str(f) == "u1*u2 + 1/2*p"
    assert str(ctx.algebra.zero()) == "0"
    assert str(ctx.u(0) - ctx.u(0)) == "0"


@pytest.mark.parametrize("name", ["x1", "pi1", "p"])
def test_exponent_overflow_raises(ctx, name):
    # x1 has the lowest even field and p the highest: a field at its largest
    # exponent times one more letter must raise, never wrap into the next
    alg = ctx.algebra
    idx = alg.generator(name).index
    top = ((idx, MAX_FIELD_EXPONENT),)
    g = alg.gen(name)
    f = alg.monomial(top) + ctx.u(0)
    with pytest.raises(ExponentOverflow, match=name):
        f * g
    with pytest.raises(ExponentOverflow, match=name):
        g * f
    with pytest.raises(ExponentOverflow, match=name):
        alg.mul_monomials(top, ((idx, 1),))
    with pytest.raises(ExponentOverflow, match=name):
        alg.monomial(((idx, MAX_FIELD_EXPONENT + 1),))
    # one below the top multiplies into the top, exactly
    below = alg.monomial(((idx, MAX_FIELD_EXPONENT - 1),))
    assert (below * g).terms == {top: 1}
    assert alg.monomial(top).partials() == {idx: below.scale(MAX_FIELD_EXPONENT)}


def test_non_canonical_monomials_rejected(ctx):
    alg = ctx.algebra
    for mono in [((2, 1), (1, 1)), ((1, 1), (1, 1)), ((1, 2),), ((0, 0),), ((0, True),),
                 ((99, 1),)]:
        with pytest.raises(ValueError):
            alg.monomial(mono)
