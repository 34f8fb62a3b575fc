"""Property tests: the sparse kernel, bracket identities, derivation rules and
the form codec.

Hypothesis runs derandomized with few examples, so the suite stays
deterministic and quick; the seeded sweeps in test_gca/test_contact cover
more inputs.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import ordered_curve_coefficient, settled

from cjde import cjalg
from cjde.cjalg import DeformationForm, SplitCJInstance
from cjde.contact import ContactContext, LineDerivation, Section, jacobi_bracket, project_P
from cjde.deform import ComplexMatrices, LinearSystem, nullspace, rref
from cjde.linfty import GradedSpace, TaylorCoderivation, curve_coefficient
from cjde.gca import (MAX_FIELD_EXPONENT, ContextMismatch, Derivation, Poly, add_into,
                      koszul_sign, koszul_sort)

CTX = ContactContext(1, 2)
ALG = CTX.algebra
NGENS = len(ALG.gens)
# a second shape, with two base coordinates and one fiber coordinate
CTX21 = ContactContext(2, 1)

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


COEFFS = st.sampled_from([-3, -2, -1, 1, 2, 3])


@st.composite
def polys(draw, max_letters=3, max_terms=4, alg=ALG):
    """A nonzero polynomial from words of at most `max_letters` generator letters."""
    terms = {}
    words = draw(st.lists(st.lists(st.integers(0, len(alg.gens) - 1), min_size=1,
                                   max_size=max_letters),
                          min_size=1, max_size=max_terms))
    for word in words:
        _, mono = alg.normalize_word(word)
        if mono is not None:
            terms[mono] = Fraction(draw(COEFFS))
    f = Poly(alg, terms)
    assume(not f.is_zero())
    return f


@st.composite
def homogeneous_polys(draw, parity=None, max_letters=3, max_terms=4):
    """The largest one-degree part (or the part of one parity) of a drawn polynomial."""
    f = draw(polys(max_letters, max_terms))
    if parity is not None:
        return f.parity_components().get(parity, ALG.zero())
    comps = f.degree_components()
    return max(comps.values(), key=lambda c: len(c.terms))


@st.composite
def derivations(draw, degree, scalar=False):
    """A derivation whose value on each generator g has the parity of degree + |g|.

    With `scalar`, a zeroth-order coefficient of the parity of degree, or
    None, is drawn too: the operator is then c + X.
    """
    values = {}
    for g in ALG.gens:
        values[g.index] = draw(homogeneous_polys(parity=(degree + g.parity) % 2,
                                                 max_letters=2, max_terms=2))
    c = None
    if scalar:
        c = draw(st.none() | homogeneous_polys(parity=degree % 2, max_letters=2, max_terms=2))
    return Derivation(ALG, degree, values, c)


def by_reference_partials(D: Derivation, h: Poly) -> Poly:
    """c h + sum_g D(g) * dh/dg, each partial by the reference `Poly.partial`."""
    out = ALG.zero() if D.scalar is None else D.scalar * h
    for g in ALG.gens:
        out = out + D.values[g.index] * h.partial(g.index)
    return out


def shifted_degree(s: Section) -> int:
    return s.degree() - 2


@PROPERTY
@given(homogeneous_polys(), homogeneous_polys())
def test_jacobi_bracket_graded_skew(f, g):
    a, b = Section(CTX, f), Section(CTX, g)
    da, db = shifted_degree(a), shifted_degree(b)
    assert (jacobi_bracket(a, b) + jacobi_bracket(b, a).scale((-1) ** (da * db))).is_zero()


@PROPERTY
@given(homogeneous_polys(), homogeneous_polys(), polys())
def test_jacobi_bracket_graded_jacobi(f, g, h):
    a, b, c = Section(CTX, f), Section(CTX, g), Section(CTX, h)
    da, db = shifted_degree(a), shifted_degree(b)
    lhs = jacobi_bracket(a, jacobi_bracket(b, c))
    rhs = jacobi_bracket(jacobi_bracket(a, b), c) \
        + jacobi_bracket(b, jacobi_bracket(a, c)).scale((-1) ** (da * db))
    assert lhs == rhs


@PROPERTY
@given(st.integers(0, 1).flatmap(lambda d: st.tuples(st.just(d), derivations(d))),
       homogeneous_polys(), polys())
def test_derivation_leibniz(deg_and_D, f, g):
    degree, D = deg_and_D
    sign = -1 if degree % 2 and f.degree() % 2 else 1
    assert D(f * g) == D(f) * g + (f * D(g)).scale(sign)


@PROPERTY
@given(st.integers(0, 1).flatmap(lambda d: st.tuples(st.just(d), derivations(d, True))),
       st.integers(0, 1).flatmap(lambda d: st.tuples(st.just(d), derivations(d, True))),
       polys())
def test_derivation_commutator(deg_and_D, deg_and_E, f):
    (dd, D), (de, E) = deg_and_D, deg_and_E
    sign = -1 if dd % 2 and de % 2 else 1
    assert D(f) == by_reference_partials(D, f) and E(f) == by_reference_partials(E, f)
    C = D.commutator(E)
    assert C.degree == dd + de
    assert (C.scalar is None) == (D.scalar is None and E.scalar is None)
    assert C(f) == D(E(f)) - E(D(f)).scale(sign)


@PROPERTY
@given(st.dictionaries(st.integers(0, 5), COEFFS),
       st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 3))),
       st.sampled_from([1, -1, 0, 2, Fraction(1, 2)]), st.booleans())
@example(acc={1: 2, 3: -1}, pairs=[(1, -2), (3, 1)], scale=1, as_mapping=False)
@example(acc={1: 2, 3: -1}, pairs=[(1, 4), (3, -2)], scale=Fraction(-1, 2), as_mapping=True)
@example(acc={1: 2}, pairs=[(1, 5), (2, 1)], scale=0, as_mapping=True)
def test_add_into_matches_dense_sum(acc, pairs, scale, as_mapping):
    vec = dict(pairs) if as_mapping else pairs
    dense = [Fraction(0)] * 6
    for k, c in acc.items():
        dense[k] += c
    for k, c in (vec.items() if as_mapping else vec):
        dense[k] += scale * c
    out = dict(acc)
    assert add_into(out, vec, scale) is out
    assert out == {k: c for k, c in enumerate(dense) if c}


@PROPERTY
@given(polys(), polys())
def test_difference_is_sum_with_negation(f, g):
    diff = f - g
    assert diff == f + (-g) and diff.terms == (f + (-g)).terms
    assert (f - f).is_zero() and not (f - f)._packed


def test_difference_rejects_another_algebra():
    with pytest.raises(ContextMismatch):
        CTX.u(0) - CTX21.u(0)


@PROPERTY
@given(st.lists(st.integers(0, 6), max_size=7), st.sets(st.integers(0, 6)))
def test_koszul_sort_sign_is_koszul_sign(letters, odd):
    sign, perm = koszul_sort(letters, odd.__contains__)
    if any(letters.count(x) > 1 for x in odd):
        assert (sign, perm) == (0, None)
        return
    assert [letters[i] for i in perm] == sorted(letters)
    assert sign == koszul_sign(perm, [int(x in odd) for x in letters])


@PROPERTY
@given(polys(), polys())
def test_parity_twist_is_an_involutive_automorphism(f, g):
    twist, parts = f.parity_twist(), f.parity_components()
    assert twist.parity_twist() == f
    assert (f * g).parity_twist() == twist * g.parity_twist()
    expect = ALG.zero()
    for parity, part in parts.items():
        expect = expect + part.scale((-1) ** parity)
    assert twist == expect
    if 0 in parts:
        assert parts[0].parity_twist() is parts[0]
    if 1 not in parts:
        assert twist is f


# --- the bracket against its Darboux formula --------------------------


def darboux_bracket(ctx: ContactContext, f1: Poly, f2: Poly) -> Poly:
    """Reference Jacobi bracket, term by term from the Darboux formula.

    One `Poly.partial` per use, `*` and `+` for everything else; no partial
    is shared and no product is skipped, so the one-pass kernel in
    `contact.jacobi_bracket` is checked against a separate route.
    """
    def D_i(i, f):
        return f.partial(ctx.ix_x[i]) + ctx.pi(i) * f.partial(ctx.ix_p)

    def D_a(a, f):
        return f.partial(ctx.ix_u[a]) + ctx.pa(a) * f.partial(ctx.ix_p)

    out = ctx.algebra.zero()
    for parity, f in f1.parity_components().items():
        out = out + f * f2.partial(ctx.ix_p) - f.partial(ctx.ix_p) * f2
        for i in range(ctx.m):
            out = out + D_i(i, f) * f2.partial(ctx.ix_pi[i])
            out = out - f.partial(ctx.ix_pi[i]) * D_i(i, f2)
        sign = -1 if parity else 1
        for a in range(ctx.n):
            term = D_a(a, f) * f2.partial(ctx.ix_pa[a])
            term = term + f.partial(ctx.ix_pa[a]) * D_a(a, f2)
            out = out + term.scale(sign)
    return out


@st.composite
def section_pairs(draw):
    """(context, f, g) on ContactContext(1, 2) or (2, 1); f may mix parities."""
    ctx = draw(st.sampled_from([CTX, CTX21]))
    return ctx, draw(polys(alg=ctx.algebra)), draw(polys(alg=ctx.algebra))


def _word(ctx, *names):
    return ctx.algebra.monomial(ctx.algebra.normalize_word(names)[1])


# the odd letters are u and pa: pa2 follows the odd u1 (a left partial by
# pa2 passes it), u1 + x1*p mixes parities, and pa1 ends a word u1*u2*pa1
MIXED = _word(CTX, "u1", "pa2") + _word(CTX, "u1") + _word(CTX, "x1", "p").scale(2)
ODD_AFTER_ODD = _word(CTX, "u1", "u2", "pa1") + _word(CTX, "u2", "pa2", "pi1").scale(-3)
MIXED21 = _word(CTX21, "u1", "pa1", "pi2") + _word(CTX21, "u1", "x2") + _word(CTX21, "p")
ODD_AFTER_ODD21 = _word(CTX21, "x1", "u1", "pa1", "p") + _word(CTX21, "pa1", "pi1").scale(-1)


@PROPERTY
@given(section_pairs())
@example(pair=(CTX, MIXED, ODD_AFTER_ODD))
@example(pair=(CTX, ODD_AFTER_ODD, MIXED))
@example(pair=(CTX21, MIXED21, ODD_AFTER_ODD21))
@example(pair=(CTX21, ODD_AFTER_ODD21, MIXED21))
def test_jacobi_bracket_matches_darboux_formula(pair):
    ctx, f, g = pair
    got = jacobi_bracket(Section(ctx, f), Section(ctx, g)).body
    assert got.terms == darboux_bracket(ctx, f, g).terms


@st.composite
def section_triples(draw):
    """(context, f, g1, g2) on ContactContext(1, 2) or (2, 1); f may mix parities."""
    ctx = draw(st.sampled_from([CTX, CTX21]))
    return (ctx,) + tuple(draw(polys(alg=ctx.algebra)) for _ in range(3))


# between them the right arguments take a partial by every generator of CTX
EVERY_LETTER = _word(CTX, "x1", "pa1", "pi1") + _word(CTX, "u2", "p") + _word(CTX, "pa2")


@PROPERTY
@given(section_triples())
@example(case=(CTX, MIXED, ODD_AFTER_ODD, EVERY_LETTER))
@example(case=(CTX, MIXED + ODD_AFTER_ODD, EVERY_LETTER, MIXED))
@example(case=(CTX21, MIXED21, ODD_AFTER_ODD21, MIXED21 * ODD_AFTER_ODD21))
def test_left_operator_reused_across_right_arguments(case):
    # one Section, so one memoised operator {f, .}, applied to g1, g2, g1:
    # a coefficient built for one right argument serves the later ones
    ctx, f, g1, g2 = case
    s = Section(ctx, f)
    for g in (g1, g2, g1):
        got = jacobi_bracket(s, Section(ctx, g)).body
        assert got.terms == darboux_bracket(ctx, f, g).terms


@PROPERTY
@given(st.sampled_from([CTX, CTX21]).flatmap(
    lambda ctx: polys(max_letters=4, max_terms=5, alg=ctx.algebra)))
@example(f=ODD_AFTER_ODD)
@example(f=ODD_AFTER_ODD21)
def test_partials_match_partial(f):
    expected = {g.index: f.partial(g.index) for g in f.algebra.gens}
    assert f.partials() == {idx: d for idx, d in expected.items() if not d.is_zero()}


# --- the kernel: no stored zero, the parity table, the partials memo -------

CTX03 = ContactContext(0, 3)
KERNEL_CONTEXTS = [CTX, CTX03]


def letters(mono):
    """The generator word of a canonical monomial, each letter as often as its exponent."""
    return [idx for idx, exp in mono for _ in range(exp)]


@st.composite
def kernel_pairs(draw):
    """(context, f, g) on ContactContext(1, 2) or (0, 3)."""
    ctx = draw(st.sampled_from(KERNEL_CONTEXTS))
    return ctx, draw(polys(alg=ctx.algebra)), draw(polys(alg=ctx.algebra))


def kernel_results(ctx, f, g):
    """Every kind of Poly the kernel builds from f and g."""
    out = [f + g, g + f, f - g, -f, f * g, g * f, f.scale(Fraction(-2, 3)),
           jacobi_bracket(Section(ctx, f), Section(ctx, g)).body]
    for h in (f, g, f * g):
        out += h.partials().values()
        out += h.parity_components().values()
    return out


# x1*pi1 and pi1*x1 cancel inside one product, and so does all of (u1 + u2)^2
SUM_SQUARE = (CTX, CTX.x(0) + CTX.pi(0), CTX.x(0) - CTX.pi(0))
ODD_SQUARE = (CTX03, CTX03.u(0) + CTX03.u(1), CTX03.u(0) + CTX03.u(1))


@PROPERTY
@given(kernel_pairs())
@example(pair=(CTX, MIXED, -MIXED))
@example(pair=SUM_SQUARE)
@example(pair=ODD_SQUARE)
@example(pair=(CTX, ODD_AFTER_ODD, MIXED))
def test_kernel_results_store_no_zero(pair):
    for p in kernel_results(*pair):
        assert all(settled(c) and c for c in p.terms.values()), p.terms


def test_cancelled_terms_are_dropped():
    assert (MIXED + (-MIXED)).terms == {}
    assert (MIXED - MIXED).terms == {}
    _, a, b = SUM_SQUARE
    assert (a * b).terms == {ALG.normalize_word(["x1", "x1"])[1]: 1,
                             ALG.normalize_word(["pi1", "pi1"])[1]: -1}
    _, u, v = ODD_SQUARE
    assert (u * v).terms == {}


@st.composite
def monomial_pairs(draw):
    """(algebra, a, b): two canonical monomials of ContactContext(1, 2) or (0, 3)."""
    alg = draw(st.sampled_from(KERNEL_CONTEXTS)).algebra
    word = st.lists(st.integers(0, len(alg.gens) - 1), max_size=4)
    a, b = alg.normalize_word(draw(word))[1], alg.normalize_word(draw(word))[1]
    assume(a is not None and b is not None)
    return alg, a, b


@PROPERTY
@given(monomial_pairs())
# u1 then pa1 in a, u2 then pa2 in b: u2 passes pa1, pa2 passes nothing odd
@example(triple=(ALG, ((1, 1), (3, 1)), ((2, 1), (4, 1))))
@example(triple=(ALG, ((3, 1),), ((1, 1), (5, 2))))
def test_mul_monomials_matches_normalize_word(triple):
    alg, a, b = triple
    word = letters(a) + letters(b)
    got = alg.mul_monomials(a, b)
    assert got == alg.normalize_word(word)
    # and against koszul_sign, with parities read off the bidegrees
    degrees = [alg.gens[i].degree for i in word]
    if any(word.count(i) > 1 and alg.gens[i].degree % 2 for i in word):
        assert got == (1, None)
    else:
        perm = sorted(range(len(word)), key=word.__getitem__)
        mono = tuple((i, word.count(i)) for i in sorted(set(word)))
        assert got == (koszul_sign(perm, degrees), mono)


@PROPERTY
@given(kernel_pairs())
@example(pair=(CTX, ODD_AFTER_ODD, MIXED))
@example(pair=ODD_SQUARE)
def test_memoised_partials_match_fresh(pair):
    ctx, f, g = pair
    alg = ctx.algebra
    # fill the memos of f and g before anything is built from them
    first = f.partials()
    g.partials()
    assert f.partials() is first
    for p in [f, g] + kernel_results(ctx, f, g):
        memo = p.partials()
        assert memo == Poly(alg, dict(p.terms)).partials()
        by_generator = {idx: p.partial(idx) for idx in range(len(alg.gens))}
        assert memo == {idx: d for idx, d in by_generator.items() if not d.is_zero()}


# --- packed monomials against the tuple references ---------------------

CTX04 = ContactContext(0, 4)
PACKED_CONTEXTS = [CTX, CTX21, CTX04]
# every kind of coefficient a caller may pass: ints, integral and proper
# Fractions, a bool and a float (taken at its exact binary value)
ANY_COEFFS = st.sampled_from([-3, -1, 1, 2, Fraction(-1, 2), Fraction(4, 2), Fraction(3, 5),
                              True, 0.5])


@st.composite
def canonical_monomials(draw, alg, max_exp=MAX_FIELD_EXPONENT):
    """Any set of letters; an even letter's exponent anywhere up to `max_exp`."""
    mono = []
    for g in alg.gens:
        if draw(st.booleans()):
            exp = 1 if alg.odd[g.index] else draw(
                st.one_of(st.integers(1, 3), st.integers(1, max_exp)))
            mono.append((g.index, exp))
    return tuple(mono)


@st.composite
def packed_cases(draw):
    """(context, f, g): small exponents, so that the word references stay quick."""
    ctx = draw(st.sampled_from(PACKED_CONTEXTS))
    alg = ctx.algebra

    def poly():
        monos = draw(st.lists(canonical_monomials(alg, 3), max_size=4))
        return Poly(alg, {m: draw(ANY_COEFFS) for m in monos})
    return ctx, poly(), poly()


def tuple_product(alg, f, g):
    """f * g from `normalize_word` on every pair of terms, in tuples and Fractions."""
    out = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            sign, mono = alg.normalize_word(letters(ma) + letters(mb))
            if mono is not None:
                out[mono] = out.get(mono, 0) + sign * ca * cb
    return {m: c for m, c in out.items() if c}


@PROPERTY
@given(st.sampled_from(PACKED_CONTEXTS).flatmap(
    lambda ctx: st.tuples(st.just(ctx.algebra), canonical_monomials(ctx.algebra))))
def test_pack_round_trips(case):
    alg, mono = case
    key = alg.pack(mono)
    assert alg.unpack(key) == mono
    assert alg.pack(alg.unpack(key)) == key
    assert not key & alg._guard


@PROPERTY
@given(packed_cases())
@example(case=(CTX, MIXED, ODD_AFTER_ODD))
@example(case=(CTX21, ODD_AFTER_ODD21, MIXED21))
@example(case=(CTX04, CTX04.u(3) * CTX04.pa(0) + CTX04.u(1), CTX04.u(2) * CTX04.pa(3)))
def test_packed_product_matches_normalize_word(case):
    ctx, f, g = case
    alg = ctx.algebra
    assert (f * g).terms == tuple_product(alg, f, g)
    assert (g * f).terms == tuple_product(alg, g, f)


@PROPERTY
@given(packed_cases())
@example(case=(CTX, ODD_AFTER_ODD, MIXED))
@example(case=(CTX21, ODD_AFTER_ODD21, MIXED21))
def test_packed_partials_and_parity_match_references(case):
    ctx, f, g = case
    alg = ctx.algebra
    for h in (f, g, f * g):
        expected = {idx: h.partial(idx) for idx in range(len(alg.gens))}
        assert h.partials() == {idx: d for idx, d in expected.items() if not d.is_zero()}
        by_parity = {}
        for mono, c in h.terms.items():
            by_parity.setdefault(alg.monomial_degree(mono) % 2, {})[mono] = c
        assert {p: part.terms for p, part in h.parity_components().items()} == by_parity


@PROPERTY
@given(packed_cases())
def test_coefficients_leaving_the_kernel_are_exact(case):
    ctx, f, g = case
    alg = ctx.algebra
    results = kernel_results(ctx, f, g) + [
        f.scale(3), f.scale(Fraction(2, 4)), f * 2, project_P(Section(ctx, f)).body,
        *f.split(ctx.ix_x).values(), *f.bidegree_components().values()]
    for p in results:
        # stored: int or Fraction, never a bool or a float
        assert all(type(c) in (int, Fraction) for c in p._packed.values()), p._packed
        # decoded: settled, as Poly.terms and Poly.coefficient promise
        assert all(settled(c) for c in p.terms.values()), p.terms
        assert all(settled(p.coefficient(m)) for m in p.terms)
        assert settled(p.coefficient(()))


@PROPERTY
@given(packed_cases(), st.sampled_from(["empty", "other", "cancel"]))
@example(case=(CTX, MIXED.scale(Fraction(1, 2)), ODD_AFTER_ODD.scale(2)), start="other")
@example(case=SUM_SQUARE, start="cancel")
def test_mul_into_is_product_then_add_into(case, start):
    ctx, f, g = case
    acc = {"empty": {}, "other": dict((g * (f + g))._packed),
           "cancel": dict((-(f * g))._packed)}[start]
    expected = add_into(dict(acc), (f * g)._packed)
    got = f.mul_into(g, acc)
    assert got is acc
    assert got == expected
    if start == "cancel":
        assert got == {}
    assert all(settled(c) for c in got.values()), got


# --- line-bundle derivations f + X -----------------------------------


@st.composite
def base_polys(draw, parity=None, ctx=CTX):
    """A base (x, u) polynomial, possibly zero; only monomials of `parity` if given."""
    alg = ctx.algebra
    terms = {}
    words = draw(st.lists(st.lists(st.sampled_from(ctx.base_indices()), max_size=3),
                          max_size=3))
    for word in words:
        _, mono = alg.normalize_word(word)
        if mono is not None and parity in (None, alg.monomial_degree(mono) % 2):
            terms[mono] = Fraction(draw(COEFFS))
    return Poly(alg, terms)


@st.composite
def line_derivations(draw, ctx):
    """f + X of a drawn degree: f and X(x^i) of its parity, X(u^a) of the other."""
    degree = draw(st.integers(-1, 2))
    even, odd = degree % 2, (degree + 1) % 2
    return LineDerivation(ctx, degree, draw(base_polys(even, ctx)),
                          [draw(base_polys(even, ctx)) for _ in ctx.ix_x],
                          [draw(base_polys(odd, ctx)) for _ in ctx.ix_u])


def reextracted_commutator(d: LineDerivation, e: LineDerivation):
    """(f, f_x, f_u) of d e - (-1)^{|d||e|} e d, read off its action on 1, x^i, u^a."""
    ctx = d.context
    sign = -1 if d.degree % 2 and e.degree % 2 else 1

    def act(body: Poly) -> Poly:
        return d(e(body)) - e(d(body)).scale(sign)

    f = act(ctx.algebra.one())
    f_x = [act(ctx.x(i)) - f * ctx.x(i) for i in range(ctx.m)]
    f_u = [act(ctx.u(a)) - f * ctx.u(a) for a in range(ctx.n)]
    return f, f_x, f_u


@PROPERTY
@given(st.sampled_from([CTX, CTX21]).flatmap(lambda ctx: st.tuples(
    line_derivations(ctx), line_derivations(ctx), base_polys(ctx=ctx))))
def test_line_derivation_commutator(triple):
    d, e, h = triple
    sign = -1 if d.degree % 2 and e.degree % 2 else 1
    c = d.commutator(e)
    assert c.degree == d.degree + e.degree
    ctx = d.context
    assert (c.scalar, [c.values[idx] for idx in ctx.ix_x],
            [c.values[idx] for idx in ctx.ix_u]) == reextracted_commutator(d, e)
    assert c(h) == d(e(h)) - e(d(h)).scale(sign)


# --- the form codec: tables of base polynomials <-> forms --------------------

FORM_CONTEXTS = [ContactContext(1, 3), ContactContext(0, 4)]
FORM_INSTANCES = {ctx: SplitCJInstance(ctx.m, ctx.n, context=ctx) for ctx in FORM_CONTEXTS}


@st.composite
def x_polys(draw, ctx):
    """A base polynomial (possibly zero): up to three terms c*x^e, e in 0..2."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(ctx.m))
        terms[exps] = Fraction(draw(COEFFS), draw(st.integers(1, 3)))
    return cjalg._as_xpoly(ctx, terms)


@st.composite
def form_tensors(draw):
    """(ctx, gens, k, stored k-tensor): the nonzero drawn entries at increasing keys."""
    ctx = draw(st.sampled_from(FORM_CONTEXTS))
    gens = draw(st.sampled_from([ctx.ix_u, ctx.ix_pa]))
    k = draw(st.integers(1, min(3, ctx.n)))
    tensor = {}
    for key in itertools.combinations(range(ctx.n), k):
        entry = draw(x_polys(ctx))
        if not entry.is_zero():
            tensor[key] = entry
    return ctx, gens, k, tensor


@PROPERTY
@given(form_tensors())
def test_form_entries_inverts_form(case):
    ctx, gens, k, tensor = case
    body = cjalg._form(ctx, gens, tensor)
    inverse = cjalg._form_keys(ctx, gens, k, body)
    assert inverse == tensor
    assert list(inverse) == sorted(inverse)
    # the body is the sum of entry * g_{a_1}...g_{a_k}, written with products
    product_sum = ctx.algebra.zero()
    for key, entry in tensor.items():
        for a in key:
            entry = entry * ctx.algebra.gen(gens[a])
        product_sum = product_sum + entry
    assert body == product_sum


@PROPERTY
@given(st.sampled_from(FORM_CONTEXTS).flatmap(lambda ctx: st.tuples(
    st.just(ctx), st.dictionaries(st.tuples(st.integers(0, ctx.n - 1),
                                            st.integers(0, ctx.n - 1)),
                                  x_polys(ctx), max_size=5))))
def test_deformation_form_entries_are_the_skew_matrix(case):
    ctx, data = case
    inst = FORM_INSTANCES[ctx]
    eta = DeformationForm.from_dict(inst, data)
    assert eta.entries == cjalg._canonical(ctx, data, (ctx.n, ctx.n), 2)
    assert DeformationForm.from_section(inst, eta) == eta


# Each constructor tensor: its first index range ("m", "n" or none) and its
# number of trailing antisymmetric indices.
STRUCTURE_LAYOUT = [("rho", "m", 1), ("c", "n", 2), ("lam", None, 1), ("rho_dual", "m", 1),
                    ("c_dual", "n", 2), ("lam_dual", None, 1), ("phi", None, 3),
                    ("psi", None, 3)]


@st.composite
def permuted_structures(draw):
    """(ctx, canonical entries, the same entries under signed permutations of their
    antisymmetric indices, plus entries on keys with a repeated index)."""
    ctx = draw(st.sampled_from(FORM_CONTEXTS))
    canonical, permuted = {}, {}
    for name, lead, k in STRUCTURE_LAYOUT:
        heads = [()] if lead is None else [(i,) for i in range(getattr(ctx, lead))]
        keys = [h + t for h in heads for t in itertools.combinations(range(ctx.n), k)]
        canonical[name], permuted[name] = {}, {}
        for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)) if keys else []:
            value = draw(x_polys(ctx))
            head, tail = key[:-k], key[-k:]
            perm = draw(st.permutations(range(k)))
            canonical[name][key] = value
            permuted[name][head + tuple(tail[i] for i in perm)] = \
                value if koszul_sign(perm, (1,) * k) > 0 else -value
        for _ in range(draw(st.integers(0, 2)) if k > 1 else 0):
            tail = draw(st.lists(st.integers(0, ctx.n - 1), min_size=k, max_size=k))
            tail[-1] = tail[0]
            key = draw(st.sampled_from(heads)) + tuple(draw(st.permutations(tail)))
            permuted[name][key] = draw(x_polys(ctx))
    return ctx, canonical, permuted


@PROPERTY
@given(permuted_structures())
def test_signed_permutations_give_the_same_structure(case):
    ctx, canonical, permuted = case
    want = SplitCJInstance(ctx.m, ctx.n, context=ctx, **canonical)
    got = SplitCJInstance(ctx.m, ctx.n, context=ctx, **permuted)
    for name, lead, _ in STRUCTURE_LAYOUT:
        assert getattr(got, name) == getattr(want, name)
        for tensor in getattr(got, name) if lead else [getattr(got, name)]:
            assert list(tensor) == sorted(tensor)
            assert all(not v.is_zero() for v in tensor.values())
    assert got.theta == want.theta


POINT_COMPLEX = ComplexMatrices(FORM_INSTANCES[FORM_CONTEXTS[1]])


@PROPERTY
@given(st.integers(0, 4).flatmap(lambda k: st.tuples(st.just(k), st.lists(
    st.fractions(max_denominator=5, min_value=-3, max_value=3),
    min_size=len(POINT_COMPLEX.basis[k]), max_size=len(POINT_COMPLEX.basis[k])))))
def test_form_coordinates_round_trip(case):
    k, coords = case
    form = POINT_COMPLEX.coords_to_form(coords, k)
    assert POINT_COMPLEX.form_to_coords(form, k) == coords


def test_form_rejects_an_entry_that_is_not_a_base_polynomial():
    ctx = FORM_CONTEXTS[0]
    zero = ctx.algebra.zero()
    for bad in (ctx.u(0), ctx.x(0) * ctx.pa(1), ContactContext(1, 3).x(0)):
        with pytest.raises(ValueError):
            cjalg._form(ctx, ctx.ix_u, {(0,): zero, (1,): bad, (2,): zero})


# --- sparse elimination against a dense Gauss-Jordan ------------------------


def dense_gauss_jordan(matrix, cols):
    """The reduced row echelon form of a list-of-lists matrix: (nonzero rows, pivots).

    Column by column: the first row at or below the next pivot position
    with a nonzero entry is swapped up, divided by that entry, and
    subtracted from every other row.
    """
    m = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for j in range(len(m)):
            f = m[j][c]
            if j != r and f:
                m[j] = [a - f * b for a, b in zip(m[j], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


@st.composite
def int_systems(draw):
    """(matrix, cols, rhs, rhs2): up to 6 x 6 small ints, with repeated rows and
    zeroed columns, and two right-hand sides, each solvable or drawn freely."""
    cols = draw(st.integers(0, 6))
    pool = draw(st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                         min_size=1, max_size=4))
    rows = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=6))]
    zeroed = draw(st.sets(st.integers(0, 5), max_size=2))
    matrix = [[0 if j in zeroed else x for j, x in enumerate(row)] for row in rows]

    def rhs():
        if draw(st.booleans()):
            x = draw(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols))
            return [sum(a * b for a, b in zip(row, x)) for row in matrix]
        return draw(st.lists(st.integers(-2, 2), min_size=len(matrix), max_size=len(matrix)))
    return matrix, cols, rhs(), rhs()


@settings(PROPERTY, max_examples=150)
@given(int_systems())
@example(([], 0, [], []))
@example(([], 4, [], []))
@example(([[], [], []], 0, [0, 1, 0], [0, 0, 0]))
@example(([[0, 0, 0], [1, 2, 0], [1, 2, 0], [0, 0, 0]], 3, [0, 1, 1, 0], [0, 1, 2, 0]))
@example(([[0, 1, 2, 0, 1, 2]] * 3 + [[1, 0, 0, 0, 0, 0], [0, 0, 0, 2, 0, 0], [0] * 6], 6,
          [1, 1, 1, 2, 3, 0], [2, 2, 2, 0, 1, 0]))
def test_sparse_elimination_matches_dense_gauss_jordan(system):
    """rref, nullspace and a `LinearSystem` on sparse rows give what a dense
    Gauss-Jordan of the same int matrix gives: the reduced row echelon form
    is unique for the column order, so every pivot and entry agrees.  One
    `LinearSystem` answers both right-hand sides, each as the dense
    elimination of the matrix with that rhs appended."""
    matrix, cols, *rhss = system
    sparse = [{j: x for j, x in enumerate(row) if x} for row in matrix]
    red, pivots = dense_gauss_jordan(matrix, cols)
    assert rref(sparse) == ([{j: x for j, x in enumerate(row) if x} for row in red], pivots)
    kernel = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [Fraction(c == free) for c in range(cols)]
        for row, pc in zip(red, pivots):
            v[pc] = -row[free]
        kernel.append(v)
    assert nullspace(sparse, cols) == kernel
    solver = LinearSystem(sparse, cols)
    # both solves first: an answer must not change when the next one is asked
    solutions = [solver.solve(rhs) for rhs in rhss]
    for rhs, got in zip(rhss, solutions):
        red, pivots = dense_gauss_jordan([row + [b] for row, b in zip(matrix, rhs)], cols + 1)
        want = None
        if cols not in pivots:
            want = [Fraction(0)] * cols
            for row, pc in zip(red, pivots):
                want[pc] = row[cols]
        assert got == want


# --- formal curves: t^r coefficients of sum_k (1/k!) Q_k(x,...,x) -------------

# a, b, e are even (curve entries); c, f are odd and only appear as outputs
TOY_DEGREES = {"a": 0, "b": 0, "c": 1, "e": 2, "f": 1}
TOY_SPACE = GradedSpace(TOY_DEGREES.__getitem__)
TOY_VALUES = st.sampled_from([-2, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3)])


def toy_coefficient(seed, k):
    """A fixed sparse Vector per canonical word, drawn from a string seed."""
    def coefficient(word):
        rng = random.Random(f"{seed}/{k}/{word}")
        return {key: rng.choice([-2, -1, 1, Fraction(1, 3)])
                for key in TOY_DEGREES if rng.random() < 0.4}
    return coefficient


@st.composite
def toy_structures(draw, max_arity=4, min_arities=2):
    """A toy coderivation with arities drawn from 0..max_arity; arity 0 makes it curved."""
    seed = draw(st.integers(0, 10 ** 6))
    arities = draw(st.sets(st.integers(0, max_arity), min_size=min_arities))
    coefficients = {k: toy_coefficient(seed, k) for k in arities}
    if 0 in coefficients:
        curvature = draw(st.dictionaries(st.sampled_from(list(TOY_DEGREES)), TOY_VALUES,
                                         min_size=1))
        coefficients[0] = lambda word: curvature
    return TaylorCoderivation(TOY_SPACE, coefficients)


curves = st.lists(st.dictionaries(st.sampled_from("abe"), TOY_VALUES, max_size=3),
                  min_size=1, max_size=4)


def toy_bracket(Q):
    """Q_k on k vectors, expanded multilinearly into canonical words."""
    def bracket(vectors):
        out = {}
        for word, c in TOY_SPACE.expand_word_of_vectors(vectors).items():
            add_into(out, Q.coefficient(len(vectors), word), c)
        return out
    return bracket


@PROPERTY
@given(toy_structures(), curves, st.integers(0, 6))
@example(Q=TaylorCoderivation(TOY_SPACE, {0: lambda w: {"c": 1}, 2: toy_coefficient(0, 2),
                                          4: toy_coefficient(0, 4)}),
         curve=[{"a": 1, "b": -2}, {}, {"e": Fraction(1, 2)}], r=4)
def test_curve_coefficient_matches_ordered_expansion(Q, curve, r):
    expected = ordered_curve_coefficient(Q.arities(), toy_bracket(Q), curve, r)
    assert curve_coefficient(Q, curve, r) == expected


# long curves with empty entries mixed in, at orders past the curve's length
long_curves = st.lists(st.one_of(st.just({}),
                                 st.dictionaries(st.sampled_from("abe"), TOY_VALUES,
                                                 min_size=1, max_size=2)),
                       min_size=1, max_size=10)


@PROPERTY
@given(toy_structures(max_arity=3, min_arities=1), long_curves, st.integers(0, 14))
@example(Q=TaylorCoderivation(TOY_SPACE, {1: toy_coefficient(1, 1), 2: toy_coefficient(1, 2),
                                          3: toy_coefficient(1, 3)}),
         curve=[{"a": 1}, {}, {"b": -1}, {}, {}, {"e": 2}, {"a": 2}, {}, {}, {"b": 1}], r=14)
def test_curve_coefficient_matches_ordered_expansion_on_long_curves(Q, curve, r):
    expected = ordered_curve_coefficient(Q.arities(), toy_bracket(Q), curve, r)
    assert curve_coefficient(Q, curve, r) == expected


@pytest.mark.parametrize("r", [2.5, True, -1])
def test_curve_coefficient_rejects_an_order_that_is_not_a_count(r):
    Q = TaylorCoderivation(TOY_SPACE, {0: lambda w: {"c": 1}, 1: toy_coefficient(0, 1),
                                       2: toy_coefficient(0, 2)})
    with pytest.raises(ValueError, match="non-negative int"):
        curve_coefficient(Q, [{"a": 1}, {"b": 1}, {"a": 2}], r)


def test_curve_coefficient_reads_every_arity_and_the_curvature():
    # x(t) = t a: the t^k coefficient is Q_k(a,...,a)/k!, arity 4 included
    Q = TaylorCoderivation(TOY_SPACE, {0: lambda w: {"c": 1},
                                       4: lambda w: {"f": 1} if w == ("a",) * 4 else {}})
    assert curve_coefficient(Q, [{"a": 1}], 0) == {"c": 1}
    assert curve_coefficient(Q, [{"a": 1}], 4) == {"f": Fraction(1, 24)}
    assert curve_coefficient(Q, [{"a": 1}], 3) == {}
    # x(t) = t a + t^2 a: t^5 takes {1,1,1,2} with weight 1/3!
    assert curve_coefficient(Q, [{"a": 1}, {"a": 1}], 5) == {"f": Fraction(1, 6)}


def test_curve_coefficient_rejects_an_odd_curve():
    Q = TaylorCoderivation(TOY_SPACE, {2: toy_coefficient(0, 2)})
    with pytest.raises(ValueError):
        curve_coefficient(Q, [{"a": 1}, {"c": 1}], 2)


# --- inserting one letter into a canonical word -------------------------------

# mixed parities, with odd and even letters interleaved in the key order
INSERT_DEGREES = {"a": 0, "b": 1, "c": 2, "d": -1, "e": 1, "f": 4, "g": 3}
INSERT_SPACE = GradedSpace(INSERT_DEGREES.__getitem__)


def canonical(letters):
    """The canonical word of some letters, dropping a repeated odd letter instead of zeroing."""
    word = []
    for key in sorted(letters):
        if not (word and word[-1] == key and INSERT_DEGREES[key] % 2):
            word.append(key)
    return tuple(word)


canonical_words = st.lists(st.sampled_from(sorted(INSERT_DEGREES)), max_size=7).map(canonical)


@PROPERTY
@given(canonical_words, st.sampled_from(sorted(INSERT_DEGREES)))
@example(word=("a", "a", "c", "c", "f"), key="c")  # repeated even letters, an equal even key
@example(word=("a", "b", "d", "e"), key="d")  # an odd key clashing with a letter
@example(word=("b", "d", "e", "g"), key="c")  # an even key passing odd letters
@example(word=("a", "b", "c", "d", "e", "f"), key="e")
def test_insertion_matches_normalize_letters(word, key):
    """Placing a letter into a canonical word by bisection, at the front or at
    the end, gives the word and sign of re-sorting the whole sequence."""
    assert INSERT_SPACE._is_canonical(word)
    assert INSERT_SPACE._insert(key, word) == INSERT_SPACE.normalize_letters((key,) + word)
    assert (INSERT_SPACE._insert(key, word, at_end=True)
            == INSERT_SPACE.normalize_letters(word + (key,)))
