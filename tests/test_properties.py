"""Property tests: the sparse kernel, bracket identities and derivation rules.

Hypothesis runs derandomized with few examples, so the suite stays
deterministic and quick; the seeded sweeps in test_gca/test_contact cover
more inputs.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cjde.contact import ContactContext, Section, jacobi_bracket
from cjde.gca import Derivation, Poly, add_into, koszul_sign, koszul_sort

CTX = ContactContext(1, 2)
ALG = CTX.algebra
NGENS = len(ALG.gens)

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


COEFFS = st.sampled_from([-3, -2, -1, 1, 2, 3])


@st.composite
def polys(draw, max_letters=3, max_terms=4):
    """A nonzero polynomial from words of at most `max_letters` generator letters."""
    terms = {}
    words = draw(st.lists(st.lists(st.integers(0, NGENS - 1), min_size=1,
                                   max_size=max_letters),
                          min_size=1, max_size=max_terms))
    for word in words:
        _, mono = ALG.normalize_word(word)
        if mono is not None:
            terms[mono] = Fraction(draw(COEFFS))
    f = Poly(ALG, terms)
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
def derivations(draw, degree):
    """A derivation whose value on each generator g has the parity of degree + |g|."""
    values = {}
    for g in ALG.gens:
        values[g.index] = draw(homogeneous_polys(parity=(degree + g.parity) % 2,
                                                 max_letters=2, max_terms=2))
    return Derivation(ALG, degree, values)


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
@given(st.integers(0, 1).flatmap(lambda d: st.tuples(st.just(d), derivations(d))),
       st.integers(0, 1).flatmap(lambda d: st.tuples(st.just(d), derivations(d))),
       polys())
def test_derivation_commutator(deg_and_D, deg_and_E, f):
    (dd, D), (de, E) = deg_and_D, deg_and_E
    sign = -1 if dd % 2 and de % 2 else 1
    C = D.commutator(E)
    assert C.degree == dd + de
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
@given(st.lists(st.integers(0, 6), max_size=7), st.sets(st.integers(0, 6)))
def test_koszul_sort_sign_is_koszul_sign(letters, odd):
    sign, perm = koszul_sort(letters, odd.__contains__)
    if any(letters.count(x) > 1 for x in odd):
        assert (sign, perm) == (0, None)
        return
    assert [letters[i] for i in perm] == sorted(letters)
    assert sign == koszul_sign(perm, [int(x in odd) for x in letters])
