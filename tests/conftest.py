"""Shared fixtures and seeded random generators for the test suite."""

import itertools
import math
import os
from fractions import Fraction

import pytest

from cjde.cjalg import (SplitCJInstance, deformation_brackets, deformation_space,
                        m2_sharp_closed, pairing, section_to_vector, vector_to_section,
                        word_to_sections)
from cjde.contact import (ContactContext, LineDerivation, jacobi_bracket,
                          legendre_pullback)
from cjde.gca import Derivation, Poly, add_into, koszul_sign
from cjde.instancefile import load_instance
from cjde.samples import (  # noqa: F401  (re-exported to the test modules)
    basis_keys,
    random_homogeneous_section,
    random_poly,
    random_section,
)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def load_fixture(name):
    """The parsed `fixtures/<name>.json`: its instance and named 2-forms."""
    return load_instance(os.path.join(FIXTURES, name + ".json"))


def random_base_poly(ctx, rng, weight=2, terms=3):
    return random_poly(ctx, rng, weight, terms, indices=ctx.base_indices())


def random_vector_field(ctx, rng):
    """A random homogeneous vector field on `ctx`, a `gca.Derivation` of degree
    in [-2, 1]: up to three terms per generator, each a random word kept when
    its degree fits."""
    degree = rng.choice([-2, -1, 0, 1])
    values = {}
    for idx in range(len(ctx.algebra.gens)):
        target = degree + ctx.algebra.gens[idx].degree
        out = ctx.algebra.zero()
        for _ in range(3):
            k = rng.randint(0, 3)
            word = [rng.randrange(len(ctx.algebra.gens)) for _ in range(k)]
            _, mono = ctx.algebra.normalize_word(word)
            if mono is None or ctx.algebra.monomial_degree(mono) != target:
                continue
            out = out + Poly(ctx.algebra, {mono: Fraction(rng.randint(-2, 2))})
        values[idx] = out
    return Derivation(ctx.algebra, degree, values)


class ParametricContext(ContactContext):
    """The contact context of (m, n) with `parameters` more base coordinates,
    x_{m+1}, ...: a base coordinate whose momentum pi occurs in no argument is a
    constant for the bracket, so each extra one is a free parameter."""

    def __init__(self, m, n, parameters):
        super().__init__(m + parameters, n)
        self.generators = self.ix_x[:m] + self.ix_u + self.ix_pa + self.ix_pi[:m] + [self.ix_p]
        self.unused = iter(self.ix_x[m:])


def generic_section(ctx, degree, letters):
    """Every monomial of `degree` in the generators of (m, n) with at most
    `letters` letters among the coordinates x, each times its own unused
    parameter of the ParametricContext `ctx`.

    The x's have degree 0 and every other generator degree >= 1, so the
    monomials are x^beta N with |beta| <= letters and N one of finitely many.
    An identity multilinear in its arguments holds on generic ones exactly
    when it holds on every tuple of those monomials: distinct tuples carry
    distinct products of parameters."""
    alg, xs, out = ctx.algebra, set(ctx.ix_x), ctx.algebra.zero()
    monos = set()
    for length in range(degree + letters + 1):
        for word in itertools.combinations_with_replacement(ctx.generators, length):
            _, mono = alg.normalize_word(word)
            if mono is not None and alg.monomial_degree(mono) == degree \
                    and sum(g in xs for g in word) <= letters:
                monos.add(mono)
    for mono in sorted(monos):
        out = out + alg.monomial(mono) * alg.gen(next(ctx.unused))
    return ctx.section(out)


def legendre_pushforward(X, into):
    """F_* X = (F^-1)^* X F^*, a vector field on `into` from one on its mirror:
    both pullbacks are `legendre_pullback`, as the Legendre map is an involution."""
    src, values = into.mirror, {}
    for idx in range(len(into.algebra.gens)):
        pulled = legendre_pullback(into.section(into.algebra.gen(idx)), src).body
        values[idx] = legendre_pullback(src.section(X(pulled)), into).body
    return Derivation(into.algebra, X.degree, values)


def hom_line_derivation(ctx, rng, degree):
    """Random line derivation homogeneous of the given degree."""
    def hom_poly(d):
        out = ctx.algebra.zero()
        if d < 0:
            return out
        for _ in range(4):
            k = rng.randint(0, 3)
            word = [rng.choice(ctx.base_indices()) for _ in range(k)]
            _, mono = ctx.algebra.normalize_word(word)
            if mono is None or ctx.algebra.monomial_degree(mono) != d:
                continue
            out = out + Poly(ctx.algebra, {mono: Fraction(rng.randint(-2, 2))})
        return out
    return LineDerivation(ctx, degree, hom_poly(degree),
                          [hom_poly(degree) for _ in range(ctx.m)],
                          [hom_poly(degree + 1) for _ in range(ctx.n)])


def random_x_poly(ctx, rng, maxdeg=1):
    """Exponent-dict polynomial in the base coordinates only."""
    out = {}
    for _ in range(2):
        exps = tuple(rng.randint(0, maxdeg) for _ in range(ctx.m))
        out[exps] = out.get(exps, 0) + rng.randint(-2, 2)
    return out


def random_form_section(inst, rng, density=0.45):
    """Random pullback form (mixed degrees) with polynomial x-coefficients."""
    ctx = inst.context
    out = ctx.algebra.zero()
    for k in range(0, inst.n + 1):
        for combo in itertools.combinations(range(inst.n), k):
            if rng.random() < density:
                word = [ctx.ix_u[a] for a in combo]
                for i in range(ctx.m):
                    word += [ctx.ix_x[i]] * rng.randint(0, 1)
                _, mono = ctx.algebra.normalize_word(word)
                out = out + Poly(ctx.algebra, {mono: Fraction(rng.randint(-2, 2))})
    return ctx.section(out)


def assert_routes_agree(inst, rng, tuples):
    """The derived and closed m_0..m_3 of `inst` agree on `tuples` seeded triples of forms.

    m_0 is compared directly; m_k, k = 1, 2, 3, on the first k forms of each
    triple of `random_form_section`s, expanded multilinearly into words.
    """
    Qd, Qc = deformation_brackets(inst, "derived"), deformation_brackets(inst, "closed")
    assert Qd.coefficient(0, ()) == Qc.coefficient(0, ())
    for _ in range(tuples):
        vs = [section_to_vector(inst, random_form_section(inst, rng)) for _ in range(3)]
        for k in (1, 2, 3):
            rd, rc = {}, {}
            for word, coeff in Qd.space.expand_word_of_vectors(vs[:k]).items():
                add_into(rd, Qd.coefficient(k, word), coeff)
                add_into(rc, Qc.coefficient(k, word), coeff)
            assert rd == rc, (inst.name, k)


def assert_m2_closed_on_two_words(inst, out):
    """`m2_sharp_closed` equals the derived M_2 of `change_complement`'s `out` on
    every canonical 2-word, and some compared word has a nonzero M_2."""
    nonzero = 0
    for w in deformation_space(inst).words(basis_keys(inst), 2, 2):
        derived = vector_to_section(inst, out["M"].coefficient(2, w))
        assert m2_sharp_closed(inst, out["eps_section"], *word_to_sections(inst, w)) == derived, w
        nonzero += not derived.is_zero()
    assert nonzero, inst.name


def ordered_curve_coefficient(arities, bracket, curve, r):
    """Oracle for `linfty.curve_coefficient`: the t^r coefficient of
    sum_k (1/k!) Q_k(x,...,x), x(t) = sum_i t^i curve[i-1], summed over
    ordered index tuples, so each symmetric term is evaluated up to k! times.

    `bracket(vectors)` is Q_k on the list of k vectors; only the given
    `arities` are summed.
    """
    out = {}
    for k in arities:
        for idx in itertools.product(range(1, len(curve) + 1), repeat=k):
            if sum(idx) == r:
                add_into(out, bracket([curve[i - 1] for i in idx]),
                         Fraction(1, math.factorial(k)))
    return out


def settled(c) -> bool:
    """The kernel's scalar rule: an int while integral, else a Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def printed(stored):
    """A stored tensor (or list of them) as (key, printed entry) lists, in stored
    order: instances in two contexts compare by what they print."""
    rows = stored if isinstance(stored, list) else [stored]
    return [[(key, str(v)) for key, v in t.items()] for t in rows]

def antisymmetric_entry(tensor, idx, ctx):
    """A stored antisymmetric tensor's value at any index tuple: the entry of the
    sorted tuple times the sign of the sort, and zero on a repeated index."""
    zero = ctx.algebra.zero()
    if len(set(idx)) < len(idx):
        return zero
    order = sorted(range(len(idx)), key=idx.__getitem__)
    value = tensor.get(tuple(sorted(idx)), zero)
    return value if koszul_sign(order, (1,) * len(idx)) > 0 else -value


def dense_courant_tensor(inst, frame):
    """Oracle for `cjalg.courant_tensor`: every one of the k^3 entries
    <<[[u_i,u_j]],u_l>> = -{{{u_i,Theta},u_j},u_l}, keyed by (i, j, l) in
    index order, zeros included; no antisymmetry is assumed."""
    k = len(frame)
    return {(i, j, l): pairing(jacobi_bracket(jacobi_bracket(frame[i], inst.theta), frame[j]),
                               frame[l])
            for i, j, l in itertools.product(range(k), repeat=3)}


def random_instance(rng, m, n, name="rand"):
    """Fully random structure functions (no integrability expected)."""
    ctx = ContactContext(m, n)
    return SplitCJInstance(m, n, context=ctx, name=name, **random_structure(rng, ctx))


def random_structure(rng, ctx):
    """Random constructor entries at canonical keys: c and c_dual keyed (cc, a, b)
    with a < b, phi and psi with a < b < c."""
    m, n = ctx.m, ctx.n
    kw = dict(rho={}, c={}, lam={}, rho_dual={}, c_dual={}, lam_dual={}, phi={}, psi={})
    for i in range(m):
        for a in range(n):
            if rng.random() < 0.7:
                kw["rho"][(i, a)] = random_x_poly(ctx, rng)
            if rng.random() < 0.7:
                kw["rho_dual"][(i, a)] = random_x_poly(ctx, rng)
    for a in range(n):
        if rng.random() < 0.7:
            kw["lam"][a] = random_x_poly(ctx, rng)
        if rng.random() < 0.7:
            kw["lam_dual"][a] = random_x_poly(ctx, rng)
    for cc in range(n):
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < 0.6:
                kw["c"][(cc, a, b)] = random_x_poly(ctx, rng)
            if rng.random() < 0.6:
                kw["c_dual"][(cc, a, b)] = random_x_poly(ctx, rng)
    for a, b, cc in itertools.combinations(range(n), 3):
        if rng.random() < 0.7:
            kw["phi"][(a, b, cc)] = random_x_poly(ctx, rng)
        if rng.random() < 0.7:
            kw["psi"][(a, b, cc)] = random_x_poly(ctx, rng)
    return kw


@pytest.fixture
def heis2():
    return SplitCJInstance(0, 2, lam={0: 1}, name="HEIS2")


@pytest.fixture
def omni1():
    return SplitCJInstance(1, 2, lam={0: 1}, rho={(0, 1): 1}, name="OMNI1")


@pytest.fixture
def obst1():
    # frozen output of search_obstructed_instance(seed=42)
    return SplitCJInstance(0, 3, c_dual={(0, 0, 2): -1, (0, 1, 2): -1}, name="OBST1")


@pytest.fixture
def dgla1():
    return SplitCJInstance(0, 3, c={(1, 0, 1): 1, (2, 0, 2): 1},
                           c_dual={(1, 0, 2): 1}, name="DGLA1")


@pytest.fixture
def djmix():
    return SplitCJInstance(0, 3, c_dual={(2, 0, 1): 1}, psi={(0, 1, 2): 1}, name="DJMIX")


@pytest.fixture
def curv1():
    return SplitCJInstance(0, 3, lam={0: 1}, phi={(0, 1, 2): Fraction(2, 3)}, name="CURV1")


@pytest.fixture
def curvmix():
    # curved with a nonzero binary bracket: exercises the curvature column
    return SplitCJInstance(0, 3, c_dual={(2, 0, 1): 1},
                           phi={(0, 1, 2): Fraction(1, 2)}, name="CURVMIX")
