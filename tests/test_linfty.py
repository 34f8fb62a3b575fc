"""Coalgebra machinery: coderivations, morphisms, exponentials, decalage."""

import random
import types
from fractions import Fraction

import pytest

from cjde.linfty import (
    GradedSpace,
    TaylorCoderivation,
    TaylorMorphism,
    check_codifferential,
    check_morphism,
    decalage_down,
    decalage_up,
    exp_coderivation,
    exp_series,
    mc_residual,
    svec_add,
    svec_scale as vec_scale,
)

F = Fraction
BASIS = ["a", "b", "c", "e"]


@pytest.fixture
def V():
    # a: deg 0, b,c: deg 1, e: deg 2
    return GradedSpace({"a": 0, "b": 1, "c": 1, "e": 2}.__getitem__)


def differential(V, table):
    return TaylorCoderivation(V, {1: lambda w: dict(table.get(w[0], {}))})


def identity(w):
    return {w[0]: F(1)} if len(w) == 1 else {}


def by_arity(coefficients):
    """One morphism coefficient function from per-arity ones; missing arities are zero."""
    return lambda w: coefficients[len(w)](w) if len(w) in coefficients else {}


def test_word_normalization(V):
    sign, w = V.normalize_letters(("c", "b"))
    assert sign == -1 and w == ("b", "c")
    sign, w = V.normalize_letters(("b", "b"))
    assert w is None
    sign, w = V.normalize_letters(("e", "a"))
    assert sign == 1 and w == ("a", "e")
    # even letters may repeat
    sign, w = V.normalize_letters(("a", "a"))
    assert w == ("a", "a")


def test_coderivation_derivation_case(V):
    # Q1 = d with d(a)=b, d(c)=e: on 2-words the two unshuffle terms
    Q = differential(V, {"a": {"b": F(1)}, "c": {"e": F(1)}})
    assert Q.apply_word(("b", "c")) == {("b", "e"): F(-1)}
    assert Q.apply_word(("a", "c")) == {("b", "c"): F(1), ("a", "e"): F(1)}


def test_coderivation_q2_unshuffles(V):
    # Q2-only on a 3-word: three (2,1)-unshuffles
    Q2 = {("b", "c"): {"a": F(1)}}
    Q = TaylorCoderivation(V, {2: lambda w: dict(Q2.get(tuple(w), {}))})
    out = Q.apply_word(("a", "b", "c"))
    # only the (b,c) pair contributes; moving the pair to the front crosses
    # nothing odd except within (b,c) order kept
    assert out == {("a", "a"): F(1)}


def test_zero_family(V):
    Q = TaylorCoderivation(V, {})
    assert Q.apply_word(("a", "b")) == {}


def test_codifferential_check_and_negative(V):
    good = differential(V, {"a": {"b": F(1)}})
    words = V.words(BASIS, 3)
    assert check_codifferential(good, words).ok
    bad = differential(V, {"a": {"b": F(1)}, "b": {"e": F(1)}})
    rep = check_codifferential(bad, words)
    assert not rep.ok
    word, residual = rep.witness()
    assert residual  # nonzero witness


def test_morphism_identity_and_composition(V):
    ident = TaylorMorphism(V, identity)
    for w in V.words(BASIS, 4):
        assert ident.apply_word(w) == {w: F(1)}
    Q = differential(V, {"a": {"b": F(1)}})
    assert check_morphism(ident, Q, Q, V.words(BASIS, 3)).ok


def test_morphism_arity2_coefficient(V):
    B = {("b", "c"): {"e": F(2)}}
    phi = TaylorMorphism(V, by_arity({1: identity, 2: lambda w: dict(B.get(tuple(w), {}))}))
    assert phi.apply_word(("b", "c")) == {("b", "c"): F(1), ("e",): F(2)}


def test_morphism_negative_control(V):
    ident = TaylorMorphism(V, identity)
    Q = differential(V, {"a": {"b": F(1)}})
    Qp = differential(V, {"a": {"c": F(1)}})
    assert not check_morphism(ident, Q, Qp, V.words(BASIS, 2)).ok


def random_table(V, rng, arity, shift, density=0.5):
    """Seeded coefficients of one arity, each word sent to degree word_degree + shift."""
    table = {}
    for w in V.words(BASIS, arity, arity):
        vec = {key: F(rng.randint(-2, 2)) for key in BASIS
               if V.degree(key) == V.word_degree(w) + shift and rng.random() < density}
        table[w] = {key: c for key, c in vec.items() if c}
    return table


def from_table(table):
    return lambda w: table.get(tuple(w), {})


def conjugate(Q, M, Mminus, max_len):
    """e^M Q e^{-M} by its Taylor coefficients: a coderivation, and a codifferential with Q.

    Exact on words of length <= max_len: a curvature lengthens a word by one
    letter before the next coefficient reads it.
    """
    def coefficient(w):
        full = exp_series(M, Q.apply(exp_series(Mminus, {tuple(w): F(1)})))
        return {wd[0]: c for wd, c in full.items() if len(wd) == 1}
    coeffs = {k: coefficient for k in range(1, max_len + 2)}
    curvature = coefficient(())
    if curvature:
        coeffs[0] = curvature
    return TaylorCoderivation(Q.space, coeffs)


def first_residual(residual_of, words):
    """The first word with a nonzero full residual, and that residual."""
    for w in words:
        residual = residual_of(w)
        if residual:
            return w, residual
    return None


def reference_codifferential(Q, words):
    return first_residual(lambda w: Q.apply(Q.apply_word(w)), words)


def reference_morphism(phi, Q, Qp, words):
    return first_residual(lambda w: svec_add(Qp.apply(phi.apply_word(w)),
                                             vec_scale(phi.apply(Q.apply_word(w)), -1)), words)


def seeded_structures(V, seed, max_len):
    """A codifferential Q, a random M of arities 2 and 3, and Q' = e^M Q e^{-M}.

    Odd seeds give Q a curvature.  Then one arity-2 coefficient of a copy of
    Q' is perturbed, so the copy is neither a codifferential nor intertwined
    with Q by e^M.
    """
    rng = random.Random(seed)
    coeffs = {1: lambda w: {"a": {"b": F(1)}, "c": {"e": F(1)}}.get(w[0], {})}
    if seed % 2:
        coeffs[0] = {"b": F(rng.choice([-1, 1]))}
    Q = TaylorCoderivation(V, coeffs)
    tables = {k: random_table(V, rng, k, 0) for k in (2, 3)}
    M = TaylorCoderivation(V, {k: from_table(t) for k, t in tables.items()})
    Mminus = TaylorCoderivation(V, {k: from_table({w: vec_scale(v, -1) for w, v in t.items()})
                                    for k, t in tables.items()})
    eM = exp_coderivation(M)
    Qp = conjugate(Q, M, Mminus, max_len)
    bad_word, bad_key = rng.choice([(w, key) for w in V.words(BASIS, 2, 2) for key in BASIS
                                    if V.degree(key) == V.word_degree(w) + 1])
    broken = dict(Qp.coefficients)
    q2 = broken[2]
    broken[2] = lambda w: svec_add(q2(w), {bad_key: F(1)}) if tuple(w) == bad_word else q2(w)
    Qbad = TaylorCoderivation(V, broken)
    return Q, eM, Qp, Qbad


@pytest.mark.parametrize("seed", range(6))
def test_corestriction_checks_match_full_residuals(V, seed):
    """pr_1 decides both checks: same verdict, same first word, same first residual."""
    Q, eM, Qp, Qbad = seeded_structures(V, seed, 4)
    words = V.words(BASIS, 4)
    cases = [(check_codifferential(Qq, words), reference_codifferential(Qq, words))
             for Qq in (Q, Qp, Qbad)]
    cases += [(check_morphism(eM, Q, Qq, words), reference_morphism(eM, Q, Qq, words))
              for Qq in (Qp, Qbad)]
    for report, reference in cases:
        assert report.witness() == reference
    assert [report.ok for report, _ in cases] == [True, True, False, True, False]


@pytest.mark.parametrize("seed", range(4))
def test_corestriction_checks_match_on_random_coefficients(V, seed):
    """Unrelated seeded Q, Q' and phi: the first witness is the full residual's.

    Without arities 0 and 1 the first residual of Q^2 sits on a longer word.
    """
    rng = random.Random(100 + seed)
    Q, Qp = (TaylorCoderivation(V, {k: from_table(random_table(V, rng, k, 1))
                                    for k in (2, 3)}) for _ in range(2))
    phi = TaylorMorphism(V, by_arity({1: identity, 2: from_table(random_table(V, rng, 2, 0))}))
    words = V.words(BASIS, 4)
    for report, reference in [(check_codifferential(Q, words), reference_codifferential(Q, words)),
                              (check_morphism(phi, Q, Qp, words),
                               reference_morphism(phi, Q, Qp, words))]:
        assert report.witness() == reference


def test_checks_need_sub_words_first(V):
    Q = differential(V, {"a": {"b": F(1)}})
    ident = TaylorMorphism(V, identity)
    for words in (V.words(BASIS, 3, 3), V.words(BASIS, 2, 1), V.words(BASIS, 2)[::-1]):
        with pytest.raises(ValueError, match="sub-word"):
            check_codifferential(Q, words)
        with pytest.raises(ValueError, match="sub-word"):
            check_morphism(ident, Q, Q, words)


def test_curved_check_needs_the_empty_word(V):
    # Q_0 = b, Q_1(b) = e: Q^2 = (e) on the empty word, so Q^2(a) = e (.) a is
    # nonzero with no one-letter part; only the empty word shows the failure
    Q = TaylorCoderivation(V, {0: {"b": F(1)}, 1: lambda w: {"e": F(1)} if w == ("b",) else {}})
    assert Q.apply(Q.apply_word(("a",))) == {("a", "e"): F(1)}
    with pytest.raises(ValueError, match="sub-word"):
        check_codifferential(Q, V.words(BASIS, 2, 1))
    assert check_codifferential(Q, V.words(BASIS, 2)).witness() == ((), {("e",): F(1)})


def test_morphism_coalgebra_property(V):
    """(phi (x) phi) o mu = mu' o phi on words up to length 4."""
    rng = random.Random(0)
    table2 = {}
    table3 = {}
    for w in V.words(BASIS, 2, 2):
        table2[w] = {k: F(rng.randint(-2, 2)) for k in BASIS
                     if V.degree(k) == V.word_degree(w) and rng.random() < 0.6}
    for w in V.words(BASIS, 3, 3):
        table3[w] = {k: F(rng.randint(-2, 2)) for k in BASIS
                     if V.degree(k) == V.word_degree(w) and rng.random() < 0.4}
    phi = TaylorMorphism(V, by_arity({
        1: identity,
        2: lambda w: dict(table2.get(tuple(w), {})),
        3: lambda w: dict(table3.get(tuple(w), {})),
    }))

    def coproduct(space, sv):
        """Reduced coproduct into pairs of canonical words, as a dict."""
        out = {}
        for word, c in sv.items():
            n = len(word)
            degs = [space.degree(k) for k in word]
            import itertools as it
            from cjde.gca import koszul_sign
            for i in range(1, n):
                for sel in it.combinations(range(n), i):
                    rest = tuple(p for p in range(n) if p not in sel)
                    perm = list(sel) + list(rest)
                    sign = koszul_sign(perm, degs)
                    left = tuple(word[p] for p in sel)
                    right = tuple(word[p] for p in rest)
                    key = (left, right)
                    out[key] = out.get(key, F(0)) + sign * c
        return {k: v for k, v in out.items() if v}

    for w in V.words(BASIS, 4, 2):
        lhs = {}
        for (left, right), c in coproduct(V, {w: F(1)}).items():
            for lw, lc in phi.apply_word(left).items():
                for rw, rc in phi.apply_word(right).items():
                    key = (lw, rw)
                    lhs[key] = lhs.get(key, F(0)) + c * lc * rc
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = coproduct(V, phi.apply_word(w))
        assert lhs == rhs


def test_morphism_composition_arity_one(V):
    """The arity-1 Taylor coefficient of a composition is the composition."""
    rng = random.Random(3)
    t_phi = {k: {kk: F(rng.randint(-2, 2)) for kk in BASIS if V.degree(kk) == V.degree(k)}
             for k in BASIS}
    t_psi = {k: {kk: F(rng.randint(-2, 2)) for kk in BASIS if V.degree(kk) == V.degree(k)}
             for k in BASIS}
    phi = TaylorMorphism(V, by_arity({1: lambda w: dict(t_phi[w[0]])}))
    psi = TaylorMorphism(V, by_arity({1: lambda w: dict(t_psi[w[0]])}))
    for key in BASIS:
        composed = phi.apply(psi.apply_word((key,)))
        pr1 = {w[0]: c for w, c in composed.items() if len(w) == 1}
        direct = {}
        for mid, c in t_psi[key].items():
            for out, d in t_phi[mid].items():
                direct[out] = direct.get(out, F(0)) + c * d
        assert pr1 == {k: v for k, v in direct.items() if v}


def test_taylor_roundtrip(V):
    """Extracting Taylor coefficients of an assembled coderivation returns them."""
    rng = random.Random(1)
    tables = {}
    for k in (1, 2, 3):
        tables[k] = {}
        for w in V.words(BASIS, k, k):
            tables[k][w] = {key: F(rng.randint(-2, 2)) for key in BASIS
                            if V.degree(key) == V.word_degree(w) + 1 and rng.random() < 0.6}
    Q = TaylorCoderivation(V, {
        k: (lambda tb: lambda w: dict(tb.get(tuple(w), {})))(tables[k])
        for k in (1, 2, 3)})
    for k in (1, 2, 3):
        for w in V.words(BASIS, k, k):
            full = Q.apply_word(w)
            pr1 = {wd[0]: c for wd, c in full.items() if len(wd) == 1}
            assert pr1 == {kk: v for kk, v in tables[k].get(w, {}).items() if v}


def test_exp_coderivation(V):
    M2 = {("b", "c"): {"a": F(3)}}
    M = TaylorCoderivation(V, {2: lambda w: dict(M2.get(tuple(w), {}))})
    eM = exp_coderivation(M)
    assert eM.coefficient(1, ("b",)) == {"b": F(1)}
    assert eM.coefficient(2, ("b", "c")) == {"a": F(3)}
    Mneg = TaylorCoderivation(V, {2: lambda w: vec_scale(M2.get(tuple(w), {}), -1)})
    for w in V.words(BASIS, 4):
        assert exp_series(Mneg, exp_series(M, {w: F(1)})) == {w: F(1)}
        # partition-sum reconstruction agrees with the series action
        assert eM.apply_word(w) == exp_series(M, {w: F(1)})


def test_exp_coefficients_at_every_arity():
    # one even key, M_2(a, a) = a: the arity-k coefficient of e^M is what the
    # series gives on the k-word, past any fixed arity cap
    W = GradedSpace({"a": 0}.__getitem__)
    M = TaylorCoderivation(W, {2: lambda w: {"a": F(1)}})
    eM = exp_coderivation(M)
    assert eM.coefficient(9, ("a",) * 9) == {"a": F(2835, 2)}
    for k in range(1, 12):
        word = ("a",) * k
        series = exp_series(M, {word: F(1)})
        assert eM.coefficient(k, word) == {"a": series[("a",)]}


def test_exp_series_raises_when_words_do_not_shorten(V):
    M = TaylorCoderivation(V, {2: lambda w: {}})
    eM = exp_coderivation(M)
    M.coefficients[1] = lambda w: {w[0]: F(1)}  # no longer lowers word length
    with pytest.raises(RuntimeError):
        exp_series(M, {("a", "b"): F(1)})
    with pytest.raises(RuntimeError):
        eM.coefficient(2, ("a", "b"))


def test_coefficients_memoised_per_word(V):
    calls = []

    def m2(word):
        calls.append(word)
        return {"a": F(1)} if word == ("b", "c") else {}
    Q = TaylorCoderivation(V, {2: m2})
    first = [Q.apply_word(w) for w in V.words(BASIS, 3, 3)]
    assert [Q.apply_word(w) for w in V.words(BASIS, 3, 3)] == first
    assert len(calls) == len(set(calls))
    # a replaced entry is called as given, never served from the old memo
    Q.coefficients[2] = lambda w: {}
    assert Q.apply_word(("a", "b", "c")) == {}

    phi_calls = []
    phi = TaylorMorphism(V, lambda w: phi_calls.append(w) or identity(w))
    for _ in range(2):
        assert phi.apply_word(("a", "b")) == {("a", "b"): F(1)}
    assert sorted(phi_calls) == [("a",), ("a", "b"), ("b",)]  # each word once


def test_read_only_coefficients_give_the_same_results(V):
    """Sums only read the Vectors that coefficients return (module docstring).

    With plain dicts, an in-place sum into a returned Vector would change the
    table behind it; with read-only views it would raise.
    """
    rng = random.Random(5)
    tables = {k: {w: {key: F(rng.randint(-2, 2)) for key in BASIS if rng.random() < 0.6}
                  for w in V.words(BASIS, k, k)}
              for k in (1, 2, 3)}
    words = V.words(BASIS, 3)

    def results(wrap):
        views = {k: {w: wrap(vec) for w, vec in t.items()} for k, t in tables.items()}
        coeff = {k: (lambda t: lambda w: t.get(tuple(w), wrap({})))(views[k])
                 for k in views}
        Q = TaylorCoderivation(V, dict(coeff))
        phi = TaylorMorphism(V, by_arity({1: lambda w: wrap({w[0]: F(1)}), 2: coeff[2]}))
        M = TaylorCoderivation(V, {2: coeff[2], 3: coeff[3]})
        Qc = TaylorCoderivation(V, {0: {"b": F(1)}, **coeff})
        return (check_codifferential(Q, words).entries,
                check_morphism(phi, Q, Q, words).entries,
                [exp_series(M, {w: F(1)}) for w in words],
                mc_residual(Qc, {"a": F(1, 2)}))

    plain = results(lambda vec: vec)
    assert plain == results(types.MappingProxyType)
    assert all(plain[:2]) and any(plain[2]) and plain[3]


def test_exp_requires_lowering(V):
    M = TaylorCoderivation(V, {1: lambda w: {w[0]: F(1)}})
    with pytest.raises(ValueError):
        exp_coderivation(M)


def test_mc_residual(V):
    # abelian structure: only m1 = d with d(a) = b
    Q = differential(V, {"a": {"b": F(1)}})
    assert mc_residual(Q, {}) == {}
    assert mc_residual(Q, {"a": F(2)}) == {"b": F(2)}
    with pytest.raises(ValueError):
        mc_residual(Q, {"b": F(1)})  # degree 1, not 0
    with pytest.raises(ValueError, match="degree 0"):
        mc_residual(Q, {"e": F(1)})  # degree 2: even, but not 0
    # curved: m0 alone survives at eta = 0
    Qc = TaylorCoderivation(V, {0: {"b": F(1)}})
    assert mc_residual(Qc, {}) == {"b": F(1)}


def test_mc_residual_int_coefficients_stay_exact(V):
    # 1/k! on an int coefficient used to give a float
    Q = TaylorCoderivation(V, {2: lambda w: {"b": 1} if w == ("a", "a") else {},
                               3: lambda w: {"c": 1} if w == ("a", "a", "a") else {}})
    out = mc_residual(Q, {"a": 1})
    assert out == {"b": F(1, 2), "c": F(1, 6)}
    assert all(type(c) is F for c in out.values())


def test_decalage_examples(V):
    unshift = lambda key: V.degree(key) + 1

    def m1(word):
        return {"e": F(1)} if word[0] == "b" else {}
    mu1 = decalage_down(m1, 1, unshift)
    # k=1: mu_1 = (-1)^1 (-1)^0 m_1 = -m_1 (independent of degrees)
    assert mu1(("b",)) == {"e": F(-1)}

    def m2(word):
        return {"e": F(1)} if tuple(word) == ("a", "b") else {}
    mu2 = decalage_down(m2, 2, unshift)
    # k=2 on (a,b): sign (-1)^2 (-1)^{(2-1)|a| + 0} = (-1)^{|a|_unshifted} = -1
    assert mu2(("a", "b")) == {"e": F(-1)}


def test_decalage_roundtrip(V):
    rng = random.Random(2)
    unshift = lambda key: V.degree(key) + 1
    for k in (1, 2, 3):
        table = {}
        for w in V.words(BASIS, k, k):
            table[w] = {key: F(rng.randint(-2, 2)) for key in BASIS}
        mk = lambda word, t=table: dict(t.get(tuple(word), {}))
        back = decalage_up(decalage_down(mk, k, unshift), k, unshift)
        for w in V.words(BASIS, k, k):
            assert mk(w) == back(w)
