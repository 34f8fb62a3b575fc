"""Coalgebra machinery: coderivations, morphisms, exponentials."""

import itertools
import random
import types
from fractions import Fraction

import pytest

from cjde.cjalg import change_complement, deformation_brackets, deformation_space
from cjde.gca import add_into, koszul_sign
from cjde.linfty import (
    GradedSpace,
    TaylorCoderivation,
    TaylorMorphism,
    check_codifferential,
    check_morphism,
    curve_coefficient,
    exp_coderivation,
    exp_series,
    mc_residual,
    svec_add,
    _set_partitions,
)

from conftest import basis_keys, load_fixture, settled

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
    if coefficient(()):
        coeffs[0] = coefficient
    return TaylorCoderivation(Q.space, coeffs)


def first_residual(residual_of, words):
    """The first word with a nonzero full residual, and that residual."""
    for w in words:
        residual = residual_of(w)
        if residual:
            return w, residual
    return None


def pr1_entries(residual_of, words):
    """(word, one-letter part of its full residual) wherever that part is nonzero."""
    out = []
    for w in words:
        pr1 = {u: c for u, c in residual_of(w).items() if len(u) == 1}
        if pr1:
            out.append((w, pr1))
    return out


def q2(Q):
    """The full residual Q(Q(w)) of a word, built by `apply` and `apply_word`."""
    return lambda w: Q.apply(Q.apply_word(w))


def intertwining(phi, Q, Qp):
    """The full residual Q'(phi(w)) - phi(Q(w)) of a word."""
    return lambda w: svec_add(Qp.apply(phi.apply_word(w)),
                              add_into({}, phi.apply(Q.apply_word(w)), -1))


def seeded_structures(V, seed, max_len):
    """A codifferential Q, a random M of arities 2 and 3, and Q' = e^M Q e^{-M}.

    Odd seeds give Q a curvature.  Then one arity-2 coefficient of a copy of
    Q' is perturbed, so the copy is neither a codifferential nor intertwined
    with Q by e^M.
    """
    rng = random.Random(seed)
    coeffs = {1: lambda w: {"a": {"b": F(1)}, "c": {"e": F(1)}}.get(w[0], {})}
    if seed % 2:
        curvature = {"b": F(rng.choice([-1, 1]))}
        coeffs[0] = lambda w: curvature
    Q = TaylorCoderivation(V, coeffs)
    tables = {k: random_table(V, rng, k, 0) for k in (2, 3)}
    M = TaylorCoderivation(V, {k: from_table(t) for k, t in tables.items()})
    Mminus = TaylorCoderivation(V, {k: from_table({w: add_into({}, v, -1) for w, v in t.items()})
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
    cases = [(check_codifferential(Qq, words), first_residual(q2(Qq), words))
             for Qq in (Q, Qp, Qbad)]
    cases += [(check_morphism(eM, Q, Qq, words), first_residual(intertwining(eM, Q, Qq), words))
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
    for report, reference in [(check_codifferential(Q, words), first_residual(q2(Q), words)),
                              (check_morphism(phi, Q, Qp, words),
                               first_residual(intertwining(phi, Q, Qp), words))]:
        assert report.witness() == reference


@pytest.mark.parametrize("seed", range(6))
def test_checks_report_every_pr1_residual(V, seed):
    """Every report entry, not only the witness, is the pr_1 part of the full residual."""
    Q, eM, Qp, Qbad = seeded_structures(V, seed, 4)
    words = V.words(BASIS, 4)
    for Qq in (Q, Qp, Qbad):
        assert check_codifferential(Qq, words).entries == pr1_entries(q2(Qq), words)
    for Qq in (Qp, Qbad):
        assert check_morphism(eM, Q, Qq, words).entries == pr1_entries(intertwining(eM, Q, Qq),
                                                                       words)
    assert not check_morphism(eM, Q, Qbad, words).ok


def gapped(V, rng, arities, curvature):
    """A seeded Q of odd degree with exactly the given arities >= 1, and curvature if given."""
    coeffs = {k: from_table(random_table(V, rng, k, 1, density=0.7)) for k in arities}
    if curvature:
        coeffs[0] = lambda w: curvature
    return TaylorCoderivation(V, coeffs)


@pytest.mark.parametrize("seed", [0, 1, 3, 5])  # seeds whose reports all have entries
def test_checks_skip_missing_arities(V, seed):
    """Q of arities {0, 1, 3} and Q' without arity 2: every entry is the full residual's pr_1.

    The outer map of a term m_j(m_i(...), ...) has arity j = n - i + 1 on an
    n-word; visiting j = n - i, or every j up to the largest arity, reads an
    arity that is not there.
    """
    rng = random.Random(300 + seed)
    Q = gapped(V, rng, (1, 3), {"b": F(1)})
    Qp = gapped(V, rng, (1, 3), {"c": F(-1)} if seed % 2 else None)
    assert sorted(Q.coefficients) == [0, 1, 3] and 2 not in Qp.coefficients
    phi = TaylorMorphism(V, by_arity({1: identity, 2: from_table(random_table(V, rng, 2, 0)),
                                      3: from_table(random_table(V, rng, 3, 0))}))
    words = V.words(BASIS, 4)
    reports = [(check_codifferential(Qq, words), pr1_entries(q2(Qq), words)) for Qq in (Q, Qp)]
    reports.append((check_morphism(phi, Q, Qp, words),
                    pr1_entries(intertwining(phi, Q, Qp), words)))
    for report, entries in reports:
        assert report.entries == entries
        assert entries
    assert {3, 4} <= {len(w) for w, _ in reports[-1][1]}


def test_checks_need_sub_words_first(V):
    Q = differential(V, {"a": {"b": F(1)}})
    ident = TaylorMorphism(V, identity)
    for words in (V.words(BASIS, 3, 3), V.words(BASIS, 2, 1), V.words(BASIS, 2)[::-1]):
        with pytest.raises(ValueError, match="sub-word"):
            check_codifferential(Q, words)
        with pytest.raises(ValueError, match="sub-word"):
            check_morphism(ident, Q, Q, words)


def after_its_sub_words(word):
    """Every sub-word of `word` (its letters kept in order), shortest first, ending with it."""
    subs = {tuple(word[p] for p in sel) for k in range(len(word) + 1)
            for sel in itertools.combinations(range(len(word)), k)}
    return sorted(subs, key=len)


@pytest.mark.parametrize("word", [("c", "b"), ("b", "b"), ("e", "a", "a"), ("a", "c", "c")])
def test_non_canonical_words_are_refused(V, word):
    """A word that is unsorted or repeats an odd letter raises ValueError:
    the term sums insert letters into canonical words by bisection, so such a
    word would give wrong terms instead of being re-sorted."""
    Q = differential(V, {"a": {"b": F(1)}, "c": {"e": F(1)}})
    ident = TaylorMorphism(V, identity)
    words = after_its_sub_words(word)
    with pytest.raises(ValueError, match="not canonical"):
        Q.apply_word(word)
    with pytest.raises(ValueError, match="not canonical"):
        ident.apply_word(word)
    with pytest.raises(ValueError, match="not canonical"):
        check_codifferential(Q, words)
    with pytest.raises(ValueError, match="not canonical"):
        check_morphism(ident, Q, Q, words)
    # repeated even letters are canonical
    assert check_codifferential(Q, after_its_sub_words(("a", "a", "c"))).ok


def test_curved_check_needs_the_empty_word(V):
    # Q_0 = b, Q_1(b) = e: Q^2 = (e) on the empty word, so Q^2(a) = e (.) a is
    # nonzero with no one-letter part; only the empty word shows the failure
    Q = TaylorCoderivation(V, {0: lambda w: {"b": F(1)},
                               1: lambda w: {"e": F(1)} if w == ("b",) else {}})
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
    Mneg = TaylorCoderivation(V, {2: lambda w: add_into({}, M2.get(tuple(w), {}), -1)})
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


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("arities", [(2,), (2, 3)])
def test_exp_recursion_matches_the_series(V, arities, seed):
    """e^M's coefficient, by recursion on sub-words, is the one-letter part of
    `exp_series` on every word through arity 5, with int and Fraction entries,
    and holds kernel scalars."""
    rng = random.Random(seed)
    scalars = [-2, -1, 1, 2, F(1, 2), F(-2, 3)]
    tables = {}
    for k in arities:
        tables[k] = {w: {key: rng.choice(scalars) for key in BASIS
                         if V.degree(key) == V.word_degree(w) and rng.random() < 0.6}
                     for w in V.words(BASIS, k, k)}
    M = TaylorCoderivation(V, {k: from_table(t) for k, t in tables.items()})
    eM = exp_coderivation(M)
    nonzero = 0
    for w in V.words(BASIS, 5, 1):
        series = {u[0]: c for u, c in exp_series(M, {w: 1}).items() if len(u) == 1}
        got = eM.coefficient(len(w), w)
        assert got == series, w
        assert all(map(settled, got.values())), (w, got)
        nonzero += len(w) > 2 and bool(series)
    assert nonzero


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


def test_curvature_follows_the_memo_rule(V):
    """Arity 0 is a coefficient like the others: memoised on the empty word,
    called as given once replaced, and a bare Vector is no coefficient."""
    calls = []

    def m0(word):
        calls.append(word)
        return {"b": F(1)}
    Q = TaylorCoderivation(V, {0: m0})
    first = Q.coefficient(0, ())
    assert Q.coefficient(0, ()) is first and calls == [()]
    Q.coefficients[0] = lambda w: {"e": F(2)}
    assert Q.coefficient(0, ()) == {"e": F(2)}
    with pytest.raises(TypeError):
        TaylorCoderivation(V, {0: {"b": F(1)}})


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
        Qc = TaylorCoderivation(V, {0: lambda w: {"b": F(1)}, **coeff})
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
    Qc = TaylorCoderivation(V, {0: lambda w: {"b": F(1)}})
    assert mc_residual(Qc, {}) == {"b": F(1)}


def test_mc_residual_int_coefficients_stay_exact(V):
    # 1/k! on an int coefficient used to give a float
    Q = TaylorCoderivation(V, {2: lambda w: {"b": 1} if w == ("a", "a") else {},
                               3: lambda w: {"c": 1} if w == ("a", "a", "a") else {}})
    out = mc_residual(Q, {"a": 1})
    assert out == {"b": F(1, 2), "c": F(1, 6)}
    assert all(type(c) is F for c in out.values())


@pytest.mark.parametrize("name", ["curv1", "dgla1", "djmix", "djmix4", "heis2", "obst1", "omni1"])
def test_coefficients_hold_kernel_scalars(name):
    """Through arity 3 every L-infinity value is an int, or a Fraction that is
    not integral: the Taylor coefficients of both routes' Q, of M and e^M, the
    curve coefficients and the MC residual.  A weight 1/j taken as `/` between
    two ints would be a float, and an integral sum left a Fraction would fail."""
    doc = load_fixture(name)
    inst = doc.instance
    space = deformation_space(inst)
    words = space.words(basis_keys(inst), 3)
    forms = sorted(key for key in basis_keys(inst) if not space.degree(key))
    rng = random.Random(37)
    scalars = [1, -2, F(1, 2), F(2, 3)]
    curves = [[{key: rng.choice(scalars) for key in forms if rng.random() < 0.7}
               for _ in range(2)] for _ in range(3)]
    checked = []
    for route in ("derived", "closed"):
        Q = deformation_brackets(inst, route)
        checked += [(route, w, Q.coefficient(len(w), w)) for w in words]
        for curve in curves:
            checked += [(route, "curve", curve_coefficient(Q, curve, r)) for r in range(5)]
            checked.append((route, "mc", mc_residual(Q, curve[0])))
    if name in ("djmix", "heis2", "omni1"):
        out = change_complement(inst, doc.epsilons["eps1"])
        checked += [(kind, w, phi.coefficient(len(w), w))
                    for kind, phi in (("M", out["M"]), ("e^M", out["exp_M"]))
                    for w in words if w and (kind == "e^M" or len(w) == 2)]
    for route, word, vec in checked:
        assert all(map(settled, vec.values())), (route, word, vec)
    assert any(type(c) is int for _, _, vec in checked for c in vec.values())


@pytest.mark.parametrize("n", range(8))
def test_set_partitions_come_in_canonical_order(n):
    """Every set partition of {0..n-1} once (the Bell number of them), listed
    under its block count, each block increasing and the blocks ordered by
    their first element, which the partition sum of a morphism relies on."""
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    by_blocks = _set_partitions(n)
    partitions = [p for ps in by_blocks for p in ps]
    assert len(by_blocks) == n + 1
    assert all(len(p) == k for k, ps in enumerate(by_blocks) for p in ps)
    assert len(partitions) == bell[n]
    assert len({tuple(map(tuple, p)) for p in partitions}) == bell[n]
    for p in partitions:
        assert sorted(i for b in p for i in b) == list(range(n))
        assert all(b == sorted(b) for b in p)
        assert [b[0] for b in p] == sorted(b[0] for b in p)


def odd_inversion_sign(order, pattern):
    """-1 to the number of pairs of odd positions that `order` puts out of order."""
    odd = [p for p in order if pattern[p]]
    return (-1) ** sum(a > b for a, b in itertools.combinations(odd, 2))


@pytest.mark.parametrize("n", range(7))
def test_sign_tables_match_koszul_sign(n):
    """Every unshuffle and set partition the space lists, for every parity
    pattern of an n-word, carries the Koszul sign of its reordering, read
    back from the space's table after all patterns have filled it."""
    space = GradedSpace({}.__getitem__)  # the tables are read by parity pattern, not by key
    patterns = list(itertools.product((False, True), repeat=n))
    orders = []
    for i in range(n + 1):
        listed = space._unshuffles(n, i)
        assert [sel for sel, _, _ in listed] == list(itertools.combinations(range(n), i))
        for sel, rest, order in listed:
            assert order == sel + rest and sorted(order) == list(range(n))
            assert list(rest) == sorted(rest)
            orders.append(order)
    by_blocks = space._partitions(n)
    assert [[p for p, _ in ps] for ps in by_blocks] == _set_partitions(n)
    for ps in by_blocks:
        for p, order in ps:
            assert order == tuple(q for b in p for q in b)
            orders.append(order)
    for pattern in patterns:
        for order in orders:
            space._sign(pattern, order)
    for pattern in patterns:
        for order in orders:
            expected = koszul_sign(order, pattern)
            assert expected == odd_inversion_sign(order, pattern)
            assert space._sign(pattern, order) == expected
