"""Symmetric-coalgebra machinery: coderivations, morphisms, MC elements, decalage.

A graded space is described by a degree function on hashable, orderable basis
keys; vectors are finite rational combinations of keys and words are canonical
tuples of keys.  Taylor coefficients are callables on canonical words, and
coderivations/morphisms are rebuilt from them by the usual unshuffle and
partition sums.  Every computation carries an explicit arity truncation since
the symmetric coalgebra is infinite-dimensional.

An L-infinity[1] algebra is its codifferential Q, a `TaylorCoderivation`:
`Q.coefficient(k, w)` is the bracket m_k(w), and arity 0, when Q has it, is
the curvature m_0.  The contact model's m_k and M_2 (`cjalg`) are higher
derived brackets of one V-data (`vdata`), Phi = -Theta or eps, made
coefficients by one prefix fold.  A `TaylorMorphism` maps a space to itself
and is given by one coefficient function on canonical words of every length
>= 1; a word's length is its arity.  `exp_coderivation` builds e^M as such a
morphism in one step: its coefficient on a word is the one-letter part of
`exp_series`, the series sum_j M^j / j! on that word.

A Taylor coefficient is a pure function of its canonical word, and the sums
above evaluate the same coefficient on the same word many times.  So
`TaylorCoderivation` memoises every coefficient of arity >= 1 and
`TaylorMorphism` its one coefficient function: when the object is built,
each function is wrapped in a callable that keeps one dict of results, keyed
by canonical word.  The memo belongs to that wrapper, so it is freed with the
structure, and a coderivation entry replaced later (`Q.coefficients[2] = f`)
is called as given and never meets a result cached for the old entry.  A
coefficient function may keep a memo of its own, under the same rule: the
derived route's keeps the unprojected bracket of each word prefix
(`vdata.derived_bracket_fold`), and that memo belongs to the coefficient
function, so it is freed with the function and so with its Q or M.  No
structure or memo is cached on an instance or in a module-level table.  A
memoised vector is shared by every later call, so the Vector a coefficient
returns is read-only.  Every sum here accumulates with `gca.add_into` into a
dict that the summing function created itself, and only reads the
coefficients it adds; `svec_scale` and `svec_add` return new dicts.

`check_codifferential` and `check_morphism` decide Q^2 = 0 and
Q' phi = phi Q by the one-letter part pr_1 of the residual on each word.
pr_1 of a coderivation or morphism F on a word u is F's Taylor coefficient
of arity |u| at u, so pr_1 of Q(Q(w)) is read off Q(w) and the coefficients
of Q, and Q(Q(w)) is never built.  Both residuals are coderivations (along
phi for the morphism), so a residual that vanishes on every proper sub-word
of w is primitive on w: it equals its pr_1 part.  The checks therefore take
words in which each word's one-letter-shorter sub-words come earlier
(`GradedSpace.words` gives them so) and raise ValueError on any other list.

`curve_coefficient` expands sum_k (1/k!) Q_k(x,...,x) along a formal curve
x(t): `mc_residual` and the deformation workflow's MC curves both use it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .gca import add_into, koszul_sign, koszul_sort

Vector = Dict[object, Fraction]
Word = Tuple[object, ...]
SVector = Dict[Word, Fraction]

__all__ = [
    "GradedSpace",
    "TaylorCoderivation",
    "TaylorMorphism",
    "ResidualReport",
    "check_codifferential",
    "check_morphism",
    "exp_coderivation",
    "exp_series",
    "curve_coefficient",
    "mc_residual",
    "decalage_down",
    "decalage_up",
    "svec_add",
    "svec_scale",
]


def svec_add(a: Dict, b: Dict) -> Dict:
    """a + b as a new dict; works for Vectors and SVectors alike."""
    return add_into(dict(a), b)


def svec_scale(a: Dict, c: Union[int, Fraction]) -> Dict:
    """c * a as a new dict; works for Vectors and SVectors alike."""
    c = Fraction(c)
    return {k: c * v for k, v in a.items()} if c else {}


class GradedSpace:
    """Degrees (and hence Koszul parities) for basis keys of a graded space."""

    def __init__(self, degree: Callable[[object], int]):
        """`degree` maps a basis key to its degree."""
        self.degree = degree

    # --- words ----------------------------------------------------------

    def _is_odd(self, key: object) -> bool:
        return self.degree(key) % 2 == 1

    def normalize_letters(self, letters: Sequence[object]) -> Tuple[int, Optional[Word]]:
        """Canonical word for a sequence of keys: (koszul sign, word) or (1, None)=0."""
        sign, perm = koszul_sort(letters, self._is_odd)
        if not sign:
            return 1, None
        return sign, tuple(letters[i] for i in perm)

    def word_degree(self, word: Word) -> int:
        return sum(self.degree(k) for k in word)

    def words(self, basis: Sequence[object], max_len: int, min_len: int = 0) -> List[Word]:
        """All canonical words over `basis` with length in [min_len, max_len]."""
        basis = sorted(basis)
        out: List[Word] = []
        for L in range(min_len, max_len + 1):
            for combo in itertools.combinations_with_replacement(basis, L):
                if koszul_sort(combo, self._is_odd)[0]:
                    out.append(combo)
        return out

    def _signed_words(self, terms: Iterable[Tuple[Sequence[object], Fraction]]
                      ) -> Iterable[Tuple[Word, Fraction]]:
        """(canonical word, signed coefficient) for each (letters, coefficient)."""
        for letters, c in terms:
            sign, w = self.normalize_letters(letters)
            if w is not None:
                yield w, (c if sign > 0 else -c)

    def symmetric_insert(self, vec: Vector, word: Word) -> SVector:
        """Expand v (+) word multilinearly into canonical words."""
        word = tuple(word)
        return add_into({}, self._signed_words(((key,) + word, c) for key, c in vec.items()))

    def expand_word_of_vectors(self, vectors: Sequence[Vector]) -> SVector:
        """Multilinear expansion of v_1 (+) ... (+) v_k into canonical words."""
        out: SVector = {(): Fraction(1)}
        for vec in vectors:
            out = add_into({}, self._signed_words(
                (word + (key,), cw * c) for word, cw in out.items() for key, c in vec.items()))
        return out


def _memoised(fn: Callable[[Word], Vector]) -> Callable[[Word], Vector]:
    """`fn` computed once per canonical word; see the module docstring."""
    memo: Dict[Word, Vector] = {}

    def coefficient(word: Word) -> Vector:
        try:
            return memo[word]
        except KeyError:
            value = memo[word] = fn(word)
            return value
    return coefficient


def _unshuffles(n: int, i: int) -> Iterable[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    positions = range(n)
    for sel in itertools.combinations(positions, i):
        rest = tuple(p for p in positions if p not in sel)
        yield sel, rest


class _WordwiseLinear:
    """`apply`: the linear extension of a map given on words by `apply_word`."""

    def apply(self, sv: SVector) -> SVector:
        out: SVector = {}
        for word, c in sv.items():
            add_into(out, self.apply_word(word), c)
        return out


class TaylorCoderivation(_WordwiseLinear):
    """A coderivation of the symmetric coalgebra, by its Taylor coefficients.

    `coefficients[k]` maps a canonical k-word to a Vector; arity 0, when
    present, is the curvature element (a Vector).  Arities missing from the
    dict are zero maps.  Coefficients of arity >= 1 are memoised per word and
    their Vectors are read-only (module docstring).
    """

    def __init__(self, space: GradedSpace,
                 coefficients: Dict[int, Union[Callable[[Word], Vector], Vector]]):
        self.space = space
        self.coefficients = {k: entry if k == 0 else _memoised(entry)
                             for k, entry in coefficients.items()}

    def arities(self) -> List[int]:
        return sorted(self.coefficients)

    def coefficient(self, k: int, word: Word) -> Vector:
        if k not in self.coefficients:
            return {}
        entry = self.coefficients[k]
        if k == 0:
            return dict(entry)
        return entry(word)

    def to_coderivation(self) -> "TaylorCoderivation":
        """This coderivation: `perfbench/workloads.py` still calls `to_coderivation`."""
        return self

    def apply_word(self, word: Word) -> SVector:
        """Full coderivation on one canonical word, via the unshuffle sum."""
        n = len(word)
        degs = [self.space.degree(k) for k in word]
        out: SVector = {}
        for i in self.arities():
            if i > n:
                continue
            for sel, rest in _unshuffles(n, i):
                # subwords of a canonical word are canonical
                head = self.coefficient(i, tuple(word[p] for p in sel))
                if head:
                    tail = tuple(word[p] for p in rest)
                    add_into(out, self.space.symmetric_insert(head, tail),
                             koszul_sign(sel + rest, degs))
        return out


class TaylorMorphism(_WordwiseLinear):
    """A degree-0 coalgebra morphism of `space` to itself, by its Taylor coefficients.

    `coefficient` maps a canonical word of any length k >= 1 to the arity-k
    Taylor coefficient at that word.  It is memoised per word and its Vectors
    are read-only (module docstring).
    """

    def __init__(self, space: GradedSpace, coefficient: Callable[[Word], Vector]):
        self.space = space
        self._coefficient = _memoised(coefficient)

    def coefficient(self, k: int, word: Word) -> Vector:
        """The arity-k Taylor coefficient at `word`; k is len(word)."""
        return self._coefficient(word)

    def apply_word(self, word: Word) -> SVector:
        """Partition sum over unordered set partitions of the word positions."""
        n = len(word)
        if n == 0:
            return {(): Fraction(1)}
        degs = [self.space.degree(k) for k in word]
        out: SVector = {}
        for partition in _set_partitions(n):
            blocks = [sorted(b) for b in partition]
            blocks.sort(key=lambda b: b[0])
            factors: List[Vector] = []
            for b in blocks:
                val = self.coefficient(len(b), tuple(word[p] for p in b))
                if not val:
                    break
                factors.append(val)
            else:
                perm = [p for b in blocks for p in b]
                add_into(out, self.space.expand_word_of_vectors(factors),
                         koszul_sign(perm, degs))
        return out


def _set_partitions(n: int) -> Iterable[List[List[int]]]:
    """All set partitions of {0..n-1}."""
    if n == 0:
        yield []
        return
    if n == 1:
        yield [[0]]
        return
    for smaller in _set_partitions(n - 1):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + [n - 1]] + smaller[i + 1:]
        yield smaller + [[n - 1]]


class ResidualReport:
    """Outcome of an exactness check: the nonzero residuals, with witnesses.

    `entries` lists (word, residual) for each checked word whose residual is
    nonzero, in the order the words were given.  The checks below store the
    one-letter residual pr_1 of each word.  At the first entry, the witness,
    that is the whole residual; a later entry's whole residual may also have
    longer words.
    """

    def __init__(self, label: str):
        self.label = label
        self.entries: List[Tuple[Word, SVector]] = []

    def add(self, word: Word, residual: SVector) -> None:
        if residual:
            self.entries.append((word, residual))

    @property
    def ok(self) -> bool:
        return not self.entries

    def witness(self) -> Optional[Tuple[Word, SVector]]:
        return self.entries[0] if self.entries else None

    def __repr__(self) -> str:
        state = "empty" if self.ok else f"{len(self.entries)} nonzero"
        return f"ResidualReport({self.label}: {state})"


def _corestriction(coefficient: Callable[[int, Word], Vector], sv: SVector) -> SVector:
    """pr_1 of a map applied to `sv`: sum_u c_u coefficient(|u|, u), on one-letter words.

    For a coderivation or a coalgebra morphism the one-letter part of its
    value on a word u is its Taylor coefficient of arity |u| at u.
    """
    out: Vector = {}
    for word, c in sv.items():
        add_into(out, coefficient(len(word), word), c)
    return {(key,): c for key, c in out.items()}


def _require_subwords_first(words: Sequence[Word]) -> None:
    """Raise ValueError unless each word's one-letter-shorter sub-words come earlier.

    The empty word is the sub-word of every one-letter word.
    """
    seen = set()
    for w in words:
        for i in range(len(w)):
            sub = w[:i] + w[i + 1:]
            if sub not in seen:
                raise ValueError(f"sub-word {sub} of word {w} is not checked before it")
        seen.add(w)


def check_codifferential(Q: TaylorCoderivation, words: Sequence[Word]) -> ResidualReport:
    """Residuals pr_1(Q(Q(w))) over the given words; empty iff Q^2 = 0 on them.

    Q^2 is a coderivation, so the reduced coproduct of Q^2(w) involves Q^2
    only on proper sub-words of w.  Where Q^2 vanishes on those, Q^2(w) is
    primitive: it equals its one-letter part pr_1(Q(Q(w))) =
    sum_u c_u Q_{|u|}(u) over the words u of Q(w), read off the Taylor
    coefficients without building Q(Q(w)).  So on a list in which each word's
    one-letter-shorter sub-words come earlier (as `GradedSpace.words` gives
    them), the pr_1 residuals decide the verdict, and at the first failing
    word the pr_1 residual is the whole residual.  Any other list raises
    ValueError.
    """
    _require_subwords_first(words)
    report = ResidualReport("Q^2")
    for w in words:
        report.add(w, _corestriction(Q.coefficient, Q.apply_word(w)))
    return report


def check_morphism(phi: TaylorMorphism, Q: TaylorCoderivation, Qp: TaylorCoderivation,
                   words: Sequence[Word]) -> ResidualReport:
    """Residuals pr_1(Q'(phi(w)) - phi(Q(w))) over the given words; empty iff phi intertwines.

    Q' phi - phi Q is a coderivation along phi, so the argument of
    `check_codifferential` applies: on a list in which each word's
    one-letter-shorter sub-words come earlier, the pr_1 residuals
    sum_u c_u Q'_{|u|}(u) over phi(w) minus sum_u c_u phi_{|u|}(u) over Q(w)
    decide the verdict, and at the first failing word the pr_1 residual is
    the whole residual.  Any other list raises ValueError.
    """
    _require_subwords_first(words)
    report = ResidualReport("morphism")
    for w in words:
        residual = _corestriction(Qp.coefficient, phi.apply_word(w))
        add_into(residual, _corestriction(phi.coefficient, Q.apply_word(w)), -1)
        report.add(w, residual)
    return report


def exp_series(M: TaylorCoderivation, sv: SVector) -> SVector:
    """e^M(sv) = sum_j M^j(sv) / j! for a coderivation M that lowers word length.

    Each application of M shortens a word by at least one letter, so on
    words of length <= L the series stops after at most L - 1 nonzero terms;
    a nonzero M^L raises RuntimeError.
    """
    total: SVector = dict(sv)
    term = dict(sv)
    longest = max((len(w) for w in sv), default=0)
    for j in itertools.count(1):
        term = M.apply(term)
        if not term:
            return total
        if j >= longest:
            raise RuntimeError(f"M^{j} is nonzero on words of length <= {longest}: "
                               "M does not lower word length")
        add_into(total, term, Fraction(1, math.factorial(j)))


def exp_coderivation(M: TaylorCoderivation) -> TaylorMorphism:
    """Exponential of a word-length-lowering coderivation, as a Taylor morphism.

    Requires every Taylor coefficient of M to have arity >= 2.  The arity-k
    coefficient of e^M at a k-word is the one-letter part of `exp_series`
    on that word, at every arity.
    """
    if any(k < 2 for k in M.arities()):
        raise ValueError("exponential needs a coderivation that lowers word length (arities >= 2)")

    def coefficient(word: Word) -> Vector:
        full = exp_series(M, {word: Fraction(1)})
        return {w[0]: c for w, c in full.items() if len(w) == 1}

    return TaylorMorphism(M.space, coefficient)


def curve_coefficient(Q: TaylorCoderivation, curve: Sequence[Vector], r: int) -> Vector:
    """The t^r coefficient of sum_k (1/k!) Q_k(x,...,x), x(t) = sum_{i>=1} t^i curve[i-1].

    The entries of `curve` must have even degree, so Q_k is symmetric in them:
    a multiset {i_1 <= ... <= i_k} of indices with sum r stands for
    k!/prod(mult!) ordered tuples and is evaluated once, with weight
    1/prod(mult!).  Only Q's own arities are visited; arity 0, the
    curvature, is the t^0 coefficient.
    """
    space = Q.space
    if any(space.degree(key) % 2 for vec in curve for key in vec):
        raise ValueError("a formal curve must have even degree")
    out: Vector = {}
    for k in Q.arities():
        for idx in itertools.combinations_with_replacement(range(1, min(len(curve), r) + 1), k):
            vectors = [curve[i - 1] for i in idx]
            if sum(idx) != r or not all(vectors):
                continue
            weight = Fraction(1, math.prod(math.factorial(idx.count(i)) for i in set(idx)))
            for word, c in space.expand_word_of_vectors(vectors).items():
                add_into(out, Q.coefficient(k, word), weight * c)
    return out


def mc_residual(Q: TaylorCoderivation, eta: Vector) -> Vector:
    """m0 + sum_k (1/k!) m_k(eta,...,eta) for a degree-0 element eta.

    The sum over the arities k of Q of the t^k coefficients of the curve t*eta.
    A key of eta of nonzero degree raises ValueError.
    """
    for key in eta:
        if Q.space.degree(key):
            raise ValueError(f"a Maurer-Cartan element has degree 0, but {key!r} "
                             f"has degree {Q.space.degree(key)}")
    out: Vector = {}
    for k in Q.arities():
        add_into(out, curve_coefficient(Q, [eta], k))
    return out


# --- decalage ------------------------------------------------------------


def decalage_down(mk: Callable[[Word], Vector], k: int,
                  unshifted_degree: Callable[[object], int]) -> Callable[[Word], Vector]:
    """Turn an L-infinity[1] bracket on V[1] into the L-infinity bracket on V.

    Keys are shared between V and V[1]; `unshifted_degree` gives degrees in V.
    The bracket is multiplied by (-1)^k (-1)^{sum_i (k-i)|v_i|} (1-based i).
    That sign depends only on k and the degrees of the word and squares to 1,
    so the map is its own inverse: :func:`decalage_up` is this function.
    """
    def mu(word: Word) -> Vector:
        s = k + sum((k - i) * unshifted_degree(key) for i, key in enumerate(word, 1))
        return svec_scale(mk(word), -1 if s % 2 else 1)
    return mu


decalage_up = decalage_down
