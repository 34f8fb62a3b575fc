"""Symmetric-coalgebra machinery: coderivations, morphisms, MC elements.

A graded space is described by a degree function on hashable, orderable basis
keys; vectors are finite rational combinations of keys and words are canonical
tuples of keys.  Taylor coefficients are callables on canonical words, and
coderivations/morphisms are rebuilt from them by the usual unshuffle and
partition sums.  Every computation carries an explicit arity truncation since
the symmetric coalgebra is infinite-dimensional.

Coefficients are the kernel's scalars (`gca.Scalar`): an int when integral,
otherwise a Fraction.  Nothing here divides one int by another: a weight 1/d
is `Fraction(1, d)` when d > 1 and the int 1 when d = 1.  The vectors that
e^M's coefficients, `curve_coefficient` and `mc_residual` return store an
integral value as an int (`gca._settle`), as do the contact model's
coefficients (`cjalg.section_to_vector`).

An L-infinity[1] algebra is its codifferential Q, a `TaylorCoderivation`:
`Q.coefficient(k, w)` is the bracket m_k(w), and arity 0, when Q has it, is
the curvature m_0, the coefficient at the empty word.  The contact model's
m_k and M_2 (`cjalg`) are higher derived brackets of one V-data (`vdata`),
Phi = -Theta or eps, made coefficients by one prefix fold, the curvature
m_0 = P(-Theta) among them.  A `TaylorMorphism` maps a space to itself and
is given by one coefficient function on canonical words of every length
>= 1; a word's length is its arity.  `exp_coderivation` builds e^M as such a
morphism: its coefficient on a word w is the one-letter part of
`exp_series`, the series sum_j M^j / j! on w, summed as E_j(w) =
pr_1(M^j w) / j! by recursion on sub-words, E_j(w) = (1/j) sum c E_{j-1}(u)
over the terms c u of M(w), with M(w) and each E_j(w) memoised, so a
sub-word shared by many words costs one `apply_word`.  `exp_series` stays the
public series and the tests' oracle.

A Taylor coefficient is a pure function of its canonical word, and the sums
above evaluate the same coefficient on the same word many times.  So
`TaylorCoderivation` memoises every coefficient, the curvature included, and
`TaylorMorphism` its one coefficient function: when the object is built,
each function is wrapped in a callable that keeps one dict of results, keyed
by canonical word.  The memo belongs to that wrapper, so it is freed with the
structure, and a coderivation entry replaced later (`Q.coefficients[2] = f`)
is called as given and never meets a result cached for the old entry.  A
coefficient function may keep a memo of its own, under the same rule: the
derived route's keeps the unprojected bracket of each word prefix
(`vdata.derived_bracket_fold`) and one letter section per basis key, and
e^M's keeps M(w) and E_j(w) per sub-word; such a memo belongs to the
coefficient function, so it is freed with the function and so with its Q
or M.  The word sums' sign bookkeeping is kept by the `GradedSpace` under
the same rule: its tables (each key's parity; the unshuffles and set
partitions of a word's positions, listed once per length; the Koszul sign
of each such order per parity pattern of a word, worked out with
`gca.koszul_sign` the first time a term needs it) belong to the space and
are freed with it.  No memo is kept in a module-level table.  A memoised
vector is shared by every later call, so the Vector a coefficient returns
is read-only.  Every sum here accumulates with `gca.add_into` into a dict
that the summing function created itself, and only reads the coefficients
it adds; `svec_add` returns a new dict.

`check_codifferential` and `check_morphism` decide Q^2 = 0 and
Q' phi = phi Q by the one-letter part pr_1 of the residual on each word.
pr_1 of a coderivation or morphism F on a word u is F's Taylor coefficient
of arity |u| at u.  So on an n-word w, pr_1 Q(Q(w)) is the L-infinity
identity sum_{i+j=n+1} sum_unshuffles +- Q_j(Q_i(w_sel), w_rest) (Lada and
Markl, hep-th/9406095), and the checks sum it term by term.  Each map has
one term generator, `_terms(word, lengths)`, that `apply_word` also sums:
the coderivation's yields, for each nonzero head Q_i(w_sel), the canonical
words key (+) w_rest with their signed coefficients, each key placed into
the canonical tail w_rest by bisection (`GradedSpace._insert`) and each
unshuffle's sign read from the space's tables, visiting an arity i
only when the outer arity n - i + 1 is in `lengths`; the morphism's visits
only the set partitions whose block count is in `lengths` and multiplies
their factors out with `expand_word_of_vectors`.  A check contracts each
term with the outer map as it comes: Q after Q; for the morphism, phi
(every length >= 1) after Q, and Q' after phi.  So neither Q(w) nor phi(w)
is built, and no term whose outer arity does not exist is evaluated.  Both
residuals are coderivations (along phi for the morphism), so a residual
that vanishes on every proper sub-word of w is primitive on w: it equals
its pr_1 part.  The checks therefore take words in which each word's
one-letter-shorter sub-words come earlier (`GradedSpace.words` gives them
so) and raise ValueError on any other list.  A word handed to the checks
or to `apply_word` must be canonical, sorted and with no repeated odd
letter, since the insertion relies on it; any other word raises ValueError
instead of being re-sorted.

`curve_coefficient` expands sum_k (1/k!) Q_k(x,...,x) along a formal curve
x(t): `mc_residual` and the deformation workflow's MC curves both use it.
Its t^r coefficient enumerates the multisets i_1 <= ... <= i_k of indices
of nonzero curve entries and evaluates Q_k only on those with sum r, once
per multiset rather than once per ordered k-tuple.  `mc_residual` is this
word route for any Q: each m_k runs on every basis word of eta^k.  The
contact model's residual of a 2-form, `cjalg.mc_residual_form`, folds the
derived brackets on the form itself instead, and the tests check it
against `mc_residual` on both routes' Q.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Callable, Container, Dict, Iterator, List, Optional, Sequence, Tuple

from .gca import Scalar, _is_int, _settle, add_into, koszul_sign, koszul_sort

Vector = Dict[object, Scalar]
Word = Tuple[object, ...]
SVector = Dict[Word, Scalar]

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
    "svec_add",
]


def svec_add(a: Dict, b: Dict) -> Dict:
    """a + b as a new dict; works for Vectors and SVectors alike."""
    return add_into(dict(a), b)


def _reciprocal(d: int) -> Scalar:
    """1/d for an int d >= 1 as a kernel scalar: Fraction(1, d), or the int 1 when d is 1."""
    return Fraction(1, d) if d > 1 else 1


class GradedSpace:
    """Degrees (and hence Koszul parities) for basis keys of a graded space.

    The space owns the tables its word sums read signs from, each entry
    worked out once and freed with the space (module docstring): the parity
    of every key it has met; per word length, the unshuffles and the set
    partitions of the positions; and the Koszul sign of each such reordering
    per parity pattern of a word (one bool per letter), filled the first
    time a nonzero term needs it.  A Koszul sign depends only on the
    parities, so all words of one pattern share their signs.
    """

    def __init__(self, degree: Callable[[object], int]):
        """`degree` maps a basis key to its degree."""
        self.degree = degree
        self._parity: Dict[object, bool] = {}
        self._signs: Dict[Tuple[Tuple[bool, ...], Tuple[int, ...]], int] = {}
        self._unshuffle_lists: Dict[Tuple[int, int], list] = {}
        self._partition_lists: Dict[int, list] = {}

    # --- words ----------------------------------------------------------

    def _is_odd(self, key: object) -> bool:
        try:
            return self._parity[key]
        except KeyError:
            odd = self._parity[key] = self.degree(key) % 2 == 1
            return odd

    def normalize_letters(self, letters: Sequence[object]) -> Tuple[int, Optional[Word]]:
        """Canonical word for a sequence of keys: (koszul sign, word) or (1, None)=0."""
        sign, perm = koszul_sort(letters, self._is_odd)
        if not sign:
            return 1, None
        return sign, tuple(letters[i] for i in perm)

    def _insert(self, key: object, word: Word, at_end: bool = False) -> Tuple[int, Optional[Word]]:
        """`normalize_letters` of key (+) word, or of word (+) key, for a canonical `word`.

        The key goes where `bisect` puts it: before the letters equal to it
        when it comes first, after them when it comes last, as the stable
        sort would.  An odd key's sign is -1 to the number of odd letters it
        passes, and an odd key equal to a letter of the word gives (1, None).
        """
        if at_end:
            pos = bisect_right(word, key)
            passed = word[pos:]
            clash = pos and word[pos - 1] == key
        else:
            pos = bisect_left(word, key)
            passed = word[:pos]
            clash = pos < len(word) and word[pos] == key
        sign = 1
        if self._is_odd(key):
            if clash:
                return 1, None
            if sum(map(self._is_odd, passed)) % 2:
                sign = -1
        return sign, word[:pos] + (key,) + word[pos:]

    def _is_canonical(self, word: Word) -> bool:
        """True when `word` is sorted and repeats no odd letter: one scan of its neighbours."""
        return not any(b < a or (a == b and self._is_odd(a)) for a, b in zip(word, word[1:]))

    def _require_canonical(self, word: Word) -> None:
        if not self._is_canonical(word):
            raise ValueError(f"word {word!r} is not canonical: it is not sorted "
                             "or repeats an odd letter")

    def _sign(self, pattern: Tuple[bool, ...], order: Tuple[int, ...]) -> int:
        """koszul_sign(order, pattern): the sign of reordering a word of that parity pattern.

        Worked out once per (pattern, order) and then read from the space.
        """
        sign = self._signs.get((pattern, order))
        if sign is None:
            sign = self._signs[pattern, order] = koszul_sign(order, pattern)
        return sign

    def _unshuffles(self, n: int, i: int) -> List[Tuple[Tuple[int, ...], ...]]:
        """(sel, rest, sel + rest) for each (i, n - i) unshuffle of the positions 0..n-1."""
        table = self._unshuffle_lists.get((n, i))
        if table is None:
            table = self._unshuffle_lists[n, i] = []
            for sel in itertools.combinations(range(n), i):
                rest = tuple(p for p in range(n) if p not in sel)
                table.append((sel, rest, sel + rest))
        return table

    def _partitions(self, n: int) -> List[List[Tuple[List[List[int]], Tuple[int, ...]]]]:
        """(partition, its blocks' positions in turn) for each set partition of 0..n-1,
        listed by block count as `_set_partitions` lists them."""
        table = self._partition_lists.get(n)
        if table is None:
            table = self._partition_lists[n] = [
                [(p, tuple(q for b in p for q in b)) for p in partitions]
                for partitions in _set_partitions(n)]
        return table

    def word_degree(self, word: Word) -> int:
        return sum(self.degree(k) for k in word)

    def words(self, basis: Sequence[object], max_len: int, min_len: int = 0) -> List[Word]:
        """All canonical words over `basis` with length in [min_len, max_len]."""
        basis = sorted(basis)
        return [combo for L in range(min_len, max_len + 1)
                for combo in itertools.combinations_with_replacement(basis, L)
                if self._is_canonical(combo)]

    def expand_word_of_vectors(self, vectors: Sequence[Vector]) -> SVector:
        """Multilinear expansion of v_1 (+) ... (+) v_k into canonical words."""
        out: SVector = {(): 1}
        for vec in vectors:
            terms = ((self._insert(key, word, at_end=True), cw * c)
                     for word, cw in out.items() for key, c in vec.items())
            out = add_into({}, ((u, c if s > 0 else -c) for (s, u), c in terms if u is not None))
        return out


def _memoised(fn: Callable[[Word], Vector]) -> Callable[[Word], Vector]:
    """`fn` computed once per canonical word; see the module docstring.

    Raises TypeError unless `fn` is callable.
    """
    if not callable(fn):
        raise TypeError(f"a Taylor coefficient is a function of a word, not {fn!r}")
    memo: Dict[Word, Vector] = {}

    def coefficient(word: Word) -> Vector:
        try:
            return memo[word]
        except KeyError:
            value = memo[word] = fn(word)
            return value
    return coefficient


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
    present, is the curvature, its value at the empty word.  Arities missing
    from the dict are zero maps.  Every coefficient is memoised per word and
    its Vectors are read-only (module docstring); an entry that is not
    callable raises TypeError.
    """

    def __init__(self, space: GradedSpace, coefficients: Dict[int, Callable[[Word], Vector]]):
        self.space = space
        self.coefficients = {k: _memoised(entry) for k, entry in coefficients.items()}

    def arities(self) -> List[int]:
        return sorted(self.coefficients)

    def coefficient(self, k: int, word: Word) -> Vector:
        if k not in self.coefficients:
            return {}
        return self.coefficients[k](word)

    def to_coderivation(self) -> "TaylorCoderivation":
        """This coderivation: `perfbench/workloads.py` still calls `to_coderivation`."""
        return self

    def _terms(self, word: Word, lengths: Container[int]) -> Iterator[Tuple[Word, Scalar]]:
        """The terms (canonical word, coefficient) of Q on `word` whose length is in `lengths`.

        The unshuffle sum: Q_i on i selected letters, inserted before the
        n - i others, gives words of length n - i + 1, so an arity i is
        visited only when that length is in `lengths`.  A word may repeat.
        `word` must be canonical: each key of a head goes into the canonical
        tail by `GradedSpace._insert`.
        """
        n = len(word)
        space = self.space
        pattern = tuple(map(space._is_odd, word))
        insert = space._insert
        for i in self.arities():
            if i > n or n - i + 1 not in lengths:
                continue
            for sel, rest, order in space._unshuffles(n, i):
                # subwords of a canonical word are canonical
                head = self.coefficient(i, tuple(word[p] for p in sel))
                if head:
                    tail = tuple(word[p] for p in rest)
                    sign = space._sign(pattern, order)
                    for key, c in head.items():
                        s, u = insert(key, tail)
                        if u is not None:
                            yield u, (c if s == sign else -c)

    def apply_word(self, word: Word) -> SVector:
        """Full coderivation on one canonical word: its terms at every length.

        A word that is not canonical raises ValueError.
        """
        self.space._require_canonical(word)
        return add_into({}, self._terms(word, range(len(word) + 2)))


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

    def _terms(self, word: Word, lengths: Container[int]) -> Iterator[Tuple[Word, Scalar]]:
        """The terms (canonical word, coefficient) of phi on `word` whose length is in `lengths`.

        The partition sum: a set partition of the word positions into k
        blocks gives the words of phi on each block multiplied out, all of
        length k, so only partitions with a block count in `lengths` are
        visited.  A word may repeat.
        """
        space = self.space
        pattern = tuple(map(space._is_odd, word))
        for k, partitions in enumerate(space._partitions(len(word))):
            if k not in lengths:
                continue
            for partition, order in partitions:
                factors: List[Vector] = []
                for b in partition:
                    val = self.coefficient(len(b), tuple(word[p] for p in b))
                    if not val:
                        break
                    factors.append(val)
                else:
                    sign = space._sign(pattern, order)
                    for u, c in space.expand_word_of_vectors(factors).items():
                        yield u, (c if sign > 0 else -c)

    def apply_word(self, word: Word) -> SVector:
        """Full morphism on one canonical word: its terms at every length.

        A word that is not canonical raises ValueError.
        """
        self.space._require_canonical(word)
        return add_into({}, self._terms(word, range(len(word) + 1)))


def _set_partitions(n: int) -> List[List[List[List[int]]]]:
    """The set partitions of {0..n-1}, listed by their number of blocks 0..n.

    Each block is increasing and the blocks are ordered by their first
    element.  Built up one element at a time: m joins a block of a partition
    of {0..m-1} into j blocks, or opens a last block of its own after one
    into j - 1 blocks.
    """
    # rows[j]: the partitions of {0..m-1} into j blocks, for m = 0, 1, ..., n
    rows = [[[]]] + [[] for _ in range(n)]
    for m in range(n):
        for j in range(m + 1, 0, -1):
            rows[j] = ([p[:i] + [b + [m]] + p[i + 1:] for p in rows[j] for i, b in enumerate(p)]
                       + [p + [[m]] for p in rows[j - 1]])
        rows[0] = []
    return rows


class ResidualReport:
    """Outcome of an exactness check: the nonzero residuals, with witnesses.

    `entries` lists (word, residual) for each checked word whose residual is
    nonzero, in the order the words were given.  The checks below store the
    one-letter residual pr_1 of each word, summed term by term (module
    docstring); it equals the one-letter part of the whole residual.  At the
    first entry, the witness, that is the whole residual; a later entry's
    whole residual may also have longer words.
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


def _require_subwords_first(space: GradedSpace, words: Sequence[Word]) -> None:
    """Raise ValueError unless each word is canonical and its one-letter-shorter
    sub-words come earlier.

    The empty word is the sub-word of every one-letter word.
    """
    seen = set()
    for w in words:
        space._require_canonical(w)
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
    sum +- c Q_{|u|}(u) over the terms c u of Q(w).  The sum runs term by
    term over the unshuffles whose outer arity |u| = n - i + 1 is an arity
    of Q, and neither Q(w) nor Q(Q(w)) is built.  So on a list in which each
    word's one-letter-shorter sub-words come earlier (as `GradedSpace.words`
    gives them), the pr_1 residuals decide the verdict, and at the first
    failing word the pr_1 residual is the whole residual.  Any other list
    raises ValueError.  The outer read Q_{|u|}(u) is
    `Q.coefficients[len(u)](u)`: an arity that Q does not have raises
    KeyError, since only Q's arities are visited, so a wrong visit fails
    instead of adding zero.
    """
    _require_subwords_first(Q.space, words)
    report = ResidualReport("Q^2")
    for w in words:
        out: Vector = {}
        for u, c in Q._terms(w, Q.coefficients):
            add_into(out, Q.coefficients[len(u)](u), c)
        report.add(w, {(key,): c for key, c in out.items()})
    return report


def check_morphism(phi: TaylorMorphism, Q: TaylorCoderivation, Qp: TaylorCoderivation,
                   words: Sequence[Word]) -> ResidualReport:
    """Residuals pr_1(Q'(phi(w)) - phi(Q(w))) over the given words; empty iff phi intertwines.

    Q' phi - phi Q is a coderivation along phi, so the argument of
    `check_codifferential` applies: on a list in which each word's
    one-letter-shorter sub-words come earlier, the pr_1 residuals decide the
    verdict, and at the first failing word the pr_1 residual is the whole
    residual.  Any other list raises ValueError.  The pr_1 residual is
    sum c Q'_{|u|}(u) over the terms c u of phi(w), from the set partitions
    of w whose block count |u| is an arity of Q', minus sum c phi_{|u|}(u)
    over the terms of Q(w) at every length, each contracted as it comes;
    neither phi(w) nor Q(w) is built.  As in `check_codifferential`, the
    outer read `Qp.coefficients[len(u)](u)` raises KeyError at an arity Q'
    does not have instead of adding zero.
    """
    _require_subwords_first(Q.space, words)
    report = ResidualReport("morphism")
    for w in words:
        out: Vector = {}
        for u, c in phi._terms(w, Qp.coefficients):
            add_into(out, Qp.coefficients[len(u)](u), c)
        for u, c in Q._terms(w, range(1, len(w) + 2)):
            add_into(out, phi._coefficient(u), -c)
        report.add(w, {(key,): c for key, c in out.items()})
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
        add_into(total, term, _reciprocal(math.factorial(j)))


def exp_coderivation(M: TaylorCoderivation) -> TaylorMorphism:
    """Exponential of a word-length-lowering coderivation, as a Taylor morphism.

    Requires every Taylor coefficient of M to have arity >= 2, else
    ValueError.  The arity-k coefficient of e^M at a k-word w is the
    one-letter part of `exp_series` on w, phi(w) = sum_j E_j(w) with
    E_j(w) = pr_1(M^j w) / j!, computed by recursion on sub-words:
    E_0(w) is w when w has one letter and zero otherwise, and

        E_j(w) = (1/j) sum c E_{j-1}(u)   over the terms c u of M(w).

    M's arities are >= 2, so each term of M(w) is shorter than w: E_j(w) = 0
    for j >= |w|, and E_{j-1}(u) is visited only when |u| >= j.  M(w)
    (`apply_word`) and each E_j(w) are memoised in the returned morphism's
    coefficient function, so a sub-word shared by many words is worked out
    once; the memos are freed with e^M, which is the exponential of M as it
    stands when each word is first read.  A word read after M was given an
    arity below 2, so that a term of M(w) need not be shorter than w,
    raises RuntimeError instead of returning a truncated sum.  Coefficients
    are kernel scalars.
    """
    if any(k < 2 for k in M.arities()):
        raise ValueError("exponential needs a coderivation that lowers word length (arities >= 2)")
    image = _memoised(M.apply_word)

    @functools.cache
    def power(j: int, word: Word) -> Vector:
        """E_j(word) = pr_1(M^j word) / j!, for 1 <= j < len(word)."""
        terms = image(word).items()
        if j == 1:
            return {u[0]: c for u, c in terms if len(u) == 1}
        value: Vector = {}
        for u, c in terms:
            if len(u) >= j:
                add_into(value, power(j - 1, u), c)
        return add_into({}, value, Fraction(1, j))

    def coefficient(word: Word) -> Vector:
        if any(k < 2 for k in M.coefficients):
            raise RuntimeError("M has an arity below 2: it does not lower word length")
        out: Vector = {word[0]: 1} if len(word) == 1 else {}
        for j in range(1, len(word)):
            add_into(out, power(j, word))
        return _settle(out)

    return TaylorMorphism(M.space, coefficient)


def curve_coefficient(Q: TaylorCoderivation, curve: Sequence[Vector], r: int) -> Vector:
    """The t^r coefficient of sum_k (1/k!) Q_k(x,...,x), x(t) = sum_{i>=1} t^i curve[i-1].

    The entries of `curve` must have even degree, so Q_k is symmetric in them:
    a multiset {i_1 <= ... <= i_k} of indices with sum r stands for
    k!/prod(mult!) ordered tuples and is evaluated once, with weight
    1/prod(mult!).  The multisets of indices of nonzero entries come from
    `itertools.combinations_with_replacement`, in lexicographic order, and
    only those with sum r are evaluated.  Only Q's own arities are visited;
    arity 0, the curvature, is the t^0 coefficient.
    r must be a non-negative int, else ValueError.
    """
    if not _is_int(r) or r < 0:
        raise ValueError(f"the order of a curve coefficient must be a non-negative int, got {r!r}")
    space = Q.space
    if any(space._is_odd(key) for vec in curve for key in vec):
        raise ValueError("a formal curve must have even degree")
    indices = [i for i, vec in enumerate(curve, 1) if vec]
    out: Vector = {}
    for k in Q.arities():
        for idx in itertools.combinations_with_replacement(indices, k):
            if sum(idx) != r:
                continue
            weight = _reciprocal(math.prod(math.factorial(idx.count(i)) for i in set(idx)))
            vectors = [curve[i - 1] for i in idx]
            for word, c in space.expand_word_of_vectors(vectors).items():
                add_into(out, Q.coefficient(k, word), weight * c)
    return _settle(out)


def mc_residual(Q: TaylorCoderivation, eta: Vector) -> Vector:
    """m0 + sum_k (1/k!) m_k(eta,...,eta) for a degree-0 element eta.

    The sum over the arities k of Q of the t^k coefficients of the curve t*eta,
    so each m_k runs on every basis word of eta^k.  This word route serves any
    Q; the tests use it as the oracle for `cjalg.mc_residual_form`, which
    folds the contact brackets on eta itself.  A key of eta of nonzero degree
    raises ValueError naming the first such key.
    """
    for key in eta:
        if Q.space.degree(key):
            raise ValueError(f"a Maurer-Cartan element has degree 0, but {key!r} "
                             f"has degree {Q.space.degree(key)}")
    out: Vector = {}
    for k in Q.arities():
        add_into(out, curve_coefficient(Q, [eta], k))
    return _settle(out)
