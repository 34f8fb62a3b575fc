"""Exact graded-commutative polynomial arithmetic with Koszul signs.

Everything downstream (sections of the contact line bundle, brackets,
structure tensors) is built on the classes here.  Coefficients are
arbitrary-precision rationals and all equality checks are exact: the
identities being verified are algebraic, so there is no tolerance anywhere.

Conventions:
  * each generator carries a bidegree (eps, delta); its parity is
    (eps + delta) mod 2 and odd generators square to zero,
  * monomials are kept in a fixed canonical generator order, with the
    Koszul sign produced by counting odd-odd inversions,
  * derivatives with respect to odd generators are left derivatives.

`Poly.partials()` is the derivative kernel: it takes every left partial of a
polynomial in one sweep, and library code takes every derivative through it.
`Derivation` is the one code that applies a derivation.  `Poly.partial`
takes one generator at a time; it is the reference that tests and
independent oracles compare against.

`Poly`, `linfty` and `instancefile` share one sparse kernel:
  * `add_into(acc, vec, scale)`, the one accumulate loop, adds scale * vec
    to a dict the caller owns, in place, dropping keys that cancel;
  * `koszul_sort(letters, is_odd)`, the one Koszul sort, normalises both
    generator words (monomials) and words of basis keys (`linfty`).

A `Poly` is immutable: nothing writes to its `terms` after construction.
`Poly(algebra, terms)` copies the dict it is given and drops zero
coefficients, so outside callers may pass any dict.  Inside this module and
`contact`, `Poly._trusted(algebra, terms)` takes ownership of a dict that
already holds no zero, without the copy; the caller must not touch the dict
afterwards.  `partials()` is memoised on the `Poly` (sound because the `Poly`
is immutable), and the dict it returns, like the `terms` of each partial, is
read-only: the same rule `linfty` has for coefficient Vectors.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]

__all__ = [
    "ContextMismatch",
    "UnknownGenerator",
    "Generator",
    "Algebra",
    "Poly",
    "Derivation",
    "add_into",
    "koszul_sign",
    "koszul_sort",
]


class ContextMismatch(ValueError):
    """Operands live in different algebra contexts."""


class UnknownGenerator(KeyError):
    """A generator name or index is not part of the algebra."""


class Generator:
    """A single generator: name, canonical position and bidegree."""

    __slots__ = ("name", "index", "eps", "delta")

    def __init__(self, name: str, index: int, eps: int, delta: int):
        self.name = name
        self.index = index
        self.eps = eps
        self.delta = delta

    @property
    def degree(self) -> int:
        return self.eps + self.delta

    @property
    def parity(self) -> int:
        return (self.eps + self.delta) % 2

    @property
    def is_odd(self) -> bool:
        return self.parity == 1

    def __repr__(self) -> str:
        return f"Generator({self.name!r}, deg={self.degree}, bideg=({self.eps},{self.delta}))"


# A monomial is a tuple of (generator index, exponent) pairs, sorted by
# generator index, exponents positive, odd generators with exponent 1.
Monomial = Tuple[Tuple[int, int], ...]

ONE: Monomial = ()


def koszul_sign(permutation: Sequence[int], degrees: Sequence[int]) -> int:
    """Koszul sign of reordering v_1..v_n into v_{sigma(1)}..v_{sigma(n)}.

    ``permutation[k] = i`` means slot k of the output holds input i (0-based).
    The sign is -1 to the number of inversions involving two odd entries,
    so transposing two odd elements gives -1 and anything else gives +1.
    """
    if len(permutation) != len(degrees):
        raise ValueError("permutation length does not match degree list")
    if sorted(permutation) != list(range(len(degrees))):
        raise ValueError("not a permutation of 0..n-1")
    sign = 1
    for k, l in itertools.combinations(range(len(permutation)), 2):
        i, j = permutation[k], permutation[l]
        if i > j and degrees[i] % 2 == 1 and degrees[j] % 2 == 1:
            sign = -sign
    return sign


def koszul_sort(letters: Sequence, is_odd: Callable[[object], bool]
                ) -> Tuple[int, Optional[List[int]]]:
    """Stable insertion sort of a word: (sign, perm), or (0, None) for zero.

    ``perm[k] = i`` means slot k of the sorted word holds ``letters[i]``, as
    in :func:`koszul_sign`; sign is -1 to the number of odd-odd swaps.  Two
    equal odd letters make the word zero.  `is_odd` is called only on letters
    swapped or found equal, as a parity may be costly to work out.
    """
    perm = list(range(len(letters)))
    sign = 1
    for i in range(1, len(perm)):
        x = letters[i]
        j = i
        while j and letters[perm[j - 1]] > x:
            if is_odd(x) and is_odd(letters[perm[j - 1]]):
                sign = -sign
            perm[j] = perm[j - 1]
            j -= 1
        perm[j] = i
        # the sort is stable, so an equal letter ends up just left of x
        if j and letters[perm[j - 1]] == x and is_odd(x):
            return 0, None
    return sign, perm


def add_into(acc: Dict, vec: Union[Mapping, Iterable[Tuple[object, Scalar]]],
             scale: Scalar = 1) -> Dict:
    """acc += scale * vec in place, dropping keys that cancel; returns acc.

    `vec` is a mapping or an iterable of (key, coefficient) pairs in which a
    key may repeat; it is only read, so it may be shared or read-only.  A
    coefficient is negated when the scale is -1 and multiplied only when the
    scale is neither 1 nor -1.
    """
    if not scale:
        return acc
    items = vec.items() if hasattr(vec, "items") else vec
    if scale == -1:
        items = ((k, -c) for k, c in items)
    elif scale != 1:
        items = ((k, scale * c) for k, c in items)
    get = acc.get
    for k, c in items:
        old = get(k)
        if old is not None:
            c = old + c
        if c:
            acc[k] = c
        elif old is not None:
            del acc[k]
    return acc


class Algebra:
    """A graded-commutative polynomial algebra with a fixed generator order."""

    def __init__(self, generators: Sequence[Tuple[str, Tuple[int, int]]], label: str = ""):
        self.label = label
        self.gens: Tuple[Generator, ...] = tuple(
            Generator(name, i, eps, delta) for i, (name, (eps, delta)) in enumerate(generators)
        )
        self._by_name: Dict[str, Generator] = {}
        for g in self.gens:
            if g.name in self._by_name:
                raise ValueError(f"duplicate generator name {g.name!r}")
            self._by_name[g.name] = g
        # one parity per generator, read by the kernel in place of g.is_odd
        self.odd: Tuple[bool, ...] = tuple(g.is_odd for g in self.gens)

    def generator(self, key: Union[str, int]) -> Generator:
        if isinstance(key, str):
            try:
                return self._by_name[key]
            except KeyError:
                raise UnknownGenerator(key) from None
        if not 0 <= key < len(self.gens):
            raise UnknownGenerator(key)
        return self.gens[key]

    # --- polynomial constructors -------------------------------------

    def zero(self) -> "Poly":
        return Poly._trusted(self, {})

    def one(self) -> "Poly":
        return Poly(self, {ONE: Fraction(1)})

    def scalar(self, c: Scalar) -> "Poly":
        return Poly(self, {ONE: Fraction(c)})

    def gen(self, key: Union[str, int]) -> "Poly":
        g = self.generator(key)
        return Poly._trusted(self, {((g.index, 1),): Fraction(1)})

    def monomial(self, mono: Monomial, coeff: Scalar = 1) -> "Poly":
        return Poly(self, {mono: Fraction(coeff)})

    # --- monomial-level helpers --------------------------------------

    def monomial_bidegree(self, mono: Monomial) -> Tuple[int, int]:
        eps = delta = 0
        for idx, exp in mono:
            g = self.gens[idx]
            eps += g.eps * exp
            delta += g.delta * exp
        return eps, delta

    def monomial_degree(self, mono: Monomial) -> int:
        eps, delta = self.monomial_bidegree(mono)
        return eps + delta

    def monomial_str(self, mono: Monomial) -> str:
        if not mono:
            return "1"
        parts = []
        for idx, exp in mono:
            name = self.gens[idx].name
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(parts)

    def normalize_word(self, word: Sequence[Union[str, int]]) -> Tuple[int, Union[Monomial, None]]:
        """Reduce a generator word to (sign, canonical monomial).

        Returns (1, None) when the word contains a repeated odd generator,
        i.e. when it is zero in the algebra.
        """
        indices = [self.generator(k).index for k in word]
        sign, perm = koszul_sort(indices, self.odd.__getitem__)
        if not sign:
            return 1, None
        mono = [(i, len(list(run)))
                for i, run in itertools.groupby(indices[p] for p in perm)]
        return sign, tuple(mono)

    def mul_monomials(self, a: Monomial, b: Monomial) -> Tuple[int, Union[Monomial, None]]:
        """Product of two canonical monomials: (sign, monomial) or (1, None) if zero."""
        if not a:
            return 1, b
        if not b:
            return 1, a
        odd = self.odd
        # count odd letters of a to the right of each odd letter of b
        odd_positions_a = [idx for idx, _ in a if odd[idx]]
        sign = 1
        for idx, _ in b:
            if odd[idx]:
                crossings = sum(1 for ja in odd_positions_a if ja > idx)
                if crossings % 2:
                    sign = -sign
        merged: List[Tuple[int, int]] = []
        ia = ib = 0
        while ia < len(a) or ib < len(b):
            if ib >= len(b) or (ia < len(a) and a[ia][0] <= b[ib][0]):
                idx, exp = a[ia]
                ia += 1
            else:
                idx, exp = b[ib]
                ib += 1
            if merged and merged[-1][0] == idx:
                if odd[idx]:
                    return 1, None
                merged[-1] = (idx, merged[-1][1] + exp)
            else:
                merged.append((idx, exp))
        return sign, tuple(merged)


class Poly:
    """A graded-commutative polynomial: finite map monomial -> nonzero rational."""

    __slots__ = ("algebra", "terms", "_parts")

    def __init__(self, algebra: Algebra, terms: Dict[Monomial, Fraction]):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c}
        self._parts: Optional[Dict[int, "Poly"]] = None

    @staticmethod
    def _trusted(algebra: Algebra, terms: Dict[Monomial, Fraction]) -> "Poly":
        """A Poly that takes ownership of `terms`, which must hold no zero."""
        p = object.__new__(Poly)
        p.algebra = algebra
        p.terms = terms
        p._parts = None
        return p

    # --- ring structure ----------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.algebra is not other.algebra:
            raise ContextMismatch(
                f"operands in different algebras: {self.algebra.label!r} vs {other.algebra.label!r}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._trusted(self.algebra, add_into(dict(self.terms), other.terms))

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c: Scalar) -> "Poly":
        c = Fraction(c)
        if not c:
            return self.algebra.zero()
        return Poly._trusted(self.algebra, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        alg = self.algebra
        terms: Dict[Monomial, Fraction] = {}
        get = terms.get
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                sign, mono = alg.mul_monomials(ma, mb)
                if mono is None:
                    continue
                c = ca * cb if sign > 0 else -(ca * cb)
                # add_into's rule: a key whose coefficient cancels is deleted
                old = get(mono)
                if old is not None:
                    c = old + c
                    if not c:
                        del terms[mono]
                        continue
                terms[mono] = c
        return Poly._trusted(alg, terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((id(self.algebra), frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # --- grading ------------------------------------------------------

    def bidegree_components(self) -> Dict[Tuple[int, int], "Poly"]:
        out: Dict[Tuple[int, int], Dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            out.setdefault(self.algebra.monomial_bidegree(m), {})[m] = c
        return {bd: Poly(self.algebra, t) for bd, t in sorted(out.items())}

    def degree_components(self) -> Dict[int, "Poly"]:
        out: Dict[int, Dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            out.setdefault(self.algebra.monomial_degree(m), {})[m] = c
        return {d: Poly(self.algebra, t) for d, t in sorted(out.items())}

    def parity_components(self) -> Dict[int, "Poly"]:
        """{parity: part}; a homogeneous polynomial is its own only part."""
        odd = self.algebra.odd
        out: Dict[int, Dict[Monomial, Fraction]] = {0: {}, 1: {}}
        for m, c in self.terms.items():
            # odd letters have exponent 1, so the parity is their count mod 2
            out[sum(odd[idx] for idx, _ in m) & 1][m] = c
        if not (out[0] and out[1]):
            return {p: self for p, t in out.items() if t}
        return {p: Poly._trusted(self.algebra, t) for p, t in out.items()}

    def is_homogeneous(self) -> bool:
        return len(self.degree_components()) <= 1

    def degree(self) -> Union[int, None]:
        """Total degree of a homogeneous polynomial (None for 0)."""
        comps = self.degree_components()
        if not comps:
            return None
        if len(comps) > 1:
            raise ValueError(f"inhomogeneous polynomial: {self}")
        return next(iter(comps))

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def uses_only(self, allowed: Iterable[int]) -> bool:
        allowed = set(allowed)
        return all(idx in allowed for m in self.terms for idx, _ in m)

    # --- calculus -----------------------------------------------------

    def partial(self, key: Union[str, int]) -> "Poly":
        """Left partial derivative with respect to one generator.

        The reference for `partials`, which library code uses: it works out
        each sign afresh from the letters' bidegrees.  An odd letter is moved
        to the front past the letters before it, so the sign is -1 exactly
        when it and their total degree are both odd; a letter of exponent e
        gives the factor e.  Taking one power of the generator off a
        monomial is injective, so no two terms land on the same monomial and
        nothing is accumulated.
        """
        g = self.algebra.generator(key)
        alg = self.algebra
        terms: Dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            for pos, (idx, exp) in enumerate(mono):
                if idx != g.index:
                    continue
                passed = sum(alg.gens[i].degree * e for i, e in mono[:pos])
                sign = -1 if g.degree % 2 and passed % 2 else 1
                lowered = ((idx, exp - 1),) if exp > 1 else ()
                terms[mono[:pos] + lowered + mono[pos + 1:]] = sign * exp * c
                break
        return Poly(alg, terms)

    def partials(self) -> Dict[int, "Poly"]:
        """Left partial derivatives by every generator, in one sweep over the terms.

        Keyed by generator index; exactly the generators that occur in self
        have an entry, as their partials are nonzero (see `partial`).  Taken
        once per Poly and kept: the dict returned is shared and read-only.
        """
        if self._parts is not None:
            return self._parts
        odd = self.algebra.odd
        out: Dict[int, Dict[Monomial, Fraction]] = {}
        for mono, c in self.terms.items():
            odd_prefix = False
            for pos, (idx, exp) in enumerate(mono):
                terms = out.get(idx)
                if terms is None:
                    terms = out[idx] = {}
                if exp > 1:
                    # an even letter: odd letters have exponent 1
                    terms[mono[:pos] + ((idx, exp - 1),) + mono[pos + 1:]] = exp * c
                elif odd[idx]:
                    terms[mono[:pos] + mono[pos + 1:]] = -c if odd_prefix else c
                    odd_prefix = not odd_prefix
                else:
                    terms[mono[:pos] + mono[pos + 1:]] = c
        self._parts = {idx: Poly._trusted(self.algebra, terms) for idx, terms in out.items()}
        return self._parts

    def substitute(self, target: Algebra, images: Dict[int, "Poly"]) -> "Poly":
        """Algebra morphism: replace each generator by its image in `target`.

        Images must be given for every generator occurring in self; being an
        even morphism, letters are substituted in word order and the target
        algebra supplies all Koszul signs.
        """
        out = target.zero()
        for mono, c in self.terms.items():
            term = target.scalar(c)
            for idx, exp in mono:
                if idx not in images:
                    raise UnknownGenerator(self.algebra.gens[idx].name)
                img = images[idx]
                for _ in range(exp):
                    term = term * img
            out = out + term
        return out

    # --- presentation ---------------------------------------------------

    def sorted_terms(self) -> List[Tuple[Monomial, Fraction]]:
        def key(item):
            mono, _ = item
            return (self.algebra.monomial_degree(mono), mono)
        return sorted(self.terms.items(), key=key)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            s = self.algebra.monomial_str(mono)
            if mono == ONE:
                parts.append(str(c))
            elif c == 1:
                parts.append(s)
            elif c == -1:
                parts.append(f"-{s}")
            else:
                parts.append(f"{c}*{s}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    __repr__ = __str__


class Derivation:
    """A graded derivation of an Algebra, given by its values on generators.

    `degree` is the total degree shift: the value on g must have degree
    `degree + |g|` for the graded Leibniz rule to hold, and `commutator`
    uses its parity.  Generators without an assigned value are treated as
    errors when hit, matching the requirement that D be defined on every
    generator in use.
    """

    def __init__(self, algebra: Algebra, degree: int, values: Dict[int, Poly]):
        self.algebra = algebra
        self.degree = degree
        self.values = values

    def __call__(self, f: Poly) -> Poly:
        """X(f) = sum_g X(g) * d f/d g over the generators g of f (left partials)."""
        if f.algebra is not self.algebra:
            raise ContextMismatch("derivation applied outside its algebra")
        terms: Dict[Monomial, Fraction] = {}
        for idx, part in sorted(f.partials().items()):
            if idx not in self.values:
                raise UnknownGenerator(self.algebra.gens[idx].name)
            val = self.values[idx]
            if not val.is_zero():
                add_into(terms, (val * part).terms)
        return Poly._trusted(self.algebra, terms)

    def commutator(self, other: "Derivation") -> "Derivation":
        """Graded commutator [D, D'] as a derivation (values on generators)."""
        if self.algebra is not other.algebra:
            raise ContextMismatch("derivations on different algebras")
        alg = self.algebra
        sign = -1 if (self.degree % 2) and (other.degree % 2) else 1
        values: Dict[int, Poly] = {}
        for idx in set(self.values) | set(other.values):
            dg = other.values.get(idx)
            gd = self.values.get(idx)
            if dg is None or gd is None:
                raise UnknownGenerator(alg.gens[idx].name)
            values[idx] = self(dg) - other(gd).scale(sign)
        return Derivation(alg, self.degree + other.degree, values)
