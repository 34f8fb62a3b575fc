"""Exact graded-commutative polynomial arithmetic with Koszul signs.

Everything downstream (sections of the contact line bundle, brackets,
structure tensors) is built on the classes here.  Coefficients are exact
integers and rationals and all equality checks are exact: the identities
being verified are algebraic, so there is no tolerance anywhere.

Conventions:
  * each generator carries a bidegree (eps, delta); its parity is
    (eps + delta) mod 2 and odd generators square to zero,
  * monomials are kept in a fixed canonical generator order, with the
    Koszul sign produced by counting odd-odd inversions,
  * derivatives with respect to odd generators are left derivatives.

Packed monomials.  Inside a `Poly` each monomial is one int, its key (after
Monagan & Pearce, CASC 2007, for the exponents and Dorst, Fontijne & Mann,
2007, ch. 19, for the odd letters):
  * the odd generators take the low bits, in generator order, two bits each:
    a value bit, set when the letter occurs, and a guard bit above it;
  * then each even generator, in generator order, takes a field of
    EXP_BITS exponent bits and a guard bit above them.
In a valid key every guard bit is clear.  A product of monomials adds their
keys: a repeated odd letter carries into its guard bit, and the product is
zero; an exponent sum past MAX_FIELD_EXPONENT carries into its field's guard
bit, and the product raises ExponentOverflow instead of wrapping into the
next field.  So one `+` and one `&` test with the guard mask settle both.
The Koszul sign of a product is the parity of its odd-odd crossings, a
popcount: with S(b) the odd positions above an odd number of b's odd
letters, it is (-1)^popcount(a & S(b)).  A left partial subtracts the
generator's unit from the key, and an odd generator's sign is
(-1)^popcount(key & odd letters before it).  The parity of a monomial is
popcount(key & odd mask) mod 2, and "uses only these generators" is one mask
test, with the mask kept per tuple of generator indices on the algebra.

One codec, `Algebra.pack` / `Algebra.unpack`, converts between keys and the
canonical `Monomial` tuples.  The tuple is the public form: `normalize_word`,
`mul_monomials`, `Algebra.monomial`, `Poly(algebra, terms)`,
`Poly.coefficient` and `Poly.terms` speak tuples, and every order that
reaches output (`sorted_terms`, `str`) is an order of tuples.  Both
directions are memoised per algebra; a key is a pure function of the
monomial and the algebra's fixed layout.

Scalars.  cjde has one scalar rule, and this is its one statement: a
scalar (`Scalar`) is an `int` when integral and a `Fraction` otherwise, never
a float or a bool.  Every layer keeps it: the kernel, the L-infinity vectors
(`linfty`, `cjalg.section_to_vector`) and the deformation workflow's exact
elimination (`deform`).  `_coefficient` reads an outside number by the rule,
and `_reciprocal` is the one division: 1/c of a nonzero scalar, the int
itself for 1 and -1 and `Fraction(1, c)` for any other int, so no layer
divides one int by another.  Inside a `Poly` a coefficient becomes a
Fraction only by meeting one, and a product or scaling whose value is
integral again is stored as an int.  A sum is not re-examined, so an
integral sum of Fractions may be stored as a Fraction (equal to the int, and
as exact, only slower); `_settle` turns it back, and what leaves the kernel
is settled: `Poly.terms`, `Poly.coefficient` and `sorted_terms` hand out
scalars by the rule.

`Poly.partials()` is the derivative kernel: it takes every left partial of a
polynomial in one sweep, and library code takes every derivative through it.
`Poly.partial` takes one generator at a time on the decoded tuples; it is
the reference that tests and independent oracles compare against.

`Derivation` is the one first-order operator, f -> c f + sum_g D(g) df/dg:
its values on the generators and its zeroth-order coefficient c are data,
and its `__call__` is the one code that applies a derivation.  `contact`'s
bracket operator {f, .}, its line-bundle derivations f + X (such as
d_{A,L}) and its vector fields are Derivations.

One sparse kernel and two sign rules serve every module:
  * `add_into(acc, vec, scale)`, the one accumulate loop, adds scale * vec
    to a dict the caller owns, in place, dropping keys that cancel;
  * `Poly.mul_into(other, acc)`, the one product loop, adds self * other to
    such a dict the same way, with no intermediate dict; `*` runs it into a
    fresh one;
  * `koszul_sort(letters, is_odd)`, the one Koszul sort, normalises
    generator words (monomials) and words of basis keys (`linfty`);
  * `Poly.parity_twist()`, the one parity twist f_even - f_odd, gives the
    sign (-1)^|f| taken part by part: the Jacobi bracket's u-blocks
    (`contact`) and the closed deformation brackets (`cjalg`) read it.

A `Poly` is immutable: nothing writes to its terms after construction.
`Poly(algebra, terms)` packs the {Monomial: coefficient} dict it is given
and drops zero coefficients, so outside callers may pass any dict.  Inside
this module and `contact`, `Poly._trusted(algebra, packed)` takes ownership
of a packed dict that already holds no zero, without the copy; the caller
must not touch the dict afterwards, and reads another Poly's packed dict
(`_packed`) only.  `partials()` is memoised on the `Poly` (sound because the
`Poly` is immutable), and the dict it returns, like the packed dict of each
partial, is read-only: the same rule `linfty` has for coefficient Vectors.
`contact.Section` keeps the same rule for its bracket operator: its body is
never reassigned, the memo is a slot of the Section and goes with it, and
no table outside the object holds it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]

__all__ = [
    "ContextMismatch",
    "UnknownGenerator",
    "ExponentOverflow",
    "MAX_FIELD_EXPONENT",
    "Generator",
    "Algebra",
    "Poly",
    "Derivation",
    "add_into",
    "koszul_sign",
    "koszul_sort",
]

# Bits of an even generator's exponent field; a guard bit sits above them.
EXP_BITS = 15
MAX_FIELD_EXPONENT = (1 << EXP_BITS) - 1


class ContextMismatch(ValueError):
    """Operands live in different algebra contexts."""


class UnknownGenerator(KeyError):
    """A generator name or index is not part of the algebra."""


class ExponentOverflow(OverflowError):
    """An exponent does not fit its generator's packed field."""


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


def _is_int(i) -> bool:
    """True for an int; a bool is a subclass of int and does not count."""
    return isinstance(i, int) and not isinstance(i, bool)


def _coefficient(c) -> Scalar:
    """c as the kernel stores it: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _reciprocal(c: Scalar) -> Scalar:
    """1/c for a nonzero scalar c, by the scalar rule; a zero raises ZeroDivisionError.

    An int of 1 or -1 is its own reciprocal, so that path makes no Fraction.
    """
    if type(c) is int:
        return c if c == 1 or c == -1 else Fraction(1, c)
    return _coefficient(1 / c)


def _settle(terms: Dict) -> Dict:
    """Store each integral Fraction value of `terms` as an int, in place."""
    for k, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[k] = c.numerator
    return terms


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
        # the packed layout (module docstring): odd letters low, then even fields
        shift = [0] * len(self.gens)
        width = [1 if odd else MAX_FIELD_EXPONENT for odd in self.odd]
        pos = 0
        for parity in (True, False):
            for g in self.gens:
                if self.odd[g.index] == parity:
                    shift[g.index] = pos
                    pos += 2 if parity else EXP_BITS + 1
        self._shift: Tuple[int, ...] = tuple(shift)
        self._width: Tuple[int, ...] = tuple(width)
        self._unit: Tuple[int, ...] = tuple(1 << s for s in shift)
        self._odd_units = [u for u, odd in zip(self._unit, self.odd) if odd]
        self._oddmask = sum(self._odd_units)
        self._oddguard = self._oddmask << 1
        self._guard = self._oddguard + sum(
            u << EXP_BITS for u, odd in zip(self._unit, self.odd) if not odd)
        # per generator: the odd letters before it, whose count signs its partial
        self._before: Tuple[int, ...] = tuple(self._oddmask & (u - 1) for u in self._unit)
        self._keys: Dict[Monomial, int] = {ONE: 0}
        self._monos: Dict[int, Monomial] = {0: ONE}
        self._crossings: Dict[int, int] = {}
        self._masks: Dict[Tuple[int, ...], int] = {}

    def generator(self, key: Union[str, int]) -> Generator:
        if isinstance(key, str):
            try:
                return self._by_name[key]
            except KeyError:
                raise UnknownGenerator(key) from None
        if not 0 <= key < len(self.gens):
            raise UnknownGenerator(key)
        return self.gens[key]

    # --- the codec between Monomial tuples and packed keys ---------------

    def pack(self, mono: Monomial) -> int:
        """The packed key of a canonical monomial.

        Raises ValueError for a tuple that is not canonical and
        ExponentOverflow for an exponent past MAX_FIELD_EXPONENT.
        """
        key = self._keys.get(mono)
        if key is not None:
            return key
        key, last = 0, -1
        for idx, exp in mono:
            if (not isinstance(idx, int) or not last < idx < len(self.gens)
                    or type(exp) is not int or exp < 1 or (exp > 1 and self.odd[idx])):
                raise ValueError(f"not a canonical monomial: {mono!r}")
            if exp > MAX_FIELD_EXPONENT:
                raise ExponentOverflow(
                    f"exponent {exp} of {self.gens[idx].name} exceeds {MAX_FIELD_EXPONENT}")
            key += exp << self._shift[idx]
            last = idx
        self._keys[mono] = key
        return key

    def unpack(self, key: int) -> Monomial:
        """The canonical monomial of a packed key (inverse of `pack`)."""
        mono = self._monos.get(key)
        if mono is None:
            mono = tuple((idx, e) for idx, e in enumerate(
                (key >> s) & w for s, w in zip(self._shift, self._width)) if e)
            self._monos[key] = mono
        return mono

    def _fields(self, indices: Iterable[int]) -> int:
        """The mask of the given generators' bits in a packed key, kept per index tuple."""
        indices = tuple(indices)
        mask = self._masks.get(indices)
        if mask is None:
            mask = self._masks[indices] = sum(self._width[i] << self._shift[i]
                                              for i in set(indices))
        return mask

    def _crossing_mask(self, key: int) -> int:
        """S(key): the odd positions above an odd number of key's odd letters."""
        odd = key & self._oddmask
        mask = self._crossings.get(odd)
        if mask is None:
            mask, inside = 0, False
            for unit in self._odd_units:
                if inside:
                    mask |= unit
                if odd & unit:
                    inside = not inside
            self._crossings[odd] = mask
        return mask

    def _overflow(self, key: int) -> ExponentOverflow:
        names = [g.name for g, s, odd in zip(self.gens, self._shift, self.odd)
                 if not odd and key >> (s + EXP_BITS) & 1]
        return ExponentOverflow(f"exponent of {', '.join(names)} exceeds "
                                f"{MAX_FIELD_EXPONENT}, the largest a packed field holds")

    # --- polynomial constructors -------------------------------------

    def zero(self) -> "Poly":
        return Poly._trusted(self, {})

    def one(self) -> "Poly":
        return Poly._trusted(self, {0: 1})

    def scalar(self, c: Scalar) -> "Poly":
        return Poly(self, {ONE: c})

    def gen(self, key: Union[str, int]) -> "Poly":
        g = self.generator(key)
        return Poly._trusted(self, {self._unit[g.index]: 1})

    def monomial(self, mono: Monomial, coeff: Scalar = 1) -> "Poly":
        return Poly(self, {mono: coeff})

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
        """Product of two canonical monomials: (sign, monomial) or (1, None) if zero.

        The packed product of `Poly.__mul__`, one pair at a time, on tuples.
        """
        ka, kb = self.pack(a), self.pack(b)
        key = ka + kb
        if key & self._guard:
            if key & self._oddguard:
                return 1, None
            raise self._overflow(key)
        sign = -1 if (ka & self._crossing_mask(kb)).bit_count() & 1 else 1
        return sign, self.unpack(key)


class Poly:
    """A graded-commutative polynomial: finite map monomial -> nonzero rational."""

    __slots__ = ("algebra", "_packed", "_parts")

    def __init__(self, algebra: Algebra, terms: Mapping[Monomial, Scalar]):
        pack = algebra.pack
        self.algebra = algebra
        self._packed = {pack(m): _coefficient(c) for m, c in terms.items() if c}
        self._parts: Optional[Dict[int, "Poly"]] = None

    @staticmethod
    def _trusted(algebra: Algebra, packed: Dict[int, Scalar]) -> "Poly":
        """A Poly that takes ownership of `packed`, which must hold no zero."""
        p = object.__new__(Poly)
        p.algebra = algebra
        p._packed = packed
        p._parts = None
        return p

    @property
    def terms(self) -> Dict[Monomial, Scalar]:
        """{canonical monomial: coefficient}, decoded from the packed terms and settled."""
        unpack = self.algebra.unpack
        return _settle({unpack(k): c for k, c in self._packed.items()})

    # --- ring structure ----------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.algebra is not other.algebra:
            raise ContextMismatch(
                f"operands in different algebras: {self.algebra.label!r} vs {other.algebra.label!r}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._trusted(self.algebra, add_into(dict(self._packed), other._packed))

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.algebra, {k: -c for k, c in self._packed.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._trusted(self.algebra, add_into(dict(self._packed), other._packed, -1))

    def scale(self, c: Scalar) -> "Poly":
        c = _coefficient(c)
        if not c:
            return self.algebra.zero()
        return Poly._trusted(self.algebra, _settle({k: c * v for k, v in self._packed.items()}))

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return Poly._trusted(self.algebra, self.mul_into(other, {}))

    def mul_into(self, other: "Poly", acc: Dict[int, Scalar]) -> Dict[int, Scalar]:
        """acc += self * other in place, with no intermediate dict; returns acc.

        The one product loop: `__mul__` runs it into a fresh dict.  A pair
        of keys whose sum sets a guard bit is a repeated odd letter (skipped)
        or an exponent overflow (raised, leaving acc partly updated); the
        sign is the popcount of the odd-odd crossings; a key whose sum
        cancels is deleted, as in `add_into`; and a value written that is an
        integral Fraction is stored as its int.
        """
        self._check(other)
        if not (self._packed and other._packed):
            return acc
        alg = self.algebra
        guard, oddguard, crossing = alg._guard, alg._oddguard, alg._crossing_mask
        right = [(kb, cb, crossing(kb)) for kb, cb in other._packed.items()]
        get = acc.get
        for ka, ca in self._packed.items():
            for kb, cb, cross in right:
                key = ka + kb
                if key & guard:
                    if key & oddguard:    # a repeated odd letter
                        continue
                    raise alg._overflow(key)
                c = ca * cb
                if (ka & cross).bit_count() & 1:
                    c = -c
                old = get(key)
                if old is not None:
                    c = old + c
                    if not c:
                        del acc[key]
                        continue
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                acc[key] = c
        return acc

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.algebra is other.algebra and self._packed == other._packed

    def __hash__(self) -> int:
        return hash((id(self.algebra), frozenset(self._packed.items())))

    def is_zero(self) -> bool:
        return not self._packed

    # --- grading ------------------------------------------------------

    def _components(self, grade: Callable[[Monomial], object]) -> Dict[object, "Poly"]:
        alg = self.algebra
        out: Dict[object, Dict[int, Scalar]] = {}
        for k, c in self._packed.items():
            out.setdefault(grade(alg.unpack(k)), {})[k] = c
        return {g: Poly._trusted(alg, t) for g, t in sorted(out.items())}

    def bidegree_components(self) -> Dict[Tuple[int, int], "Poly"]:
        return self._components(self.algebra.monomial_bidegree)

    def degree_components(self) -> Dict[int, "Poly"]:
        return self._components(self.algebra.monomial_degree)

    def parity_components(self) -> Dict[int, "Poly"]:
        """{parity: part}; a homogeneous polynomial is its own only part."""
        oddmask = self.algebra._oddmask
        out: Dict[int, Dict[int, Scalar]] = {0: {}, 1: {}}
        for k, c in self._packed.items():
            out[(k & oddmask).bit_count() & 1][k] = c
        if not (out[0] and out[1]):
            return {p: self for p, t in out.items() if t}
        return {p: Poly._trusted(self.algebra, t) for p, t in out.items()}

    def parity_twist(self) -> "Poly":
        """f_even - f_odd, in one pass over the keys; self when no term is odd."""
        oddmask, flipped, out = self.algebra._oddmask, False, {}
        for k, c in self._packed.items():
            if (k & oddmask).bit_count() & 1:
                c, flipped = -c, True
            out[k] = c
        return Poly._trusted(self.algebra, out) if flipped else self

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

    def coefficient(self, mono: Monomial) -> Scalar:
        """The settled coefficient of a canonical monomial, 0 when absent."""
        return _coefficient(self._packed.get(self.algebra.pack(mono), 0))

    def uses_only(self, allowed: Iterable[int]) -> bool:
        outside = ~self.algebra._fields(allowed)
        return not any(k & outside for k in self._packed)

    def restrict(self, allowed: Iterable[int]) -> "Poly":
        """The terms whose monomials use only the generators `allowed`."""
        outside = ~self.algebra._fields(allowed)
        return Poly._trusted(self.algebra,
                             {k: c for k, c in self._packed.items() if not k & outside})

    def split(self, inner: Iterable[int]) -> Dict[Monomial, "Poly"]:
        """Group the terms by their letters outside `inner`: {outer monomial: inner part}.

        The generators `inner` must be even, so each monomial is its inner
        letters times its outer ones with no sign, and self is the sum of
        inner part * outer monomial over the groups.  Groups come in the order
        of their first term.
        """
        alg = self.algebra
        mask = alg._fields(inner)
        if mask & alg._oddmask:
            raise ValueError("split only factors out even generators")
        groups: Dict[int, Dict[int, Scalar]] = {}
        for k, c in self._packed.items():
            groups.setdefault(k & ~mask, {})[k & mask] = c
        return {alg.unpack(k): Poly._trusted(alg, t) for k, t in groups.items()}

    # --- calculus -----------------------------------------------------

    def partial(self, key: Union[str, int]) -> "Poly":
        """Left partial derivative with respect to one generator.

        The reference for `partials`, which library code uses: it works on
        the decoded monomial tuples and works out each sign afresh from the
        letters' bidegrees.  An odd letter is moved to the front past the
        letters before it, so the sign is -1 exactly when it and their total
        degree are both odd; a letter of exponent e gives the factor e.
        Taking one power of the generator off a monomial is injective, so no
        two terms land on the same monomial and nothing is accumulated.
        """
        g = self.algebra.generator(key)
        alg = self.algebra
        terms: Dict[Monomial, Scalar] = {}
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
        have an entry, as their partials are nonzero (see `partial`).  A
        partial subtracts the generator's unit from the key; an odd letter is
        signed by the odd letters before it, an even one multiplied by its
        exponent.  Taken once per Poly and kept: the dict returned is shared
        and read-only.
        """
        if self._parts is not None:
            return self._parts
        alg = self.algebra
        unpack, unit, before, odd = alg.unpack, alg._unit, alg._before, alg.odd
        out: Dict[int, Dict[int, Scalar]] = {}
        for k, c in self._packed.items():
            for idx, exp in unpack(k):
                terms = out.get(idx)
                if terms is None:
                    terms = out[idx] = {}
                if odd[idx]:
                    terms[k - unit[idx]] = -c if (k & before[idx]).bit_count() & 1 else c
                else:
                    terms[k - unit[idx]] = exp * c
        self._parts = {idx: Poly._trusted(alg, terms) for idx, terms in out.items()}
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

    def sorted_terms(self) -> List[Tuple[Monomial, Scalar]]:
        def key(item):
            mono, _ = item
            return (self.algebra.monomial_degree(mono), mono)
        return sorted(self.terms.items(), key=key)

    def __str__(self) -> str:
        if not self._packed:
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
    """The one first-order operator: D(f) = c f + sum_g D(g) * df/dg (left partials).

    It is given by its values on generators (`values`) and its zeroth-order
    coefficient c (`scalar`, None for a plain vector field).  `degree` is
    the total degree shift: the value on g must have degree `degree + |g|`,
    and c degree `degree`, for the graded Leibniz rule to hold, and
    `commutator` uses its parity; an operator of no single degree has None
    and takes no commutator.  A generator without a value raises
    UnknownGenerator when hit, as D must be defined on every generator in
    use; a subclass may instead build the value there (`_missing_value`).
    """

    __slots__ = ("algebra", "degree", "values", "scalar")

    def __init__(self, algebra: Algebra, degree: Optional[int], values: Dict[int, Poly],
                 scalar: Optional[Poly] = None):
        self.algebra = algebra
        self.degree = degree
        self.values = values
        self.scalar = scalar

    def _missing_value(self, idx: int) -> Poly:
        """The value on a generator that `values` lacks: there is none."""
        raise UnknownGenerator(self.algebra.gens[idx].name)

    def __call__(self, f: Poly) -> Poly:
        """c f + sum_g D(g) * df/dg, added into one dict.

        The partials of f (`Poly.partials`, memoised on f) are taken in their
        own order; each nonzero value times its partial goes in by
        `Poly.mul_into`, and c f is one product added last.
        """
        if f.algebra is not self.algebra:
            raise ContextMismatch("derivation applied outside its algebra")
        terms: Dict[int, Scalar] = {}
        for idx, part in f.partials().items():
            value = self.values.get(idx)
            if value is None:
                value = self._missing_value(idx)
            if value._packed:
                value.mul_into(part, terms)
        if self.scalar is not None:
            add_into(terms, (self.scalar * f)._packed)
        return Poly._trusted(self.algebra, terms)

    def commutator(self, other: "Derivation") -> "Derivation":
        """[D, D'] = D D' - (-1)^{|D||D'|} D' D, again a first-order operator.

        With D = c + X and D' = c' + Y the products c c' cancel: the values
        are [X, Y] on the generators and the scalar is
        X(c') - (-1)^{|D||D'|} Y(c), None when neither has a scalar.
        """
        if self.algebra is not other.algebra:
            raise ContextMismatch("derivations on different algebras")
        alg = self.algebra
        # an operator of no single degree (None) raises TypeError here, before any work
        degree = self.degree + other.degree
        sign = -1 if (self.degree % 2) and (other.degree % 2) else 1
        X, Y = (Derivation(alg, d.degree, d.values) for d in (self, other))
        values: Dict[int, Poly] = {}
        for idx in set(self.values) | set(other.values):
            dg = other.values.get(idx)
            gd = self.values.get(idx)
            if dg is None or gd is None:
                raise UnknownGenerator(alg.gens[idx].name)
            values[idx] = X(dg) - Y(gd).scale(sign)
        if self.scalar is None and other.scalar is None:
            return Derivation(alg, degree, values)
        c, c2 = (alg.zero() if d.scalar is None else d.scalar for d in (self, other))
        return Derivation(alg, degree, values, X(c2) - Y(c).scale(sign))
