"""The degree-2 contact manifold attached to a vector bundle over a polynomial base.

Generators of the coordinate algebra, with bidegrees:

    x^1..x^m   (0,0)   base coordinates
    u^1..u^n   (0,1)   fiber coordinates of A[1]
    pa_1..pa_n (1,0)   momenta conjugate to the u's
    pi_1..pi_m (1,1)   momenta conjugate to the x's
    p          (1,1)   the jet momentum

The line bundle is trivialized by a global frame mu, so a section is just a
polynomial coefficient.  Three kinds of first-order operator act on it, and
each is a `gca.Derivation`, applied by its one `__call__`:

  * the bracket {f, .} with a fixed left section f (`HamiltonianOperator`,
    whose docstring gives its coefficients), memoised on the left `Section`
    so that the derived brackets {{e, Theta}, .}, which apply the same few
    left operators to many sections, build its coefficients once;
  * a derivation f + X of the line bundle over A[1], such as d_{A,L}
    (`LineDerivation`), whose Hamiltonian lift is the fiberwise-linear
    section (f p + X^i pi_i + X^a pa_a) mu;
  * a vector field on the contact manifold, such as the Reeb field of a
    section (`reeb_field`): a plain `gca.Derivation` with no scalar and a
    value on every generator, here the bracket operator's.

Everything else (Hamiltonian lifts, the Legendre transform) is checked
against the bracket.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .gca import Algebra, ContextMismatch, Derivation, Poly, Scalar, add_into

__all__ = [
    "ContactContext",
    "Section",
    "LineDerivation",
    "jacobi_bracket",
    "hamiltonian_lift",
    "project_P",
    "legendre_pullback",
    "reeb_field",
    "contract_theta",
    "bidegree_decompose",
]


class ContactContext:
    """Coordinate algebra of J^1[2] of the trivialized line bundle over A[1]."""

    def __init__(self, m: int, n: int, _mirror_of: "ContactContext" = None):
        self.m = m
        self.n = n
        gens: List[Tuple[str, Tuple[int, int]]] = []
        gens += [(f"x{i+1}", (0, 0)) for i in range(m)]
        gens += [(f"u{a+1}", (0, 1)) for a in range(n)]
        gens += [(f"pa{a+1}", (1, 0)) for a in range(n)]
        gens += [(f"pi{i+1}", (1, 1)) for i in range(m)]
        gens += [("p", (1, 1))]
        mirror = "" if _mirror_of is None else "|mirror"
        self.algebra = Algebra(gens, label=f"contact(m={m},n={n}){mirror}")
        self.ix_x = list(range(0, m))
        self.ix_u = list(range(m, m + n))
        self.ix_pa = list(range(m + n, m + 2 * n))
        self.ix_pi = list(range(m + 2 * n, 2 * m + 2 * n))
        self.ix_p = 2 * m + 2 * n
        self._base = tuple(self.ix_x + self.ix_u)
        # each coordinate and each momentum: (coordinate, its momentum, and
        # whether the bracket signs the pair by the parity of its left argument)
        self.darboux: Dict[int, Tuple[int, int, bool]] = {}
        for coord, mom, signed in [(x, pi, False) for x, pi in zip(self.ix_x, self.ix_pi)] \
                + [(u, pa, True) for u, pa in zip(self.ix_u, self.ix_pa)]:
            self.darboux[coord] = self.darboux[mom] = (coord, mom, signed)
        self._mirror = _mirror_of
        # F^*'s generator images from the mirror, built on first use and kept
        self._legendre: Optional[Dict[int, Poly]] = None

    @property
    def mirror(self) -> "ContactContext":
        """The context built from the twisted dual bundle (same m and n)."""
        if self._mirror is None:
            self._mirror = ContactContext(self.m, self.n, _mirror_of=self)
        return self._mirror

    # convenience constructors ------------------------------------------

    def x(self, i: int) -> Poly:
        return self.algebra.gen(self.ix_x[i])

    def u(self, a: int) -> Poly:
        return self.algebra.gen(self.ix_u[a])

    def pa(self, a: int) -> Poly:
        return self.algebra.gen(self.ix_pa[a])

    def pi(self, i: int) -> Poly:
        return self.algebra.gen(self.ix_pi[i])

    @property
    def p(self) -> Poly:
        return self.algebra.gen(self.ix_p)

    def zero_section(self) -> "Section":
        return Section(self, self.algebra.zero())

    def section(self, body: Union[Poly, Scalar]) -> "Section":
        if not isinstance(body, Poly):
            body = self.algebra.scalar(body)
        return Section(self, body)

    def base_indices(self) -> Tuple[int, ...]:
        """The x and u generators, built once per context."""
        return self._base

    def is_base_poly(self, f: Poly) -> bool:
        """True when f only involves the x and u generators."""
        return f.uses_only(self.base_indices())


class Section:
    """A section of the contact line bundle: `body` is the coefficient of mu.

    A Section is immutable: nothing assigns `body` after construction.  Its
    left operator {body, .} (`_hamiltonian`) is memoised on the Section, the
    way a `Poly` memoises its partials: the memo is owned by the object and
    goes with it, and there is no module-level table.
    """

    __slots__ = ("context", "body", "_operator")

    def __init__(self, context: ContactContext, body: Poly):
        if body.algebra is not context.algebra:
            raise ContextMismatch("section body from a different context")
        self.context = context
        self.body = body
        self._operator: Optional[HamiltonianOperator] = None

    def _hamiltonian(self) -> "HamiltonianOperator":
        """{body, .} as a first-order operator, built on first use and kept."""
        if self._operator is None:
            self._operator = HamiltonianOperator(self.context, self.body)
        return self._operator

    def _check(self, other: "Section") -> None:
        if self.context is not other.context:
            raise ContextMismatch("sections from different contexts")

    def __add__(self, other: "Section") -> "Section":
        self._check(other)
        return Section(self.context, self.body + other.body)

    def __sub__(self, other: "Section") -> "Section":
        self._check(other)
        return Section(self.context, self.body - other.body)

    def __neg__(self) -> "Section":
        return Section(self.context, -self.body)

    def scale(self, c: Scalar) -> "Section":
        return Section(self.context, self.body.scale(c))

    def mul_function(self, f: Poly) -> "Section":
        """Module action of a coordinate function, multiplying from the left."""
        return Section(self.context, f * self.body)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Section):
            return NotImplemented
        return self.context is other.context and self.body == other.body

    def __hash__(self) -> int:
        return hash((id(self.context), self.body))

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def degree(self) -> Optional[int]:
        return self.body.degree()

    def __str__(self) -> str:
        return f"({self.body})*mu"

    __repr__ = __str__


def bidegree_decompose(s: Section) -> Dict[Tuple[int, int], Section]:
    """Split a section into its bidegree-homogeneous components."""
    return {bd: Section(s.context, f) for bd, f in s.body.bidegree_components().items()}


def project_P(s: Section) -> Section:
    """Restriction to the zero section: kills every monomial with eps >= 1.

    The generators of eps = 0 are the x's and u's, so P keeps the monomials
    in those alone, a mask test on the packed keys.
    """
    ctx = s.context
    return Section(ctx, s.body.restrict(ctx.base_indices()))


# --- the canonical Jacobi bracket -------------------------------------


class HamiltonianOperator(Derivation):
    """{f, .} for one left body f: a `gca.Derivation` (left partials throughout).

    The bracket is first order in its right argument,
    {f, g} = C_0 g + sum_k C_k dg/dk: the C_k are the values and C_0 the
    scalar.  With F the partials of f, T those of its parity twist
    f~ = f_even - f_odd = `f.parity_twist()` (the sign (-1)^|f| of the
    u-blocks, taken part by part), and D_i = d/dx^i + pi_i d/dp,
    D_a = d/du^a + pa_a d/dp:

        C_{x^i} = -F_{pi_i}         C_{pi_i} = D_i f
        C_{u^a} = T_{pa_a}          C_{pa_a} = D_a f~
        C_p = f - sum_i F_{pi_i} pi_i + sum_a T_{pa_a} pa_a
        C_0 = -F_p

    The C_k are the values of f's Reeb field (`reeb_field`).  Each is built
    the first time a right argument has a partial by k, and kept: most left
    arguments meet a few right ones, so an eager build would mostly be waste.
    f may be inhomogeneous, so the operator has no degree and takes no
    commutator; the Reeb field of a homogeneous section is the vector field
    to take commutators of.
    """

    __slots__ = ("context", "f", "_twist")

    def __init__(self, context: ContactContext, f: Poly):
        d_p = f.partials().get(context.ix_p)
        super().__init__(context.algebra, None, {}, None if d_p is None else -d_p)
        self.context = context
        self.f = f
        self._twist: Optional[Dict[int, Poly]] = None

    def _twisted(self) -> Dict[int, Poly]:
        """T, the partials of the twist f~, taken once and kept."""
        if self._twist is None:
            self._twist = self.f.parity_twist().partials()
        return self._twist

    def _missing_value(self, k: int) -> Poly:
        """C_k, for the generator of index k, built and kept in `values`."""
        ctx = self.context
        alg = ctx.algebra
        acc: Dict = {}
        if k == ctx.ix_p:
            F = self.f.partials()
            T = self._twisted()
            add_into(acc, self.f._packed)
            for pi in ctx.ix_pi:
                if pi in F:
                    F[pi].mul_into(-alg.gen(pi), acc)
            for pa in ctx.ix_pa:
                if pa in T:
                    T[pa].mul_into(alg.gen(pa), acc)
        else:
            coord, mom, signed = ctx.darboux[k]
            parts = self._twisted() if signed else self.f.partials()
            if k == coord:
                # T_{pa_a} for u^a, but -F_{pi_i} for x^i
                if mom in parts:
                    add_into(acc, parts[mom]._packed, 1 if signed else -1)
            else:
                # D f = df/d(coord) + mom * df/dp, or D f~ for u^a
                if coord in parts:
                    add_into(acc, parts[coord]._packed)
                if ctx.ix_p in parts:
                    alg.gen(mom).mul_into(parts[ctx.ix_p], acc)
        c = self.values[k] = Poly._trusted(alg, acc)
        return c


def jacobi_bracket(s: Section, t: Section) -> Section:
    """Canonical degree -2 Jacobi bracket: s's Hamiltonian operator applied to t.

    With f = s.body, g = t.body, D_i = d/dx^i + pi_i d/dp and
    D_a = d/du^a + pa_a d/dp (left partials throughout),

        {f, g} = f dg/dp - df/dp g
                 + sum_i (D_i f dg/dpi_i - df/dpi_i D_i g)
                 + (-1)^|f| sum_a (D_a f dg/dpa_a + df/dpa_a D_a g),

    read part by part when f mixes parities.  It runs as the first-order
    operator `HamiltonianOperator` of f, memoised on s, so a left argument
    used again reuses every coefficient it has built.
    """
    s._check(t)
    return Section(s.context, s._hamiltonian()(t.body))


# --- derivations of the line bundle over A[1] --------------------------


class LineDerivation(Derivation):
    """A derivation f + X of the trivialized line bundle over A[1].

    It is the `gca.Derivation` whose scalar is f and whose values are those
    of the vector field X = sum_i f^i d/dx^i + sum_a f^a d/du^a: f^i on the
    x's, f^a on the u's, zero on the momenta.  So a section s goes to
    f*s + X(s), and a body to a body.  The coefficients must only involve
    base (x, u) generators.
    """

    __slots__ = ("context",)

    def __init__(self, context: ContactContext, degree: int, f: Poly,
                 f_x: Sequence[Poly], f_u: Sequence[Poly]):
        for coeff in [f, *f_x, *f_u]:
            if coeff.algebra is not context.algebra:
                raise ContextMismatch("coefficient from a different context")
            if not context.is_base_poly(coeff):
                raise ValueError("line derivation coefficients mention fiber momenta")
        if len(f_x) != context.m or len(f_u) != context.n:
            raise ValueError("coefficient arrays do not match the context dimensions")
        values = dict.fromkeys(range(len(context.algebra.gens)), context.algebra.zero())
        values.update(zip(context.ix_x + context.ix_u, [*f_x, *f_u]))
        super().__init__(context.algebra, degree, values, f)
        self.context = context

    def __call__(self, s: Union[Section, Poly]) -> Union[Section, Poly]:
        if isinstance(s, Section):
            return Section(self.context, super().__call__(s.body))
        return super().__call__(s)

    def commutator(self, other: "LineDerivation") -> "LineDerivation":
        """[d, d'] by `Derivation.commutator`, read back as f, f^i and f^a."""
        ctx = self.context
        d = super().commutator(other)
        return LineDerivation(ctx, d.degree, d.scalar, [d.values[idx] for idx in ctx.ix_x],
                              [d.values[idx] for idx in ctx.ix_u])


def hamiltonian_lift(d: LineDerivation) -> Section:
    """Fiberwise-linear section (f p + f^i pi_i + f^a pa_a) mu encoding d = f + X.

    Each product goes by `Poly.mul_into` into one packed dict.
    """
    ctx = d.context
    acc = d.scalar.mul_into(ctx.p, {})
    for coord, mom in zip(ctx.ix_x + ctx.ix_u, ctx.ix_pi + ctx.ix_pa):
        d.values[coord].mul_into(ctx.algebra.gen(mom), acc)
    return Section(ctx, Poly._trusted(ctx.algebra, acc))


# --- Legendre transform ------------------------------------------------


def _legendre_images(src: ContactContext, dst: ContactContext) -> Dict[int, Poly]:
    """Generator images of F*: functions on the mirror pull back to `dst`.

    `legendre_pullback` builds them once per destination context and keeps
    them on it, the way a `Poly` keeps its partials.
    """
    images: Dict[int, Poly] = {}
    for i in range(src.m):
        images[src.ix_x[i]] = dst.x(i)
    for a in range(src.n):
        images[src.ix_u[a]] = dst.pa(a)       # u~^a -> pa_a
        images[src.ix_pa[a]] = dst.u(a)       # p~_a -> u^a
    for i in range(src.m):
        images[src.ix_pi[i]] = dst.pi(i)      # p~_i -> pi_i
    ptilde = dst.p
    for a in range(src.n):
        ptilde = ptilde - dst.u(a) * dst.pa(a)
    images[src.ix_p] = ptilde                 # p~ -> p - u^a pa_a
    return images


def legendre_pullback(t: Section, into: ContactContext) -> Section:
    """Pull a mirror-side section back through the Legendre contactomorphism.

    `t` must live over the mirror of `into` (matching dimensions); the frame
    mu is shared, so only the body is substituted.  The generator images
    (`_legendre_images`) are built on the first pullback into a context and
    kept on it.
    """
    src = t.context
    if src.m != into.m or src.n != into.n or into.mirror is not src:
        raise ContextMismatch("section does not live over the mirror context")
    if into._legendre is None:
        into._legendre = _legendre_images(src, into)
    return Section(into, t.body.substitute(into.algebra, into._legendre))


# --- Reeb vector fields --------------------------------------------------


def reeb_field(lam: Section) -> Derivation:
    """Reeb vector field of a homogeneous section: X(k) = C_k of {lam, .}.

    A plain `gca.Derivation` of degree |lam| - 2 with no scalar and a value
    on every generator: the values of the bracket's operator
    (`HamiltonianOperator`), so {lam, g} = X(g) - dlam/dp g.
    """
    ctx = lam.context
    deg = lam.body.degree()
    op = lam._hamiltonian()
    values = {k: op.values[k] if k in op.values else op._missing_value(k)
              for k in range(len(ctx.algebra.gens))}
    return Derivation(ctx.algebra, -2 if deg is None else deg - 2, values)


def contract_theta(ctx: ContactContext, X: Derivation) -> Section:
    """Contraction of a vector field on `ctx` against the Cartan contact form.

    theta = (dp - pi_i dx^i - pa_a du^a) mu; the Koszul signs follow the
    convention iota_{fX} = (-1)^{|f|} f iota_X used throughout, under which
    iota_{X_lam} theta = (-1)^{|lam|} lam holds exactly.  Only X's values
    on p, the x's and the u's are read; a field on another algebra raises
    ContextMismatch.
    """
    if X.algebra is not ctx.algebra:
        raise ContextMismatch("vector field from a different context")
    sign = -1 if X.degree % 2 else 1
    out = X.values[ctx.ix_p]
    for i in range(ctx.m):
        out = out - ctx.pi(i) * X.values[ctx.ix_x[i]]
    out = out.scale(sign)
    for a in range(ctx.n):
        out = out + ctx.pa(a) * X.values[ctx.ix_u[a]]
    return Section(ctx, out)
