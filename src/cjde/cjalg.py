"""Split Courant-Jacobi algebroids from structure functions.

An instance is given by polynomial structure functions over the base:
anchor rho^i_a, bracket coefficients c^c_ab (skew in a,b) and representation
weights lam_a on one side; rho~^ia, c~^ab_c, lam~^a on the twisted-dual side;
and fully antisymmetric tensors phi_abc, psi^abc.  No integrability is
assumed at construction time.

From this data the module builds the cubic structure section Theta, recovers
the bracket / connection / pairing by double brackets against Theta, checks
the equivalence of the structure equation {Theta,Theta} = 0 with the direct
axioms, produces the cubic deformation brackets by two independent routes,
and changes the Lagrangian complement via the exponential flow.

A and A-dagger enter symmetrically, so the code for one side is written once
over a private `_Side` record, which is data only: the contact context the
side's forms live in (`inst.context` for A, its mirror for A-dagger) and the
side's rho / c / lam / Upsilon tensors.  One map moves polynomials between
the two contexts: `_onto` leaves a polynomial that already lives on its
target as it is, relabels one in the x's alone, which F^* fixes, and
otherwise pulls it back from the target's mirror by the Legendre transform
F^* (`contact.legendre_pullback`), an involution.  It
carries each stored entry onto the side's context in `_form`, and each form
back to `inst.context`.  The de Rham derivation, the cubic Upsilon form,
1-forms from coefficients, contraction, Lie derivative, section bracket and
the reading of structure functions off Theta each take a side; Theta is the
sum over both sides of h_d - Upsilon carried onto `inst.context`.

A structure tensor is stored in one format: its nonzero canonical entries,
a dict from increasing index tuples to base polynomials in sorted key order
(a tensor with a free first index, rho or c, is a list of them over that
index).  `_canonical` is the one canonicaliser: it sorts each constructor
key with the sign of the sort, cancels a repeated index, sums entries on one
key and drops zeros.  An L-valued form is a `Section`; `DeformationForm`,
the 2-form on A, is one.  `_form` and its inverse `_form_keys` are the one
codec between forms (in the u's, or the pa's) and stored tensors; Theta is
read back through `_form_keys` too (`extract_instance`), and only the
independent oracle `de_rham_koszul` reads the tensors its own way.  A
computed tensor takes the same format: `courant_tensor` returns a frame's
nonzero entries at increasing triples.  Dense tables exist only in the file
codec, `instancefile`.

One derived-bracket path: the derived m_k and a change of complement's M_2
are higher derived brackets of the contact V-data, Phi = -Theta (held by the
instance next to Theta) or Phi = eps.  `_derived_coefficients` gives all of
a structure's derived Taylor coefficients from one `vdata.derived_bracket_fold`
over the letters of each word, basis monomials read as sections.  m_0 is
the same fold on the empty word, the curvature P(-Theta), so the derived
route reads m_0..m_3 from one V-data.  The fold keeps the unprojected
bracket of each word prefix shorter than the top arity, so a word costs one
bracket past its prefix, and each basis key is made a letter section once.
The kept brackets and letters are freed with the coefficient function, and
so with Q or M; the derived route caches nothing on the instance.
`mc_residual_form` runs one such fold with a 2-form itself as the letter,
three brackets in all.  `_taylor_coefficient` adapts an operation on
sections to a Taylor coefficient on the closed route.  The instance owns
its closed route's m_0..m_3, each memoised per word
(`SplitCJInstance.closed_coefficients`), and every closed-route Q wraps
them afresh, so the Qs of one instance share one evaluation of each word.

The closed route rests on one contraction: `_contract` gives, for a fully
antisymmetric k-tensor T and forms f_1..f_k, the sum of T[a_1..a_k]
d_{u^{a_1}} f_1 ... d_{u^{a_k}} f_k, reading each nonzero entry once with
its signed permutations.  The argument w that carries a sign (-1)^{|w|} is
twisted once, w~ = `Poly.parity_twist` of its body (the x's are even, so
|w| is the parity of each monomial), and each formula is linear in it.
Then m_3 = -<psi; alpha, beta~, gamma>, M_2 = <eps; w_1~, w_2> on every
pair of forms, and m_2 is first order in each slot plus the contraction of
the 2-tensor K built from the nonzero lam~ and c~ (`m2_closed`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .contact import (
    ContactContext,
    LineDerivation,
    Section,
    bidegree_decompose,
    hamiltonian_lift,
    jacobi_bracket,
    legendre_pullback,
    project_P,
)
from .gca import (ContextMismatch, Derivation, Monomial, Poly, Scalar, _coefficient, _is_int,
                  _reciprocal, _settle, add_into, koszul_sign, koszul_sort)
from .linfty import (
    GradedSpace,
    TaylorCoderivation,
    Vector,
    Word,
    _memoised,
    exp_coderivation,
)
from .vdata import VData, derived_bracket_fold, higher_derived_bracket

__all__ = [
    "SplitCJInstance",
    "AxiomReport",
    "DeformationForm",
    "NotLagrangian",
    "build_theta",
    "check_cj_axioms",
    "first_nonzero",
    "embed_anchored",
    "split_anchored",
    "pairing",
    "derived_operations",
    "courant_tensor",
    "graph_frame",
    "is_dirac_jacobi",
    "deformation_space",
    "deformation_brackets",
    "derived_bracket_sections",
    "mc_residual_form",
    "contact_vdata",
    "change_complement",
    "extract_instance",
    "form_basis",
    "epsilon_section",
    "m2_closed",
    "m3_closed",
    "m2_sharp_closed",
    "gj_bracket_closed",
    "iota",
    "lie_derivative",
    "de_rham",
    "de_rham_koszul",
    "loday_bracket_formula",
    "upsilon_A_section",
    "section_bracket_A",
    "section_to_vector",
    "vector_to_section",
    "word_to_sections",
]

PolyLike = Union[Poly, Scalar, Dict[Tuple[int, ...], Scalar]]


def _as_xpoly(ctx: ContactContext, value: PolyLike) -> Poly:
    """Coerce a scalar / exponent-dict / Poly into a base-coordinate polynomial."""
    if isinstance(value, Poly):
        if value.algebra is not ctx.algebra or not value.uses_only(ctx.ix_x):
            raise ValueError("structure function must only involve base coordinates")
        return value
    if isinstance(value, dict):
        # the canonical monomial directly, zero exponents left out: `pack`
        # rejects a negative or non-int exponent with ValueError
        terms = {}
        for exps, coeff in value.items():
            if len(exps) != ctx.m:
                raise ValueError("exponent vector length does not match base dimension")
            terms[tuple((ctx.ix_x[i], e) for i, e in enumerate(exps) if e)] = _coefficient(coeff)
        return Poly(ctx.algebra, terms)
    return Poly._trusted(ctx.algebra, {0: _coefficient(value)} if value else {})


# --- the stored tensor format --------------------------------------------------

# A structure tensor: its nonzero canonical entries, in sorted key order.
_Tensor = Dict[Tuple[int, ...], Poly]


@functools.lru_cache(maxsize=None)
def _signed_permutations(k: int) -> List[Tuple[Tuple[int, ...], int]]:
    return [(perm, koszul_sign(perm, (1,) * k)) for perm in itertools.permutations(range(k))]


def _canonical_key(key, shape: Tuple[int, ...], k: int
                   ) -> Optional[Tuple[Tuple[int, ...], int]]:
    """(canonical key, sign) of an index of a tensor antisymmetric in its last k indices.

    A key is an index tuple (a bare int for one index).  Its last k indices
    are sorted increasingly by `gca.koszul_sort`, each index taken as odd,
    and the sign of that permutation is returned with it; None when two of
    them repeat, the entry cancelling.  A tail already strictly increasing
    is the canonical key itself, with sign 1, and is not sorted.
    Raises ValueError unless the key holds len(shape) ints, not bools,
    within the shape.
    """
    idx = key if isinstance(key, tuple) else (key,)
    if len(idx) != len(shape) or not all(_is_int(i) and 0 <= i < b for i, b in zip(idx, shape)):
        raise ValueError(f"index {idx} is not {len(shape)} ints in range for shape {shape}")
    cut = len(idx) - k
    if all(a < b for a, b in zip(idx[cut:], idx[cut + 1:])):
        return idx, 1
    sign, perm = koszul_sort(idx[cut:], lambda _: True)
    if not sign:
        return None
    return idx[:cut] + tuple(idx[cut + i] for i in perm), sign


def _canonical(ctx: ContactContext, entries: Optional[Dict], shape: Tuple[int, ...],
               k: int) -> _Tensor:
    """The stored format of a tensor antisymmetric in its last k indices.

    Each key of `entries` becomes its canonical key (`_canonical_key`) with
    the sign applied to its value; entries on one key are summed and zeros
    dropped.  Every value is validated, also one whose repeated index
    cancels it.
    """
    out: _Tensor = {}
    for key, value in (entries or {}).items():
        hit = _canonical_key(key, shape, k)
        p = _as_xpoly(ctx, value)
        if hit is not None:
            canon, sign = hit
            p = p if sign > 0 else -p
            out[canon] = out[canon] + p if canon in out else p
    return {key: out[key] for key in sorted(out) if not out[key].is_zero()}


def _rows(tensor: _Tensor, count: int) -> List[_Tensor]:
    """A tensor split by its first index: `count` tensors in the remaining indices."""
    rows: List[_Tensor] = [{} for _ in range(count)]
    for key, value in tensor.items():
        rows[key[0]][key[1:]] = value
    return rows


def _shapes(m: int, n: int) -> Dict[str, Tuple[Tuple[int, ...], int]]:
    """Each structure tensor's index shape and its number of trailing antisymmetric indices.

    A tensor with a free first index (rho, c and their duals) is stored as
    a list over that index.
    """
    anchor, bracket, rep, upsilon = ((m, n), 1), ((n, n, n), 2), ((n,), 1), ((n, n, n), 3)
    return {"rho": anchor, "c": bracket, "lam": rep, "rho_dual": anchor, "c_dual": bracket,
            "lam_dual": rep, "phi": upsilon, "psi": upsilon}


def _one_tensor(coeffs: Sequence[Poly]) -> _Tensor:
    """The 1-tensor of a coefficient list (zeros kept: `_form` writes no term for them)."""
    return {(a,): p for a, p in enumerate(coeffs)}


# --- the form codec ------------------------------------------------------------


def _onto(ctx: ContactContext, f: Poly) -> Poly:
    """f on `ctx`: f itself if it lives there, else F^* of f from ctx's mirror.

    The one map between the two sides of the split; raises ValueError
    (`ContextMismatch`) on a polynomial that lives on neither context.  F^*
    fixes every x^i, and a context and its mirror share (m, n) and so their
    packed layout, so a mirror polynomial in the x's alone is relabelled:
    its packed terms are read on `ctx`, with no substitution.
    """
    if f.algebra is ctx.algebra:
        return f
    if f.algebra is ctx.mirror.algebra and f.uses_only(ctx.ix_x):
        return Poly._trusted(ctx.algebra, dict(f._packed))
    return legendre_pullback(Section(ctx.mirror, f), ctx).body


def _form(ctx: ContactContext, gens: Sequence[int], tensor: _Tensor) -> Poly:
    """sum over the entries a_1<...<a_k of tensor[a] g_{a_1}...g_{a_k}, on `ctx`.

    Each entry is carried onto `ctx` by `_onto`.  `gens` are generator
    indices in canonical order, so each term is written directly as a packed
    key, the x-part's key plus the units of the fiber letters, with no sign;
    distinct entries write distinct keys.  Raises ValueError on a carried
    entry that is not a base polynomial.
    """
    unit = ctx.algebra._unit
    terms: Dict[int, Scalar] = {}
    for key, entry in tensor.items():
        coeff = _onto(ctx, entry)
        if not coeff.uses_only(ctx.ix_x):
            raise ValueError("form entry is not a base polynomial of the context")
        fiber = sum(unit[gens[a]] for a in key)
        for k, c in coeff._packed.items():
            terms[k + fiber] = c
    return Poly._trusted(ctx.algebra, _settle(terms))


def _form_keys(ctx: ContactContext, gens: Sequence[int], k: int, f: Poly) -> _Tensor:
    """Inverse of `_form`: the stored k-tensor of a k-form in `gens`, by position.

    Raises ValueError unless every fiber monomial of f is a product of k
    distinct generators from `gens`.
    """
    position = {g: a for a, g in enumerate(gens)}
    entries = {}
    for fiber, coeff in f.split(ctx.ix_x).items():
        key = tuple(position.get(g) for g, _ in fiber)
        if len(key) != k or None in key:
            raise ValueError(f"not a {k}-form in the given generators")
        entries[key] = coeff
    return dict(sorted(entries.items()))


def form_basis(ctx: ContactContext, k: int) -> List[Monomial]:
    """The canonical u-monomials u^{a_1}...u^{a_k}, a_1 < ... < a_k: over a
    point base, the basis of the k-forms, in the order `_form` writes them."""
    return [tuple((g, 1) for g in combo) for combo in itertools.combinations(ctx.ix_u, k)]


class SplitCJInstance:
    """Structure functions of a split Courant-Jacobi algebroid over Q[x].

    Every structure tensor is stored as its nonzero canonical entries: a
    dict from increasing index tuples to base polynomials, in sorted key
    order.  `lam`, `lam_dual`, `phi` and `psi` are such dicts (keys (a,)
    and (a, b, c)); `rho`/`rho_dual` is a list over i of 1-tensors
    (`rho[i][(a,)]`) and `c`/`c_dual` a list over cc of 2-tensors
    (`c[cc][(a, b)]`, a < b).

    Built on first use and kept: Theta, -Theta and the closed route's
    Taylor coefficients m_0..m_3 with their memo per word
    (`closed_coefficients`).  They assume the tensors are not changed
    after construction.
    """

    def __init__(self, m: int, n: int, *,
                 rho: Optional[Dict[Tuple[int, int], PolyLike]] = None,
                 c: Optional[Dict[Tuple[int, int, int], PolyLike]] = None,
                 lam: Optional[Dict[int, PolyLike]] = None,
                 rho_dual: Optional[Dict[Tuple[int, int], PolyLike]] = None,
                 c_dual: Optional[Dict[Tuple[int, int, int], PolyLike]] = None,
                 lam_dual: Optional[Dict[int, PolyLike]] = None,
                 phi: Optional[Dict[Tuple[int, int, int], PolyLike]] = None,
                 psi: Optional[Dict[Tuple[int, int, int], PolyLike]] = None,
                 context: Optional[ContactContext] = None,
                 name: str = ""):
        """Sparse constructor: keys use 0-based int indices, skew parts are implied.

        `rho[(i,a)]` is the coefficient of d/dx^i for frame element a,
        `c[(cc,a,b)]` the e_cc-coefficient of [e_a,e_b], `lam[a]` the
        representation weight; `*_dual` mirrors these on the twisted dual;
        `phi[(a,b,c)]` / `psi[(a,b,c)]` the antisymmetric tensors.  A key in
        any order is sorted with the sign of the sort; a repeated
        antisymmetric index cancels, entries on one key are summed, and an
        index that is not an int in range raises ValueError.
        """
        self.m = m
        self.n = n
        self.name = name
        self.context = context or ContactContext(m, n)
        ctx = self.context
        if ctx.m != m or ctx.n != n:
            raise ValueError("context dimensions do not match the instance")

        shapes = _shapes(m, n)

        def stored(name: str, entries: Optional[Dict]):
            shape, k = shapes[name]
            tensor = _canonical(ctx, entries, shape, k)
            return _rows(tensor, shape[0]) if len(shape) > k else tensor

        self.rho = stored("rho", rho)
        self.c = stored("c", c)
        self.lam = stored("lam", lam)
        self.rho_dual = stored("rho_dual", rho_dual)
        self.c_dual = stored("c_dual", c_dual)
        self.lam_dual = stored("lam_dual", lam_dual)
        self.phi = stored("phi", phi)
        self.psi = stored("psi", psi)

    # -- frames ----------------------------------------------------------

    def frame_A(self, a: int) -> Section:
        """e_a embedded as the bidegree-(1,0) section pa_a mu."""
        return Section(self.context, self.context.pa(a))

    def frame_dual(self, a: int) -> Section:
        """eps^a = e*^a (x) mu embedded as the bidegree-(0,1) section u^a mu."""
        return Section(self.context, self.context.u(a))

    def full_frame(self) -> List[Section]:
        return [self.frame_A(a) for a in range(self.n)] + \
               [self.frame_dual(a) for a in range(self.n)]

    @cached_property
    def theta(self) -> Section:
        return build_theta(self)

    @cached_property
    def minus_theta(self) -> Section:
        """-Theta, one Section: every derived bracket reuses its memoised Hamiltonian operator."""
        return -self.theta

    @cached_property
    def closed_coefficients(self) -> Dict[int, Callable[[Word], Vector]]:
        """The closed route's m_0..m_3 as Taylor coefficients, each memoised per canonical word.

        Built on first use and owned by the instance: every
        `deformation_brackets(self, "closed")` wraps these functions in a
        fresh Q, so all of them share one memo, and an entry replaced on
        one Q never reaches the instance or another Q.
        """
        ops = {0: lambda: upsilon_A_section(self),
               1: _de_rham_derivation(_side_A(self)),
               2: lambda s, t: m2_closed(self, s, t),
               3: lambda s, t, w: m3_closed(self, s, t, w)}
        return {k: _memoised(_taylor_coefficient(self, op)) for k, op in ops.items()}


# --- one side of the split ---------------------------------------------------


@dataclass(frozen=True)
class _Side:
    """A or A-dagger as data (module docstring): the context its forms live in,
    `inst.context` or its mirror, and its tensors on inst.context's base ring.
    `_onto` moves polynomials between the two contexts."""

    inst: SplitCJInstance
    context: ContactContext
    rho: List[_Tensor]
    c: List[_Tensor]
    lam: _Tensor
    upsilon: _Tensor


def _side_A(inst: SplitCJInstance) -> _Side:
    return _Side(inst, inst.context, inst.rho, inst.c, inst.lam, inst.phi)


def _side_dual(inst: SplitCJInstance) -> _Side:
    return _Side(inst, inst.context.mirror, inst.rho_dual, inst.c_dual, inst.lam_dual, inst.psi)


def _de_rham_derivation(side: _Side) -> LineDerivation:
    """d_{S,L} as a degree-1 derivation of the line bundle over S[1]."""
    ctx = side.context
    f = _form(ctx, ctx.ix_u, side.lam)
    f_x = [_form(ctx, ctx.ix_u, row) for row in side.rho]
    f_u = [-_form(ctx, ctx.ix_u, tensor) for tensor in side.c]
    return LineDerivation(ctx, 1, f, f_x, f_u)


def _upsilon_form(side: _Side) -> Section:
    """The cubic form Upsilon of the side, over its own context."""
    ctx = side.context
    return Section(ctx, _form(ctx, ctx.ix_u, side.upsilon))


def _one_form(side: _Side, coeffs: Sequence[Poly]) -> Section:
    """The 1-form coeffs_a u^a on the side, from base polynomials."""
    ctx = side.context
    return Section(ctx, _form(ctx, ctx.ix_u, _one_tensor(coeffs)))


def _iota(side: _Side, xi: Sequence[Poly], omega: Section) -> Section:
    """Left contraction of a form on the side by xi_a times the a-th frame element.

    This is the degree -1 derivation u^a -> xi_a, zero on every other generator.
    """
    ctx = side.context
    if omega.context is not ctx:
        raise ContextMismatch("form from the other side of the split")
    values = {idx: ctx.algebra.zero() for idx in range(len(ctx.algebra.gens))}
    values.update((ctx.ix_u[a], _onto(ctx, xi[a])) for a in range(side.inst.n))
    return Section(ctx, Derivation(ctx.algebra, -1, values)(omega.body))


def _lie_derivative(side: _Side, d: LineDerivation, xi: Sequence[Poly],
                    omega: Section) -> Section:
    """[d, iota_xi] = d iota_xi + iota_xi d on forms of the side; d is its d_{S,L}."""
    return d(_iota(side, xi, omega)) + _iota(side, xi, d(omega))


def _section_bracket(side: _Side, xi: Sequence[Poly], eta: Sequence[Poly]) -> List[Poly]:
    """[xi, eta]_S for frame-coefficient sections, on the base ring."""
    ctx = side.inst.context
    n = side.inst.n
    zero = ctx.algebra.zero()
    out = []
    for cc in range(n):
        d_eta, d_xi = eta[cc].partials(), xi[cc].partials()
        acc = zero
        for row, x in zip(side.rho, ctx.ix_x):
            for (a,), r in row.items():
                acc = acc + xi[a] * r * d_eta.get(x, zero) - eta[a] * r * d_xi.get(x, zero)
        for (a, b), c in side.c[cc].items():
            acc = acc + (xi[a] * eta[b] - xi[b] * eta[a]) * c
        out.append(acc)
    return out


def _xpolys(inst: SplitCJInstance, values: Sequence[PolyLike]) -> List[Poly]:
    return [_as_xpoly(inst.context, v) for v in values]


# --- assembling Theta ------------------------------------------------------


def upsilon_A_section(inst: SplitCJInstance) -> Section:
    """pi^* Upsilon_A as a bidegree-(0,3) section."""
    return _upsilon_form(_side_A(inst))


def build_theta(inst: SplitCJInstance) -> Section:
    """Theta = -pi^*Y_A + h_{d_A} + F^*h_{d_dual} - F^*pi~^*Y_dual.

    Each side's h_d - Y, carried onto inst.context, is added into one packed
    dict.
    """
    ctx = inst.context
    terms: Dict[int, Scalar] = {}
    for side in (_side_A(inst), _side_dual(inst)):
        own = hamiltonian_lift(_de_rham_derivation(side)) - _upsilon_form(side)
        add_into(terms, _onto(ctx, own.body)._packed)
    return Section(ctx, Poly._trusted(ctx.algebra, terms))


# --- degree-1 sections and derived operations -------------------------------


def embed_anchored(inst: SplitCJInstance, xi: Sequence[PolyLike],
                   alpha: Sequence[PolyLike]) -> Section:
    """xi + alpha |-> h_{iota_xi} + pi^*alpha = (xi^a pa_a + alpha_a u^a) mu."""
    ctx = inst.context
    return Section(ctx, _form(ctx, ctx.ix_pa, _one_tensor(_xpolys(inst, xi)))
                   + _form(ctx, ctx.ix_u, _one_tensor(_xpolys(inst, alpha))))


def split_anchored(inst: SplitCJInstance, s: Section) -> Tuple[List[Poly], List[Poly]]:
    """Inverse of embed_anchored; raises ValueError unless s has degree 1."""
    ctx, n = inst.context, inst.n
    entries = _form_keys(ctx, ctx.ix_u + ctx.ix_pa, 1, s.body)
    coeffs = [entries.get((a,), ctx.algebra.zero()) for a in range(2 * n)]
    return coeffs[n:], coeffs[:n]


def pairing(u: Section, v: Section) -> Section:
    """<<u, v>> = -{u, v} on degree-1 sections."""
    return -jacobi_bracket(u, v)


def derived_operations(inst: SplitCJInstance, u: Section, v: Section,
                       lam: Optional[Section] = None) -> Dict[str, Section]:
    """Bracket, connection and pairing recovered from Theta.

    [[u,v]] = {{u,Theta},v} and nabla_u lam = {{u,Theta},lam}; u and v must be
    pure degree-1 sections and lam a pullback section, a polynomial in the x's
    alone (ValueError otherwise).
    """
    for s in (u, v):
        if not s.is_zero() and s.degree() != 1:
            raise ValueError("anchored sections must have pure degree 1")
    if lam is not None and not lam.body.uses_only(inst.context.ix_x):
        raise ValueError("lam must be a pullback section, a polynomial in the x's alone")
    u_theta = jacobi_bracket(u, inst.theta)
    out = {
        "bracket": jacobi_bracket(u_theta, v),
        "pairing": pairing(u, v),
    }
    if lam is not None:
        out["nabla"] = jacobi_bracket(u_theta, lam)
    return out


# --- axiom check -------------------------------------------------------------


@dataclass
class AxiomReport:
    """Structure-equation residual and the direct axiom residuals."""

    mc_residual: Section
    jacobi_residuals: List[Tuple[Tuple[int, int, int], Section]]
    flatness_residuals: List[Tuple[Tuple[int, int, str], Section]]

    @property
    def mc_ok(self) -> bool:
        return self.mc_residual.is_zero()

    @property
    def direct_ok(self) -> bool:
        return first_nonzero(self.jacobi_residuals + self.flatness_residuals) is None

    @property
    def biconditional(self) -> bool:
        return self.mc_ok == self.direct_ok

    @property
    def ok(self) -> bool:
        return self.witness() is None

    def witness(self) -> Optional[Section]:
        """The first nonzero residual: {Theta,Theta}, then Jacobi, then flatness."""
        hit = first_nonzero([((), self.mc_residual)] + self.jacobi_residuals
                            + self.flatness_residuals)
        return None if hit is None else hit[1]


def first_nonzero(residuals: Iterable[Tuple[Tuple, Section]]
                  ) -> Optional[Tuple[Tuple, Section]]:
    """The first (index, residual) pair, in order, whose residual is nonzero."""
    return next(((idx, r) for idx, r in residuals if not r.is_zero()), None)


def check_cj_axioms(inst: SplitCJInstance) -> AxiomReport:
    """{Theta,Theta} versus Jacobi-in-Leibniz-form and flatness on frames.

    Both direct residuals are one bracket with the Jacobiator of a frame pair.
    With theta_i = {Theta,e_i}, the derived bracket [[e_i,e_j]] = {theta_i,e_j}
    and T_ij = {Theta,[[e_i,e_j]]}, let H_ij = {theta_i,theta_j} and K_ij =
    H_ij - T_ij.  The theta_i are even (|s| = deg s - 2), so the graded Jacobi
    identity of the contact bracket gives ad_i ad_j - ad_j ad_i = {H_ij, .},
    with ad_i = {theta_i, .}, on every section, whatever Theta is: the
    Jacobiator of a derived bracket is a bracket (Kosmann-Schwarzbach,
    math/0312524; Roytenberg, math/0203110).  The Jacobi residual of (i, j, l),
    ad_i [[e_j,e_l]] - [[ [[e_i,e_j]], e_l]] - ad_j [[e_i,e_l]], is therefore
    {K_ij, e_l}, and the flatness residual of (i, j, lam), [[ [[e_i,e_j]], lam]]
    - (ad_i ad_j - ad_j ad_i) lam, is -{K_ij, lam}.

    A bracket runs as the memoised operator of its left argument, so a bracket
    whose one side is used once runs through the other, reused side, by the
    graded skew symmetry {a,b} = -(-1)^{|a||b|} {b,a} (e_i, [[e_i,e_j]] and
    Theta odd; theta_i, T_ij, K_ij and lam even).  The check runs four kinds of
    bracket: theta_i = {Theta,e_i} and T_ij through Theta's operator, [[e_i,e_j]]
    and H_ij (for i < j only: H_ji = -H_ij, and H_ii = 0 as theta_i is even, so
    K_ii = -T_ii) through theta_i's, the Jacobi residual {K_ij,e_l} =
    -{e_l,K_ij} through e_l's and the flatness residual -{K_ij,lam} =
    {lam,K_ij} through lam's.  That is 2k + m + 2 operators for a frame of
    k = 2n elements, not one per [[e_i,e_j]] or K_ij.
    """
    ctx = inst.context
    theta = inst.theta
    frame = inst.full_frame()
    k = len(frame)
    pairs = list(itertools.product(range(k), repeat=2))

    theta_br = [jacobi_bracket(theta, e) for e in frame]
    table = [[jacobi_bracket(theta_br[i], e) for e in frame] for i in range(k)]
    jacobiator = dict.fromkeys(((i, i) for i in range(k)), ctx.zero_section())
    for i, j in itertools.combinations(range(k), 2):
        h = jacobi_bracket(theta_br[i], theta_br[j])
        jacobiator[j, i], jacobiator[i, j] = -h, h
    for i, j in pairs:
        jacobiator[i, j] -= jacobi_bracket(theta, table[i][j])

    jacobi_residuals = [((i, j, l), -jacobi_bracket(frame[l], jacobiator[i, j]))
                        for i, j, l in itertools.product(range(k), repeat=3)]

    lams = [("mu", Section(ctx, ctx.algebra.one()))] + \
        [(f"x{i+1}*mu", Section(ctx, ctx.x(i))) for i in range(ctx.m)]
    flatness_residuals = [((i, j, name), jacobi_bracket(lam, jacobiator[i, j]))
                          for i, j in pairs for name, lam in lams]

    return AxiomReport(jacobi_bracket(theta, theta), jacobi_residuals, flatness_residuals)


# --- forms -------------------------------------------------------------------


class DeformationForm(Section):
    """An L-valued 2-form on A: a section whose body is a 2-form in the u's."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, inst: SplitCJInstance,
                  data: Dict[Tuple[int, int], PolyLike]) -> "DeformationForm":
        ctx = inst.context
        return cls(ctx, _form(ctx, ctx.ix_u, _canonical(ctx, data, (inst.n,) * 2, 2)))

    @classmethod
    def from_section(cls, inst: SplitCJInstance, s: Section) -> "DeformationForm":
        """s as a DeformationForm; raises ValueError unless it is a 2-form.

        A 2-form is a section of bidegree (0, 2): the u's are the only
        generators of bidegree (0, 1), and the x's have (0, 0).
        """
        if not s.is_zero() and _form_degree(s) != 2:
            raise ValueError("not a 2-form in the fiber coordinates")
        return cls(inst.context, s.body)

    @property
    def entries(self) -> _Tensor:
        """The stored 2-tensor: the nonzero entries (a, b), a < b, in sorted order."""
        return _form_keys(self.context, self.context.ix_u, 2, self.body)


def _form_degree(s: Section) -> int:
    """Form degree of a (0,k)-section; raises on mixed input."""
    comps = bidegree_decompose(s)
    degs = {bd for bd in comps}
    if any(bd[0] != 0 for bd in degs):
        raise ValueError("not a pullback form: eps-degree present")
    if len(degs) > 1:
        raise ValueError("inhomogeneous form")
    return next(iter(degs))[1] if degs else 0


# --- Cartan calculus on Omega(A;L), closed-formula route --------------------


def iota(inst: SplitCJInstance, xi: Sequence[PolyLike], omega: Section) -> Section:
    """Left contraction of a form by xi = xi^a(x) e_a."""
    return _iota(_side_A(inst), _xpolys(inst, xi), omega)


def de_rham(inst: SplitCJInstance, omega: Section) -> Section:
    """d_{A,L} on pullback forms via the generator-value derivation."""
    return _de_rham_derivation(_side_A(inst))(omega)


def de_rham_koszul(inst: SplitCJInstance, omega: Section) -> Section:
    """Independent oracle for d_{A,L}: the evaluation Koszul formula.

    Evaluates, frame tuple by frame tuple,

        (d omega)(e_0, ..., e_k) = sum_i (-1)^i nabla_{e_i} omega(..., e_i^, ...)
            + sum_{i<j} (-1)^{i+j} omega([e_i, e_j], ..., e_i^, ..., e_j^, ...),

    with nabla on coefficients and [e_a, e_b] = c^c_{ab} e_c, and
    reassembles the resulting (k+1)-form.
    """
    ctx = inst.context
    k = _form_degree(omega)

    def evaluate(form: Section, idx: Tuple[int, ...]) -> Poly:
        body = form.body
        for a in idx:
            body = body.partial(ctx.ix_u[a])
        return body

    zero = ctx.algebra.zero()

    def nabla_a(a: int, g: Poly) -> Poly:
        out = inst.lam.get((a,), zero) * g
        for i in range(ctx.m):
            out = out + inst.rho[i].get((a,), zero) * g.partial(ctx.ix_x[i])
        return out

    out = ctx.algebra.zero()
    for tup in itertools.combinations(range(inst.n), k + 1):
        val = ctx.algebra.zero()
        for pos in range(k + 1):
            rest = tup[:pos] + tup[pos + 1:]
            term = nabla_a(tup[pos], evaluate(omega, rest))
            val = val + term.scale((-1) ** pos)
        for p1, p2 in itertools.combinations(range(k + 1), 2):
            rest = tuple(t for q, t in enumerate(tup) if q not in (p1, p2))
            for cc in range(inst.n):
                coeff = inst.c[cc].get((tup[p1], tup[p2]))
                if coeff is None:
                    continue
                term = coeff * evaluate(omega, (cc,) + rest)
                val = val + term.scale((-1) ** (p1 + p2))
        mono = ctx.algebra.one()
        for a in tup:
            mono = mono * ctx.u(a)
        out = out + val * mono
    return Section(ctx, out)


def lie_derivative(inst: SplitCJInstance, xi: Sequence[PolyLike], omega: Section) -> Section:
    """Lie derivative along xi in Gamma(A): [d, iota_xi] = d iota + iota d."""
    side = _side_A(inst)
    return _lie_derivative(side, _de_rham_derivation(side), _xpolys(inst, xi), omega)


def _loday_component(own: _Side, other: _Side, s1: Sequence[Poly], s2: Sequence[Poly],
                     t1: Sequence[Poly], t2: Sequence[Poly]) -> Section:
    """The own-side 1-form part of [[s1 + t1, s2 + t2]], pulled back to inst.context.

    s1, s2 are sections of `own`, t1, t2 sections of `other`, seen as 1-forms
    on `own`:  iota_{s2} iota_{s1} Upsilon + L_{s1} t2 - iota_{s2} d t1 + [t1, t2].
    """
    d = _de_rham_derivation(own)
    form = _iota(own, s2, _iota(own, s1, _upsilon_form(own)))
    form = form + _lie_derivative(own, d, s1, _one_form(own, t2))
    form = form - _iota(own, s2, d(_one_form(own, t1)))
    form = form + _one_form(own, _section_bracket(other, t1, t2))
    home = own.inst.context
    return Section(home, _onto(home, form.body))


def loday_bracket_formula(inst: SplitCJInstance, xi: Sequence[PolyLike],
                          alpha: Sequence[PolyLike], eta: Sequence[PolyLike],
                          beta: Sequence[PolyLike]) -> Section:
    """The component formula for [[X+alpha, Y+beta]], assembled term by term.

    A-side:      [X,Y]_A - iota_beta d_dual X + L_alpha Y + iota_beta iota_alpha Y_dual
    dual side:   iota_Y iota_X Y_A + L_X beta - iota_Y d alpha + [alpha,beta]_dual

    This is the display with the typographical stray plus removed.  It is
    unchanged by swapping A with A-dagger and X, Y with alpha, beta, so each
    side is one `_loday_component` call: the A-side part is a 1-form on the
    mirror carried back by F^*.  Equality with the derived bracket
    {{u,Theta},v} is enforced by the test suite.
    """
    side_a, side_d = _side_A(inst), _side_dual(inst)
    xi, alpha, eta, beta = (_xpolys(inst, v) for v in (xi, alpha, eta, beta))
    return _loday_component(side_d, side_a, alpha, beta, xi, eta) + \
        _loday_component(side_a, side_d, xi, eta, alpha, beta)


def section_bracket_A(inst: SplitCJInstance, xi: Sequence[PolyLike],
                      eta: Sequence[PolyLike]) -> List[Poly]:
    """[xi, eta]_A for xi = xi^a e_a, eta = eta^a e_a with x-coefficients."""
    return _section_bracket(_side_A(inst), _xpolys(inst, xi), _xpolys(inst, eta))


# --- Courant tensor of a Lagrangian frame ------------------------------------


class NotLagrangian(ValueError):
    """The provided frame has a nonvanishing pairing."""


def courant_tensor(inst: SplitCJInstance,
                   frame: Sequence[Section]) -> Dict[Tuple[int, int, int], Section]:
    """Y(u_i,u_j,u_l) = <<[[u_i,u_j]], u_l>> on a Lagrangian frame, as its
    nonzero entries at increasing triples i < j < l, in increasing key order.

    Raises ValueError naming the first frame element that is not of pure
    degree 1, and NotLagrangian if any of the k(k+1)/2 pairings is nonzero.
    On such a frame Y is totally antisymmetric, so these entries determine
    it: by the graded Jacobi identity of the contact bracket alone (no
    {Theta,Theta} = 0 is needed), [[a,b]] + [[b,a]] = +-{Theta,{a,b}} and
    <<[[a,b]],c>> + <<b,[[a,c]]>> = {{a,Theta},{b,c}}, and on degree-1
    elements with vanishing pairings both right-hand sides vanish.  So only
    {u_i,Theta} for i <= k-3, [[u_i,u_j]] for i < j <= k-2 and one pairing
    per increasing triple are evaluated, and a frame of rank k <= 2 has the
    empty (zero) tensor.

    Each bracket runs through the memoised operator of its reused argument,
    by the graded skew symmetry {a,b} = -(-1)^{|a||b|} {b,a} with |s| = deg s
    - 2 (u_i and Theta odd): {u_i,Theta} = {Theta,u_i} through Theta's
    operator, [[u_i,u_j]] through the operator of {Theta,u_i}, and the
    pairing <<[[u_i,u_j]],u_l>> = <<u_l,[[u_i,u_j]]>> through u_l's, which
    the isotropy check has built.  On a fresh instance a frame of rank k >= 3
    costs 2k - 1 operators: one per element, one per {Theta,u_i} and Theta's,
    which later calls reuse.
    """
    for i, u in enumerate(frame):
        if set(u.body.degree_components()) - {1}:
            raise ValueError(f"frame element {i} is not of pure degree 1")
    k = len(frame)
    for i, j in itertools.combinations_with_replacement(range(k), 2):
        pr = pairing(frame[i], frame[j])
        if not pr.is_zero():
            raise NotLagrangian(f"pairing of frame elements {i},{j} is {pr}")
    out = {}
    for i in range(k - 2):
        # {Theta, u_i} once, so its memoised operator serves every u_j
        u_theta = jacobi_bracket(inst.theta, frame[i])
        for j in range(i + 1, k - 1):
            bracket = jacobi_bracket(u_theta, frame[j])
            for l in range(j + 1, k):
                entry = pairing(frame[l], bracket)
                if not entry.is_zero():
                    out[(i, j, l)] = entry
    return out


def graph_frame(inst: SplitCJInstance, eta: Section) -> List[Section]:
    """Frame of gr(eta) = { e_a + iota_{e_a} eta }.

    This is the sign for which the graph is Dirac-Jacobi exactly when eta
    solves the Maurer-Cartan equation of `deformation_brackets`.  Raises
    ValueError unless eta is a 2-form.
    """
    DeformationForm.from_section(inst, eta)
    ctx = inst.context
    parts, zero = eta.body.partials(), ctx.algebra.zero()
    return [Section(ctx, ctx.pa(a) + parts.get(ctx.ix_u[a], zero)) for a in range(inst.n)]


def is_dirac_jacobi(inst: SplitCJInstance, frame: Sequence[Section]):
    """(True, None) if the Courant tensor of the Lagrangian frame vanishes, else
    (False, the first item of `courant_tensor`: its first nonzero increasing
    triple and entry).  The tensor is totally antisymmetric, so that is also
    its first nonzero entry over all index triples in lexicographic order; a
    frame of rank <= 2 is always involutive.

    Raises NotLagrangian unless the frame has n elements, is isotropic and
    is linearly independent over the base's function field, as every
    `graph_frame` is.  Degree-1 sections are odd, so the product of the
    bodies is their exterior product, whose coefficients are the n x n
    minors: it is zero exactly when the frame is dependent.
    """
    if len(frame) != inst.n:
        raise NotLagrangian(f"a Lagrangian frame has n = {inst.n} elements, "
                            f"not {len(frame)} elements")
    tensor = courant_tensor(inst, frame)
    if functools.reduce(Poly.__mul__, (u.body for u in frame)).is_zero():
        raise NotLagrangian("the frame is linearly dependent: the product of its elements is 0")
    witness = next(iter(tensor.items()), None)
    return witness is None, witness


# --- deformation brackets: derived and closed routes -------------------------


def deformation_space(inst: SplitCJInstance) -> GradedSpace:
    """Omega(A;L)[2] with basis keys the (x,u)-monomials of the context."""
    ctx = inst.context

    def degree(key: Monomial) -> int:
        return ctx.algebra.monomial_bidegree(key)[1] - 2

    return GradedSpace(degree)


def section_to_vector(inst: SplitCJInstance, s: Section) -> Vector:
    """A pullback form as a Vector over its monomials, with the kernel's scalars.

    Each coefficient is settled (`Poly.terms`); a section that is not a
    pullback form raises ValueError.
    """
    if not inst.context.is_base_poly(s.body):
        raise ValueError("not a pullback form")
    return s.body.terms


def vector_to_section(inst: SplitCJInstance, v: Vector) -> Section:
    return Section(inst.context, Poly(inst.context.algebra, dict(v)))


def word_to_sections(inst: SplitCJInstance, word: Word) -> List[Section]:
    return [Section(inst.context, inst.context.algebra.monomial(k)) for k in word]


def contact_vdata(inst: SplitCJInstance) -> VData:
    """The contact V-data: Jacobi bracket, pullback subalgebra, P, Phi = `inst.minus_theta`."""
    ctx = inst.context
    return VData(bracket=jacobi_bracket, in_subalgebra=lambda s: ctx.is_base_poly(s.body),
                 project=project_P, mc_element=inst.minus_theta)


def derived_bracket_sections(inst: SplitCJInstance, args: Sequence[Section]) -> Section:
    """m_k(a_1..a_k) = -P{...{{Theta,a_1},a_2},...,a_k} on pullback sections, k = len(args)."""
    return higher_derived_bracket(contact_vdata(inst), args)


def _taylor_coefficient(inst: SplitCJInstance,
                        op: Callable[..., Section]) -> Callable[[Word], Vector]:
    """The Taylor coefficient of an operation on sections: word -> its sections -> op -> vector."""
    def coefficient(word: Word) -> Vector:
        return section_to_vector(inst, op(*word_to_sections(inst, word)))
    return coefficient


def _derived_coefficients(inst: SplitCJInstance, vdata: VData,
                          arities: Sequence[int]) -> Dict[int, Callable[[Word], Vector]]:
    """The higher derived brackets of `vdata` as Taylor coefficients of the given arities.

    One coefficient function serves every arity: a word w is
    P[...[Phi, w_1], ..., w_k] from one `derived_bracket_fold`, which keeps
    the prefixes shorter than the top arity (module docstring).  The fold's
    letters are built once per basis key, keyed by the monomial, so a
    letter's packed monomial and memoised partials serve every word it
    occurs in; they are freed with the coefficient function.
    """
    ctx = inst.context
    letter = functools.cache(lambda key: Section(ctx, ctx.algebra.monomial(key)))
    fold = derived_bracket_fold(vdata, letter, max(arities) - 1)

    def coefficient(word: Word) -> Vector:
        return section_to_vector(inst, fold(word))
    return dict.fromkeys(arities, coefficient)


def _contract(ctx: ContactContext, tensor: _Tensor,
              forms: Sequence[Poly]) -> Poly:
    """sum over a_1..a_k of T[a_1..a_k] d_{u^{a_1}} f_1 ... d_{u^{a_k}} f_k.

    T is fully antisymmetric, given by its nonzero entries a_1 < ... < a_k;
    each is read once with its signed permutations.  An entry stands left of
    the partials, so it may be odd.  A product with a zero partial is skipped.
    """
    out = ctx.algebra.zero()
    if not tensor:
        return out
    parts = [f.partials() for f in forms]
    for key, coeff in tensor.items():
        acc = ctx.algebra.zero()
        for perm, sign in _signed_permutations(len(key)):
            factors = [p.get(ctx.ix_u[key[i]]) for p, i in zip(parts, perm)]
            if None not in factors:
                acc = acc + functools.reduce(Poly.__mul__, factors).scale(sign)
        if not acc.is_zero():
            out = out + coeff * acc
    return out


def _twisted(s: Section) -> Poly:
    """The body of a pullback form w with the sign (-1)^{|w|} taken part by part.

    |w| is the parity of w's form degree, the parity of each monomial (the
    x's are even), so this is `Poly.parity_twist`.  Raises ValueError unless
    s is a pullback form.
    """
    if not s.context.is_base_poly(s.body):
        raise ValueError("not a pullback form")
    return s.body.parity_twist()


def _dual_bracket_tensor(inst: SplitCJInstance) -> _Tensor:
    """K_ba = lam~_a u^b - lam~_b u^a - c~^e_ab u^e, b < a, from the nonzero lam~ and c~."""
    ctx, n = inst.context, inst.n
    K: _Tensor = {}

    def add(key: Tuple[int, int], coeff: Poly, e: int) -> None:
        term = coeff * ctx.u(e)
        K[key] = K[key] + term if key in K else term

    for (a,), lam_a in inst.lam_dual.items():
        for b in range(n):
            if b != a:
                add((min(a, b), max(a, b)), lam_a if b < a else -lam_a, b)
    for e, tensor in enumerate(inst.c_dual):
        for key, c in tensor.items():
            add(key, c, e)
    return K


def m2_closed(inst: SplitCJInstance, alpha: Section, beta: Section) -> Section:
    """m_2(alpha, beta) by the closed formula (no contact variables involved):

        m_2(A, B) = -sum_a d_a A . nabla_a B
                    - (-1)^{|A|} (sum_a nabla_a A . d_a B - <K; A, B>)

    with d_a = d/du^a, nabla_a = lam~_a + rho~^i_a d/dx^i, <T; f_1..f_k>
    the contraction `_contract` and K the 2-tensor `_dual_bracket_tensor`.
    The nabla sums are contractions of the 1-tensors lam~ and rho~^i.  The
    formula is linear in A, so for any form alpha each signed term reads the
    twist alpha~ (`_twisted`) in place of (-1)^{|A|} A.
    """
    ctx = inst.context
    zero = ctx.algebra.zero()
    # nabla_a = sum over (T, x) of T_a D_x, D_None the identity and D_x = d/dx
    nabla = [(inst.lam_dual, None)] + list(zip(inst.rho_dual, ctx.ix_x))
    K = _dual_bracket_tensor(inst)

    def along(f: Poly, x: Optional[int]) -> Poly:
        return f if x is None else f.partials().get(x, zero)

    A, At, B = alpha.body, _twisted(alpha), beta.body
    out = _contract(ctx, K, [At, B])
    for T, x in nabla:
        if T:
            out = out - _contract(ctx, T, [A]) * along(B, x) \
                - along(At, x) * _contract(ctx, T, [B])
    return Section(ctx, out)


def gj_bracket_closed(inst: SplitCJInstance, alpha: Section, beta: Section) -> Section:
    """Gerstenhaber-Jacobi bracket of the dual side: [a,b] = (-1)^|a| m_2(a,b)."""
    return m2_closed(inst, Section(inst.context, _twisted(alpha)), beta)


def m3_closed(inst: SplitCJInstance, alpha: Section, beta: Section, gamma: Section) -> Section:
    """m_3(alpha, beta, gamma) = -(-1)^{|beta|} <psi; alpha, beta, gamma>.

    The contraction `_contract` of the dual Courant tensor psi, linear in
    beta, so it reads the twist beta~ (`_twisted`) once.
    """
    ctx = inst.context
    return Section(ctx, -_contract(ctx, inst.psi, [alpha.body, _twisted(beta), gamma.body]))


def deformation_brackets(inst: SplitCJInstance, route: str = "derived") -> TaylorCoderivation:
    """The cubic deformation L-infinity[1] algebra on Omega(A;L)[2], as its codifferential Q.

    `Q.coefficient(k, w)` is m_k(w) for k = 0, 1, 2, 3; m_0, at the empty
    word, is the curvature, and Q has arity 0 exactly when it is nonzero.
    route='derived' goes through the contact V-data higher derived brackets,
    one prefix fold for all four arities, so m_0 = P(-Theta);
    route='closed' uses Upsilon_A (`upsilon_A_section`), the de Rham
    derivation and the closed formulas `m2_closed` and `m3_closed` (module
    docstring).  The two must agree on every input, m_0 included; the test
    suite enforces this.  The closed coefficients and their memo are the
    instance's (`SplitCJInstance.closed_coefficients`), wrapped in a new Q
    on every call, so an entry replaced on the returned Q stays on it; the
    derived route's fold and its kept brackets belong to the returned Q.
    """
    if route == "derived":
        coefficients = _derived_coefficients(inst, contact_vdata(inst), (0, 1, 2, 3))
    elif route == "closed":
        coefficients = inst.closed_coefficients
    else:
        raise ValueError(f"unknown route {route!r}")
    Q = TaylorCoderivation(deformation_space(inst), coefficients)
    if not Q.coefficient(0, ()):
        del Q.coefficients[0]
    return Q


def mc_residual_form(inst: SplitCJInstance, eta: Section) -> Section:
    """m_0 + m_1(eta) + 1/2 m_2(eta,eta) + 1/6 m_3(eta,eta,eta) as a section.

    One `derived_bracket_fold` of the contact V-data with eta itself as the
    letter: m_k(eta,...,eta) = -P{...{{Theta,eta},eta}...,eta} on the words
    (), (eta,), (eta,eta), (eta,eta,eta), so three brackets in all, each
    word one bracket past its kept prefix.  This is the word route
    `linfty.mc_residual` summed over the basis words of eta^k, because the
    derived brackets are multilinear and, on the abelian subalgebra of
    pullback forms, symmetric: a 2-form has degree 0, so no Koszul sign
    enters.  Arity 3 is complete: Theta has degree 3 and every momentum has
    degree >= 1, so a monomial of Theta holds at most three momenta, and a
    bracket with a pullback form takes one away; the fourth bracket is zero.
    Word (), the curvature P(-Theta), is m_0, as on the derived route of
    `deformation_brackets`.  Raises ValueError unless eta is a 2-form
    (`DeformationForm.from_section`), the degree-0 part of Omega(A;L)[2].
    """
    DeformationForm.from_section(inst, eta)
    fold = derived_bracket_fold(contact_vdata(inst), lambda s: s, 2)
    residual = inst.context.zero_section()
    for k in range(4):
        residual = residual + fold((eta,) * k).scale(_reciprocal(math.factorial(k)))
    return residual


# --- change of complement ----------------------------------------------------


def epsilon_section(inst: SplitCJInstance, eps: Dict[Tuple[int, int], PolyLike]) -> Section:
    """A 2-form on the dual side as a bidegree-(2,0) section."""
    ctx = inst.context
    return Section(ctx, _form(ctx, ctx.ix_pa, _canonical(ctx, eps, (inst.n,) * 2, 2)))


def _read_side(side: _Side, theta: Section) -> Tuple[Dict, Dict, Dict, Dict]:
    """rho, c, lam and Upsilon of one side, as constructor dicts on the base ring.

    Carried onto the side's own context, Theta is that side's h_d - Upsilon
    plus the other side's part, every term of which carries one of this
    side's momenta.  So the base parts of the partials of Theta by pi_i,
    pa_cc and p are the forms of rho^i, -c^cc and lam, and the base part of
    Theta is -Upsilon; `_form_keys` reads each.
    """
    ctx, home = side.context, side.inst.context
    body = _onto(ctx, theta.body)
    parts, base, zero = body.partials(), ctx.base_indices(), ctx.algebra.zero()

    def read(f: Poly, k: int, sign: int = 1, head: Tuple[int, ...] = ()) -> Dict:
        tensor = _form_keys(ctx, ctx.ix_u, k, f.restrict(base))
        return {head + key: _onto(home, v).scale(sign) for key, v in tensor.items()}

    rho, c = {}, {}
    for i, g in enumerate(ctx.ix_pi):
        rho.update(read(parts.get(g, zero), 1, head=(i,)))
    for cc, g in enumerate(ctx.ix_pa):
        c.update(read(parts.get(g, zero), 2, -1, (cc,)))
    return rho, c, read(parts.get(ctx.ix_p, zero), 1), read(body, 3, -1)


def extract_instance(inst: SplitCJInstance, theta: Section, name: str = "") -> SplitCJInstance:
    """Read structure functions off a degree-3 section; asserts a clean round trip."""
    rho, c, lam, phi = _read_side(_side_A(inst), theta)
    rho_d, c_d, lam_d, psi = _read_side(_side_dual(inst), theta)
    out = SplitCJInstance(inst.m, inst.n, rho=rho, c=c, lam=lam, rho_dual=rho_d,
                          c_dual=c_d, lam_dual=lam_d, phi=phi, psi=psi,
                          context=inst.context, name=name)
    if out.theta != theta:
        raise ValueError("theta does not come from split structure functions")
    return out


def m2_sharp_closed(inst: SplitCJInstance, eps_sec: Section,
                    w1: Section, w2: Section) -> Section:
    """Closed form of the complement-change arity-2 coefficient, on any two forms:

        M_2(w1, w2) = (-1)^{|w1|} <eps; w1, w2>

    with eps_ab the entries of eps_sec = sum_{a<b} eps_ab pa_a pa_b and
    <eps; -, -> the contraction `_contract`, linear in w1, so it reads the
    twist w1~ (`_twisted`) once.  It equals the derived P{{eps, w1}, w2} on
    every pair.
    """
    ctx = inst.context
    eps = _form_keys(ctx, ctx.ix_pa, 2, eps_sec.body)
    return Section(ctx, _contract(ctx, eps, [_twisted(w1), w2.body]))


def change_complement(inst: SplitCJInstance,
                      eps: Dict[Tuple[int, int], PolyLike]) -> Dict[str, object]:
    """New structure data for the complement gr(eps), with the L-infinity iso.

    Returns the transported instance (Theta_1 = e^m Theta_0 read back into
    structure functions), the coderivation M with only M_2 nonzero, and the
    coalgebra morphism e^M.  M_2(s, t) = P{{eps, s}, t} is the arity-2 higher
    derived bracket of the contact V-data with eps as its element.
    """
    eps_sec = epsilon_section(inst, eps)
    # {eps, -} has bidegree (1,-1) and no section has negative second degree,
    # so the flow of Theta vanishes after as many steps as the highest second
    # degree of Theta's components: at most 3, Theta being cubic.
    theta0 = inst.theta
    steps = max((delta for _, delta in theta0.body.bidegree_components()), default=0)
    theta1 = theta0
    term = theta0
    for k in itertools.count(1):
        term = jacobi_bracket(eps_sec, term)
        if term.is_zero():
            break
        if k > steps:
            raise RuntimeError(f"complement flow step {k} is nonzero past its "
                               f"bidegree bound of {steps} steps")
        theta1 = theta1 + term.scale(_reciprocal(math.factorial(k)))

    new_inst = extract_instance(inst, theta1, name=inst.name + "+eps")

    eps_vdata = replace(contact_vdata(inst), mc_element=eps_sec)
    M = TaylorCoderivation(deformation_space(inst), _derived_coefficients(inst, eps_vdata, (2,)))
    eM = exp_coderivation(M)
    return {"instance": new_inst, "theta1": theta1, "eps_section": eps_sec,
            "M": M, "exp_M": eM}
