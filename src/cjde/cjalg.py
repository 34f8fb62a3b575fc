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
over a private `_Side` record: the contact context the side's forms live in
(`inst.context` for A, its mirror for A-dagger), the side's rho / c / lam /
Upsilon tensors, the map carrying a base polynomial onto that context
(identity, or `_mirror_xpoly`), and the maps taking sections from that
context to `inst.context` and back (identity, or the Legendre transform F^*
and its inverse).  The de Rham derivation, the cubic Upsilon form, 1-forms
from coefficients, contraction, Lie derivative, section bracket and the
reading of structure functions off Theta each take a side; Theta is the sum
over both sides of the pulled-back h_d - Upsilon.

An L-valued form is a `Section`; `DeformationForm`, the 2-form on A, is one.
`_form` and its inverse `_form_entries` are the one codec between forms (in
the u's, or the pa's) and tables of base polynomials; only the independent
oracle `de_rham_koszul` keeps its own.

One derived-bracket path: the derived m_k and a change of complement's M_2
are higher derived brackets of the contact V-data, Phi = -Theta (held by the
instance next to Theta) or Phi = eps.  `_derived_coefficients` gives all of
a structure's derived Taylor coefficients from one `vdata.derived_bracket_fold`
over the letters of each word, basis monomials read as sections.  The fold
keeps the unprojected bracket of each word prefix shorter than the top
arity, so a word costs one bracket past its prefix.  The kept brackets are
freed with the coefficient function, and so with Q or M; nothing is cached
on the instance.  `_coefficient` adapts an operation on sections to a Taylor
coefficient on the closed route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
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
from .gca import ContextMismatch, Derivation, Monomial, Poly, Scalar, koszul_sign
from .linfty import (
    GradedSpace,
    TaylorCoderivation,
    Vector,
    Word,
    exp_coderivation,
    mc_residual,
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
    "tensor_is_zero",
    "tensor_witness",
    "graph_frame",
    "is_dirac_jacobi",
    "deformation_space",
    "deformation_brackets",
    "derived_bracket_sections",
    "mc_residual_form",
    "contact_vdata",
    "change_complement",
    "extract_instance",
    "fiber_split",
    "form_basis",
    "epsilon_section",
    "m2_closed",
    "m3_closed",
    "m2_sharp_closed",
    "m2_sharp_closed_covers",
    "gj_bracket_closed",
    "iota",
    "lie_derivative",
    "de_rham",
    "de_rham_koszul",
    "de_rham_derivation",
    "loday_bracket_formula",
    "upsilon_A_section",
    "section_bracket_A",
    "section_to_vector",
    "vector_to_section",
    "word_to_sections",
    "form_degree",
]

PolyLike = Union[Poly, Scalar, Dict[Tuple[int, ...], Scalar]]


def _as_xpoly(ctx: ContactContext, value: PolyLike) -> Poly:
    """Coerce a scalar / exponent-dict / Poly into a base-coordinate polynomial."""
    if isinstance(value, Poly):
        if not value.uses_only(ctx.ix_x):
            raise ValueError("structure function must only involve base coordinates")
        return value
    if isinstance(value, dict):
        # the canonical monomial directly, zero exponents left out: `pack`
        # rejects a negative or non-int exponent with ValueError
        terms = {}
        for exps, coeff in value.items():
            if len(exps) != ctx.m:
                raise ValueError("exponent vector length does not match base dimension")
            terms[tuple((ctx.ix_x[i], e) for i, e in enumerate(exps) if e)] = Fraction(coeff)
        return Poly(ctx.algebra, terms)
    return ctx.algebra.scalar(value)


def _same(f: Poly) -> Poly:
    return f


def _zeros(ctx: ContactContext, *shape: int):
    if len(shape) == 1:
        return [ctx.algebra.zero() for _ in range(shape[0])]
    return [_zeros(ctx, *shape[1:]) for _ in range(shape[0])]


# Spread rules: the signed index tuples that one sparse entry fills.
Spread = List[Tuple[Tuple[int, ...], int]]


def _plain(key: Tuple[int, ...]) -> Spread:
    return [(key, 1)]


def _skew_last_two(key: Tuple[int, ...]) -> Spread:
    cc, a, b = key
    return [((cc, a, b), 1), ((cc, b, a), -1)]


def _antisymmetric(key: Tuple[int, ...]) -> Spread:
    """Every permutation of the key with its sign; a repeated index cancels."""
    odd = (1,) * len(key)
    return [(tuple(key[i] for i in perm), koszul_sign(perm, odd))
            for perm in itertools.permutations(range(len(key)))]


def _table(ctx: ContactContext, shape: Tuple[int, ...], entries: Optional[Dict],
           spread: Callable[[Tuple[int, ...]], Spread]) -> list:
    """Dense nested table of base polynomials from sparse entries.

    A key is an index tuple (a bare int for one index); `spread` maps it to
    the signed positions it fills.  Keys outside the shape raise ValueError.
    """
    out = _zeros(ctx, *shape)
    for key, v in (entries or {}).items():
        idx = key if isinstance(key, tuple) else (key,)
        if len(idx) != len(shape) or not all(0 <= i < b for i, b in zip(idx, shape)):
            raise ValueError(f"index {idx} out of range for shape {shape}")
        p = _as_xpoly(ctx, v)
        for pos, sign in spread(idx):
            row = out
            for i in pos[:-1]:
                row = row[i]
            row[pos[-1]] = row[pos[-1]] + (p if sign > 0 else -p)
    return out


# --- the form codec ------------------------------------------------------------


def _form(ctx: ContactContext, gens: Sequence[int], k: int, table,
          carry: Callable[[PolyLike], Poly]) -> Poly:
    """sum over a_1<...<a_k of carry(table[a_1]...[a_k]) g_{a_1}...g_{a_k}.

    `gens` are generator indices in canonical order, so each term is written
    directly as an x-monomial followed by the fiber monomial, with no sign.
    Only the entries with increasing indices are read.  Raises ValueError on
    a carried entry that is not a base polynomial.
    """
    terms: Dict[Monomial, Scalar] = {}
    for key in itertools.combinations(range(len(gens)), k):
        entry = table
        for a in key:
            entry = entry[a]
        coeff = carry(entry)
        if coeff.algebra is not ctx.algebra or not coeff.uses_only(ctx.ix_x):
            raise ValueError("form entry is not a base polynomial of the context")
        fiber = tuple((gens[a], 1) for a in key)
        for mono, c in coeff.terms.items():
            terms[mono + fiber] = c
    return Poly(ctx.algebra, terms)


def _form_entries(ctx: ContactContext, gens: Sequence[int], k: int, f: Poly) -> list:
    """Inverse of `_form`: the antisymmetric table of a k-form in `gens`.

    Raises ValueError unless every fiber monomial of f is a product of k
    distinct generators from `gens`.
    """
    position = {g: a for a, g in enumerate(gens)}
    entries = {}
    for fiber, coeff in fiber_split(ctx, f).items():
        key = tuple(position.get(g) for g, _ in fiber)
        if len(key) != k or None in key:
            raise ValueError(f"not a {k}-form in the given generators")
        entries[key] = coeff
    return _table(ctx, (len(gens),) * k, entries, _antisymmetric)


def fiber_split(ctx: ContactContext, f: Poly) -> Dict[Monomial, Poly]:
    """Group a polynomial by its fiber monomial, mapping to x-coefficients.

    Base coordinates are even, so a monomial factors as (x part)*(fiber
    part) without a sign; the split is a mask test on the packed keys.
    """
    return f.split(ctx.ix_x)


def form_basis(ctx: ContactContext, k: int) -> List[Monomial]:
    """The canonical u-monomials u^{a_1}...u^{a_k}, a_1 < ... < a_k: over a
    point base, the basis of the k-forms, in the order `_form` writes them."""
    return [tuple((g, 1) for g in combo) for combo in itertools.combinations(ctx.ix_u, k)]


class SplitCJInstance:
    """Structure functions of a split Courant-Jacobi algebroid over Q[x]."""

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
        """Sparse constructor: keys use 0-based indices, skew parts are filled in.

        `rho[(i,a)]` is the coefficient of d/dx^i for frame element a,
        `c[(cc,a,b)]` (a<b) the e_cc-coefficient of [e_a,e_b], `lam[a]` the
        representation weight; `*_dual` mirrors these on the twisted dual;
        `phi[(a,b,c)]` / `psi[(a,b,c)]` (a<b<c) the antisymmetric tensors.
        """
        self.m = m
        self.n = n
        self.name = name
        self.context = context or ContactContext(m, n)
        ctx = self.context
        if ctx.m != m or ctx.n != n:
            raise ValueError("context dimensions do not match the instance")

        self.rho = _table(ctx, (m, n), rho, _plain)
        self.c = _table(ctx, (n, n, n), c, _skew_last_two)
        self.lam = _table(ctx, (n,), lam, _plain)
        self.rho_dual = _table(ctx, (m, n), rho_dual, _plain)
        self.c_dual = _table(ctx, (n, n, n), c_dual, _skew_last_two)
        self.lam_dual = _table(ctx, (n,), lam_dual, _plain)
        self.phi = _table(ctx, (n, n, n), phi, _antisymmetric)
        self.psi = _table(ctx, (n, n, n), psi, _antisymmetric)

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


# --- one side of the split ---------------------------------------------------


def _mirror_xpoly(inst: SplitCJInstance, f: Poly) -> Poly:
    ctx = inst.context
    mir = ctx.mirror
    images = {ctx.ix_x[i]: mir.x(i) for i in range(ctx.m)}
    return f.substitute(mir.algebra, images)


@dataclass(frozen=True)
class _Side:
    """A or A-dagger (see the module docstring); tensors on inst.context's base ring."""

    inst: SplitCJInstance
    context: ContactContext
    rho: List[List[Poly]]
    c: List[List[List[Poly]]]
    lam: List[Poly]
    upsilon: List[List[List[Poly]]]
    carry: Callable[[Poly], Poly]
    pullback: Callable[[Section], Section]
    push: Callable[[Section], Section]


def _side_A(inst: SplitCJInstance) -> _Side:
    return _Side(inst, inst.context, inst.rho, inst.c, inst.lam, inst.phi,
                 carry=lambda f: f, pullback=lambda s: s, push=lambda s: s)


def _side_dual(inst: SplitCJInstance) -> _Side:
    return _Side(inst, inst.context.mirror, inst.rho_dual, inst.c_dual, inst.lam_dual,
                 inst.psi, carry=lambda f: _mirror_xpoly(inst, f),
                 pullback=lambda s: legendre_pullback(s, inst.context),
                 push=lambda s: legendre_pullback(s, inst.context.mirror))


def _de_rham_derivation(side: _Side) -> LineDerivation:
    """d_{S,L} as a degree-1 derivation of the line bundle over S[1]."""
    ctx = side.context
    f = _form(ctx, ctx.ix_u, 1, side.lam, side.carry)
    f_x = [_form(ctx, ctx.ix_u, 1, row, side.carry) for row in side.rho]
    f_u = [-_form(ctx, ctx.ix_u, 2, table, side.carry) for table in side.c]
    return LineDerivation(ctx, 1, f, f_x, f_u)


def _upsilon_form(side: _Side) -> Section:
    """The cubic form Upsilon of the side, over its own context."""
    ctx = side.context
    return Section(ctx, _form(ctx, ctx.ix_u, 3, side.upsilon, side.carry))


def _one_form(side: _Side, coeffs: Sequence[Poly]) -> Section:
    """The 1-form coeffs_a u^a on the side, from base polynomials."""
    ctx = side.context
    return Section(ctx, _form(ctx, ctx.ix_u, 1, coeffs, side.carry))


def _iota(side: _Side, xi: Sequence[Poly], omega: Section) -> Section:
    """Left contraction of a form on the side by xi_a times the a-th frame element.

    This is the degree -1 derivation u^a -> xi_a, zero on every other generator.
    """
    ctx = side.context
    if omega.context is not ctx:
        raise ContextMismatch("form from the other side of the split")
    values = {idx: ctx.algebra.zero() for idx in range(len(ctx.algebra.gens))}
    values.update((ctx.ix_u[a], side.carry(xi[a])) for a in range(side.inst.n))
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
        for a in range(n):
            for i in range(ctx.m):
                acc = acc + xi[a] * side.rho[i][a] * d_eta.get(ctx.ix_x[i], zero)
                acc = acc - eta[a] * side.rho[i][a] * d_xi.get(ctx.ix_x[i], zero)
            for b in range(n):
                acc = acc + xi[a] * eta[b] * side.c[cc][a][b]
        out.append(acc)
    return out


def _xpolys(inst: SplitCJInstance, values: Sequence[PolyLike]) -> List[Poly]:
    return [_as_xpoly(inst.context, v) for v in values]


# --- assembling Theta ------------------------------------------------------


def de_rham_derivation(inst: SplitCJInstance) -> LineDerivation:
    """d_{A,L} as a degree-1 derivation of the line bundle over A[1]."""
    return _de_rham_derivation(_side_A(inst))


def upsilon_A_section(inst: SplitCJInstance) -> Section:
    """pi^* Upsilon_A as a bidegree-(0,3) section."""
    return _upsilon_form(_side_A(inst))


def build_theta(inst: SplitCJInstance) -> Section:
    """Theta = -pi^*Y_A + h_{d_A} + F^*h_{d_dual} - F^*pi~^*Y_dual."""
    theta = inst.context.zero_section()
    for side in (_side_A(inst), _side_dual(inst)):
        own = hamiltonian_lift(_de_rham_derivation(side)) - _upsilon_form(side)
        theta = theta + side.pullback(own)
    return theta


# --- degree-1 sections and derived operations -------------------------------


def embed_anchored(inst: SplitCJInstance, xi: Sequence[PolyLike],
                   alpha: Sequence[PolyLike]) -> Section:
    """xi + alpha |-> h_{iota_xi} + pi^*alpha = (xi^a pa_a + alpha_a u^a) mu."""
    ctx = inst.context
    return Section(ctx, _form(ctx, ctx.ix_pa, 1, _xpolys(inst, xi), _same)
                   + _form(ctx, ctx.ix_u, 1, _xpolys(inst, alpha), _same))


def split_anchored(inst: SplitCJInstance, s: Section) -> Tuple[List[Poly], List[Poly]]:
    """Inverse of embed_anchored; raises ValueError unless s has degree 1."""
    ctx = inst.context
    coeffs = _form_entries(ctx, ctx.ix_u + ctx.ix_pa, 1, s.body)
    return coeffs[inst.n:], coeffs[:inst.n]


def pairing(u: Section, v: Section) -> Section:
    """<<u, v>> = -{u, v} on degree-1 sections."""
    return -jacobi_bracket(u, v)


def derived_operations(inst: SplitCJInstance, u: Section, v: Section,
                       lam: Optional[Section] = None) -> Dict[str, Section]:
    """Bracket, connection and pairing recovered from Theta.

    [[u,v]] = {{u,Theta},v} and nabla_u lam = {{u,Theta},lam}; inputs must be
    pure degree-1 sections (lam a pullback section).
    """
    for s in (u, v):
        if not s.is_zero() and s.degree() != 1:
            raise ValueError("anchored sections must have pure degree 1")
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

    Every bracket that several residuals share is computed once: {[[e_i, e_j]],
    Theta} per pair, ad_i [[e_j, e_l]] per triple (the Jacobi residuals of
    (i, j, l) and (j, i, l) both use it) and ad_i ad_j lam per pair and lam.
    """
    ctx = inst.context
    theta = inst.theta
    frame = inst.full_frame()
    k = len(frame)
    pairs = list(itertools.product(range(k), repeat=2))

    theta_br = [jacobi_bracket(e, theta) for e in frame]

    def ad(i: int, s: Section) -> Section:
        return jacobi_bracket(theta_br[i], s)

    table = [[ad(i, frame[j]) for j in range(k)] for i in range(k)]
    table_theta = {(i, j): jacobi_bracket(table[i][j], theta) for i, j in pairs}
    ad_table = {(i, j, l): ad(i, table[j][l])
                for i, j, l in itertools.product(range(k), repeat=3)}

    jacobi_residuals = []
    for i, j, l in itertools.product(range(k), repeat=3):
        r = ad_table[i, j, l] - jacobi_bracket(table_theta[i, j], frame[l]) \
            - ad_table[j, i, l]
        jacobi_residuals.append(((i, j, l), r))

    lams = [Section(ctx, ctx.algebra.one())]
    lam_names = ["mu"]
    for i in range(ctx.m):
        lams.append(Section(ctx, ctx.x(i)))
        lam_names.append(f"x{i+1}*mu")
    ad_lam = [[ad(j, lam) for lam in lams] for j in range(k)]
    ad_ad_lam = {(i, j): [ad(i, s) for s in ad_lam[j]] for i, j in pairs}

    flatness_residuals = []
    for i, j in pairs:
        for t, (lam, lname) in enumerate(zip(lams, lam_names)):
            lhs = jacobi_bracket(table_theta[i, j], lam)
            rhs = ad_ad_lam[i, j][t] - ad_ad_lam[j, i][t]
            flatness_residuals.append(((i, j, lname), lhs - rhs))

    return AxiomReport(jacobi_bracket(theta, theta), jacobi_residuals, flatness_residuals)


# --- forms -------------------------------------------------------------------


def _skew_matrix(ctx: ContactContext, n: int,
                 data: Dict[Tuple[int, int], PolyLike]) -> List[List[Poly]]:
    """Skew n x n matrix of base polynomials from its entries (a, b)."""
    return _table(ctx, (n, n), data, _antisymmetric)


class DeformationForm(Section):
    """An L-valued 2-form on A: a section whose body is a 2-form in the u's."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, inst: SplitCJInstance,
                  data: Dict[Tuple[int, int], PolyLike]) -> "DeformationForm":
        ctx = inst.context
        return cls(ctx, _form(ctx, ctx.ix_u, 2, _skew_matrix(ctx, inst.n, data), _same))

    @classmethod
    def from_section(cls, inst: SplitCJInstance, s: Section) -> "DeformationForm":
        """s as a DeformationForm; raises ValueError unless it is a 2-form.

        A 2-form is a section of bidegree (0, 2): the u's are the only
        generators of bidegree (0, 1), and the x's have (0, 0).
        """
        if not s.is_zero() and form_degree(s) != 2:
            raise ValueError("not a 2-form in the fiber coordinates")
        return cls(inst.context, s.body)

    @property
    def entries(self) -> List[List[Poly]]:
        """The skew n x n matrix of base polynomials."""
        return _form_entries(self.context, self.context.ix_u, 2, self.body)


def form_degree(s: Section) -> int:
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
    return de_rham_derivation(inst)(omega)


def de_rham_koszul(inst: SplitCJInstance, omega: Section) -> Section:
    """Independent oracle for d_{A,L}: the evaluation Koszul formula.

    Evaluates (d omega)(e_{a_0},...,e_{a_k}) frame tuple by frame tuple,
    using nabla on coefficients and the bracket insertion terms, and
    reassembles the resulting (k+1)-form.
    """
    ctx = inst.context
    k = form_degree(omega)

    def evaluate(form: Section, idx: Tuple[int, ...]) -> Poly:
        body = form.body
        for a in idx:
            body = body.partial(ctx.ix_u[a])
        return body

    def nabla_a(a: int, g: Poly) -> Poly:
        out = inst.lam[a] * g
        for i in range(ctx.m):
            out = out + inst.rho[i][a] * g.partial(ctx.ix_x[i])
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
                coeff = inst.c[cc][tup[p1]][tup[p2]]
                if coeff.is_zero():
                    continue
                term = coeff * evaluate(omega, (cc,) + rest)
                val = val + term.scale((-1) ** (p1 + p2 + 1))
        mono = ctx.algebra.one()
        for a in tup:
            mono = mono * ctx.u(a)
        out = out + val * mono
    return Section(ctx, out)


def lie_derivative(inst: SplitCJInstance, xi: Sequence[PolyLike], omega: Section) -> Section:
    """Lie derivative along xi in Gamma(A): [d, iota_xi] = d iota + iota d."""
    return _lie_derivative(_side_A(inst), de_rham_derivation(inst), _xpolys(inst, xi), omega)


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
    return own.pullback(form)


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


def courant_tensor(inst: SplitCJInstance, frame: Sequence[Section]) -> List[List[List[Section]]]:
    """Y(u_i,u_j,u_k) = <<[[u_i,u_j]], u_k>> on a Lagrangian frame."""
    for i, j in itertools.combinations_with_replacement(range(len(frame)), 2):
        pr = pairing(frame[i], frame[j])
        if not pr.is_zero():
            raise NotLagrangian(f"pairing of frame elements {i},{j} is {pr}")
    # {u_i, Theta} once per element, so its memoised operator serves every u_j
    theta_br = [jacobi_bracket(e, inst.theta) for e in frame]
    table = [jacobi_bracket(e_theta, f) for e_theta in theta_br for f in frame]
    k = len(frame)
    out = [[[None] * k for _ in range(k)] for _ in range(k)]
    for i, j, l in itertools.product(range(k), repeat=3):
        out[i][j][l] = pairing(table[i * k + j], frame[l])
    return out


def tensor_witness(t: List[List[List[Section]]]) -> Optional[Tuple[Tuple[int, int, int], Section]]:
    """The first nonzero entry of the tensor, in index order, with its index."""
    return first_nonzero(((i, j, l), s) for i, pl in enumerate(t)
                         for j, row in enumerate(pl) for l, s in enumerate(row))


def tensor_is_zero(t: List[List[List[Section]]]) -> bool:
    return tensor_witness(t) is None


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
    (False, its first nonzero entry and index from `tensor_witness`)."""
    witness = tensor_witness(courant_tensor(inst, frame))
    return witness is None, witness


# --- deformation brackets: derived and closed routes -------------------------


def deformation_space(inst: SplitCJInstance) -> GradedSpace:
    """Omega(A;L)[2] with basis keys the (x,u)-monomials of the context."""
    ctx = inst.context

    def degree(key: Monomial) -> int:
        return ctx.algebra.monomial_bidegree(key)[1] - 2

    return GradedSpace(degree)


def section_to_vector(inst: SplitCJInstance, s: Section) -> Vector:
    if not s.body.uses_only(inst.context.base_indices()):
        raise ValueError("not a pullback form")
    return dict(s.body.terms)


def vector_to_section(inst: SplitCJInstance, v: Vector) -> Section:
    return Section(inst.context, Poly(inst.context.algebra, dict(v)))


def word_to_sections(inst: SplitCJInstance, word: Word) -> List[Section]:
    return [Section(inst.context, inst.context.algebra.monomial(k)) for k in word]


def contact_vdata(inst: SplitCJInstance) -> VData:
    """The contact V-data: Jacobi bracket, pullback subalgebra, P, Phi = `inst.minus_theta`."""
    ctx = inst.context

    def in_sub(s: Section) -> bool:
        return s.body.uses_only(ctx.base_indices())

    return VData(bracket=jacobi_bracket, in_subalgebra=in_sub, project=project_P,
                 mc_element=inst.minus_theta)


def derived_bracket_sections(inst: SplitCJInstance, args: Sequence[Section]) -> Section:
    """m_k(a_1..a_k) = -P{...{{Theta,a_1},a_2},...,a_k} on pullback sections, k = len(args)."""
    return higher_derived_bracket(contact_vdata(inst), args)


def _coefficient(inst: SplitCJInstance, op: Callable[..., Section]) -> Callable[[Word], Vector]:
    """The Taylor coefficient of an operation on sections: word -> its sections -> op -> vector."""
    def coefficient(word: Word) -> Vector:
        return section_to_vector(inst, op(*word_to_sections(inst, word)))
    return coefficient


def _derived_coefficients(inst: SplitCJInstance, vdata: VData,
                          arities: Sequence[int]) -> Dict[int, Callable[[Word], Vector]]:
    """The higher derived brackets of `vdata` as Taylor coefficients of the given arities.

    One coefficient function serves every arity: a word w is
    P[...[Phi, w_1], ..., w_k] from one `derived_bracket_fold`, which keeps
    the prefixes shorter than the top arity (module docstring).
    """
    ctx = inst.context
    fold = derived_bracket_fold(vdata, lambda key: Section(ctx, ctx.algebra.monomial(key)),
                                max(arities) - 1)

    def coefficient(word: Word) -> Vector:
        return section_to_vector(inst, fold(word))
    return dict.fromkeys(arities, coefficient)


def _m2_closed_pair(inst: SplitCJInstance, A: Poly, r: int, B: Poly) -> Poly:
    """Closed bidifferential formula for m_2 on bodies (A homogeneous, u-deg r)."""
    ctx = inst.context
    zero = ctx.algebra.zero()
    A_d, B_d = A.partials(), B.partials()
    A_u = [A_d.get(ctx.ix_u[a], zero) for a in range(inst.n)]
    B_u = [B_d.get(ctx.ix_u[a], zero) for a in range(inst.n)]
    out = zero
    for a in range(inst.n):
        out = out - inst.lam_dual[a] * A_u[a] * B
        for i in range(ctx.m):
            out = out - inst.rho_dual[i][a] * A_u[a] * B_d.get(ctx.ix_x[i], zero)
    sign = (-1) ** (r % 2)
    for a in range(inst.n):
        inner = -inst.lam_dual[a] * A
        for i in range(ctx.m):
            inner = inner - inst.rho_dual[i][a] * A_d.get(ctx.ix_x[i], zero)
        for cc in range(inst.n):
            inner = inner - inst.lam_dual[cc] * ctx.u(a) * A_u[cc]
            inner = inner + inst.lam_dual[a] * ctx.u(cc) * A_u[cc]
            for e in range(inst.n):
                coeff = inst.c_dual[e][a][cc]
                if not coeff.is_zero():
                    inner = inner - coeff * ctx.u(e) * A_u[cc]
        out = out + (inner * B_u[a]).scale(sign)
    return out


def m2_closed(inst: SplitCJInstance, alpha: Section, beta: Section) -> Section:
    """m_2(alpha,beta) by the closed formula (no contact variables involved)."""
    ctx = inst.context
    out = ctx.algebra.zero()
    for (eps, r), comp in alpha.body.bidegree_components().items():
        if eps != 0:
            raise ValueError("not a pullback form")
        out = out + _m2_closed_pair(inst, comp, r, beta.body)
    return Section(ctx, out)


def gj_bracket_closed(inst: SplitCJInstance, alpha: Section, beta: Section) -> Section:
    """Gerstenhaber-Jacobi bracket of the dual side: [a,b] = (-1)^|a| m_2(a,b)."""
    twisted = inst.context.algebra.zero()
    for (_, r), comp in alpha.body.bidegree_components().items():
        twisted = twisted + comp.scale((-1) ** (r % 2))
    return m2_closed(inst, Section(inst.context, twisted), beta)


def m3_closed(inst: SplitCJInstance, alpha: Section, beta: Section, gamma: Section) -> Section:
    """m_3 via the sharp-operators contraction of the dual Courant tensor."""
    ctx = inst.context
    db = form_degree(beta)
    sign = -((-1) ** (db % 2))
    zero = ctx.algebra.zero()
    out = zero
    parts = None  # taken at the first nonzero psi entry; psi is often zero
    for a, b, cc in itertools.combinations(range(inst.n), 3):
        coeff = inst.psi[a][b][cc]
        if coeff.is_zero():
            continue
        if parts is None:
            parts = [s.body.partials() for s in (alpha, beta, gamma)]
        acc = zero
        for perm, sgn in _antisymmetric((a, b, cc)):
            term = parts[0].get(ctx.ix_u[perm[0]], zero) \
                * parts[1].get(ctx.ix_u[perm[1]], zero) \
                * parts[2].get(ctx.ix_u[perm[2]], zero)
            acc = acc + term.scale(sgn)
        out = out + coeff * acc
    return Section(ctx, out.scale(sign))


def deformation_brackets(inst: SplitCJInstance, route: str = "derived") -> TaylorCoderivation:
    """The cubic deformation L-infinity[1] algebra on Omega(A;L)[2], as its codifferential Q.

    `Q.coefficient(k, w)` is m_k(w) for k = 1, 2, 3.  Q has arity 0, the
    curvature m_0 = Upsilon_A, exactly when Upsilon_A != 0.
    route='derived' goes through the contact V-data higher derived brackets,
    one prefix fold for all three arities;
    route='closed' uses the de Rham derivation, the Gerstenhaber-Jacobi
    bracket and the sharp-contraction of the dual Courant tensor.  The two
    must agree on every input; the test suite enforces this.
    """
    if route == "derived":
        coefficients = _derived_coefficients(inst, contact_vdata(inst), (1, 2, 3))
    elif route == "closed":
        coefficients = {1: _coefficient(inst, de_rham_derivation(inst)),
                        2: _coefficient(inst, lambda s, t: m2_closed(inst, s, t)),
                        3: _coefficient(inst, lambda s, t, w: m3_closed(inst, s, t, w))}
    else:
        raise ValueError(f"unknown route {route!r}")
    curvature = section_to_vector(inst, upsilon_A_section(inst))
    if curvature:
        coefficients[0] = curvature
    return TaylorCoderivation(deformation_space(inst), coefficients)


def mc_residual_form(inst: SplitCJInstance, eta: Section) -> Section:
    """m_0 + m_1(eta) + 1/2 m_2(eta,eta) + 1/6 m_3(eta,eta,eta) as a section."""
    residual = mc_residual(deformation_brackets(inst), section_to_vector(inst, eta))
    return vector_to_section(inst, residual)


# --- change of complement ----------------------------------------------------


def epsilon_section(inst: SplitCJInstance, eps: Dict[Tuple[int, int], PolyLike]) -> Section:
    """A 2-form on the dual side as a bidegree-(2,0) section."""
    ctx = inst.context
    return Section(ctx, _form(ctx, ctx.ix_pa, 2, _skew_matrix(ctx, inst.n, eps), _same))


def _read_side(side: _Side, theta: Section) -> Tuple[Dict, Dict, Dict, Dict]:
    """rho, c, lam and Upsilon of one side, as constructor dicts on the base ring.

    Pushed to the side's own context, Theta is that side's h_d - Upsilon
    plus the other side's part, which shares no monomial with it.
    """
    ctx, n = side.context, side.inst.n
    coeffs = fiber_split(ctx, side.push(theta).body)

    def pick(*letters: int) -> Poly:
        _, mono = ctx.algebra.normalize_word(letters)
        if mono not in coeffs:
            return side.inst.context.algebra.zero()
        return side.pullback(Section(ctx, coeffs[mono])).body

    rho = {(i, a): pick(ctx.ix_u[a], ctx.ix_pi[i]) for i in range(ctx.m) for a in range(n)}
    c = {(cc, a, b): -pick(ctx.ix_u[a], ctx.ix_u[b], ctx.ix_pa[cc])
         for cc in range(n) for a, b in itertools.combinations(range(n), 2)}
    lam = {a: pick(ctx.ix_u[a], ctx.ix_p) for a in range(n)}
    upsilon = {key: -pick(*(ctx.ix_u[a] for a in key))
               for key in itertools.combinations(range(n), 3)}
    return rho, c, lam, upsilon


def extract_instance(inst: SplitCJInstance, theta: Section, name: str = "") -> SplitCJInstance:
    """Read structure functions off a degree-3 section; asserts a clean round trip."""
    rho, c, lam, phi = _read_side(_side_A(inst), theta)
    rho_d, c_d, lam_d, psi = _read_side(_side_dual(inst), theta)
    out = SplitCJInstance(inst.m, inst.n, rho=rho, c=c, lam=lam, rho_dual=rho_d,
                          c_dual=c_d, lam_dual=lam_d, phi=phi, psi=psi,
                          context=inst.context, name=name)
    if build_theta(out) != theta:
        raise ValueError("theta does not come from split structure functions")
    return out


def m2_sharp_closed(inst: SplitCJInstance, eps_sec: Section,
                    w1: Section, w2: Section) -> Section:
    """Closed form of the complement-change arity-2 coefficient.

    For two 2-forms the matrix form is W1 E W2 + W2 E W1; for a 2-form and a
    1-form it is the contraction w1#(eps_flat(alpha)).  Only these arities
    are covered; the general route is the derived formula.  eps_flat is the
    contraction in the second slot of eps, which is what matches the general
    route exactly.
    """
    ctx = inst.context
    n = inst.n
    zero = ctx.algebra.zero()
    # E[a][b] = d/dpa_a d/dpa_b eps is the transpose of eps's entries
    E = list(zip(*_form_entries(ctx, ctx.ix_pa, 2, eps_sec.body)))
    d1, d2 = form_degree(w1), form_degree(w2)
    if d1 == 2 and d2 == 2:
        M1, M2 = (_form_entries(ctx, ctx.ix_u, 2, w.body) for w in (w1, w2))
        table = [[zero] * n for _ in range(n)]
        for a, d in itertools.combinations(range(n), 2):
            for b, cc in itertools.product(range(n), repeat=2):
                table[a][d] = table[a][d] + M1[a][b] * E[b][cc] * M2[cc][d]
                table[a][d] = table[a][d] + M2[a][b] * E[b][cc] * M1[cc][d]
        return Section(ctx, _form(ctx, ctx.ix_u, 2, table, _same))
    if {d1, d2} == {1, 2}:
        omega, alpha = (w1, w2) if d1 == 2 else (w2, w1)
        al = _form_entries(ctx, ctx.ix_u, 1, alpha.body)
        om_d = omega.body.partials()
        om = [om_d.get(ctx.ix_u[b], zero) for b in range(n)]
        body = zero
        for a in range(n):
            for b in range(n):
                body = body + al[a] * E[a][b] * om[b]
        return Section(ctx, body)
    raise ValueError("closed form only covers (2,2) and (2,1) arities")


def m2_sharp_closed_covers(w1: Section, w2: Section) -> bool:
    """Whether `m2_sharp_closed` covers the pair: form degrees {2, 2} or {1, 2}."""
    return sorted((form_degree(w1), form_degree(w2))) in ([1, 2], [2, 2])


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
        theta1 = theta1 + term.scale(Fraction(1, math.factorial(k)))

    new_inst = extract_instance(inst, theta1, name=inst.name + "+eps")

    eps_vdata = replace(contact_vdata(inst), mc_element=eps_sec)
    M = TaylorCoderivation(deformation_space(inst), _derived_coefficients(inst, eps_vdata, (2,)))
    eM = exp_coderivation(M)
    return {"instance": new_inst, "theta1": theta1, "eps_section": eps_sec,
            "M": M, "exp_M": eM}
