"""Deformation workflow over point-base instances, read off the L-infinity algebra.

`ComplexMatrices` holds the closed-route structure of the instance,
`Q = deformation_brackets(inst, "closed")`, the codifferential with m_1 =
d_{A,L}, m_2 and m_3.  The instance owns those coefficients and their memo
per word (`SplitCJInstance.closed_coefficients`), so the complex,
`extend_mc` (through `h3.complex.Q`) and `mc_residual_coefficients`, each
with its own Q, evaluate each word once per instance.  Over a point base
the L-valued form spaces are finite dimensional, so m_1 becomes sparse rows
{column: scalar} on the `form_basis` words (u^{a_1}...u^{a_k} with
a_1 < ... < a_k, the keys of `deformation_space`), the vector format of
every other layer.  Kernels, images and cohomology representatives come
from exact elimination over Q on those rows, each step a `gca.add_into`, to
the unique reduced row echelon form; coordinates of forms and kernel
vectors are dense lists.  Every entry, coordinate and solution keeps the
scalar rule of the `gca` docstring, and the one division is
`gca._reciprocal`.  A `LinearSystem` keeps one elimination and answers any
number of right-hand sides from it.

`Cohomology` holds H^k as the data a homotopy transfer reads (Berglund,
arXiv:0909.3485): representatives (i), class coordinates (p) and primitives
(h).  Each degree is eliminated once, over the columns of d_{k-1} followed
by the cocycles, when H^k is built.  A degree-k form z is answered by one
pass over the degree's kept elimination, z = d(b) + sum_i c_i rep_i: c is
its class and, when c = 0, b its primitive.  `kuranishi` reads c of
m_2(eta, eta); `extend_mc` reads both c and b of each order's residual from
that one pass.

The t^r coefficient of the MC residual of a formal curve sum_k t^k eta_k is
`linfty.curve_coefficient` of Q, over every arity Q has.  `extend_mc` solves
the MC equation order by order with it and reports the first obstructed
order with its cohomology class.  The Kuranishi map keeps the derived-route
m_2: its agreement with the order-2 obstruction is a cross-check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .cjalg import (
    DeformationForm,
    SplitCJInstance,
    check_cj_axioms,
    deformation_brackets,
    derived_bracket_sections,
    form_basis,
    section_to_vector,
    vector_to_section,
)
from .contact import ContactContext, Section, jacobi_bracket
from .gca import Monomial, Scalar, _coefficient, _is_int, _reciprocal, _settle, add_into
from .linfty import Vector, curve_coefficient

__all__ = [
    "rref",
    "LinearSystem",
    "nullspace",
    "ComplexMatrices",
    "Cohomology",
    "cohomology",
    "kuranishi",
    "FormalCurve",
    "extend_mc",
    "mc_residual_coefficients",
    "search_obstructed_instance",
]

Row = Dict[int, Scalar]
Vec = List[Scalar]


# --- exact linear algebra ---------------------------------------------------


def rref(rows: Sequence[Mapping[int, Scalar]]) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form over Q of sparse rows {column: entry}.

    Returns (R, pivots): the nonzero reduced rows in pivot order, as new
    dicts of settled scalars without zero entries, and their pivot columns
    in increasing order.  Each row in turn is reduced by the pivot rows
    found so far; if anything is left, its first column becomes a new pivot,
    the row is scaled by the reciprocal of its entry there
    (`gca._reciprocal`), and that column is cleared from the other pivot
    rows.  Every step is a `gca.add_into`, and each pivot row is settled
    (`gca._settle`) whenever it is written.  The reduced row echelon form
    is unique for the column order, so the result is the dense Gauss-Jordan
    one without its zero rows.  The input rows are only read, each entry by
    `gca._coefficient`.
    """
    reduced: Dict[int, Row] = {}
    for given in rows:
        row = add_into({}, ((c, _coefficient(x)) for c, x in given.items()))
        for p in [c for c in row if c in reduced]:
            add_into(row, reduced[p], -row[p])
        if not row:
            continue
        lead = min(row)
        row = _settle(add_into({}, row, _reciprocal(row[lead])))
        for other in reduced.values():
            if lead in other:
                _settle(add_into(other, row, -other[lead]))
        reduced[lead] = row
    pivots = sorted(reduced)
    return [reduced[p] for p in pivots], pivots


def _require_columns(rows: Sequence[Mapping[int, Scalar]], cols: int) -> None:
    """Raise ValueError unless every entry of every row lies in a column of range(cols)."""
    for row in rows:
        for c in row:
            if c not in range(cols):
                raise ValueError(f"a row has an entry in column {c!r}, outside range({cols})")


def nullspace(rows: Sequence[Mapping[int, Scalar]], cols: int) -> List[Vec]:
    """Basis of the right kernel of sparse rows over `cols` columns, as dense lists.

    One vector per free column, in order: 1 there, minus that column of
    each reduced row at its pivot, 0 elsewhere.  A row entry outside
    range(cols) raises ValueError.
    """
    _require_columns(rows, cols)
    red, pivots = rref(rows)
    basis: List[Vec] = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        v: Vec = [0] * cols
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = -row.get(fc, 0)
        basis.append(v)
    return basis


class LinearSystem:
    """M x = b for a fixed M and any b: one elimination, then one pass per b.

    M is given by its sparse rows over `cols` columns; a row entry outside
    range(cols) raises ValueError.  The constructor reduces [M | I] once:
    each reduced row is [r | t] with t M = r, and since I is invertible,
    M x = b holds exactly when r x = t b for every row.  A row whose pivot
    lies in M's columns fixes x there to t b, with the free variables zero,
    so the solution is the one of the reduced [M | b].  A row whose pivot
    lies in the I block has r = 0, so y = t satisfies y M = 0, and the
    system has no solution exactly when y b != 0 for some such row.
    `pivots` holds M's pivot columns in increasing order.
    """

    def __init__(self, rows: Sequence[Mapping[int, Scalar]], cols: int):
        _require_columns(rows, cols)
        self.cols, self.size = cols, len(rows)
        red, pivots = rref([{**row, cols + i: 1} for i, row in enumerate(rows)])
        self.pivots = [p for p in pivots if p < cols]
        self._reduced = list(zip(pivots, red))

    def solve(self, rhs: Sequence[Scalar]) -> Optional[Vec]:
        """One solution x of M x = rhs, a dense list over the columns, or None.

        rhs holds one entry per row of M; another length raises ValueError.
        """
        if len(rhs) != self.size:
            raise ValueError(f"rhs has {len(rhs)} entries for {self.size} rows")
        cols = self.cols
        x: Vec = [0] * cols
        for p, row in self._reduced:
            tb = _coefficient(sum(y * rhs[c - cols] for c, y in row.items() if c >= cols))
            if p < cols:
                x[p] = tb
            elif tb:
                return None
        return x


# --- the complex as matrices --------------------------------------------


class UnsupportedBase(ValueError):
    """Cohomology requires a point base (m = 0)."""


class NotFlat(ValueError):
    """The de Rham square is nonzero: the A side is not a Jacobi algebroid."""


class ComplexMatrices:
    """The complex (Omega(A;L), m_1) over a point base, as sparse rows degree by degree.

    `Q` is the closed-route structure and `d` applies its m_1 to a section.
    `matrices[k]` holds m_1 from the degree-k to the degree-(k+1) forms:
    one sparse row {j: entry} per word of `basis[k + 1]`, whose entry in
    column j is that word's coefficient in m_1 of the word `basis[k][j]`
    (no rows at the top degree).  Coordinates of a form on `basis[k]` are
    dense lists, one entry per word.
    """

    def __init__(self, inst: SplitCJInstance):
        if inst.m != 0:
            raise UnsupportedBase("cohomology is only computed over a point base")
        self.inst = inst
        self.n = inst.n
        self.basis = [form_basis(inst.context, k) for k in range(self.n + 1)]
        self.Q = deformation_brackets(inst, "closed")
        self.matrices: List[List[Row]] = []
        for k in range(self.n + 1):
            rows = {mono: {} for mono in (self.basis[k + 1] if k < self.n else [])}
            for j, mono in enumerate(self.basis[k]):
                for out, c in self.Q.coefficient(1, (mono,)).items():
                    rows[out][j] = c
            self.matrices.append(list(rows.values()))
        for k in range(self.n - 1):
            for mono in self.basis[k]:
                if not self.d(self.d(vector_to_section(inst, {mono: 1}))).is_zero():
                    raise NotFlat("d^2 != 0: the A side is not flat")

    def d(self, s: Section) -> Section:
        """m_1(s) from the arity-1 coefficient of `Q` alone: `Q.apply` would add m_0."""
        out: Vector = {}
        for mono, c in section_to_vector(self.inst, s).items():
            add_into(out, self.Q.coefficient(1, (mono,)), c)
        return vector_to_section(self.inst, out)

    def _words(self, k: int) -> List[Monomial]:
        """`basis[k]`; a degree that is not an int in 0..n raises ValueError."""
        if not _is_int(k) or not 0 <= k <= self.n:
            raise ValueError(f"degree {k!r} is not an int from 0 to the top degree {self.n}")
        return self.basis[k]

    def form_to_coords(self, s: Section, k: int) -> Vec:
        coords = [s.body.coefficient(mono) for mono in self._words(k)]
        if self.coords_to_form(coords, k) != s:
            raise ValueError("section is not a homogeneous degree-k form")
        return coords

    def coords_to_form(self, coords: Sequence[Scalar], k: int) -> Section:
        """The degree-k form with these coordinates, one per word of `basis[k]`."""
        words = self._words(k)
        if len(coords) != len(words):
            raise ValueError(f"{len(coords)} coordinates for the {len(words)} "
                             f"degree-{k} basis forms")
        return vector_to_section(self.inst, dict(zip(words, coords)))


# --- cohomology ---------------------------------------------------------


@dataclass
class Cohomology:
    """H^k of the complex as contraction data: representatives, class and primitive.

    The representatives (i) complete a basis of the image of d_{k-1} to one
    of the cocycles.  `_system` is the degree's one `LinearSystem`, over the
    columns of d_{k-1} followed by a kernel basis of d_k; its pivots past
    the image columns are the representatives.  Every question about a
    degree-k form z is one `solve` on it (`_split`): z = d(b) + sum_i c_i
    rep_i, read off the image columns (b) and the representatives' pivots
    (c).  The other kernel columns are free, so they are zero, and (b, c) is
    the solution against d_{k-1} followed by the representatives alone.  It
    exists exactly when z is a cocycle; c is the class (p,
    `class_coordinates`) and, when c = 0, b is the primitive (h,
    `primitive`), the solution against d_{k-1} alone with the same pivot
    choice.  Above the top degree there is no system.
    """

    complex: ComplexMatrices
    k: int
    dimension: int
    representatives: List[Section]
    _system: Optional[LinearSystem]

    def _split(self, s: Section) -> Optional[Tuple[Vec, Vec]]:
        """(b, c) with s = d(b) + sum_i c_i rep_i, or None when s is not a cocycle."""
        cm, k, system = self.complex, self.k, self._system
        # above the top degree there is no system, and the degree check raises first
        coords = cm.form_to_coords(s, k)
        sol = system.solve(coords)
        cut = len(cm.basis[k - 1]) if k else 0
        return None if sol is None else (sol[:cut], [sol[p] for p in system.pivots if p >= cut])

    def class_coordinates(self, s: Section) -> Vec:
        """Coordinates of [s] on the representative basis; requires a cocycle."""
        if self.k > self.complex.n:
            if not s.is_zero():
                raise ValueError("nonzero form above the top degree")
            return []
        split = self._split(s)
        if split is None:
            raise ValueError("not a cocycle")
        return split[1]

    def representative(self, coords: Sequence[Scalar]) -> Section:
        """The cocycle sum_i coords[i] * representatives[i], one coordinate per representative."""
        if len(coords) != self.dimension:
            raise ValueError(f"{len(coords)} coordinates for the {self.dimension} "
                             f"representatives of H^{self.k}")
        rep = self.complex.inst.context.zero_section()
        for c, r in zip(coords, self.representatives):
            rep = rep + r.scale(c)
        return rep

    def primitive(self, s: Section) -> Optional[Section]:
        """The deterministic primitive of an exact form, else None."""
        if self.k == 0:
            raise ValueError("0-forms have no primitives")
        split = self._split(s)
        if split is None or any(split[1]):
            return None
        return self.complex.coords_to_form(split[0], self.k - 1)


def _require_complex_of(inst: SplitCJInstance, cm: ComplexMatrices) -> None:
    """Raise ValueError unless `cm` was built for `inst` itself."""
    if cm.inst is not inst:
        raise ValueError(f"the complex was built for instance {cm.inst.name!r}, "
                         f"not for {inst.name!r}")


def cohomology(inst: SplitCJInstance, k: int,
               cm: Optional[ComplexMatrices] = None) -> Cohomology:
    """Exact H^k with representative basis completing the image inside the kernel.

    k must be an int >= 0, else ValueError; above the rank H^k is the zero
    space.
    """
    if not _is_int(k) or k < 0:
        raise ValueError(f"cohomology degree must be an int >= 0, got {k!r}")
    cm = cm or ComplexMatrices(inst)
    _require_complex_of(inst, cm)
    if k > cm.n:
        return Cohomology(cm, k, 0, [], None)
    # d on the top degree has no rows, so its kernel is everything
    kernel = nullspace(cm.matrices[k], len(cm.basis[k]))

    # image columns first, then kernel vectors; pivots are picked greedily from
    # the left, so those past the image part are the representatives
    cut = len(cm.basis[k - 1]) if k else 0
    prev = cm.matrices[k - 1] if k else [{} for _ in cm.basis[k]]
    system = LinearSystem([add_into(dict(row), ((cut + t, v[i]) for t, v in enumerate(kernel)))
                           for i, row in enumerate(prev)], cut + len(kernel))
    reps = [cm.coords_to_form(kernel[p - cut], k) for p in system.pivots if p >= cut]
    return Cohomology(cm, k, len(reps), reps, system)


# --- Kuranishi map ------------------------------------------------------


def _closed_h3(inst: SplitCJInstance, eta: Section, h3: Optional[Cohomology]) -> Cohomology:
    """H^3 of `inst` (`h3`, or built), once eta is known to be a closed 2-form.

    Raises ValueError unless eta is a 2-form, `h3` is H^3 of a complex built
    for `inst` itself, and d(eta) = 0.
    """
    DeformationForm.from_section(inst, eta)
    h3 = h3 or cohomology(inst, 3)
    _require_complex_of(inst, h3.complex)
    if h3.k != 3:
        raise ValueError(f"h3 must be the cohomology of degree 3, not of degree {h3.k}")
    if not h3.complex.d(eta).is_zero():
        raise ValueError("eta is not closed")
    return h3


def kuranishi(inst: SplitCJInstance, eta: Section,
              h3: Optional[Cohomology] = None) -> Tuple[Vec, Section]:
    """Class of m_2(eta,eta) in H^3; eta must be a d-closed 2-form.

    Returns (coordinates on the H^3 representatives, reduced representative).
    `h3` must be H^3 of a complex built for `inst` itself, else ValueError.
    """
    h3 = _closed_h3(inst, eta, h3)
    w = derived_bracket_sections(inst, [eta, eta])
    coords = h3.class_coordinates(w)
    return coords, h3.representative(coords)


# --- order-by-order extension --------------------------------------------


@dataclass
class FormalCurve:
    """Coefficients eta_1..eta_N of a formal MC curve, or the obstruction.

    An obstruction at order 2 is a property of eta_1.  One at order r >= 3
    holds only for the chosen eta_2..eta_{r-1}, each minus the deterministic
    primitive of its residual (see `extend_mc`); another choice may remove it.
    """

    inst: SplitCJInstance
    coefficients: List[Section]
    obstructed_at: Optional[int] = None
    obstruction_class: Optional[Vec] = None
    obstruction_representative: Optional[Section] = None

    @property
    def ok(self) -> bool:
        return self.obstructed_at is None

    def order(self) -> int:
        return len(self.coefficients)


def mc_residual_coefficients(inst: SplitCJInstance, coeffs: Sequence[Section],
                             order: int) -> List[Section]:
    """t-expansion of the MC residual of sum_k t^k eta_k through t^order.

    Entry r - 1 of the returned list is the coefficient of t^r (r >= 1):
    `linfty.curve_coefficient` of the closed-route structure, exact.
    `coeffs` holds eta_1, eta_2, ..., each a 2-form; coefficients past its
    end count as zero.  An order that is not an int >= 0 raises ValueError.
    """
    if not _is_int(order) or order < 0:
        raise ValueError(f"the expansion order must be an int at least 0, got {order!r}")
    for s in coeffs:
        DeformationForm.from_section(inst, s)
    Q = deformation_brackets(inst, "closed")
    curve = [section_to_vector(inst, s) for s in coeffs]
    return [vector_to_section(inst, curve_coefficient(Q, curve, r))
            for r in range(1, order + 1)]


def extend_mc(inst: SplitCJInstance, eta1: Section, order: int,
              h3: Optional[Cohomology] = None) -> FormalCurve:
    """Solve the MC equation order by order starting from a closed 2-form.

    At order r the t^r coefficient of the residual of eta_1..eta_{r-1} (the
    `linfty.curve_coefficient` of `h3.complex.Q`) is split by one solve into
    d(b) plus its class (`Cohomology`).  A zero class makes it exact, and its
    deterministic primitive b gives -eta_r; a nonzero class stops the
    extension and is reported as the obstruction at that order.  A residual
    that is not a cocycle has no class and raises ValueError (a
    codifferential's residuals are cocycles).  At order 2 the class depends
    on eta_1 alone.  At order r >= 3 it holds only for the chosen
    eta_2..eta_{r-1}: the order-r residual is affine in eta_{r-1}, and
    adding a closed 2-form to it can make the residual exact.  `h3` must be
    H^3 of a complex built for `inst` itself, eta_1 a closed 2-form and
    `order` an int at least 1, else ValueError.
    """
    if not _is_int(order) or order < 1:
        raise ValueError(f"the extension order must be an int at least 1, got {order!r}")
    h3 = _closed_h3(inst, eta1, h3)
    coeffs = [eta1]
    for r in range(2, order + 1):
        curve = [section_to_vector(inst, s) for s in coeffs]
        residual = vector_to_section(inst, curve_coefficient(h3.complex.Q, curve, r))
        if residual.is_zero():
            coeffs.append(inst.context.zero_section())
            continue
        split = h3._split(residual)
        if split is None:
            raise ValueError(f"the order-{r} residual is not a cocycle")
        prim, cls = split
        if any(cls):
            return FormalCurve(inst, coeffs, obstructed_at=r, obstruction_class=cls,
                               obstruction_representative=h3.representative(cls))
        coeffs.append(-h3.complex.coords_to_form(prim, 2))
    return FormalCurve(inst, coeffs)


# --- seeded fixture searches -----------------------------------------------


def _random_point_instance(rng: random.Random, context: ContactContext,
                           name: str) -> SplitCJInstance:
    """A random small-coefficient candidate with flat (phi = 0) A side, built in `context`."""
    n = context.n
    def val():
        return rng.randint(-1, 1)

    kw = dict(c={}, lam={}, c_dual={}, lam_dual={}, psi={})
    for a in range(n):
        if rng.random() < 0.4:
            kw["lam"][a] = val()
        if rng.random() < 0.4:
            kw["lam_dual"][a] = val()
    for cc in range(n):
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < 0.35:
                kw["c"][(cc, a, b)] = val()
            if rng.random() < 0.35:
                kw["c_dual"][(cc, a, b)] = val()
    for a, b, cc in itertools.combinations(range(n), 3):
        if rng.random() < 0.3:
            kw["psi"][(a, b, cc)] = val()
    return SplitCJInstance(0, n, name=name, context=context, **kw)


# Rank of the instances the obstructed-fixture search builds.
SEARCH_RANK = 3


def search_obstructed_instance(seed: int = 42, tries: int = 2000
                               ) -> Tuple[SplitCJInstance, DeformationForm, Vec]:
    """Seeded search for a valid instance with an obstructed 2-cocycle.

    Scans small rational instances of rank SEARCH_RANK with flat A side,
    keeps those satisfying the structure equation exactly, and returns the
    first one where some cohomology representative (or a small combination)
    has nonzero Kuranishi class.  Deterministic for a fixed seed.  Every
    candidate of one search is built in one shared `ContactContext`, so the
    rejected ones do not each pay for a fresh algebra, mirror and memos; the
    context changes no value, and each seed finds the same instance as with
    a context per candidate.  `tries` that is not an int at least 1 raises
    ValueError.
    """
    if not _is_int(tries) or tries < 1:
        raise ValueError(f"the search needs an int of at least 1 try, got {tries!r}")
    rng = random.Random(seed)
    context = ContactContext(0, SEARCH_RANK)
    for attempt in range(tries):
        inst = _random_point_instance(rng, context, f"search-{seed}-{attempt}")
        if not jacobi_bracket(inst.theta, inst.theta).is_zero():
            continue
        try:
            cm = ComplexMatrices(inst)
        except NotFlat:
            continue
        h2 = cohomology(inst, 2, cm)
        h3 = cohomology(inst, 3, cm)
        if h2.dimension == 0 or h3.dimension == 0:
            continue
        candidates = list(h2.representatives)
        for r1, r2 in itertools.combinations(h2.representatives, 2):
            candidates.append(r1 + r2)
        for cand in candidates:
            coords, rep = kuranishi(inst, cand, h3)
            if any(coords):
                if not check_cj_axioms(inst).ok:
                    break
                eta = DeformationForm.from_section(inst, cand)
                inst.name = f"OBST1(seed={seed})"
                return inst, eta, coords
    raise RuntimeError(f"no obstructed instance found in {tries} tries (seed {seed})")
