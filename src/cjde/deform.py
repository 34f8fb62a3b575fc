"""Deformation workflow over point-base instances, read off the L-infinity algebra.

`ComplexMatrices` owns the closed-route structure of the instance,
`Q = deformation_brackets(inst, "closed")`, the codifferential with m_1 =
d_{A,L}, m_2 and m_3 memoised per word.  Over a point base the L-valued form
spaces are finite dimensional, so m_1 becomes exact rational matrices on the
`form_basis` words (u^{a_1}...u^{a_k} with a_1 < ... < a_k, the keys of
`deformation_space`).  Kernels, images and cohomology representatives come
from Gauss-Jordan elimination over Q, in exact `Fraction` arithmetic.

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
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .cjalg import (
    DeformationForm,
    SplitCJInstance,
    check_cj_axioms,
    deformation_brackets,
    derived_bracket_sections,
    form_basis,
    m2_closed,
    section_to_vector,
    vector_to_section,
)
from .contact import Section, jacobi_bracket
from .gca import add_into
from .linfty import Vector, curve_coefficient

__all__ = [
    "rref",
    "solve_linear",
    "nullspace",
    "ComplexMatrices",
    "Cohomology",
    "cohomology",
    "kuranishi",
    "FormalCurve",
    "extend_mc",
    "mc_residual_coefficients",
    "search_obstructed_instance",
    "search_unobstructed_dgla",
]

Matrix = List[List[Fraction]]
Vec = List[Fraction]


# --- exact linear algebra ---------------------------------------------------


def rref(matrix: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form over Q; returns (R, pivot column list).

    Exact for any int or Fraction entries: the pivot row is divided by the
    pivot as a Fraction, so an int matrix never turns into floats.
    """
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = Fraction(m[r][c])
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(matrix: Matrix, cols: int) -> List[Vec]:
    """Basis of the right kernel, deterministic (free columns in order)."""
    if not matrix:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(cols)]
                for i in range(cols)]
    red, pivots = rref(matrix)
    free = [c for c in range(cols) if c not in pivots]
    basis: List[Vec] = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve_linear(matrix: Matrix, rhs: Vec) -> Optional[Vec]:
    """One solution of M x = rhs with free variables set to zero, or None.

    Deterministic: the particular solution is supported on the
    lexicographically first pivot columns of the reduced matrix.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0:
        return [Fraction(0)] * cols if not any(rhs) else None
    aug = [matrix[i][:] + [rhs[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def _transpose(matrix: Matrix) -> Matrix:
    """Rows become columns: also turns a list of column vectors into a matrix."""
    if not matrix:
        return []
    return [[row[j] for row in matrix] for j in range(len(matrix[0]))]


# --- the complex as matrices --------------------------------------------


class UnsupportedBase(ValueError):
    """Cohomology requires a point base (m = 0)."""


class NotFlat(ValueError):
    """The de Rham square is nonzero: the A side is not a Jacobi algebroid."""


class ComplexMatrices:
    """The complex (Omega(A;L), m_1) over a point base, as matrices degree by degree.

    `Q` is the closed-route structure; `matrices[k]` holds its m_1 on the
    degree-k `form_basis` words, and `d` applies m_1 to a section.
    """

    def __init__(self, inst: SplitCJInstance):
        if inst.m != 0:
            raise UnsupportedBase("cohomology is only computed over a point base")
        self.inst = inst
        self.n = inst.n
        self.basis = [form_basis(inst.context, k) for k in range(self.n + 1)]
        self.Q = deformation_brackets(inst, "closed")
        self.matrices: List[Matrix] = []
        for k in range(self.n + 1):
            rows = self.basis[k + 1] if k < self.n else []
            columns = [self.Q.coefficient(1, (mono,)) for mono in self.basis[k]]
            self.matrices.append([[col.get(mono, Fraction(0)) for col in columns]
                                  for mono in rows])
        for k in range(self.n - 1):
            if any(any(_apply(self.matrices[k + 1], col))
                   for col in _transpose(self.matrices[k])):
                raise NotFlat("d^2 != 0: the A side is not flat")

    def d(self, s: Section) -> Section:
        """m_1(s) from the arity-1 coefficient of `Q` alone: `Q.apply` would add m_0."""
        out: Vector = {}
        for mono, c in section_to_vector(self.inst, s).items():
            add_into(out, self.Q.coefficient(1, (mono,)), c)
        return vector_to_section(self.inst, out)

    def form_to_coords(self, s: Section, k: int) -> Vec:
        coords = [s.body.coefficient(mono) for mono in self.basis[k]]
        if self.coords_to_form(coords, k) != s:
            raise ValueError("section is not a homogeneous degree-k form")
        return coords

    def coords_to_form(self, coords: Vec, k: int) -> Section:
        return vector_to_section(self.inst, dict(zip(self.basis[k], coords)))


# --- cohomology ---------------------------------------------------------


@dataclass
class Cohomology:
    """H^k of the complex: dimension, representatives, and a decision procedure."""

    complex: ComplexMatrices
    k: int
    dimension: int
    representatives: List[Section]
    _rep_coords: List[Vec]
    _image_basis: List[Vec]

    def class_coordinates(self, s: Section) -> Vec:
        """Coordinates of [s] on the representative basis; requires a cocycle."""
        cm = self.complex
        if self.k > cm.n:
            if not s.is_zero():
                raise ValueError("nonzero form above the top degree")
            return []
        z = cm.form_to_coords(s, self.k)
        dk = cm.matrices[self.k]
        if dk and any(_apply(dk, z)):
            raise ValueError("not a cocycle")
        cols = self._image_basis + self._rep_coords
        if not cols:
            if any(z):
                raise ValueError("nonzero cocycle in zero space")
            return []
        sol = solve_linear(_transpose(cols), z)
        if sol is None:
            raise ValueError("cocycle not in span of image and representatives")
        return sol[len(self._image_basis):]

    def representative(self, coords: Sequence[Fraction]) -> Section:
        """The cocycle sum_i coords[i] * representatives[i]."""
        rep = self.complex.inst.context.zero_section()
        for c, r in zip(coords, self.representatives):
            rep = rep + r.scale(c)
        return rep

    def is_exact(self, s: Section) -> bool:
        return not any(self.class_coordinates(s))

    def primitive(self, s: Section) -> Optional[Section]:
        """A deterministic primitive of an exact cocycle, else None."""
        if self.k == 0:
            raise ValueError("0-forms have no primitives")
        cm = self.complex
        if self.k > cm.n:
            raise ValueError(f"degree {self.k} is above the top degree {cm.n}")
        z = cm.form_to_coords(s, self.k)
        d_prev = cm.matrices[self.k - 1]
        sol = solve_linear(d_prev, z)
        if sol is None:
            return None
        return cm.coords_to_form(sol, self.k - 1)


def _apply(mat: Matrix, v: Vec) -> Vec:
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in mat]


def _require_complex_of(inst: SplitCJInstance, cm: ComplexMatrices) -> None:
    """Raise ValueError unless `cm` was built for `inst` itself."""
    if cm.inst is not inst:
        raise ValueError(f"the complex was built for instance {cm.inst.name!r}, "
                         f"not for {inst.name!r}")


def _require_h3_of(inst: SplitCJInstance, h3: Cohomology) -> None:
    """Raise ValueError unless `h3` is H^3 of a complex built for `inst` itself."""
    _require_complex_of(inst, h3.complex)
    if h3.k != 3:
        raise ValueError(f"h3 must be the cohomology of degree 3, not of degree {h3.k}")


def cohomology(inst: SplitCJInstance, k: int,
               cm: Optional[ComplexMatrices] = None) -> Cohomology:
    """Exact H^k with representative basis completing the image inside the kernel.

    k must be >= 0; above the rank H^k is the zero space.
    """
    if k < 0:
        raise ValueError(f"cohomology degree must be >= 0, got {k}")
    cm = cm or ComplexMatrices(inst)
    _require_complex_of(inst, cm)
    if k > cm.n:
        return Cohomology(cm, k, 0, [], [], [])
    # d on the top degree is the empty matrix, whose kernel is everything
    kernel = nullspace(cm.matrices[k], len(cm.basis[k]))
    image = _transpose(cm.matrices[k - 1]) if k >= 1 else []

    # image columns first, then kernel vectors; pivots are picked greedily from
    # the left, so those past the image part are the representatives
    combined = image + kernel
    pivots = rref(_transpose(combined))[1] if combined else []
    img_red = [image[p] for p in pivots if p < len(image)]
    reps = [kernel[p - len(image)] for p in pivots if p >= len(image)]
    rep_secs = [cm.coords_to_form(v, k) for v in reps]
    return Cohomology(cm, k, len(reps), rep_secs, reps, img_red)


# --- Kuranishi map ------------------------------------------------------


def kuranishi(inst: SplitCJInstance, eta: Section,
              h3: Optional[Cohomology] = None) -> Tuple[Vec, Section]:
    """Class of m_2(eta,eta) in H^3; eta must be a d-closed 2-form.

    Returns (coordinates on the H^3 representatives, reduced representative).
    `h3` must be H^3 of a complex built for `inst` itself, else ValueError.
    """
    DeformationForm.from_section(inst, eta)
    h3 = h3 or cohomology(inst, 3)
    _require_h3_of(inst, h3)
    if not h3.complex.d(eta).is_zero():
        raise ValueError("eta is not closed")
    w = derived_bracket_sections(inst, [eta, eta])
    coords = h3.class_coordinates(w)
    return coords, h3.representative(coords)


# --- order-by-order extension --------------------------------------------


@dataclass
class FormalCurve:
    """Coefficients eta_1..eta_N of a formal MC curve, or the obstruction."""

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
    end count as zero.
    """
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
    `linfty.curve_coefficient` of `h3.complex.Q`) must be exact; its
    primitive (with the deterministic pivot choice) gives -eta_r.  A
    non-exact residual stops the extension and is reported as the
    obstruction class at that order.  `h3` must be H^3 of a complex built
    for `inst` itself, eta_1 a 2-form and `order` at least 1, else ValueError.
    """
    DeformationForm.from_section(inst, eta1)
    if order < 1:
        raise ValueError(f"the extension order must be at least 1, got {order}")
    h3 = h3 or cohomology(inst, 3)
    _require_h3_of(inst, h3)
    if not h3.complex.d(eta1).is_zero():
        raise ValueError("eta_1 must be an infinitesimal deformation (closed)")
    coeffs = [eta1]
    for r in range(2, order + 1):
        curve = [section_to_vector(inst, s) for s in coeffs]
        residual = vector_to_section(inst, curve_coefficient(h3.complex.Q, curve, r))
        if residual.is_zero():
            coeffs.append(inst.context.zero_section())
            continue
        cls = h3.class_coordinates(residual)
        if any(cls):
            return FormalCurve(inst, coeffs, obstructed_at=r, obstruction_class=cls,
                               obstruction_representative=h3.representative(cls))
        prim = h3.primitive(residual)
        if prim is None:
            raise RuntimeError("exact residual without primitive")
        coeffs.append(-prim)
    return FormalCurve(inst, coeffs)


# --- seeded fixture searches -----------------------------------------------


def _random_point_instance(rng: random.Random, n: int, name: str) -> SplitCJInstance:
    """A random small-coefficient candidate with flat (phi = 0) A side."""
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
    return SplitCJInstance(0, n, name=name, **kw)


# Rank of the instances the two fixture searches build; the dgLa search's
# A-side brackets name e_0, e_1 and e_2.
SEARCH_RANK = 3


def search_obstructed_instance(seed: int = 42, tries: int = 2000
                               ) -> Tuple[SplitCJInstance, DeformationForm, Vec]:
    """Seeded search for a valid instance with an obstructed 2-cocycle.

    Scans small rational instances of rank SEARCH_RANK with flat A side,
    keeps those satisfying the structure equation exactly, and returns the
    first one where some cohomology representative (or a small combination)
    has nonzero Kuranishi class.  Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    for attempt in range(tries):
        inst = _random_point_instance(rng, SEARCH_RANK, f"search-{seed}-{attempt}")
        theta = inst.theta
        if not jacobi_bracket(theta, theta).is_zero():
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


def search_unobstructed_dgla() -> Tuple[SplitCJInstance, DeformationForm]:
    """Deterministic search for a dgLa fixture: m_3 = 0, m_2 != 0, H^3 = 0.

    Enumerates solvable A-side brackets against single small dual-side slots,
    keeping the first combination that satisfies the structure equation, has
    vanishing H^3, and carries a closed 2-form with a genuinely nonzero
    binary bracket.  On such an instance every closed eta_1 extends to any
    order since the obstructions live in H^3.
    """
    aside_variants = [
        {"c": {(1, 0, 1): 1, (2, 0, 2): 1}, "lam": {}},
        {"c": {(1, 0, 1): 1, (2, 0, 2): 2}, "lam": {}},
        {"c": {(1, 0, 1): 1, (2, 0, 2): 1}, "lam": {0: 1}},
    ]
    n = SEARCH_RANK
    dual_slots = [("c_dual", (cc, a, b)) for cc in range(n)
                  for a, b in itertools.combinations(range(n), 2)]
    dual_slots += [("lam_dual", (a,)) for a in range(n)]
    for aside in aside_variants:
        base = SplitCJInstance(0, n, **aside)
        if not jacobi_bracket(base.theta, base.theta).is_zero():
            continue
        try:
            cm_base = ComplexMatrices(base)
        except NotFlat:
            continue
        if cohomology(base, n, cm_base).dimension != 0:
            continue
        for slot, key in dual_slots:
            for v in (1, -1):
                kw = {"c": dict(aside["c"]), "lam": dict(aside["lam"]),
                      "c_dual": {}, "lam_dual": {}}
                if slot == "c_dual":
                    kw["c_dual"][key] = v
                else:
                    kw["lam_dual"][key[0]] = v
                inst = SplitCJInstance(0, n, name="DGLA1", **kw)
                if not jacobi_bracket(inst.theta, inst.theta).is_zero():
                    continue
                cm = ComplexMatrices(inst)
                kern = nullspace(cm.matrices[2], len(cm.basis[2]))
                for kv in kern:
                    cand = cm.coords_to_form(kv, 2)
                    if m2_closed(inst, cand, cand).is_zero():
                        continue
                    if not check_cj_axioms(inst).ok:
                        break
                    return inst, DeformationForm.from_section(inst, cand)
    raise RuntimeError("no dgLa fixture found in the structured family")
