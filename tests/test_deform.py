"""Deformation workflow: exact linear algebra, cohomology, Kuranishi, extension."""

import itertools
import random
from fractions import Fraction

import pytest

import cjde.deform as deform_module
from cjde.cjalg import (
    DeformationForm,
    SplitCJInstance,
    change_complement,
    check_cj_axioms,
    de_rham,
    graph_frame,
    m2_closed,
    m3_closed,
    mc_residual_form,
    section_to_vector,
    vector_to_section,
)
from cjde.contact import Section, jacobi_bracket
from cjde.deform import (
    ComplexMatrices,
    LinearSystem,
    NotFlat,
    UnsupportedBase,
    cohomology,
    extend_mc,
    kuranishi,
    mc_residual_coefficients,
    nullspace,
    rref,
    search_obstructed_instance,
)

from conftest import load_fixture, ordered_curve_coefficient

F = Fraction


# --- exact linear algebra ---------------------------------------------------


def test_rref_and_nullspace():
    M = [{0: F(2), 1: F(4), 2: F(2)}, {0: F(1), 1: F(2), 2: F(3)}]
    red, pivots = rref(M)
    assert pivots == [0, 2]
    null = nullspace(M, 3)
    assert len(null) == 1
    v = null[0]
    for row in M:
        assert sum(a * v[j] for j, a in row.items()) == 0


def test_rref_exact_on_int_input():
    # the pivot division used to turn an int matrix into floats
    def exact(*vectors):
        return all(type(x) in (int, F) for v in vectors for x in v)

    red, pivots = rref([{0: 2, 1: 1}, {0: 1, 1: 1}])
    assert red == [{0: 1}, {1: 1}] and pivots == [0, 1]
    assert exact(*(row.values() for row in red))
    # a dependent row reduces to nothing and is left out
    red, pivots = rref([{0: 3, 1: 1}, {0: 6, 1: 2}])
    assert red == [{0: 1, 1: F(1, 3)}] and pivots == [0]
    assert exact(*(row.values() for row in red))
    null = nullspace([{0: 3, 1: 1}], 2)
    assert null == [[F(-1, 3), 1]] and exact(*null)
    x = LinearSystem([{0: 3}, {1: 7}], 2).solve([1, 2])
    assert x == [F(1, 3), F(2, 7)] and exact(x)


def test_solve_linear():
    M = [{0: F(1), 1: F(2)}, {0: F(3), 1: F(4)}]
    x = LinearSystem(M, 2).solve([F(5), F(11)])
    assert x == [F(1), F(2)]
    assert LinearSystem([{0: F(1), 1: F(1)}, {0: F(1), 1: F(1)}], 2).solve([F(0), F(1)]) is None
    # deterministic: free variables are zero
    x = LinearSystem([{0: F(1), 1: F(1)}], 2).solve([F(3)])
    assert x == [F(3), F(0)]


def test_elimination_rejects_entries_outside_the_columns_and_rhs_of_another_length():
    # nullspace used to return [[-2, 1]], which is not in the kernel, and
    # the solve [1, 0], dropping the equation 0 = 2
    with pytest.raises(ValueError, match="column 2"):
        nullspace([{0: 1, 1: 2, 2: 3}], 2)
    with pytest.raises(ValueError, match="column -1"):
        nullspace([{-1: 1}], 2)
    # column 2 is where the identity block of [M | I] starts
    with pytest.raises(ValueError, match="column 2"):
        LinearSystem([{0: 1, 2: 1}], 2)
    for rhs in ([1, 2], []):
        with pytest.raises(ValueError, match="rhs"):
            LinearSystem([{0: 1}], 2).solve(rhs)


def test_random_linear_roundtrip():
    rng = random.Random(0)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        sparse = [{j: a for j, a in enumerate(row) if a} for row in M]
        x = [F(rng.randint(-3, 3)) for _ in range(cols)]
        rhs = [sum(M[i][j] * x[j] for j in range(cols)) for i in range(rows)]
        sol = LinearSystem(sparse, cols).solve(rhs)
        assert sol is not None
        assert [sum(M[i][j] * sol[j] for j in range(cols)) for i in range(rows)] == rhs
        for v in nullspace(sparse, cols):
            assert all(sum(M[i][j] * v[j] for j in range(cols)) == 0
                       for i in range(rows))


# --- complex and cohomology ---------------------------------------------------


def test_complex_requires_point_base(omni1):
    with pytest.raises(UnsupportedBase):
        ComplexMatrices(omni1)


def test_complex_rejects_non_flat():
    bad = SplitCJInstance(0, 2, lam={0: 1, 1: 1}, c={(1, 0, 1): 1})
    with pytest.raises(NotFlat):
        ComplexMatrices(bad)


def test_cohomology_abelian_trivial_rep():
    ab = SplitCJInstance(0, 3)
    dims = [cohomology(ab, k).dimension for k in range(4)]
    assert dims == [1, 3, 3, 1]


def test_cohomology_heis2(heis2):
    # nontrivial weight kills everything
    assert [cohomology(heis2, k).dimension for k in range(3)] == [0, 0, 0]


def test_cohomology_decision_procedure(dgla1):
    cm = ComplexMatrices(dgla1)
    h2 = cohomology(dgla1, 2, cm)
    h3 = cohomology(dgla1, 3, cm)
    assert h3.dimension == 0
    # d of any 1-form is exact by construction; primitive is exact and deterministic
    ctx = dgla1.context
    one_form = ctx.section(ctx.u(0) + ctx.u(1).scale(F(2)))
    z = de_rham(dgla1, one_form)
    assert not any(h2.class_coordinates(z))
    prim = h2.primitive(z)
    assert prim is not None
    assert de_rham(dgla1, prim) == z
    # re-running yields the identical primitive (pivot determinism)
    assert h2.primitive(z) == prim


def test_cohomology_representatives_are_cocycles(obst1):
    cm = ComplexMatrices(obst1)
    for k in range(4):
        h = cohomology(obst1, k, cm)
        for r in h.representatives:
            assert de_rham(obst1, r).is_zero()
        # class coordinates of a representative are a unit vector
        for i, r in enumerate(h.representatives):
            coords = h.class_coordinates(r)
            assert coords[i] == 1
            assert all(c == 0 for j, c in enumerate(coords) if j != i)


def test_cohomology_rejects_degrees_outside_the_complex(dgla1):
    top = dgla1.context.section(dgla1.context.u(0) * dgla1.context.u(1) * dgla1.context.u(2))
    with pytest.raises(ValueError, match="degree"):
        cohomology(dgla1, -1)
    h4 = cohomology(dgla1, 4)
    assert (h4.dimension, h4.representatives) == (0, [])
    with pytest.raises(ValueError, match="top degree"):
        h4.primitive(top)


def test_coordinates_of_another_length_are_rejected(dgla1):
    # zip against the basis used to drop extra coordinates and pad missing ones
    cm = ComplexMatrices(dgla1)
    h1 = cohomology(dgla1, 1, cm)
    assert h1.dimension == 1
    assert h1.representative([2]) == h1.representatives[0].scale(2)
    for coords in ([1, 5, 7, 9], [1, 5], []):
        with pytest.raises(ValueError, match="coordinates"):
            h1.representative(coords)
    assert len(cm.basis[2]) == 3
    for coords in ([1, 2, 3, 4, 5], [1, 2]):
        with pytest.raises(ValueError, match="coordinates"):
            cm.coords_to_form(coords, 2)


@pytest.mark.parametrize("k, alias", [(-1, 3), (-3, 1), (True, 1), (4, 3), (5, 3),
                                      (2.0, 2), ("2", 2), (None, 0)])
def test_form_coordinates_reject_degrees_outside_the_complex(dgla1, k, alias):
    # a degree that is not an int in 0..n used to index basis[k] directly:
    # coords_to_form([1], -1) gave the top form (u1*u2*u3)*mu, and
    # form_to_coords of that form at -1 gave [1]; `alias` is a valid degree
    # whose coordinates and form are offered, so only the check can refuse
    cm = ComplexMatrices(dgla1)
    assert dgla1.n == 3
    coords = [F(1)] + [F(0)] * (len(cm.basis[alias]) - 1)
    form = cm.coords_to_form(coords, alias)
    with pytest.raises(ValueError, match="degree"):
        cm.coords_to_form(coords, k)
    with pytest.raises(ValueError, match="degree"):
        cm.form_to_coords(form, k)


POINT_FIXTURES = ["curv1", "dgla1", "djmix", "djmix4", "heis2", "obst1"]


def basis_forms(cm, k):
    """Each degree-k `form_basis` word of the complex as a form."""
    return [cm.coords_to_form([F(w == v) for w in cm.basis[k]], k) for v in cm.basis[k]]


@pytest.mark.parametrize("name", POINT_FIXTURES)
def test_cohomology_splits_a_cocycle_into_exact_part_and_class(name):
    # z = d(b) + sum_i c_i rep_i on seeded cocycles in every degree; the
    # primitive of an exact form is the pivot-column solution against d_{k-1}
    inst = load_fixture(name).instance
    cm = ComplexMatrices(inst)
    rng = random.Random(2900)
    for k in range(inst.n + 1):
        h = cohomology(inst, k, cm)
        for _ in range(4):
            c = [F(rng.randint(-2, 2)) for _ in range(h.dimension)]
            exact = inst.context.zero_section()
            if k:
                b = [F(rng.randint(-2, 2)) for _ in cm.basis[k - 1]]
                exact = cm.d(cm.coords_to_form(b, k - 1))
            z = exact + h.representative(c)
            assert h.class_coordinates(z) == c
            if not k:
                continue
            prim = h.primitive(exact)
            assert cm.d(prim) == exact
            coords = cm.form_to_coords(exact, k)
            assert prim == cm.coords_to_form(
                LinearSystem(cm.matrices[k - 1], len(cm.basis[k - 1])).solve(coords), k - 1)
            if any(c):
                assert h.primitive(z) is None


@pytest.mark.parametrize("name", POINT_FIXTURES)
def test_cohomology_rejects_representatives_and_non_cocycles(name):
    inst = load_fixture(name).instance
    cm = ComplexMatrices(inst)
    non_cocycles = 0
    for k in range(inst.n + 1):
        h = cohomology(inst, k, cm)
        for r in h.representatives:
            assert not k or h.primitive(r) is None
        for s in basis_forms(cm, k):
            if cm.d(s).is_zero():
                continue
            non_cocycles += 1
            assert not k or h.primitive(s) is None
            with pytest.raises(ValueError, match="not a cocycle"):
                h.class_coordinates(s)
    # djmix, djmix4 and obst1 have d = 0: every form of theirs is a cocycle
    assert non_cocycles or not any(x for mat in cm.matrices for row in mat for x in row.values())


def test_extend_mc_solves_once_per_nonzero_residual(monkeypatch):
    # dgla1's eta1 has one nonzero residual, at order 2: its class and its
    # primitive come from one pass over H^3's kept elimination, and neither
    # the extension nor the Kuranishi map eliminates anything of its own
    eliminations, solves = [], []
    real_rref, real_solve = deform_module.rref, LinearSystem.solve

    def counting_rref(rows):
        eliminations.append(len(rows))
        return real_rref(rows)

    def counting_solve(system, rhs):
        solves.append(len(rhs))
        return real_solve(system, rhs)

    monkeypatch.setattr(deform_module, "rref", counting_rref)
    monkeypatch.setattr(LinearSystem, "solve", counting_solve)
    doc = load_fixture("dgla1")
    inst, eta = doc.instance, doc.deformations["eta1"]
    cm = ComplexMatrices(inst)
    for k in range(inst.n + 2):
        eliminations.clear()
        cohomology(inst, k, cm)
        assert len(eliminations) <= 2 and not solves
    h3 = cohomology(inst, 3, cm)
    eliminations.clear()
    curve = extend_mc(inst, eta, 6, h3)
    assert curve.ok and curve.order() == 6
    assert (eliminations, len(solves)) == ([], 1)
    kuranishi(inst, eta, h3)
    assert (eliminations, len(solves)) == ([], 2)


def test_extend_mc_rejects_a_residual_that_is_not_a_cocycle(monkeypatch):
    # the residuals of a codifferential are closed; one that is not closed has
    # no class, and is an error rather than an obstruction
    inst = SplitCJInstance(0, 4, lam={0: 1})
    cm = ComplexMatrices(inst)
    open_form = next(s for s in basis_forms(cm, 3) if not cm.d(s).is_zero())
    monkeypatch.setattr(deform_module, "curve_coefficient",
                        lambda Q, curve, r: section_to_vector(inst, open_form))
    eta = DeformationForm.from_dict(inst, {(0, 1): 1})
    with pytest.raises(ValueError, match="order-2 residual is not a cocycle"):
        extend_mc(inst, eta, 2)


def test_complex_of_another_instance_is_rejected(obst1, djmix):
    """A complex or H^3 built for djmix must not stand in for obst1's."""
    eta = DeformationForm.from_dict(obst1, {(1, 2): 1})
    cm, h3 = ComplexMatrices(djmix), cohomology(djmix, 3)
    for call in (lambda: cohomology(obst1, 3, cm), lambda: kuranishi(obst1, eta, h3),
                 lambda: extend_mc(obst1, eta, 3, h3=h3)):
        with pytest.raises(ValueError, match="'DJMIX'.*'OBST1'"):
            call()
    assert extend_mc(obst1, eta, 3, h3=cohomology(obst1, 3)).obstructed_at == 2


@pytest.mark.parametrize("k", [2, 4])
def test_cohomology_of_another_degree_is_rejected(obst1, k):
    """The Kuranishi map and the extension read classes in H^3 and no other H^k."""
    eta = DeformationForm.from_dict(obst1, {(1, 2): 1})
    hk = cohomology(obst1, k)
    for call in (lambda: kuranishi(obst1, eta, hk), lambda: extend_mc(obst1, eta, 3, h3=hk)):
        with pytest.raises(ValueError, match=f"degree 3.*degree {k}"):
            call()


# --- Kuranishi map ------------------------------------------------------------


def test_kuranishi_dual_trivial(heis2):
    # m2 = 0: the map vanishes on every closed form
    eta = DeformationForm.from_dict(heis2, {(0, 1): 1})
    coords, rep = kuranishi(heis2, eta)
    assert not any(coords) and rep.is_zero()


def test_kuranishi_requires_closed(dgla1):
    ctx = dgla1.context
    not_closed = DeformationForm.from_dict(dgla1, {(1, 2): 1})
    if de_rham(dgla1, not_closed).is_zero():
        pytest.skip("chosen form unexpectedly closed")
    with pytest.raises(ValueError):
        kuranishi(dgla1, not_closed)


def test_kuranishi_obstructed(obst1):
    eta = DeformationForm.from_dict(obst1, {(1, 2): 1})
    coords, rep = kuranishi(obst1, eta)
    assert any(coords)
    assert not rep.is_zero()


def test_kuranishi_class_independence(obst1):
    """Kur[eta + d xi] = Kur[eta]: the map descends to cohomology."""
    rng = random.Random(1)
    cm = ComplexMatrices(obst1)
    h3 = cohomology(obst1, 3, cm)
    for _ in range(10):
        eta = DeformationForm.from_dict(
            obst1, {(a, b): F(rng.randint(-2, 2))
                    for a, b in itertools.combinations(range(3), 2)})
        if not de_rham(obst1, eta).is_zero():
            continue
        xi = obst1.context.section(
            obst1.context.u(0).scale(rng.randint(-2, 2))
            + obst1.context.u(2).scale(rng.randint(-2, 2)))
        shifted = eta + de_rham(obst1, xi)
        c1, _ = kuranishi(obst1, eta, h3)
        c2, _ = kuranishi(obst1, shifted, h3)
        assert c1 == c2


# --- order-by-order extension ---------------------------------------------------


@pytest.mark.parametrize("name, entries", [("dgla1", {(0, 2): 1}), ("obst1", {(1, 2): 1})])
def test_deformation_form_is_a_section(name, entries, request):
    # a 2-form goes into the bracket and the deformation workflow as it is
    inst = request.getfixturevalue(name)
    eta = DeformationForm.from_dict(inst, entries)
    assert isinstance(eta, Section)
    sec = Section(inst.context, eta.body)
    assert jacobi_bracket(eta, inst.theta) == jacobi_bracket(sec, inst.theta)
    assert graph_frame(inst, eta) == graph_frame(inst, sec)
    assert kuranishi(inst, eta) == kuranishi(inst, sec)
    curve, expected = extend_mc(inst, eta, 3), extend_mc(inst, sec, 3)
    assert (curve.coefficients, curve.obstructed_at, curve.obstruction_class) == \
        (expected.coefficients, expected.obstructed_at, expected.obstruction_class)
    assert DeformationForm.from_section(inst, sec) == eta


def test_from_section_rejects_a_form_of_another_degree(dgla1):
    ctx = dgla1.context
    for body in (ctx.u(0), ctx.u(0) * ctx.u(1) * ctx.u(2), ctx.pa(0) * ctx.pa(1)):
        with pytest.raises(ValueError):
            DeformationForm.from_section(dgla1, Section(ctx, body))


def test_extension_trivial_when_abelian(heis2):
    """m2 = m3 = 0: eta_t = t eta_1 exactly (higher coefficients vanish)."""
    eta = DeformationForm.from_dict(heis2, {(0, 1): F(5, 3)})
    curve = extend_mc(heis2, eta, 4)
    assert curve.ok
    assert curve.coefficients[0] == eta
    assert all(c.is_zero() for c in curve.coefficients[1:])


def test_extension_obstructed_at_two(obst1):
    eta = DeformationForm.from_dict(obst1, {(1, 2): 1})
    curve = extend_mc(obst1, eta, 4)
    assert not curve.ok
    assert curve.obstructed_at == 2
    assert any(curve.obstruction_class)
    assert not curve.obstruction_representative.is_zero()



def test_order_three_obstruction_depends_on_the_chosen_eta2():
    """aff_1 + aff_1 on the dual side, with its complement changed: extend_mc's
    eta_2 = 0 leaves an order-3 class, but eta_2 = -4 u1 u4 makes the residual
    vanish through t^3.  So an obstruction at order >= 3 holds only for the
    chosen lower coefficients, as extend_mc's docstring says."""
    base = SplitCJInstance(0, 4, c_dual={(0, 0, 1): 1, (2, 2, 3): 1})
    inst = change_complement(base, {(1, 2): 1})["instance"]
    eta1 = DeformationForm.from_dict(inst, {(0, 1): 2, (2, 3): 2})
    curve = extend_mc(inst, eta1, 6)
    assert curve.obstructed_at == 3
    assert curve.obstruction_class == [0, 0, -8, 0]
    assert curve.coefficients[1].is_zero()
    eta2 = DeformationForm.from_dict(inst, {(0, 3): -4})
    assert all(r.is_zero() for r in mc_residual_coefficients(inst, [eta1, eta2], 3))

def test_extension_dgla_to_order_four(dgla1):
    cm = ComplexMatrices(dgla1)
    h2 = cohomology(dgla1, 2, cm)
    h3 = cohomology(dgla1, 3, cm)
    assert h3.dimension == 0
    eta = DeformationForm.from_dict(dgla1, {(0, 2): 1})
    assert de_rham(dgla1, eta).is_zero()
    coords, _ = kuranishi(dgla1, eta, h3)
    assert not any(coords)
    curve = extend_mc(dgla1, eta, 4, h3=h3)
    assert curve.ok
    # a genuinely nonzero correction is needed at order 2
    assert not curve.coefficients[1].is_zero()
    residuals = mc_residual_coefficients(dgla1, curve.coefficients, 4)
    assert all(r.is_zero() for r in residuals)


def test_extension_requires_closed(dgla1):
    eta = DeformationForm.from_dict(dgla1, {(1, 2): 1})
    if de_rham(dgla1, eta).is_zero():
        pytest.skip("chosen form unexpectedly closed")
    with pytest.raises(ValueError):
        extend_mc(dgla1, eta, 3)


def test_order1_condition_is_closedness(dgla1):
    """The order-1 coefficient of the residual is exactly d eta_1."""
    rng = random.Random(2)
    for _ in range(5):
        eta = DeformationForm.from_dict(
            dgla1, {(a, b): F(rng.randint(-2, 2))
                    for a, b in itertools.combinations(range(3), 2)})
        res = mc_residual_coefficients(dgla1, [eta], 2)
        assert res[0] == de_rham(dgla1, eta)
        # order-2 residual is the second-derivative identity term
        assert res[1] == m2_closed(dgla1, eta, eta).scale(F(1, 2))


def closed_route_bracket(inst):
    """d, m2_closed and m3_closed on whole sections, read as a bracket on vectors."""
    ops = {1: lambda s: de_rham(inst, s),
           2: lambda s, t: m2_closed(inst, s, t),
           3: lambda s, t, w: m3_closed(inst, s, t, w)}

    def bracket(vectors):
        sections = [vector_to_section(inst, v) for v in vectors]
        return section_to_vector(inst, ops[len(sections)](*sections))
    return bracket


@pytest.fixture
def djmix4():
    # rank 4, so that the ternary bracket survives on 2-forms: in rank 3 the
    # arity-3 terms of a 2-form curve cancel (a 3x3 skew matrix has det 0)
    inst = SplitCJInstance(0, 4, c_dual={(2, 0, 1): 1}, psi={(0, 1, 2): 1, (1, 2, 3): -1},
                           name="DJMIX4")
    assert check_cj_axioms(inst).ok
    return inst


@pytest.mark.parametrize("name", ["djmix", "obst1", "djmix4"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mc_residual_coefficients_match_ordered_expansion(name, seed, request):
    inst = request.getfixturevalue(name)
    rng = random.Random(seed)
    coeffs = [DeformationForm.from_dict(
        inst, {(a, b): F(rng.randint(-2, 2), rng.randint(1, 2))
               for a, b in itertools.combinations(range(inst.n), 2)})
        for _ in range(3)]
    curve = [section_to_vector(inst, s) for s in coeffs]
    bracket = closed_route_bracket(inst)
    got = mc_residual_coefficients(inst, coeffs, 6)
    assert len(got) == 6
    for r, coefficient in enumerate(got, 1):
        expected = ordered_curve_coefficient((1, 2, 3), bracket, curve, r)
        assert coefficient == vector_to_section(inst, expected)
    arity3 = [ordered_curve_coefficient((3,), bracket, curve, r) for r in range(3, 7)]
    assert any(arity3) == (inst.n == 4)


def test_curved_instance_accepts_a_closed_form(curv1):
    # closedness reads m_1 alone: the curvature m_0 of CURV1 does not enter
    ctx = curv1.context
    eta = Section(ctx, ctx.u(0) * ctx.u(1))
    cm = ComplexMatrices(curv1)
    assert cm.d(eta).is_zero() and not cm.Q.coefficient(0, ()) == {}
    coords, rep = kuranishi(curv1, eta)
    assert coords == [] and rep.is_zero()
    curve = extend_mc(curv1, eta, 3)
    assert curve.ok and curve.order() == 3


NOT_2_FORM_CALLS = {
    "graph_frame": (lambda inst, eta: graph_frame(inst, eta), "2-form"),
    "kuranishi": (lambda inst, eta: kuranishi(inst, eta), "2-form"),
    "extend_mc": (lambda inst, eta: extend_mc(inst, eta, 3), "2-form"),
    "mc_residual_coefficients": (lambda inst, eta: mc_residual_coefficients(inst, [eta], 2),
                                 "2-form"),
    "mc_residual_form": (lambda inst, eta: mc_residual_form(inst, eta), "2-form"),
}


@pytest.mark.parametrize("call", sorted(NOT_2_FORM_CALLS))
@pytest.mark.parametrize("name, form", [("djmix4", "top"), ("djmix4", "one"), ("heis2", "one")])
def test_eta_must_be_a_2_form(name, form, call, request):
    """A closed 4-form or 0-form has no Maurer-Cartan residual, graph or class:
    each of these used to return an answer for it."""
    inst = request.getfixturevalue(name)
    ctx = inst.context
    body = ctx.algebra.one()
    if form == "top":
        for a in range(inst.n):
            body = body * ctx.u(a)
    function, message = NOT_2_FORM_CALLS[call]
    with pytest.raises(ValueError, match=message):
        function(inst, Section(ctx, body))


@pytest.mark.parametrize("order", [0, -3])
def test_extend_mc_rejects_order_below_one(obst1, order):
    eta = DeformationForm.from_dict(obst1, {(1, 2): 1})
    with pytest.raises(ValueError, match="order"):
        extend_mc(obst1, eta, order)


@pytest.mark.parametrize("order", [-1, -2])
def test_mc_residual_coefficients_rejects_order_below_zero(obst1, order):
    eta = DeformationForm.from_dict(obst1, {(1, 2): 1})
    with pytest.raises(ValueError, match="order"):
        mc_residual_coefficients(obst1, [eta], order)
    assert mc_residual_coefficients(obst1, [eta], 0) == []


@pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "2", None])
def test_a_degree_or_order_that_is_not_an_int_is_rejected(obst1, value):
    # a bool is an int to Python, so it must be rejected explicitly, or True
    # reads as degree or order 1
    eta = DeformationForm.from_dict(obst1, {(1, 2): 1})
    for call in (lambda: cohomology(obst1, value), lambda: extend_mc(obst1, eta, value),
                 lambda: mc_residual_coefficients(obst1, [eta], value)):
        with pytest.raises(ValueError, match=r"an int .*got " + repr(value)):
            call()


# --- seeded searches -------------------------------------------------------------


def test_search_obstructed_reproducible():
    inst, eta, coords = search_obstructed_instance(seed=42)
    assert check_cj_axioms(inst).ok
    assert any(coords)
    curve = extend_mc(inst, eta, 3)
    assert curve.obstructed_at == 2
    # frozen fixture contents (what fixtures/obst1.json records)
    ctx = inst.context
    assert inst.c_dual[0][(0, 2)] == -ctx.algebra.one()
    assert inst.c_dual[0][(1, 2)] == -ctx.algebra.one()
    again, eta2, coords2 = search_obstructed_instance(seed=42)
    assert coords2 == coords
    assert eta2.body.terms == eta.body.terms


def test_search_dgla_reproducible():
    # the frozen dgLa fixture: m_3 = 0, H^3 = 0 and eta1 = u1*u3 with m_2(eta1, eta1) != 0
    doc = load_fixture("dgla1")
    inst, eta = doc.instance, doc.deformations["eta1"]
    assert check_cj_axioms(inst).ok
    assert cohomology(inst, 3).dimension == 0
    assert not m2_closed(inst, eta, eta).is_zero()
    curve = extend_mc(inst, eta, 4)
    assert curve.ok


def test_search_obstructed_default_tries_cover_slow_seed():
    # with 400 tries this seed ran out before finding an obstructed instance
    inst, eta, coords = search_obstructed_instance(seed=12034)
    assert check_cj_axioms(inst).ok
    assert any(coords)
    assert inst.name == "OBST1(seed=12034)"


# a float or str used to raise a bare TypeError from range, and True ran one
# try and reported "no obstructed instance found in True tries"
@pytest.mark.parametrize("tries", [0, -3, 2.5, "3", True, None])
def test_search_obstructed_rejects_tries_below_one(tries):
    with pytest.raises(ValueError, match="at least 1 try"):
        search_obstructed_instance(seed=42, tries=tries)


# What each seed found when every candidate was built in a context of its own:
# the nonzero structure entries (c and c_dual keyed (cc, a, b) with a < b, psi
# with a < b < c), eta by monomial and the Kuranishi coordinates.  The
# benchmark's deform workload searches seeds 1000 + i and 7000 + i.
SEARCH_PINS = {
    1000: ({("c", 1, 0, 2): 1, ("c_dual", 0, 1, 2): -1, ("c_dual", 2, 1, 2): -1},
           {"u2*u3": 1}, [-2]),
    1001: ({("c_dual", 2, 1, 2): -1}, {"u1*u2": 1, "u2*u3": 1}, [-2]),
    1002: ({("c_dual", 0, 0, 1): 1, ("lam_dual", 1): 1}, {"u1*u2": 1, "u2*u3": 1}, [2]),
    1003: ({("c_dual", 0, 0, 1): 1, ("c_dual", 2, 1, 2): 1}, {"u1*u2": 1, "u2*u3": 1}, [4]),
    1004: ({("c", 1, 0, 1): 1, ("lam", 0): 1, ("c_dual", 2, 1, 2): -1, ("lam_dual", 2): -1,
            ("psi", 0, 1, 2): -1}, {"u1*u2": 1, "u2*u3": 1}, [-2]),
    1005: ({("c_dual", 0, 0, 2): -1, ("c_dual", 0, 1, 2): -1}, {"u2*u3": 1}, [-2]),
    7000: ({("c_dual", 1, 0, 1): -1, ("c_dual", 1, 0, 2): 1, ("c_dual", 2, 0, 1): 1,
            ("lam_dual", 0): 1}, {"u1*u2": 1}, [2]),
    7001: ({("c_dual", 2, 0, 2): -1, ("lam_dual", 1): 1}, {"u1*u2": 1, "u1*u3": 1}, [-2]),
}


def nonzero_structure_entries(inst):
    """The nonzero constant entries of a point-base instance, one per independent key."""
    out = {}
    for name in ("lam", "lam_dual", "c", "c_dual", "phi", "psi"):
        stored = getattr(inst, name)
        # c and c_dual are lists over cc of 2-tensors, the others one tensor
        rows = [((cc,), t) for cc, t in enumerate(stored)] if isinstance(stored, list) \
            else [((), stored)]
        for head, tensor in rows:
            for key, entry in tensor.items():
                assert set(entry.terms) == {()}
                out[(name,) + head + key] = entry.terms[()]
    return out


@pytest.mark.parametrize("seed", sorted(SEARCH_PINS))
def test_search_obstructed_finds_the_pinned_instance(seed):
    entries, eta_terms, coords = SEARCH_PINS[seed]
    inst, eta, found = search_obstructed_instance(seed=seed)
    assert inst.name == f"OBST1(seed={seed})"
    assert nonzero_structure_entries(inst) == entries
    alg = inst.context.algebra
    assert {alg.monomial_str(mono): c for mono, c in eta.body.terms.items()} == eta_terms
    assert found == coords
