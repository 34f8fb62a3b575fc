"""Deformation workflow: exact linear algebra, cohomology, Kuranishi, extension."""

import itertools
import random
from fractions import Fraction

import pytest

from cjde.cjalg import (
    DeformationForm,
    SplitCJInstance,
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
    NotFlat,
    UnsupportedBase,
    cohomology,
    extend_mc,
    kuranishi,
    mc_residual_coefficients,
    nullspace,
    rref,
    search_obstructed_instance,
    search_unobstructed_dgla,
    solve_linear,
)

from conftest import ordered_curve_coefficient

F = Fraction


# --- exact linear algebra ---------------------------------------------------


def test_rref_and_nullspace():
    M = [[F(2), F(4), F(2)], [F(1), F(2), F(3)]]
    red, pivots = rref(M)
    assert pivots == [0, 2]
    null = nullspace(M, 3)
    assert len(null) == 1
    v = null[0]
    for row in M:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_rref_exact_on_int_input():
    # the pivot division used to turn an int matrix into floats
    def exact(rows):
        return all(type(x) in (int, F) for row in rows for x in row)

    red, pivots = rref([[2, 1], [1, 1]])
    assert red == [[1, 0], [0, 1]] and pivots == [0, 1] and exact(red)
    red, pivots = rref([[3, 1], [6, 2]])
    assert red == [[1, F(1, 3)], [0, 0]] and pivots == [0] and exact(red)
    null = nullspace([[3, 1]], 2)
    assert null == [[F(-1, 3), 1]] and exact(null)
    x = solve_linear([[3, 0], [0, 7]], [1, 2])
    assert x == [F(1, 3), F(2, 7)] and exact([x])


def test_solve_linear():
    M = [[F(1), F(2)], [F(3), F(4)]]
    x = solve_linear(M, [F(5), F(11)])
    assert x == [F(1), F(2)]
    assert solve_linear([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)]) is None
    # deterministic: free variables are zero
    x = solve_linear([[F(1), F(1)]], [F(3)])
    assert x == [F(3), F(0)]


def test_random_linear_roundtrip():
    rng = random.Random(0)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        x = [F(rng.randint(-3, 3)) for _ in range(cols)]
        rhs = [sum(M[i][j] * x[j] for j in range(cols)) for i in range(rows)]
        sol = solve_linear(M, rhs)
        assert sol is not None
        assert [sum(M[i][j] * sol[j] for j in range(cols)) for i in range(rows)] == rhs
        for v in nullspace(M, cols):
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
    assert h2.is_exact(z)
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
    "mc_residual_form": (lambda inst, eta: mc_residual_form(inst, eta), "degree 0"),
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


# --- seeded searches -------------------------------------------------------------


def test_search_obstructed_reproducible():
    inst, eta, coords = search_obstructed_instance(seed=42)
    assert check_cj_axioms(inst).ok
    assert any(coords)
    curve = extend_mc(inst, eta, 3)
    assert curve.obstructed_at == 2
    # frozen fixture contents (what fixtures/obst1.json records)
    ctx = inst.context
    assert inst.c_dual[0][0][2] == -ctx.algebra.one()
    assert inst.c_dual[0][1][2] == -ctx.algebra.one()
    again, eta2, coords2 = search_obstructed_instance(seed=42)
    assert coords2 == coords
    assert eta2.body.terms == eta.body.terms


def test_search_dgla_reproducible():
    inst, eta = search_unobstructed_dgla()
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
