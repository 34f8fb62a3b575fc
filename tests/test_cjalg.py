"""Split Courant-Jacobi instances: Theta, axioms, derived operations,
deformation brackets, graphs, complement change, Cartan calculus."""

import itertools
import os
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cjde.cjalg import (
    DeformationForm,
    NotLagrangian,
    SplitCJInstance,
    build_theta,
    change_complement,
    check_cj_axioms,
    contact_vdata,
    courant_tensor,
    de_rham,
    de_rham_koszul,
    deformation_brackets,
    deformation_space,
    derived_bracket_sections,
    derived_operations,
    embed_anchored,
    epsilon_section,
    extract_instance,
    first_nonzero,
    gj_bracket_closed,
    graph_frame,
    iota,
    is_dirac_jacobi,
    lie_derivative,
    loday_bracket_formula,
    m2_closed,
    m2_sharp_closed,
    m3_closed,
    mc_residual_form,
    pairing,
    section_bracket_A,
    section_to_vector,
    split_anchored,
    upsilon_A_section,
    vector_to_section,
    word_to_sections,
)
import cjde.cjalg as cjalg_module
import cjde.contact as contact_module
from cjde.contact import ContactContext, Section, jacobi_bracket, legendre_pullback, project_P
from cjde.gca import Poly, add_into, koszul_sign
from cjde.linfty import check_codifferential, check_morphism, exp_coderivation, mc_residual
from cjde.vdata import higher_derived_bracket

from conftest import (FIXTURES, antisymmetric_entry, assert_m2_closed_on_two_words,
                      assert_routes_agree, basis_keys, dense_courant_tensor, load_fixture,
                      printed, random_base_poly, random_form_section, random_instance,
                      random_x_poly)


FIXTURE_NAMES = sorted(f[:-len(".json")] for f in os.listdir(FIXTURES) if f.endswith(".json"))


# --- Theta ------------------------------------------------------------------


def test_theta_heis2(heis2):
    ctx = heis2.context
    assert heis2.theta == Section(ctx, ctx.u(0) * ctx.p)


def test_theta_omni1(omni1):
    ctx = omni1.context
    assert omni1.theta == Section(ctx, ctx.u(0) * ctx.p + ctx.u(1) * ctx.pi(0))


def test_theta_zero():
    z = SplitCJInstance(0, 2)
    assert z.theta.is_zero()


def test_theta_bidegrees():
    rng = random.Random(0)
    inst = random_instance(rng, 1, 3)
    parts = set(inst.theta.body.bidegree_components())
    assert parts <= {(0, 3), (1, 2), (2, 1), (3, 0)}
    assert inst.theta.body.degree() == 3


def test_non_skew_utensor_rejected():
    # the sparse constructor antisymmetrizes; a repeated index must vanish
    ctx = ContactContext(0, 3)
    one = ctx.algebra.one()
    for phi, stored in (({(0, 1, 2): 1}, {(0, 1, 2): one}), ({(1, 0, 2): 1}, {(0, 1, 2): -one}),
                        ({(0, 1, 0): 1}, {}), ({(0, 1, 2): 1, (1, 2, 0): 2}, {(0, 1, 2): 3 * one}),
                        ({(0, 1, 2): 1, (2, 1, 0): 1}, {})):
        assert SplitCJInstance(0, 3, phi=phi, context=ctx).phi == stored
    # a cancelled entry's value is still validated: a point base has no x
    with pytest.raises(ValueError, match="exponent vector"):
        SplitCJInstance(0, 3, phi={(0, 1, 0): {(1,): 1}})


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        SplitCJInstance(0, 2, rho={(0, 0): 1})      # no base coordinates
    with pytest.raises(ValueError):
        SplitCJInstance(1, 2, c={(2, 0, 1): 1})     # frame index out of range
    with pytest.raises(ValueError):
        SplitCJInstance(1, 2, lam={5: 1})


@pytest.mark.parametrize("kw", [{"lam": {True: 1}}, {"lam": {1.0: 1}}, {"lam": {"a": 1}},
                                {"lam": {(False,): 1}}, {"c": {(0, 1.0, 0): 1}},
                                {"phi": {(0, 1, True): 1}}, {"rho": {(0, 1.0): 1}}])
def test_non_int_index_rejected(kw):
    # a bool is not an index (True would set lam_1), nor is 1.0 or "a"
    with pytest.raises(ValueError, match="ints in range"):
        SplitCJInstance(1, 2, **kw)


@pytest.mark.parametrize("kw", [{"c": {(True, 0, 1): 1}}, {"c": {(0, False, True): 1}},
                                {"c": {(0, 0, 2): 1}}, {"phi": {(0, 1, 2): 1}}])
def test_increasing_tail_is_still_validated(kw):
    # an antisymmetric tail already increasing is not sorted, but a bool or an
    # index out of range in it is still rejected
    with pytest.raises(ValueError, match="ints in range"):
        SplitCJInstance(0, 2, **kw)


@pytest.mark.parametrize("key", [(0, 1.0), (True, 0), (0, "b"), 1])
def test_non_int_two_form_index_rejected(key):
    inst = SplitCJInstance(0, 2)
    with pytest.raises(ValueError, match="ints in range"):
        DeformationForm.from_dict(inst, {key: 1})
    with pytest.raises(ValueError, match="ints in range"):
        epsilon_section(inst, {key: 1})


def test_exponent_dict_builds_canonical_monomials():
    inst = SplitCJInstance(2, 1, lam={0: {(2, 0): 3, (0, 1): Fraction(1, 2), (0, 0): -1}})
    alg = inst.context.algebra
    assert inst.lam[(0,)].terms == {((0, 2),): 3, ((1, 1),): Fraction(1, 2), (): -1}
    assert inst.lam[(0,)] == Poly(alg, {((0, 2),): 3, ((1, 1),): Fraction(1, 2), (): -1})
    # a zero coefficient, even one given as a string, leaves no term (and no entry)
    assert SplitCJInstance(1, 1, lam={0: {(1,): "0"}}).lam == {}


@pytest.mark.parametrize("lam", [{(-1,): 1}, {(-1,): 1, (0,): 1}])
def test_negative_exponent_rejected(lam):
    # x^-1 must not read as x^0 (lam = 1), nor add to an x^0 term beside it (lam = 2)
    with pytest.raises(ValueError):
        SplitCJInstance(1, 1, lam={0: lam})


# --- the two sides of the split ----------------------------------------------


@pytest.mark.parametrize("m, n", [(1, 2), (1, 3), (2, 3), (0, 4)])
def test_pa_forms_are_legendre_pullbacks_of_mirror_u_forms(m, n):
    """F^* takes u~^a to pa_a, so the pa-form of a stored tensor, which
    `epsilon_section` and `embed_anchored` write directly on inst.context, is
    the pullback of its u-form on the mirror, whose entries `_form` carries
    there by `_onto`."""
    ctx = ContactContext(m, n)
    mir = ctx.mirror
    rng = random.Random(f"pa forms {m} {n}")
    nonempty = 0
    for _ in range(30):
        k = rng.randint(1, min(3, n))
        tensor = {}
        for key in itertools.combinations(range(n), k):
            entry = cjalg_module._as_xpoly(ctx, random_x_poly(ctx, rng, maxdeg=2))
            if not entry.is_zero():
                tensor[key] = entry
        nonempty += bool(tensor)
        u_form = Section(mir, cjalg_module._form(mir, mir.ix_u, tensor))
        assert legendre_pullback(u_form, ctx) == \
            Section(ctx, cjalg_module._form(ctx, ctx.ix_pa, tensor))
    assert nonempty >= 20


@pytest.mark.parametrize("m", [1, 2])
def test_onto_round_trips_base_polynomials(m):
    """`_onto` leaves a polynomial on its own context as it is and carries one
    from the mirror by F^*, an involution; a polynomial from an unrelated
    context of the same dimensions is rejected."""
    ctx = ContactContext(m, 3)
    rng = random.Random(f"onto {m}")
    for _ in range(30):
        f = random_base_poly(ctx, rng)
        assert cjalg_module._onto(ctx, f) is f
        there = cjalg_module._onto(ctx.mirror, f)
        assert there.algebra is ctx.mirror.algebra
        assert cjalg_module._onto(ctx, there) == f
    with pytest.raises(ValueError):
        cjalg_module._onto(ctx, ContactContext(m, 3).x(0))


def test_extract_instance_builds_one_image_table_per_direction(monkeypatch):
    """F^*'s generator images are built once per destination context and kept
    on it: building and reading back djmix's Theta carries the dual side's
    entries into the mirror and its forms back, one table each way."""
    built = []
    images = contact_module._legendre_images

    def recording(src, dst):
        built.append(dst)
        return images(src, dst)

    monkeypatch.setattr(contact_module, "_legendre_images", recording)
    inst = load_fixture("djmix").instance
    extract_instance(inst, inst.theta)
    extract_instance(inst, inst.theta)
    assert built == [inst.context.mirror, inst.context]


def test_mirror_polynomial_is_not_a_structure_function():
    """A base polynomial of the mirror is not one of inst.context, though it
    uses the same generator indices."""
    ctx = ContactContext(1, 2)
    inst = SplitCJInstance(1, 2, context=ctx)
    with pytest.raises(ValueError, match="base coordinates"):
        SplitCJInstance(1, 2, lam={0: ctx.mirror.x(0)}, context=ctx)
    with pytest.raises(ValueError, match="base coordinates"):
        embed_anchored(inst, [ctx.mirror.x(0), 0], [0, 0])


# --- axioms -----------------------------------------------------------------


def test_axioms_fixtures(heis2, omni1):
    for inst in (heis2, omni1):
        rep = check_cj_axioms(inst)
        assert rep.mc_ok and rep.direct_ok and rep.biconditional


def test_axioms_broken():
    broken = SplitCJInstance(0, 2, lam={0: 1, 1: 1}, c={(1, 0, 1): 1})
    rep = check_cj_axioms(broken)
    assert not rep.mc_ok and not rep.direct_ok and rep.biconditional
    assert rep.witness() is not None and not rep.witness().is_zero()


def test_axioms_zero_instance():
    rep = check_cj_axioms(SplitCJInstance(0, 2))
    assert rep.ok


def test_biconditional_random_50():
    rng = random.Random(1234)
    for t in range(50):
        inst = random_instance(rng, rng.choice([0, 1]), rng.choice([2, 3]), f"B{t}")
        rep = check_cj_axioms(inst)
        assert rep.biconditional


def _axiom_residuals_one_by_one(inst):
    """Every residual of check_cj_axioms from its own brackets, in report order."""
    ctx, theta, frame = inst.context, inst.theta, inst.full_frame()

    def ad(s, t):
        return jacobi_bracket(jacobi_bracket(s, theta), t)

    k = len(frame)
    jac = [((i, j, l), ad(frame[i], ad(frame[j], frame[l]))
            - jacobi_bracket(jacobi_bracket(ad(frame[i], frame[j]), theta), frame[l])
            - ad(frame[j], ad(frame[i], frame[l])))
           for i, j, l in itertools.product(range(k), repeat=3)]
    lams = [("mu", Section(ctx, ctx.algebra.one()))] + \
        [(f"x{i+1}*mu", Section(ctx, ctx.x(i))) for i in range(ctx.m)]
    flat = [((i, j, name), ad(ad(frame[i], frame[j]), lam)
             - (ad(frame[i], ad(frame[j], lam)) - ad(frame[j], ad(frame[i], lam))))
            for i, j in itertools.product(range(k), repeat=2) for name, lam in lams]
    return jac, flat


def random_aside_instance(rng, n, name):
    """Point-base A-side data alone: a seeded bracket c and weights lam, most
    often not a Lie algebroid, so the residuals are nonzero."""
    c = {(cc, a, b): Fraction(rng.randint(-2, 2))
         for cc in range(n) for a, b in itertools.combinations(range(n), 2)}
    lam = {a: Fraction(rng.randint(-1, 1)) for a in range(n)}
    return SplitCJInstance(0, n, c=c, lam=lam, name=name)


def oracle_instances():
    """Seeded random instances at ranks 2 and 3 over a point, a line and a
    plane, seeded A-side instances, and every fixture, heis2-broken included."""
    for m, n in ((1, 2), (0, 2), (1, 3), (0, 3), (2, 2), (2, 3)):
        yield random_instance(random.Random(77 + 10 * m + n), m, n, f"random m={m} n={n}")
    for n in (2, 3):
        yield random_aside_instance(random.Random(f"aside {n}"), n, f"A-side n={n}")
    for name in FIXTURE_NAMES:
        yield load_fixture(name).instance


def test_axiom_residuals_match_one_by_one_brackets():
    """check_cj_axioms takes each direct residual as one bracket with the
    Jacobiator K_ij = H_ij - T_ij, H_ij = {theta_i,theta_j} and T_ij =
    {Theta,[[e_i,e_j]]}, run through e_l's or lam's operator with a skew
    sign; it takes H_ij for i < j only (H_ji = -H_ij) and sets H_ii = 0, so
    K_ii = -T_ii.  The oracle takes each residual in Leibniz form, every
    bracket as its definition writes it.  Both kinds of residual are nonzero
    on nine of these instances, the m = 2 ones with anchors in two variables
    and three lam rows among them, so a wrong sign on H, on T or on either
    residual shows in the residual lists; the witness and {Theta,Theta}
    match too."""
    nonzero_jacobi = nonzero_flatness = 0
    for inst in oracle_instances():
        rep = check_cj_axioms(inst)
        jac, flat = _axiom_residuals_one_by_one(inst)
        assert rep.jacobi_residuals == jac, inst.name
        assert rep.flatness_residuals == flat, inst.name
        mc = jacobi_bracket(inst.theta, inst.theta)
        assert rep.mc_residual == mc, inst.name
        witness = first_nonzero([((), mc)] + jac + flat)
        assert str(rep.witness()) == str(None if witness is None else witness[1]), inst.name
        nonzero_jacobi += first_nonzero(jac) is not None
        nonzero_flatness += first_nonzero(flat) is not None
    assert nonzero_jacobi >= 9 and nonzero_flatness >= 9


def record_brackets(monkeypatch):
    """The list to which each `jacobi_bracket` that `cjalg` makes from now on adds 1."""
    calls = []

    def counted(a, b):
        calls.append(1)
        return jacobi_bracket(a, b)

    monkeypatch.setattr(cjalg_module, "jacobi_bracket", counted)
    return calls


def record_operators(monkeypatch):
    """The list to which each `HamiltonianOperator` built from now on adds its body."""
    built = []
    init = contact_module.HamiltonianOperator.__init__

    def recording(self, context, f):
        built.append(f)
        init(self, context, f)

    monkeypatch.setattr(contact_module.HamiltonianOperator, "__init__", recording)
    return built


def test_axiom_check_bracket_count(monkeypatch):
    calls = record_brackets(monkeypatch)
    check_cj_axioms(random_instance(random.Random(3), 1, 3, "R"))
    # k = 6 frame elements, m + 1 = 2 test sections lam:
    # k + k^2 + k(k-1)/2 + k^2 + k^3 + k^2 (m+1) + 1 = 6 + 36 + 15 + 36 + 216 + 72 + 1
    assert len(calls) == 382


@pytest.mark.parametrize("name, expected", [("heis2", 10), ("omni1", 11), ("djmix4", 18)])
def test_axiom_check_operator_count(monkeypatch, name, expected):
    """A fresh instance with a frame of k = 2n elements builds 2k + m + 2
    operators: Theta's, one per e_i, one per {Theta,e_i} and one per lam;
    none for a one-use [[e_i,e_j]] or T_ij."""
    inst = load_fixture(name).instance
    assert expected == 4 * inst.n + inst.m + 2
    built = record_operators(monkeypatch)
    check_cj_axioms(inst)
    assert len(built) == expected


def test_self_brackets_of_theta_i_vanish():
    """theta_i = {Theta,e_i} is even, so graded skew symmetry makes
    {theta_i,theta_i} zero on every instance, MC or not: `check_cj_axioms`
    brackets theta_i with theta_j for i < j only."""
    for inst in oracle_instances():
        for e in inst.full_frame():
            theta_i = jacobi_bracket(inst.theta, e)
            assert jacobi_bracket(theta_i, theta_i).is_zero(), inst.name


# --- derived operations -------------------------------------------------------


def test_pairing_example(heis2):
    e1 = heis2.frame_A(0)
    eps1 = heis2.frame_dual(0)
    assert pairing(e1, eps1) == heis2.context.section(1)
    assert pairing(e1, heis2.frame_A(1)).is_zero()


def test_nabla_example(heis2):
    ops = derived_operations(heis2, heis2.frame_A(0), heis2.frame_dual(0),
                             lam=heis2.context.section(1))
    assert ops["nabla"] == heis2.context.section(1)


def test_derived_zero_instance():
    z = SplitCJInstance(0, 2)
    ops = derived_operations(z, z.frame_A(0), z.frame_dual(1),
                             lam=z.context.section(1))
    assert ops["bracket"].is_zero() and ops["nabla"].is_zero()
    assert ops["pairing"].is_zero()


def test_derived_rejects_higher_degree(heis2):
    bad = Section(heis2.context, heis2.context.u(0) * heis2.context.u(1))
    with pytest.raises(ValueError):
        derived_operations(heis2, bad, heis2.frame_A(0))


def test_derived_rejects_lam_outside_the_base():
    """nabla_u lam is defined on pullback sections, polynomials in the x's:
    pa_3, u^1 and mu + pa_3 are rejected, not read as nabla = 0."""
    inst = load_fixture("djmix4").instance
    ctx = inst.context
    e = [inst.frame_A(a) for a in range(3)]
    for lam in (e[2], Section(ctx, ctx.u(0)), ctx.section(1) + e[2]):
        with pytest.raises(ValueError, match="lam"):
            derived_operations(inst, e[0], e[1], lam=lam)


def test_derived_nabla_of_a_base_function(omni1):
    """A lam that depends on x is a pullback section and is accepted."""
    ctx = omni1.context
    lam = Section(ctx, ctx.x(0) * ctx.x(0))
    ops = derived_operations(omni1, omni1.frame_A(1), omni1.frame_A(0), lam=lam)
    assert ops["nabla"] == Section(ctx, ctx.x(0).scale(2))


def test_embed_split_roundtrip(heis2):
    rng = random.Random(2)
    xi = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
    alpha = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
    s = embed_anchored(heis2, xi, alpha)
    xi2, alpha2 = split_anchored(heis2, s)
    ctx = heis2.context
    assert [p.coefficient(()) for p in xi2] == xi
    assert [p.coefficient(()) for p in alpha2] == alpha


def test_loday_component_formula_random():
    rng = random.Random(3)
    for t in range(6):
        m = rng.choice([0, 1])
        inst = random_instance(rng, m, 3, f"L{t}")
        for _ in range(4):
            xi = [random_x_poly(inst.context, rng) for _ in range(3)]
            alpha = [random_x_poly(inst.context, rng) for _ in range(3)]
            eta = [random_x_poly(inst.context, rng) for _ in range(3)]
            beta = [random_x_poly(inst.context, rng) for _ in range(3)]
            u = embed_anchored(inst, xi, alpha)
            v = embed_anchored(inst, eta, beta)
            derived = derived_operations(inst, u, v)["bracket"]
            assert derived == loday_bracket_formula(inst, xi, alpha, eta, beta)


# --- Courant tensor -----------------------------------------------------------


def courant_entry(t, idx, ctx):
    """The Courant tensor `t` at any index triple, read off its increasing entries."""
    return Section(ctx, antisymmetric_entry({key: s.body for key, s in t.items()}, idx, ctx))


def assert_courant_sign_rule(inst, frame):
    """`courant_tensor` against the dense oracle, and its result.

    The keys are increasing triples with nonzero entries, in increasing
    order.  The oracle is sign(sigma) t[key] on every permutation sigma of a
    stored key, and zero on a repeated index and on an increasing triple
    absent from t.
    """
    t = courant_tensor(inst, frame)
    dense = dense_courant_tensor(inst, frame)
    assert list(t) == sorted(t)
    for key, value in t.items():
        assert key[0] < key[1] < key[2] and not value.is_zero(), key
        for perm in itertools.permutations(range(3)):
            assert dense[tuple(key[p] for p in perm)] == value.scale(koszul_sign(perm, (1, 1, 1)))
    for idx, value in dense.items():
        if len(set(idx)) < 3 or tuple(sorted(idx)) not in t:
            assert value.is_zero(), idx
    return t


def test_courant_tensor_frame_A_zero(heis2, omni1, djmix):
    for inst in (heis2, omni1, djmix):
        frame = [inst.frame_A(a) for a in range(inst.n)]
        assert not courant_tensor(inst, frame)


def test_courant_tensor_recovers_psi(djmix):
    frame = [djmix.frame_dual(a) for a in range(djmix.n)]
    ctx = djmix.context
    t = assert_courant_sign_rule(djmix, frame)
    assert t == {key: Section(ctx, value) for key, value in djmix.psi.items()}
    dense = dense_courant_tensor(djmix, frame)
    for idx in itertools.permutations(range(3), 3):
        assert dense[idx] == Section(ctx, antisymmetric_entry(djmix.psi, idx, ctx))


def test_courant_tensor_bracket_count(monkeypatch, heis2, djmix):
    djmix4 = load_fixture("djmix4").instance
    eta4 = DeformationForm.from_dict(djmix4, {(0, 1): -1, (0, 2): -1, (1, 2): -1, (1, 3): -1})
    # rank k: k(k+1)/2 Lagrangian pairings, k - 2 brackets {u_i, Theta} (one
    # per element that opens an increasing triple, not per pair), C(k-1, 2)
    # derived brackets [[u_i, u_j]] and C(k, 3) pairings
    cases = (
        (djmix, [djmix.frame_dual(a) for a in range(3)], 6 + 1 + 1 + 1),
        (heis2, [heis2.frame_A(a) for a in range(2)], 3),
        (djmix4, graph_frame(djmix4, eta4), 10 + 2 + 3 + 4),
    )
    calls = record_brackets(monkeypatch)
    for inst, frame, expected in cases:
        calls.clear()
        courant_tensor(inst, frame)
        assert len(calls) == expected, inst.name


@pytest.mark.parametrize("name, expected", [("djmix", (5, 1)), ("djmix4", (7, 2))])
def test_courant_tensor_operator_count(monkeypatch, name, expected):
    """A fresh graph frame of rank k >= 3 on a fresh instance builds 2k - 1
    operators: Theta's, one per u_l (the isotropy check builds them, the
    pairings reuse them) and one per {Theta,u_i}, i <= k-3.  A repeat call
    builds only the k - 2 operators of {Theta,u_i} again."""
    inst = load_fixture(name).instance
    eta = DeformationForm.from_dict(
        inst, {key: 1 for key in itertools.combinations(range(inst.n), 2)})
    frame = graph_frame(inst, eta)
    k = len(frame)
    assert expected == (2 * k - 1, k - 2)
    built = record_operators(monkeypatch)
    courant_tensor(inst, frame)
    assert len(built) == expected[0]
    built.clear()
    courant_tensor(inst, frame)
    assert len(built) == expected[1]


def test_courant_tensor_product_frame(omni1):
    # the involutive-subbundle frame {Delta} + its annihilator {eps^1}
    frame = [omni1.frame_A(1), omni1.frame_dual(0)]
    assert not courant_tensor(omni1, frame)


def test_courant_tensor_rejects_non_lagrangian(heis2):
    with pytest.raises(NotLagrangian):
        courant_tensor(heis2, [heis2.frame_A(0), heis2.frame_dual(0)])


def test_courant_tensor_rejects_elements_not_of_degree_one(djmix):
    """The antisymmetry the tensor rests on needs degree 1: mu (degree 0),
    pa_1 pa_2 (degree 2) and mu + pa_1 (inhomogeneous) are rejected by index,
    although each of these frames is isotropic."""
    ctx = djmix.context
    e = [djmix.frame_A(a) for a in range(3)]
    mu = ctx.section(1)
    frames = (
        ([mu, e[0], e[1]], 0),
        ([Section(ctx, ctx.pa(0) * ctx.pa(1))] + e, 0),
        ([mu + e[0], e[1], e[2]], 0),
        ([e[0], e[1], mu], 2),
    )
    for frame, bad in frames:
        with pytest.raises(ValueError, match=rf"frame element {bad}\b") as info:
            courant_tensor(djmix, frame)
        assert not isinstance(info.value, NotLagrangian)


def test_courant_tensor_antisymmetry_and_linearity(djmix):
    rng = random.Random(4)
    ctx = djmix.context
    eta = DeformationForm.from_dict(
        djmix, {(a, b): Fraction(rng.randint(-2, 2))
                for a, b in itertools.combinations(range(3), 2)})
    frame = graph_frame(djmix, eta)
    t = assert_courant_sign_rule(djmix, frame)
    assert t
    # C-infinity linearity spot check by rescaling one frame element
    # (over a point base this is plain rational linearity)
    scaled = list(frame)
    scaled[0] = frame[0].scale(Fraction(3, 2))
    t2 = assert_courant_sign_rule(djmix, scaled)
    for key in itertools.combinations(range(3), 3):
        for idx in itertools.permutations(key):
            factor = Fraction(3, 2) if 0 in idx else 1
            assert courant_entry(t2, idx, ctx) == courant_entry(t, idx, ctx).scale(factor)


def test_courant_tensor_function_linearity(omni1):
    # over a 1-dimensional base, rescale by a genuine function of x
    frame = [omni1.frame_A(a) for a in range(2)]
    ctx = omni1.context
    f = ctx.x(0) * ctx.x(0) + ctx.algebra.scalar(2)
    scaled = [frame[0].mul_function(f), frame[1]]
    t = courant_tensor(omni1, scaled)
    assert not t  # still zero; linearity preserved Lagrangian-ness


def test_courant_tensor_function_linearity_nonzero():
    """Tensoriality on a frame with nonzero tensor over a polynomial base."""
    inst = SplitCJInstance(1, 3, lam={0: 1}, rho={(0, 2): 1}, name="OMNIX")
    ctx = inst.context
    # graph of a non-closed 2-form: a genuinely non-involutive Lagrangian
    eta = DeformationForm.from_dict(inst, {(0, 1): {(1,): 1}})
    frame = graph_frame(inst, eta)
    t = assert_courant_sign_rule(inst, frame)
    assert t
    f = ctx.x(0) + ctx.algebra.scalar(3)
    scaled = [frame[0].mul_function(f)] + frame[1:]
    t2 = assert_courant_sign_rule(inst, scaled)
    for key in itertools.combinations(range(3), 3):
        for idx in itertools.permutations(key):
            entry = courant_entry(t, idx, ctx)
            assert courant_entry(t2, idx, ctx) == (entry.mul_function(f) if 0 in idx else entry)


def random_two_form(inst, rng):
    """A seeded 2-form on A: rationals over a point base, x-polynomials otherwise."""
    def coefficient():
        return random_x_poly(inst.context, rng) if inst.m else Fraction(rng.randint(-2, 2))
    return DeformationForm.from_dict(
        inst, {key: coefficient() for key in itertools.combinations(range(inst.n), 2)})


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_courant_tensor_sign_rule_on_graph_frames(name):
    """The stored increasing triples determine the dense tensor on seeded
    graph frames of every fixture, heis2-broken (Theta not MC) included."""
    inst = load_fixture(name).instance
    rng = random.Random(f"courant {name}")
    for _ in range(6):
        assert_courant_sign_rule(inst, graph_frame(inst, random_two_form(inst, rng)))


def test_courant_tensor_sign_rule_over_a_polynomial_base():
    """The same on a random m = 1 instance, its graph frames rescaled
    element-wise by functions of x, so every entry depends on x."""
    rng = random.Random(22)
    seen_nonzero = 0
    for t in range(3):
        inst = random_instance(rng, 1, 3, f"C{t}")
        ctx = inst.context
        for _ in range(3):
            frame = [u.mul_function(ctx.x(0).scale(rng.randint(1, 2))
                                    + ctx.algebra.scalar(rng.randint(1, 3)))
                     for u in graph_frame(inst, random_two_form(inst, rng))]
            seen_nonzero += bool(assert_courant_sign_rule(inst, frame))
    assert seen_nonzero


def test_witness_is_the_first_nonzero_entry_in_index_order():
    """On this djmix4 graph the first nonzero entry is (0, 1, 3), not the
    (0, 1, 2) every golden report shows, and the witness is the dense
    oracle's first nonzero entry, index and value."""
    inst = load_fixture("djmix4").instance
    eta = DeformationForm.from_dict(inst, {(0, 1): -1, (0, 2): -1, (1, 2): -1, (1, 3): -1})
    frame = graph_frame(inst, eta)
    involutive, witness = is_dirac_jacobi(inst, frame)
    assert (involutive, witness) == (False, ((0, 1, 3), inst.context.section(-2)))
    assert str(witness[1]) == "(-2)*mu"
    assert witness == first_nonzero(dense_courant_tensor(inst, frame).items())


def test_is_dirac_jacobi_rejects_frames_not_of_rank_n():
    """Two, three or five elements of djmix4's A-frame are isotropic and
    their tensor vanishes, but they are no Lagrangian frame of rank 4."""
    inst = load_fixture("djmix4").instance
    e = [inst.frame_A(a) for a in range(4)]
    for frame in (e[:2], e[:3], e + [e[0]]):
        assert not courant_tensor(inst, frame)
        with pytest.raises(NotLagrangian, match=f"{len(frame)} elements"):
            is_dirac_jacobi(inst, frame)
    assert is_dirac_jacobi(inst, e) == (True, None)



def test_is_dirac_jacobi_rejects_dependent_frames(omni1):
    """n isotropic elements that are linearly dependent over the base's function
    field span no Lagrangian subbundle: the product of their bodies is zero."""
    inst = load_fixture("djmix4").instance
    e = [inst.frame_A(a) for a in range(4)]
    with pytest.raises(NotLagrangian, match="linearly dependent"):
        is_dirac_jacobi(inst, [e[0], e[0], e[1], e[2]])
    # the degree check of courant_tensor still names a wrong element first
    ctx = inst.context
    with pytest.raises(ValueError, match="frame element 3 is not of pure degree 1"):
        is_dirac_jacobi(inst, [e[0], e[0], e[1], Section(ctx, ctx.u(0) * ctx.u(1))])
    ctx = omni1.context
    x_e0 = Section(ctx, ctx.x(0) * ctx.pa(0))
    # dependent over Q(x), though not over Q
    with pytest.raises(NotLagrangian, match="linearly dependent"):
        is_dirac_jacobi(omni1, [omni1.frame_A(0), x_e0])
    # independent over Q(x), though x1 e_0 vanishes at x1 = 0
    assert is_dirac_jacobi(omni1, [x_e0, omni1.frame_A(1)]) == (True, None)
    for name in FIXTURE_NAMES:
        doc = load_fixture(name)
        zero = DeformationForm.from_dict(doc.instance, {})
        for eta in [zero, *doc.deformations.values()]:
            frame = graph_frame(doc.instance, eta)
            ok, witness = is_dirac_jacobi(doc.instance, frame)
            assert ok == (witness is None)


# --- graphs and the correspondence --------------------------------------------


def test_graph_of_zero_is_frame_A(heis2):
    frame = graph_frame(heis2, DeformationForm.from_dict(heis2, {}))
    assert frame == [heis2.frame_A(0), heis2.frame_A(1)]


def test_graph_heis2_signs(heis2):
    ctx = heis2.context
    eta = DeformationForm.from_dict(heis2, {(0, 1): 1})
    frame = graph_frame(heis2, eta)
    # gr(eta) = {e_a + iota_{e_a} eta}: iota_{e_1}(u1 u2) = u2, iota_{e_2}(u1 u2) = -u1
    assert frame[0] == Section(ctx, ctx.pa(0) + ctx.u(1))
    assert frame[1] == Section(ctx, ctx.pa(1) - ctx.u(0))


def test_graphs_always_lagrangian(djmix):
    rng = random.Random(5)
    for _ in range(10):
        eta = DeformationForm.from_dict(
            djmix, {(a, b): Fraction(rng.randint(-3, 3))
                    for a, b in itertools.combinations(range(3), 2)})
        frame = graph_frame(djmix, eta)
        for s, t in itertools.combinations_with_replacement(frame, 2):
            assert pairing(s, t).is_zero()


def test_rank_one_instance_degenerate_sizes():
    # n = 1: no brackets or 3-tensors exist; theta is weight data only
    inst = SplitCJInstance(1, 1, lam={0: 1}, rho={(0, 0): {(1,): 1}}, name="R1")
    assert check_cj_axioms(inst).ok
    ctx = inst.context
    assert inst.theta == Section(ctx, ctx.u(0) * ctx.p + ctx.x(0) * ctx.u(0) * ctx.pi(0))
    Q = deformation_brackets(inst, "derived")
    assert check_codifferential(Q, Q.space.words(basis_keys(inst), 3)).ok


def test_correspondence_on_every_point_fixture():
    """gr(eta) is Dirac-Jacobi exactly when eta solves the MC equation."""
    rng = random.Random(30)
    for name in ("heis2", "obst1", "dgla1", "djmix", "curv1"):
        inst = load_fixture(name).instance
        for _ in range(8):
            eta = DeformationForm.from_dict(
                inst, {(a, b): Fraction(rng.randint(-2, 2))
                       for a, b in itertools.combinations(range(inst.n), 2)})
            mc = mc_residual_form(inst, eta)
            involutive, _ = is_dirac_jacobi(inst, graph_frame(inst, eta))
            assert mc.is_zero() == involutive, (name, eta.entries)


def test_correspondence_over_polynomial_base():
    """Dual-trivial over x: the graph is involutive exactly when d eta = 0."""
    inst = SplitCJInstance(1, 3, lam={0: 1}, rho={(0, 2): 1}, name="OMNIX")
    assert check_cj_axioms(inst).ok
    rng = random.Random(21)
    ctx = inst.context
    seen = {True: 0, False: 0}
    for _ in range(16):
        eta = DeformationForm.from_dict(
            inst, {(a, b): random_x_poly(ctx, rng)
                   for a, b in itertools.combinations(range(3), 2)
                   if rng.random() < 0.7})
        mc = mc_residual_form(inst, eta)
        assert mc == de_rham(inst, eta)
        involutive, _ = is_dirac_jacobi(inst, graph_frame(inst, eta))
        assert involutive == mc.is_zero()
        seen[involutive] += 1
    assert seen[True] and seen[False]


def test_correspondence_50(djmix, obst1):
    rng = random.Random(6)
    seen_nonzero = False
    for inst in (djmix, obst1):
        for _ in range(25):
            eta = DeformationForm.from_dict(
                inst, {(a, b): Fraction(rng.randint(-2, 2))
                       for a, b in itertools.combinations(range(3), 2)})
            mc = mc_residual_form(inst, eta)
            involutive, witness = is_dirac_jacobi(inst, graph_frame(inst, eta))
            assert mc.is_zero() == involutive
            if not involutive:
                seen_nonzero = True
                assert witness is not None
    assert seen_nonzero


def mc_instance(name):
    """A fixture's instance, or OMNIX: dual-trivial over x with a non-closed d."""
    if name == "OMNIX":
        return SplitCJInstance(1, 3, lam={0: 1}, rho={(0, 2): 1}, name="OMNIX")
    return load_fixture(name).instance


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["OMNIX"])
def test_mc_residual_form_equals_the_word_route(name):
    """The fold on eta equals the word route's residual, summed over the basis
    words of eta^k, of both routes' Q on seeded 2-forms (x-polynomial
    coefficients over a positive-dimensional base)."""
    inst = mc_instance(name)
    rng = random.Random(f"mc fold {name}")
    Qs = [deformation_brackets(inst, route) for route in ("derived", "closed")]
    nonzero = 0
    for _ in range(10):
        eta = random_two_form(inst, rng)
        residual = mc_residual_form(inst, eta)
        for Q in Qs:
            assert residual == vector_to_section(
                inst, mc_residual(Q, section_to_vector(inst, eta))), (name, eta.entries)
        nonzero += not residual.is_zero()
    # a residual is a 3-form, so below rank 3 it is zero
    assert nonzero or inst.n < 3, name


@pytest.mark.parametrize("name, dense", [("djmix4", True), ("djmix4", False),
                                         ("djmix", True), ("obst1", True)])
def test_mc_residual_form_makes_three_brackets(monkeypatch, name, dense):
    """One bracket per arity past the curvature, on the form itself: the
    word route makes one per new prefix of every basis word of eta^k."""
    doc = load_fixture(name)
    inst = doc.instance
    if dense:
        eta = DeformationForm.from_dict(inst, {key: i for i, key in enumerate(
            itertools.combinations(range(inst.n), 2), 1)})
    else:
        eta = doc.deformations["eta3"]
    calls = record_brackets(monkeypatch)
    residual = mc_residual_form(inst, eta)
    assert len(calls) == 3
    assert not residual.is_zero()


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["OMNIX"])
def test_the_fourth_derived_bracket_of_a_2_form_is_zero(name):
    """Why the MC sum stops at arity 3: each monomial of Theta holds at most
    three momenta, and a bracket with a pullback form takes one away, so the
    fourth bracket is zero before the projection as well as after it."""
    inst = mc_instance(name)
    rng = random.Random(f"arity four {name}")
    for _ in range(10):
        eta = random_two_form(inst, rng)
        assert derived_bracket_sections(inst, [eta] * 4).is_zero(), name
        unprojected = inst.minus_theta
        for _ in range(4):
            unprojected = jacobi_bracket(unprojected, eta)
        assert unprojected.is_zero(), name


def test_mc_residual_form_rejects_a_momentum():
    inst = load_fixture("djmix4").instance
    ctx = inst.context
    for body in (ctx.pa(0), ctx.u(0) * ctx.u(1) + ctx.pa(0) * ctx.u(2) * ctx.u(3)):
        with pytest.raises(ValueError, match="not a pullback form"):
            mc_residual_form(inst, Section(ctx, body))


# --- deformation brackets ------------------------------------------------------


def test_dual_trivial_brackets(heis2):
    """A-dagger trivial: m2 = m3 = 0 and m1 = d."""
    rng = random.Random(7)
    for _ in range(10):
        a = random_form_section(heis2, rng)
        b = random_form_section(heis2, rng)
        c = random_form_section(heis2, rng)
        assert derived_bracket_sections(heis2, [a]) == de_rham(heis2, a)
        assert derived_bracket_sections(heis2, [a, b]).is_zero()
        assert derived_bracket_sections(heis2, [a, b, c]).is_zero()


def test_m2_on_one_forms_is_dual_connection(djmix, obst1):
    """m_2(alpha, lam) = -nabla^dual_alpha lam on generators."""
    for inst in (djmix, obst1):
        ctx = inst.context
        lam = ctx.section(1)
        for a in range(inst.n):
            alpha = inst.frame_dual(a)
            got = derived_bracket_sections(inst, [alpha, lam])
            assert got == Section(ctx, -antisymmetric_entry(inst.lam_dual, (a,), ctx))


def test_m2_on_pairs_of_one_forms_is_dual_bracket(djmix, obst1):
    for inst in (djmix, obst1):
        ctx = inst.context
        for a in range(inst.n):
            for b in range(inst.n):
                got = derived_bracket_sections(
                    inst, [inst.frame_dual(a), inst.frame_dual(b)])
                expect = ctx.algebra.zero()
                for cc in range(inst.n):
                    expect = expect - antisymmetric_entry(inst.c_dual[cc], (a, b), ctx) * ctx.u(cc)
                assert got == Section(ctx, expect)


def test_m3_on_one_forms_contracts_psi(djmix):
    ctx = djmix.context
    for a, b, cc in itertools.permutations(range(3), 3):
        got = derived_bracket_sections(
            djmix, [djmix.frame_dual(a), djmix.frame_dual(b), djmix.frame_dual(cc)])
        assert got == Section(ctx, antisymmetric_entry(djmix.psi, (a, b, cc), ctx))


def test_routes_agree_random_instances():
    rng = random.Random(8)
    shapes = [(0, 3), (1, 3), (2, 2), (0, 4), (1, 2)]
    for t, (m, n) in enumerate(shapes):
        assert_routes_agree(random_instance(rng, m, n, f"RT{t}"), rng, 8)


def test_curvature_is_upsilon(curv1):
    Q = deformation_brackets(curv1)
    assert 0 in Q.arities()
    assert vector_to_section(curv1, Q.coefficient(0, ())) == upsilon_A_section(curv1)


def test_derived_curvature_comes_from_the_v_data(curv1, monkeypatch):
    """The derived m_0 is P(-Theta), read from the V-data like m_1..m_3; only
    the closed route reads `upsilon_A_section`, so zeroing it drops the
    closed Q's arity 0 and leaves the derived one."""
    zero = curv1.context.zero_section()
    monkeypatch.setattr(cjalg_module, "upsilon_A_section", lambda inst: zero)
    Q = deformation_brackets(curv1, "derived")
    assert 0 in Q.arities()
    assert Q.coefficient(0, ()) == section_to_vector(curv1, project_P(curv1.minus_theta))
    assert 0 not in deformation_brackets(curv1, "closed").arities()


def test_codifferential_on_flat_fixtures(heis2, obst1, dgla1, djmix):
    for inst in (heis2, obst1, dgla1, djmix):
        Q = deformation_brackets(inst, "derived")
        words = Q.space.words(basis_keys(inst), 4)
        assert check_codifferential(Q, words).ok


@pytest.mark.parametrize("name, brackets", [("heis2", 24), ("djmix", 128)])
def test_codifferential_bracket_count(monkeypatch, request, name, brackets):
    """The derived Q makes one bracket per nonempty canonical word, each one
    past its kept prefix: 4 + 8 + 12 words on heis2, not sum |w| = 56."""
    inst = request.getfixturevalue(name)
    calls = record_brackets(monkeypatch)
    Q = deformation_brackets(inst, "derived")
    words = Q.space.words(basis_keys(inst), 3)
    assert check_codifferential(Q, words).ok
    assert len(words) - 1 == brackets
    assert len(calls) == brackets


def test_derived_fold_builds_one_letter_per_basis_key(monkeypatch, djmix):
    """Swept through arity 3, the derived Q makes each basis key a letter
    section once, 8 at rank 3, however many words the key occurs in."""
    Q = deformation_brackets(djmix, "derived")
    built = []

    class Recorded(Section):
        __slots__ = ()

        def __init__(self, context, body):
            built.append(body)
            super().__init__(context, body)
    monkeypatch.setattr(cjalg_module, "Section", Recorded)
    assert check_codifferential(Q, Q.space.words(basis_keys(djmix), 3)).ok
    keys = [next(iter(body.terms)) for body in built]
    assert all(body.terms == {key: 1} for body, key in zip(built, keys))
    assert sorted(keys) == sorted(basis_keys(djmix)) and len(keys) == 8


@pytest.mark.parametrize("name", sorted(os.path.splitext(f)[0] for f in os.listdir(FIXTURES)
                                         if f.endswith(".json")))
def test_derived_coefficients_are_exact_folds(name):
    """Each derived coefficient equals its word's own derived bracket, whether
    the words come shortest first (every prefix kept before it is needed) or
    longest first (every prefix built on demand)."""
    inst = load_fixture(name).instance
    words = deformation_space(inst).words(basis_keys(inst), 3, 1)
    expected = {w: section_to_vector(
        inst, derived_bracket_sections(inst, word_to_sections(inst, w))) for w in words}
    for order in (words, words[::-1]):
        Q = deformation_brackets(inst, "derived")
        assert {w: Q.coefficient(len(w), w) for w in order} == expected


def test_curved_codifferential(curv1, curvmix):
    for inst in (curv1, curvmix):
        assert check_cj_axioms(inst).ok
        Q = deformation_brackets(inst, "derived")
        assert 0 in Q.arities()
        words = Q.space.words(basis_keys(inst), 3)
        assert check_codifferential(Q, words).ok
    # with m1 = 0 the arity-1 curved relation forces m2(m0, v) = 0
    rng = random.Random(15)
    m0 = vector_to_section(curvmix, deformation_brackets(curvmix).coefficient(0, ()))
    for _ in range(5):
        v = random_form_section(curvmix, rng)
        assert derived_bracket_sections(curvmix, [m0, v]).is_zero()


def test_gj_bracket_properties(obst1):
    """The closed-form bracket extends the dual structure and is graded skew
    on the unshifted-by-one grading."""
    rng = random.Random(9)
    ctx = obst1.context
    count = 0
    while count < 15:
        a = random_form_section(obst1, rng)
        b = random_form_section(obst1, rng)
        if not (a.body.is_homogeneous() and b.body.is_homogeneous()):
            continue
        if a.is_zero() or b.is_zero():
            continue
        count += 1
        da, db = a.body.degree() - 1, b.body.degree() - 1
        lhs = gj_bracket_closed(obst1, a, b)
        rhs = gj_bracket_closed(obst1, b, a).scale(-((-1) ** ((da * db) % 2)))
        assert lhs == rhs


def test_multiderivation_first_order(obst1):
    """m_2 is first order in each slot: the deviation from Koszul-signed
    f-linearity is multiplication by a fixed form (module-linearity)."""
    rng = random.Random(10)
    ctx = obst1.context
    u = [ctx.u(a) for a in range(3)]
    f = u[0]
    alpha = ctx.section(u[1])

    def deviation(body):
        hit = m2_closed(obst1, alpha, ctx.section(f * body))
        base = m2_closed(obst1, alpha, ctx.section(body)).mul_function(f).scale(
            (-1) ** ((2 * 1) % 2))  # (|alpha|+1)|f| with |alpha|=1, |f|=1
        return hit - base

    base_dev = deviation(ctx.algebra.one())
    for g in (u[1], u[2], u[1] * u[2]):
        dev = deviation(g)
        direct = base_dev.mul_function(g)
        # module linearity up to the Koszul sign of moving g past the operator
        assert dev == direct or dev == direct.scale(-1)


# --- change of complement -------------------------------------------------------


def test_change_complement_zero(heis2):
    out = change_complement(heis2, {})
    assert out["theta1"] == heis2.theta
    space = deformation_space(heis2)
    for w in space.words(basis_keys(heis2), 3):
        assert out["exp_M"].apply_word(w) == {w: Fraction(1)}


def test_change_complement_on_degree_one(heis2):
    """e^m fixes Gamma(A) and maps alpha to alpha + iota_alpha eps."""
    val = Fraction(1, 2)
    out = change_complement(heis2, {(0, 1): val})
    eps_sec = out["eps_section"]
    ctx = heis2.context
    # A-side sections have bidegree (1,0): the flow leaves them alone
    for a in range(2):
        assert jacobi_bracket(eps_sec, heis2.frame_A(a)).is_zero()
    # dual-side frame moves into the graph of eps, and the flow stops there
    eps_mat = [[Fraction(0), val], [-val, Fraction(0)]]
    for a in range(2):
        moved = jacobi_bracket(eps_sec, heis2.frame_dual(a))
        expect = ctx.algebra.zero()
        for b in range(2):
            expect = expect + ctx.pa(b).scale(eps_mat[a][b])
        assert moved == Section(ctx, expect)
        assert jacobi_bracket(eps_sec, moved).is_zero()


def test_change_complement_morphism(heis2, omni1, dgla1):
    rng = random.Random(11)
    cases = [
        (heis2, {(0, 1): Fraction(1, 2)}),
        (omni1, {(0, 1): {(1,): 1}}),
        (dgla1, {(0, 1): 1, (1, 2): Fraction(-1, 3)}),
    ]
    for inst, eps in cases:
        out = change_complement(inst, eps)
        assert check_cj_axioms(out["instance"]).ok
        Q0 = deformation_brackets(inst, "derived")
        Q1 = deformation_brackets(out["instance"], "derived")
        space = deformation_space(inst)
        words = space.words(basis_keys(inst), 3)
        assert check_morphism(out["exp_M"], Q0, Q1, words).ok


def test_change_complement_m2_closed_form():
    for name in ("heis2", "omni1", "djmix", "dgla1"):
        doc = load_fixture(name)
        eps = doc.epsilons["eps1"] if doc.epsilons else {(0, 2): 1}
        assert_m2_closed_on_two_words(doc.instance, change_complement(doc.instance, eps))


def test_m2_sharp_closed_is_bilinear():
    """On mixed-degree pairs the closed M_2 is the multilinear expansion of the derived one."""
    rng = random.Random(19)
    for name in ("heis2", "omni1", "djmix"):
        doc = load_fixture(name)
        inst = doc.instance
        out = change_complement(inst, doc.epsilons["eps1"])
        space = deformation_space(inst)
        for _ in range(6):
            s, t = random_form_section(inst, rng), random_form_section(inst, rng)
            vs = [section_to_vector(inst, v) for v in (s, t)]
            derived = {}
            for word, coeff in space.expand_word_of_vectors(vs).items():
                add_into(derived, out["M"].coefficient(2, word), coeff)
            closed = m2_sharp_closed(inst, out["eps_section"], s, t)
            assert closed == vector_to_section(inst, derived), name


def test_m2_sharp_closed_sign(heis2):
    """M_2(u1, u1 u2) = (-1)^1 eps_12 d_1 u1 d_2 (u1 u2) = eps_12 u1, in either order
    (d_2 is a left derivative, so d_2 (u1 u2) = -u1)."""
    ctx = heis2.context
    eps_sec = epsilon_section(heis2, {(0, 1): Fraction(1, 2)})
    alpha, omega = ctx.section(ctx.u(0)), ctx.section(ctx.u(0) * ctx.u(1))
    expect = ctx.section(ctx.u(0).scale(Fraction(1, 2)))
    assert m2_sharp_closed(heis2, eps_sec, alpha, omega) == expect
    assert m2_sharp_closed(heis2, eps_sec, omega, alpha) == expect


def test_contract_reads_each_entry_with_its_signed_permutations():
    ctx = SplitCJInstance(0, 3).context
    u = [ctx.u(a) for a in range(3)]
    one = ctx.algebra.one()
    contract = cjalg_module._contract
    assert contract(ctx, {(0, 1): one}, [u[0], u[1]]) == one
    assert contract(ctx, {(0, 1): one}, [u[1], u[0]]) == -one
    assert contract(ctx, {(0, 2): one}, [u[0] * u[1], u[2]]) == u[1]
    # an odd entry stands left of the partials
    assert contract(ctx, {(0, 1): u[2]}, [u[0] * u[1], u[1]]) == u[2] * u[1]
    assert contract(ctx, {(0, 1, 2): one}, [u[2], u[0], u[1]]) == one
    assert contract(ctx, {}, [u[0], u[1]]).is_zero()


def test_m3_closed_is_linear_in_its_sign_argument(djmix):
    """Each closed formula with an inhomogeneous sign-carrying argument (m_3's
    beta, m_2's alpha, M_2's w_1) is the sum over its form-degree components."""
    ctx = djmix.context
    eps_sec = epsilon_section(djmix, {(0, 1): 1, (1, 2): Fraction(1, 2)})
    # (operation, arity, the slot that carries the sign)
    operations = [(lambda a, b, c: m3_closed(djmix, a, b, c), 3, 1),
                  (lambda a, b: m2_closed(djmix, a, b), 2, 0),
                  (lambda a, b: m2_sharp_closed(djmix, eps_sec, a, b), 2, 0)]
    rng = random.Random(20)
    for op, arity, slot in operations:
        hits = 0
        for _ in range(10):
            args = [random_form_section(djmix, rng) for _ in range(arity)]
            whole = op(*args)
            comps = args[slot].body.bidegree_components().values()
            parts = ctx.zero_section()
            for comp in comps:
                parts = parts + op(*args[:slot], ctx.section(comp), *args[slot + 1:])
            assert whole == parts
            hits += len(comps) > 1 and not whole.is_zero()
        assert hits


def test_canonical_key_on_every_short_index_tuple():
    """`_canonical_key` on every index tuple of length <= 3 over range(4), for
    each number k of trailing antisymmetric indices, against an inversion count."""
    for length in range(4):
        shape = (4,) * length
        for idx in itertools.product(range(4), repeat=length):
            for k in range(length + 1):
                head, tail = idx[:length - k], idx[length - k:]
                expect = None
                if len(set(tail)) == k:
                    inversions = sum(a > b for a, b in itertools.combinations(tail, 2))
                    expect = head + tuple(sorted(tail)), (-1) ** inversions
                assert cjalg_module._canonical_key(idx, shape, k) == expect, (idx, k)


def test_extract_instance_builds_theta_once(monkeypatch, heis2):
    """The round-trip check builds the new Theta that the new instance then keeps."""
    heis2.theta  # the old instance's Theta is built before the count starts
    calls = []
    build = cjalg_module.build_theta

    def counting(inst):
        calls.append(inst)
        return build(inst)

    monkeypatch.setattr(cjalg_module, "build_theta", counting)
    out = change_complement(heis2, {(0, 1): 1})
    # the derived m_1 of the new instance is the first use of its Theta
    deformation_brackets(out["instance"]).coefficient(1, ((),))
    assert out["instance"].theta == out["theta1"]
    assert len(calls) == 1


def test_change_complement_transports_vdata_brackets(heis2):
    """Brackets from Theta_1 equal higher derived brackets of the flowed V-data."""
    eps = {(0, 1): Fraction(2, 3)}
    out = change_complement(heis2, eps)
    inst1 = out["instance"]
    rng = random.Random(12)
    for _ in range(8):
        a = random_form_section(heis2, rng)
        b = random_form_section(heis2, rng)
        # flowed V-data: MC element -Theta_1 over the same contact oracle
        current = out["theta1"].scale(-1)
        for arg in (a, b):
            current = jacobi_bracket(current, arg)
        lhs = project_P(current)
        rhs = derived_bracket_sections(inst1, [a, b])
        assert lhs == rhs


@pytest.mark.parametrize("name", ["heis2", "djmix", "omni1"])
def test_complement_flow_within_bidegree_bound(name):
    doc = load_fixture(name)
    inst, eps = doc.instance, doc.epsilons["eps1"]
    eps_sec = epsilon_section(inst, eps)
    theta_bidegrees = set(inst.theta.body.bidegree_components())
    steps = max(delta for _, delta in theta_bidegrees)
    assert steps <= 3
    term = inst.theta
    for k in range(1, steps + 1):
        term = jacobi_bracket(eps_sec, term)
        # each flow step moves bidegree by (1,-1)
        assert set(term.body.bidegree_components()) <= \
            {(p + k, delta - k) for p, delta in theta_bidegrees}
    assert jacobi_bracket(eps_sec, term).is_zero()
    assert check_cj_axioms(change_complement(inst, eps)["instance"]).ok


def test_complement_flow_past_bound_raises(heis2, monkeypatch):
    # a flow that never vanishes: the bidegree bound must catch it
    monkeypatch.setattr(cjalg_module, "jacobi_bracket", lambda a, b: b)
    with pytest.raises(RuntimeError):
        change_complement(heis2, {(0, 1): 1})


def test_replaced_m2_is_not_served_from_memo(heis2):
    out = change_complement(heis2, {(0, 1): Fraction(1, 2)})
    M = out["M"]
    space = deformation_space(heis2)
    words = space.words(basis_keys(heis2), 3)
    for w in space.words(basis_keys(heis2), 2, 2):
        M.coefficient(2, w)
    Q0 = deformation_brackets(heis2, "derived")
    Q1 = deformation_brackets(out["instance"], "derived")
    assert check_morphism(out["exp_M"], Q0, Q1, words).ok
    m2 = M.coefficients[2]
    M.coefficients[2] = lambda w: add_into({}, m2(w), 2)
    rep = check_morphism(exp_coderivation(M), Q0, Q1, words)
    assert not rep.ok
    word, residual = rep.witness()
    assert residual


@pytest.mark.parametrize("name", ["heis2", "djmix", "omni1"])
def test_complement_m2_is_derived_bracket_of_epsilon(name):
    """M_2(s, t) = P{{eps, s}, t} on every 2-word: the derived bracket of eps,
    with the words asked in either order of M's prefix fold."""
    doc = load_fixture(name)
    inst = doc.instance
    words = deformation_space(inst).words(basis_keys(inst), 2, 2)
    for order in (words, words[::-1]):
        out = change_complement(inst, doc.epsilons["eps1"])
        eps_vdata = replace(contact_vdata(inst), mc_element=out["eps_section"])
        for w in order:
            s, t = word_to_sections(inst, w)
            expected = project_P(jacobi_bracket(jacobi_bracket(out["eps_section"], s), t))
            assert higher_derived_bracket(eps_vdata, (s, t)) == expected
            assert vector_to_section(inst, out["M"].coefficient(2, w)) == expected


def test_minus_theta_operator_built_once_per_instance(monkeypatch):
    """Every derived bracket of an instance starts from the one -Theta it holds,
    so the Hamiltonian operator of -Theta is built once per instance."""
    inst = load_fixture("djmix").instance
    minus_theta = (-inst.theta).body
    built = record_operators(monkeypatch)
    Q = deformation_brackets(inst, "derived")
    words = deformation_space(inst).words(basis_keys(inst), 3)
    assert check_codifferential(Q, words).ok
    assert built.count(minus_theta) == 1


def test_extract_instance_roundtrip(omni1):
    again = extract_instance(omni1, omni1.theta)
    assert build_theta(again) == omni1.theta



def test_extract_instance_reproduces_every_stored_tensor():
    """Theta read back gives every stored tensor key for key, in stored order:
    seeded instances at ranks 2-4 over bases of dimension 0-2, and every fixture."""
    rng = random.Random(24)
    instances = [random_instance(rng, m, n) for n in (2, 3, 4) for m in (0, 1, 2)
                 for _ in range(2)]
    instances += [load_fixture(name).instance for name in FIXTURE_NAMES]
    for inst in instances:
        again = extract_instance(inst, inst.theta)
        for name in ("rho", "c", "lam", "rho_dual", "c_dual", "lam_dual", "phi", "psi"):
            assert printed(getattr(again, name)) == printed(getattr(inst, name))

def test_extract_instance_rejects_wrong_degree(heis2):
    ctx = heis2.context
    with pytest.raises(ValueError):
        extract_instance(heis2, Section(ctx, ctx.p * ctx.p))
    with pytest.raises(ValueError):
        extract_instance(heis2, Section(ctx, ctx.u(0) * ctx.u(1)))


def test_every_cubic_section_in_structure_bidegrees_is_split(heis2):
    """The structure-function map onto degree-3 sections is onto: extraction
    then rebuilding reproduces any section with the four structure bidegrees."""
    ctx = heis2.context
    s = Section(ctx, ctx.pa(0) * ctx.p)  # bare dual-weight term, no cross term
    again = extract_instance(heis2, s)
    assert build_theta(again) == s


# --- Cartan calculus -----------------------------------------------------------


def test_iota_example(heis2):
    ctx = heis2.context
    w = ctx.section(ctx.u(0) * ctx.u(1))
    assert iota(heis2, [1, 0], w) == ctx.section(ctx.u(1))


def test_mc_examples(heis2):
    """Abelian-complement case: the residual is just d eta; in particular
    eta = q u1 u2 is MC for every rational q."""
    rng = random.Random(20)
    for _ in range(6):
        eta = random_form_section(heis2, rng)
        eta02 = heis2.context.section(sum(
            (comp for bd, comp in eta.body.bidegree_components().items()
             if bd == (0, 2)), heis2.context.algebra.zero()))
        assert mc_residual_form(heis2, eta02) == de_rham(heis2, eta02)
    for q in (Fraction(1), Fraction(-7, 3), Fraction(100), Fraction(0)):
        eta = DeformationForm.from_dict(heis2, {(0, 1): q})
        assert mc_residual_form(heis2, eta).is_zero()


def test_de_rham_routes_agree(omni1):
    rng = random.Random(13)
    for _ in range(10):
        w = random_form_section(omni1, rng)
        for bd, comp in w.body.bidegree_components().items():
            s = omni1.context.section(comp)
            assert de_rham(omni1, s) == de_rham_koszul(omni1, s)


def test_de_rham_koszul_bracket_term_sign():
    # omni1's bracket c is zero, so the bracket insertion term needs an
    # instance of its own: [e1, e2] = e3 makes d u3 = -u1*u2, the
    # Chevalley-Eilenberg value (d u3)(e1, e2) = -u3([e1, e2]) = -1
    inst = SplitCJInstance(0, 3, c={(2, 0, 1): 1})
    ctx = inst.context
    u3 = ctx.section(ctx.u(2))
    assert iota(inst, [0, 1, 0], iota(inst, [1, 0, 0], de_rham(inst, u3))) == ctx.section(
        ctx.algebra.scalar(-1))
    assert de_rham_koszul(inst, u3) == de_rham(inst, u3) == ctx.section(-(ctx.u(0) * ctx.u(1)))
    rng = random.Random(29)
    for m, n in itertools.product((0, 1), (2, 3, 4)):
        for _ in range(2):
            inst = random_instance(rng, m, n)
            w = random_form_section(inst, rng)
            for comp in w.body.bidegree_components().values():
                s = inst.context.section(comp)
                assert de_rham_koszul(inst, s) == de_rham(inst, s), (m, n, str(s))


def test_cartan_identities(heis2, omni1):
    rng = random.Random(14)
    for inst in (heis2, omni1):
        for _ in range(8):
            X = [random_x_poly(inst.context, rng) for _ in range(inst.n)]
            Y = [random_x_poly(inst.context, rng) for _ in range(inst.n)]
            w = random_form_section(inst, rng)
            XY = section_bracket_A(inst, X, Y)
            assert (iota(inst, X, iota(inst, Y, w))
                    + iota(inst, Y, iota(inst, X, w))).is_zero()
            assert iota(inst, X, lie_derivative(inst, Y, w)) \
                - lie_derivative(inst, Y, iota(inst, X, w)) \
                == iota(inst, XY, w)
            assert lie_derivative(inst, X, lie_derivative(inst, Y, w)) \
                - lie_derivative(inst, Y, lie_derivative(inst, X, w)) \
                == lie_derivative(inst, XY, w)
            assert de_rham(inst, lie_derivative(inst, X, w)) \
                == lie_derivative(inst, X, de_rham(inst, w))
            assert de_rham(inst, de_rham(inst, w)).is_zero()
