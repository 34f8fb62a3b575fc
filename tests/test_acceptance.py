"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each test prints a single [criterion N] PASS line on success (run with -s to
see them); any assertion failure marks the criterion failed.  Seeds are fixed
so reruns are bit-identical.
"""

import itertools
import random
import time
from fractions import Fraction

from cjde.cjalg import (
    DeformationForm,
    SplitCJInstance,
    build_theta,
    change_complement,
    check_cj_axioms,
    deformation_brackets,
    deformation_space,
    derived_bracket_sections,
    graph_frame,
    is_dirac_jacobi,
    mc_residual_form,
)
from cjde.contact import (
    ContactContext,
    Section,
    contract_theta,
    hamiltonian_lift,
    jacobi_bracket,
    legendre_pullback,
)
from cjde.deform import (
    cohomology,
    extend_mc,
    kuranishi,
    mc_residual_coefficients,
    search_obstructed_instance,
)
from cjde.linfty import check_codifferential, check_morphism

from conftest import (
    assert_m2_closed_on_two_words,
    assert_routes_agree,
    basis_keys,
    hom_line_derivation,
    legendre_pushforward,
    load_fixture,
    random_form_section,
    random_homogeneous_section,
    random_instance,
    random_poly,
    random_vector_field,
)

F = Fraction


def report(n, text, t0):
    print(f"[criterion {n}] PASS: {text} ({time.time() - t0:.1f}s)")


def fixtures_for_brackets():
    return [
        SplitCJInstance(0, 2, lam={0: 1}, name="HEIS2"),
        SplitCJInstance(1, 2, lam={0: 1}, rho={(0, 1): 1}, name="OMNI1"),
        SplitCJInstance(0, 3, c_dual={(2, 0, 1): 1}, psi={(0, 1, 2): 1}, name="DJMIX"),
        SplitCJInstance(0, 3, c_dual={(0, 0, 2): -1, (0, 1, 2): -1}, name="OBST1"),
        SplitCJInstance(0, 3, c={(1, 0, 1): 1, (2, 0, 2): 1},
                        c_dual={(1, 0, 2): 1}, name="DGLA1"),
        SplitCJInstance(0, 3, lam={0: 1}, phi={(0, 1, 2): F(2, 3)}, name="CURV1"),
    ]


def test_criterion_1_jacobi_structure_suite():
    """Graded skew-symmetry and Jacobi identity of the coordinate bracket."""
    t0 = time.time()
    rng = random.Random(101)
    contexts = [ContactContext(m, n) for m in (0, 1, 2) for n in (1, 2, 3)]
    checked = 0
    while checked < 200:
        ctx = rng.choice(contexts)
        a = random_homogeneous_section(ctx, rng, weight=4)
        b = random_homogeneous_section(ctx, rng, weight=4)
        c = random_homogeneous_section(ctx, rng, weight=4)
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        checked += 1
        da, db = a.degree() - 2, b.degree() - 2
        skew = jacobi_bracket(a, b) + jacobi_bracket(b, a).scale((-1) ** (da * db))
        assert skew.is_zero()
        jac = jacobi_bracket(a, jacobi_bracket(b, c)) \
            - jacobi_bracket(jacobi_bracket(a, b), c) \
            - jacobi_bracket(b, jacobi_bracket(a, c)).scale((-1) ** (da * db))
        assert jac.is_zero()
    report(1, f"bracket skew+Jacobi exact on {checked} random homogeneous triples", t0)


def test_criterion_2_hamiltonian_lift_suite():
    """The three lift identities on 100 random quadruples."""
    t0 = time.time()
    rng = random.Random(202)
    ctx = ContactContext(1, 2)
    for _ in range(100):
        d1 = hom_line_derivation(ctx, rng, rng.choice([0, 1, 2]))
        d2 = hom_line_derivation(ctx, rng, rng.choice([0, 1, 2]))
        lam = Section(ctx, random_poly(ctx, rng, weight=2, indices=ctx.base_indices()))
        lam2 = Section(ctx, random_poly(ctx, rng, weight=2, indices=ctx.base_indices()))
        h1, h2 = hamiltonian_lift(d1), hamiltonian_lift(d2)
        assert jacobi_bracket(h1, h2) == -hamiltonian_lift(d1.commutator(d2))
        assert jacobi_bracket(h1, lam) == -d1(lam)
        assert jacobi_bracket(lam, lam2).is_zero()
    report(2, "lift identities exact on 100 random quadruples", t0)


def test_criterion_3_legendre_suite():
    """Contact-form preservation on 50 fields, bracket morphism on 100 pairs."""
    t0 = time.time()
    rng = random.Random(303)
    ctx = ContactContext(1, 2)
    mir = ctx.mirror

    for _ in range(50):
        X = random_vector_field(ctx, rng)
        FX = legendre_pushforward(X, mir)
        assert legendre_pullback(contract_theta(mir, FX), ctx) == contract_theta(ctx, X)
    for _ in range(100):
        s = Section(mir, random_poly(mir, rng, weight=3))
        t = Section(mir, random_poly(mir, rng, weight=3))
        assert jacobi_bracket(legendre_pullback(s, ctx), legendre_pullback(t, ctx)) \
            == legendre_pullback(jacobi_bracket(s, t), ctx)
    report(3, "contact-form and bracket-morphism identities exact (50+100 samples)", t0)


def test_criterion_4_cj_mc_equivalence():
    """Fixtures pass both sides; 50 random instances satisfy the biconditional."""
    t0 = time.time()
    heis2 = SplitCJInstance(0, 2, lam={0: 1}, name="HEIS2")
    omni1 = SplitCJInstance(1, 2, lam={0: 1}, rho={(0, 1): 1}, name="OMNI1")
    for inst in (heis2, omni1):
        rep = check_cj_axioms(inst)
        assert rep.mc_ok and rep.direct_ok
    rng = random.Random(404)
    agree_fail = 0
    for t in range(50):
        inst = random_instance(rng, rng.choice([0, 1]), rng.choice([2, 3]), f"A{t}")
        rep = check_cj_axioms(inst)
        assert rep.biconditional
        if not rep.mc_ok:
            agree_fail += 1
    report(4, f"structure equation <-> axioms on fixtures and 50 random instances "
              f"({agree_fail} generic failures detected on both sides)", t0)


def test_criterion_5_derived_bracket_suite():
    """Closed m_0..m_3 match V-data derived brackets; arity bounds; codifferential."""
    t0 = time.time()
    rng = random.Random(505)
    for inst in fixtures_for_brackets():
        assert_routes_agree(inst, rng, 100)
        # m_k = 0 for k = 4, 5 on sampled arguments
        for k in (4, 5):
            args = [random_form_section(inst, rng) for _ in range(k)]
            assert derived_bracket_sections(inst, args).is_zero()

    # assembled codifferential: all basis words through arity 6 on flat fixtures
    for inst in fixtures_for_brackets():
        if inst.name == "CURV1":
            continue
        Q = deformation_brackets(inst, "derived")
        words = Q.space.words(basis_keys(inst), 6)
        assert check_codifferential(Q, words).ok
        # brackets stop at arity 3, so relations above arity 5 vanish
        # structurally: i + j = r + 1 <= 6 bounds every contribution
        assert max(Q.arities()) <= 3
    report(5, "closed forms == derived brackets (100 tuples x 6 fixtures), "
              "m_4 = m_5 = 0, codifferential relations exhaustive through arity 6", t0)


def test_criterion_6_deformation_correspondence():
    """MC residual vanishes iff the graph is involutive, on 50 seeded forms."""
    t0 = time.time()
    rng = random.Random(606)
    djmix = SplitCJInstance(0, 3, c_dual={(2, 0, 1): 1}, psi={(0, 1, 2): 1},
                            name="DJMIX")
    assert check_cj_axioms(djmix).ok
    outcomes = {True: 0, False: 0}
    for _ in range(50):
        eta = DeformationForm.from_dict(
            djmix, {(a, b): F(rng.randint(-2, 2))
                    for a, b in itertools.combinations(range(3), 2)})
        mc_zero = mc_residual_form(djmix, eta).is_zero()
        involutive, witness = is_dirac_jacobi(djmix, graph_frame(djmix, eta))
        assert mc_zero == involutive
        outcomes[involutive] += 1
        if not involutive:
            assert witness is not None and not witness[1].is_zero()
    assert outcomes[True] and outcomes[False]
    report(6, f"mc == 0 <-> involutive on 50 seeded forms "
              f"({outcomes[True]} MC, {outcomes[False]} obstructed)", t0)


def test_criterion_7_gms_suite():
    """Theta_1 = e^m Theta_0 with matching instance; e^M morphism; M_2 closed form."""
    t0 = time.time()
    heis2 = SplitCJInstance(0, 2, lam={0: 1}, name="HEIS2")
    omni1 = SplitCJInstance(1, 2, lam={0: 1}, rho={(0, 1): 1}, name="OMNI1")
    cases = [
        (heis2, {(0, 1): F(1, 2)}),
        (omni1, {(0, 1): {(1,): 1}}),
    ]
    for inst, eps in cases:
        out = change_complement(inst, eps)
        # the transported structure functions reproduce Theta_1 exactly
        assert build_theta(out["instance"]) == out["theta1"]
        assert check_cj_axioms(out["instance"]).ok
        Q0 = deformation_brackets(inst, "derived")
        Q1 = deformation_brackets(out["instance"], "derived")
        space = deformation_space(inst)
        words = space.words(basis_keys(inst), 5)
        assert check_morphism(out["exp_M"], Q0, Q1, words).ok
        assert_m2_closed_on_two_words(inst, out)
    report(7, "complement change: instance round trip, morphism through "
              "truncation 5, M_2 closed form", t0)


def test_criterion_8_kuranishi_suite():
    """Obstruction detection on the searched fixture; dgLa extension to order 4."""
    t0 = time.time()
    # the documented seeded search must reproduce the frozen fixture
    inst, eta1, coords = search_obstructed_instance(seed=42)
    frozen = SplitCJInstance(0, 3, c_dual={(0, 0, 2): -1, (0, 1, 2): -1},
                             name="OBST1")
    assert str(build_theta(inst)) == str(frozen.theta)
    assert any(coords)
    curve = extend_mc(inst, eta1, 4)
    assert curve.obstructed_at == 2
    assert any(curve.obstruction_class)

    doc = load_fixture("dgla1")
    dgla, eta_d = doc.instance, doc.deformations["eta1"]
    assert cohomology(dgla, 3).dimension == 0
    kur, _ = kuranishi(dgla, eta_d)
    assert not any(kur)
    curve = extend_mc(dgla, eta_d, 4)
    assert curve.ok
    residuals = mc_residual_coefficients(dgla, curve.coefficients, 4)
    assert all(r.is_zero() for r in residuals)
    report(8, "OBST1 (from seeded search) obstructed at order 2; dgLa fixture "
              "extends to order 4 with residual 0 mod t^5", t0)
