"""V-data validation and higher derived brackets over the contact oracle."""

import itertools
import random

import pytest

from cjde.cjalg import (
    SplitCJInstance,
    contact_vdata,
    de_rham,
    upsilon_A_section,
    word_to_sections,
)
from cjde.contact import Section, project_P
from cjde.linfty import GradedSpace, TaylorCoderivation, check_codifferential
from cjde.vdata import VData, derived_bracket_fold, higher_derived_bracket, validate

from conftest import basis_keys, random_form_section, random_section


def samples_for(inst, rng, count=12):
    ctx = inst.context
    plain = [random_section(ctx, rng) for _ in range(count)]
    kernel = []
    for _ in range(count):
        s = random_section(ctx, rng)
        kernel.append(s - project_P(s))
    return plain, kernel


def test_validate_flat(heis2):
    # the axioms are sample-checked; 100 seeded samples per design
    rng = random.Random(0)
    samples, kernel = samples_for(heis2, rng, count=100)
    vd = contact_vdata(heis2)
    report = validate(vd, samples, kernel)
    assert report.ok
    assert not report.curved


def test_validate_curved(curv1):
    rng = random.Random(1)
    samples, kernel = samples_for(curv1, rng)
    vd = contact_vdata(curv1)
    report = validate(vd, samples, kernel)
    assert report.ok
    assert report.curved
    assert vd.curvature() == upsilon_A_section(curv1)


def test_validate_negative_mc(heis2):
    rng = random.Random(2)
    samples, kernel = samples_for(heis2, rng)
    vd = contact_vdata(heis2)
    # the structure section of the broken fixture is not Maurer-Cartan
    broken = SplitCJInstance(0, 2, lam={0: 1, 1: 1}, c={(1, 0, 1): 1},
                             context=heis2.context)
    vd_bad = VData(vd.bracket, vd.in_subalgebra, vd.project, broken.theta)
    report = validate(vd_bad, samples, kernel)
    assert not report.ok
    assert "MC equation {Phi,Phi}=0" in report.failed()
    # the failing check carries a nonzero witness
    assert not dict(report.checks)["MC equation {Phi,Phi}=0"].is_zero()


def test_higher_derived_bracket_examples(heis2):
    vd = contact_vdata(heis2)
    ctx = heis2.context
    mu = ctx.section(1)
    # k = 1 on the constant section: m_1(mu) = d mu = u^1 mu
    out = higher_derived_bracket(vd, [mu])
    assert out == Section(ctx, ctx.u(0))
    # k = 0 on flat data
    assert higher_derived_bracket(vd, []).is_zero()


def test_higher_derived_bracket_matches_de_rham(heis2, omni1):
    rng = random.Random(3)
    for inst in (heis2, omni1):
        vd = contact_vdata(inst)
        for _ in range(10):
            alpha = random_form_section(inst, rng)
            assert higher_derived_bracket(vd, [alpha]) == de_rham(inst, alpha)


def test_higher_derived_bracket_arity4_vanishes(djmix):
    rng = random.Random(4)
    vd = contact_vdata(djmix)
    for _ in range(6):
        args = [random_form_section(djmix, rng) for _ in range(4)]
        assert higher_derived_bracket(vd, args).is_zero()


def test_argument_outside_subalgebra(heis2):
    vd = contact_vdata(heis2)
    ctx = heis2.context
    with pytest.raises(ValueError):
        higher_derived_bracket(vd, [Section(ctx, ctx.p)])


def test_fold_tests_each_distinct_letter_once(heis2):
    """A fold asks `in_subalgebra` once per distinct letter over all its words,
    and each word's value is still the higher derived bracket of its letters."""
    vd = contact_vdata(heis2)
    asked = []

    def in_subalgebra(s):
        asked.append(s)
        return vd.in_subalgebra(s)
    counted = VData(vd.bracket, in_subalgebra, vd.project, vd.mc_element)
    fold = derived_bracket_fold(counted, lambda key: word_to_sections(heis2, (key,))[0], 2)
    keys = basis_keys(heis2)[:3]
    words = [w for k in range(4) for w in itertools.product(keys, repeat=k)]
    for w in words:
        assert fold(w) == higher_derived_bracket(vd, word_to_sections(heis2, w)), w
    assert len(asked) == len(keys) == 3


def test_fold_rejects_a_letter_outside_on_first_use(heis2):
    ctx = heis2.context
    letters = {"u": Section(ctx, ctx.u(0)), "p": Section(ctx, ctx.p)}
    fold = derived_bracket_fold(contact_vdata(heis2), letters.__getitem__, 2)
    fold(("u", "u"))
    with pytest.raises(ValueError, match="outside the abelian subalgebra"):
        fold(("u", "p"))
    # a rejected letter is not taken as tested
    with pytest.raises(ValueError, match="outside the abelian subalgebra"):
        fold(("p",))


def test_graded_symmetry(djmix):
    """m_k(..., v, w, ...) = (-1)^{|v||w|} m_k(..., w, v, ...) in shifted degrees."""
    rng = random.Random(5)
    vd = contact_vdata(djmix)
    count = 0
    while count < 15:
        a = random_form_section(djmix, rng)
        b = random_form_section(djmix, rng)
        homog_a = a.body.degree_components()
        homog_b = b.body.degree_components()
        if len(homog_a) != 1 or len(homog_b) != 1:
            continue
        count += 1
        da = next(iter(homog_a)) - 2
        db = next(iter(homog_b)) - 2
        sign = (-1) ** ((da * db) % 2)
        assert higher_derived_bracket(vd, [a, b]) == \
            higher_derived_bracket(vd, [b, a]).scale(sign)


def test_voronov_assembled_codifferential(heis2, obst1, dgla1):
    """Flat V-data assemble to a codifferential (machine Voronov check)."""
    for inst in (heis2, obst1, dgla1):
        vd = contact_vdata(inst)
        assert not vd.is_curved
        space = GradedSpace(
            lambda key, ctx=inst.context: ctx.algebra.monomial_bidegree(key)[1] - 2)

        def coeff(word):
            return dict(higher_derived_bracket(vd, word_to_sections(inst, word)).body.terms)

        Q = TaylorCoderivation(space, {1: coeff, 2: coeff, 3: coeff})
        words = space.words(basis_keys(inst), 4)
        assert check_codifferential(Q, words).ok


def test_validate_names_first_failing_sample_and_bracket(heis2):
    rng = random.Random(6)
    samples, kernel = samples_for(heis2, rng)
    vd = contact_vdata(heis2)
    # two leading kernel elements project to zero and pass every projection check
    samples = kernel[:2] + samples
    assert not vd.project(samples[2]).is_zero()

    doubled = VData(vd.bracket, vd.in_subalgebra, lambda s: vd.project(s).scale(2),
                    vd.mc_element)
    witnesses = dict(validate(doubled, samples, kernel).checks)
    assert witnesses["projection idempotent"] is samples[2]
    assert witnesses["MC equation {Phi,Phi}=0"] is None

    # the identity "projection" has the whole algebra as its image, which is not abelian
    whole = VData(vd.bracket, vd.in_subalgebra, lambda s: s, vd.mc_element)
    report = validate(whole, samples, kernel)
    witnesses = dict(report.checks)
    assert witnesses["projection idempotent"] is None
    outside = [i for i, s in enumerate(samples) if not vd.in_subalgebra(s)]
    assert outside[0] > 0
    assert witnesses["projection lands in subalgebra"] is samples[outside[0]]
    brackets = [vd.bracket(s, t) for s in samples for t in samples]
    assert brackets[0].is_zero()
    assert witnesses["subalgebra abelian"] == next(b for b in brackets if not b.is_zero())
    kernel_brackets = [vd.bracket(s, t) for s in kernel for t in kernel]
    assert witnesses["kernel closed under bracket"] == \
        next(b for b in kernel_brackets if not b.is_zero())
    assert report.failed() == ["projection lands in subalgebra", "subalgebra abelian",
                               "kernel closed under bracket"]
