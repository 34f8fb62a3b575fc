"""The benchmark's own tests, at tiny size: negative controls and trace counts.

    PYTHONPATH=src python -m pytest perfbench -q

A corrupted result must be counted as a failed verdict by the same checks
the benchmark applies to every round.
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cjde import cjalg, instancefile  # noqa: E402


def fixture(name):
    return instancefile.load_instance(os.path.join(ROOT, "fixtures", f"{name}.json"))


def test_doubled_m2_counts_as_failed():
    doc = fixture("heis2")
    eps = doc.epsilons["eps1"]
    good = workloads.morphism_verdict("heis2", doc.instance, eps, 3)
    bad = workloads.morphism_verdict("heis2", doc.instance, eps, 3, corrupt_m2=True)
    assert run.run_verdict(good)[1]
    assert not run.run_verdict(bad)[1]


def test_zeroed_structure_residual_counts_as_failed():
    inst = fixture("heis2-broken").instance
    good = workloads.axiom_verdict("heis2-broken", inst)

    def zeroed():
        report = cjalg.check_cj_axioms(inst)
        assert not report.mc_residual.is_zero()
        return dataclasses.replace(report, mc_residual=inst.context.zero_section())

    bad = workloads.Verdict("heis2-broken zeroed", zeroed, good.check)
    assert run.run_verdict(good)[1]
    assert not run.run_verdict(bad)[1]


def test_aside_verdict_follows_plain_check():
    rng = inputs.round_rng(0, "test", 0, "aside")
    for integrable in (True, False):
        kw, expected = inputs.aside_instance(rng, 2, integrable, 0)
        inst = cjalg.SplitCJInstance(0, 2, **kw)
        assert run.run_verdict(workloads.axiom_verdict("aside", inst, expected))[1]
        assert not run.run_verdict(workloads.axiom_verdict("aside", inst, not expected))[1]


def test_canonical_word_count():
    # u-monomials of rank 2: 1, u1u2 even; u1, u2 odd
    assert [inputs.canonical_word_count(2, k) for k in range(4)] == [1, 5, 13, 25]


def test_traced_call_counts_repeat():
    inst = workloads.load(os.path.join(ROOT, "fixtures", "heis2.json")).instance
    tracer = spans.Tracer()
    tracer.install()
    try:
        counts = []
        for _ in range(2):
            tracer.clear()
            assert run.run_verdict(workloads.codifferential_verdict("heis2", inst, 2), tracer)[1]
            counts.append({name: rec["calls"] for name, rec in tracer.summary().items()})
    finally:
        tracer.uninstall()
    assert counts[0] == counts[1]
    assert counts[0]["linfty.coefficient"] > 0 and counts[0]["gca.Poly.mul"] > 0
    assert cjalg.jacobi_bracket.__module__ == "cjde.contact"
    assert not hasattr(cjalg.jacobi_bracket, "__wrapped__")
