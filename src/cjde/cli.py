"""Command-line front end: load instances, run verification suites, emit reports.

Commands:
    cjde check FILE                      -- structure-equation and axiom checks
    cjde deform FILE [--eta NAME|--random SEED] [--order N]
    cjde complement FILE --epsilon NAME [--trunc N]
    cjde cohomology FILE [--degree K]
    cjde selftest [--seed S]

Reports are line-oriented JSON (one check per line) or plain text; exit code
0 means every check passed, 1 a mathematical failure, 2 an input error.
`complement` checks every canonical word up to the truncation.
Identical inputs and seeds produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from . import __version__
from .cjalg import (
    DeformationForm,
    SplitCJInstance,
    change_complement,
    check_cj_axioms,
    contact_vdata,
    deformation_brackets,
    deformation_space,
    graph_frame,
    is_dirac_jacobi,
    m2_sharp_closed,
    mc_residual_form,
    vector_to_section,
    word_to_sections,
)
from .contact import ContactContext, jacobi_bracket
from .deform import ComplexMatrices, NotFlat, UnsupportedBase, cohomology, extend_mc, kuranishi
from .instancefile import InstanceFileError, load_instance
from .linfty import check_codifferential, check_morphism, exp_coderivation
from .samples import basis_keys, random_homogeneous_section, random_kernel_section, random_section
from .vdata import validate

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT = 2


class Report:
    """Ordered check results; failures always carry a printable witness."""

    def __init__(self):
        self.lines: List[Dict[str, object]] = []

    def add(self, check: str, status: str, witness: Optional[str] = None, **extra):
        if status == "fail" and witness is None:
            raise ValueError("a failing check needs a witness")
        entry: Dict[str, object] = {"check": check, "status": status,
                                    "witness": witness}
        entry.update(extra)
        self.lines.append(entry)

    @property
    def failed(self) -> bool:
        return any(line["status"] == "fail" for line in self.lines)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return "\n".join(json.dumps(line, sort_keys=True, default=str)
                             for line in self.lines) + "\n"
        out = []
        for line in self.lines:
            status = line["status"].upper()
            msg = f"{status:11s} {line['check']}"
            extras = {k: v for k, v in line.items()
                      if k not in ("check", "status", "witness") and v is not None}
            if extras:
                msg += "  " + " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
            if line.get("witness"):
                msg += f"  witness: {line['witness']}"
            out.append(msg)
        return "\n".join(out) + "\n"


def _emit(report: Report, args) -> None:
    text = report.render(args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    doc = load_instance(args.file)
    inst = doc.instance
    report = Report()
    axioms = check_cj_axioms(inst)
    report.add("structure-equation {Theta,Theta}=0",
               "pass" if axioms.mc_ok else "fail",
               None if axioms.mc_ok else str(axioms.mc_residual))
    bad_jac = [(idx, r) for idx, r in axioms.jacobi_residuals if not r.is_zero()]
    report.add("loday-jacobi-identity on frame triples",
               "pass" if not bad_jac else "fail",
               None if not bad_jac else f"triple {bad_jac[0][0]}: {bad_jac[0][1]}",
               triples=len(axioms.jacobi_residuals))
    bad_flat = [(idx, r) for idx, r in axioms.flatness_residuals if not r.is_zero()]
    report.add("connection-flatness on frame pairs",
               "pass" if not bad_flat else "fail",
               None if not bad_flat else f"pair {bad_flat[0][0]}: {bad_flat[0][1]}",
               pairs=len(axioms.flatness_residuals))
    report.add("biconditional structure-equation <-> direct axioms",
               "pass" if axioms.biconditional else "fail",
               None if axioms.biconditional else "sides disagree")

    vd = contact_vdata(inst)
    rng = random.Random(0)
    samples = [random_section(inst.context, rng, weight=3) for _ in range(12)]
    kernel_samples = [random_kernel_section(inst.context, rng) for _ in range(12)]
    vrep = validate(vd, samples, kernel_samples)
    # the MC equation is checked exactly; these four only on the samples
    sampled = {"projection idempotent": len(samples),
               "projection lands in subalgebra": len(samples),
               "subalgebra abelian": len(samples),
               "kernel closed under bracket": len(kernel_samples)}
    for name, ok, witness in vrep.checks:
        extra = {"samples": sampled[name]} if name in sampled else {}
        report.add(f"v-data: {name}", "pass" if ok else "fail",
                   None if ok else str(witness), **extra)
    report.add("v-data: curvature flag",
               "pass", flag="curved" if vrep.curved else "flat")
    _emit(report, args)
    return EXIT_MATH_FAIL if report.failed else EXIT_OK


def _passes_check(inst: SplitCJInstance, report: Report) -> bool:
    """Report the axiom check as the precondition of a deformation analysis."""
    axioms = check_cj_axioms(inst)
    report.add("precondition: instance passes check", "pass" if axioms.ok else "fail",
               None if axioms.ok else str(axioms.witness()))
    return axioms.ok


def _get_eta(doc, args, inst) -> DeformationForm:
    if args.eta is not None:
        if args.eta not in doc.deformations:
            raise InstanceFileError(f"unknown deformation name {args.eta!r}")
        return doc.deformations[args.eta]
    rng = random.Random(args.random)
    data = {}
    for a, b in itertools.combinations(range(inst.n), 2):
        data[(a, b)] = Fraction(rng.randint(-2, 2))
    return DeformationForm.from_dict(inst, data)


def cmd_deform(args) -> int:
    doc = load_instance(args.file)
    inst = doc.instance
    report = Report()
    if not _passes_check(inst, report):
        _emit(report, args)
        return EXIT_MATH_FAIL

    eta = _get_eta(doc, args, inst)
    residual = mc_residual_form(inst, eta)
    report.add("maurer-cartan residual", "pass" if residual.is_zero() else "info",
               None, residual=str(residual))
    frame = graph_frame(inst, eta)
    involutive, witness = is_dirac_jacobi(inst, frame)
    report.add("graph is dirac-jacobi", "pass" if involutive else "info",
               None, verdict=str(involutive),
               upsilon_witness=None if involutive else f"{witness[0]}: {witness[1]}")
    report.add("mc <-> involutivity agreement",
               "pass" if residual.is_zero() == involutive else "fail",
               None if residual.is_zero() == involutive else
               f"mc={residual} involutive={involutive}")

    try:
        cm = ComplexMatrices(inst)
        h3 = cohomology(inst, 3, cm)
        if not cm.d(eta).is_zero():
            report.add("kuranishi class", "unsupported", None,
                       reason="eta is not closed")
        else:
            coords, rep = kuranishi(inst, eta, h3)
            report.add("kuranishi class", "pass", None,
                       coordinates=[str(c) for c in coords], representative=str(rep))
            curve = extend_mc(inst, eta, args.order, h3=h3)
            if curve.ok:
                report.add("formal extension", "pass", None, order=args.order,
                           coefficients=[str(c) for c in curve.coefficients])
            else:
                report.add("formal extension", "info", None,
                           obstructed_at=curve.obstructed_at,
                           obstruction=str(curve.obstruction_representative))
    except (UnsupportedBase, NotFlat) as exc:
        report.add("kuranishi class", "unsupported", None, reason=str(exc))
    _emit(report, args)
    return EXIT_MATH_FAIL if report.failed else EXIT_OK


def cmd_complement(args) -> int:
    doc = load_instance(args.file)
    inst = doc.instance
    report = Report()
    if not _passes_check(inst, report):
        _emit(report, args)
        return EXIT_MATH_FAIL

    if args.epsilon not in doc.epsilons:
        raise InstanceFileError(f"unknown epsilon name {args.epsilon!r}")
    eps = doc.epsilons[args.epsilon]
    out = change_complement(inst, eps)
    report.add("theta transported", "pass", None, theta1=str(out["theta1"]))

    Q0 = deformation_brackets(inst, "derived").to_coderivation()
    Q1 = deformation_brackets(out["instance"], "derived").to_coderivation()
    space = deformation_space(inst)
    keys = basis_keys(inst)
    words = space.words(keys, args.trunc)
    eM = out["exp_M"]
    if args.corrupt_m2:
        # test hook: break the arity-2 Taylor coefficient and expect failure
        M = out["M"]
        orig = M.coefficients[2]
        M.coefficients[2] = lambda w: {k: 2 * v for k, v in orig(w).items()}
        eM = exp_coderivation(M)
    rep = check_morphism(eM, Q0, Q1, words)
    report.add(f"exp(M) intertwines codifferentials through arity {args.trunc}",
               "pass" if rep.ok else "fail",
               None if rep.ok else _word_witness(inst, rep),
               words=len(words))

    ok2 = True
    witness2 = None
    for w in space.words(keys, 2, 2):
        s1, s2 = word_to_sections(inst, w)
        try:
            closed = m2_sharp_closed(inst, out["eps_section"], s1, s2)
        except ValueError:
            continue
        derived = vector_to_section(inst, out["M"].coefficient(2, w))
        if closed != derived:
            ok2 = False
            witness2 = f"word {w}: closed {closed} vs derived {derived}"
            break
    report.add("M_2 matches sharp/flat closed form", "pass" if ok2 else "fail", witness2)
    _emit(report, args)
    return EXIT_MATH_FAIL if report.failed else EXIT_OK


def _word_witness(inst, rep) -> str:
    word, residual = rep.witness()
    pretty = [inst.context.algebra.monomial_str(k) for k in word]
    return f"word ({', '.join(pretty)}): residual {len(residual)} terms"


def cmd_cohomology(args) -> int:
    doc = load_instance(args.file)
    inst = doc.instance
    if args.degree is not None and not 0 <= args.degree <= inst.n:
        sys.stderr.write(f"error: --degree must be between 0 and {inst.n} (the rank), "
                         f"got {args.degree}\n")
        return EXIT_INPUT
    report = Report()
    try:
        cm = ComplexMatrices(inst)
    except (UnsupportedBase, NotFlat) as exc:
        raise InstanceFileError(str(exc)) from None
    degrees = [args.degree] if args.degree is not None else list(range(inst.n + 1))
    for k in degrees:
        h = cohomology(inst, k, cm)
        report.add(f"H^{k}", "pass", None, dimension=h.dimension,
                   representatives=[str(r) for r in h.representatives])
    _emit(report, args)
    return EXIT_OK


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    report = Report()
    ctx = ContactContext(1, 2)

    ok = True
    witness = None
    for _ in range(40):
        a, b, c = (random_homogeneous_section(ctx, rng) for _ in range(3))
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        da, db = a.degree() - 2, b.degree() - 2
        skew = jacobi_bracket(a, b) + jacobi_bracket(b, a).scale((-1) ** (da * db))
        jac = jacobi_bracket(a, jacobi_bracket(b, c)) \
            - jacobi_bracket(jacobi_bracket(a, b), c) \
            - jacobi_bracket(b, jacobi_bracket(a, c)).scale((-1) ** (da * db))
        if not skew.is_zero() or not jac.is_zero():
            ok = False
            witness = str(skew if not skew.is_zero() else jac)
            break
    report.add("jacobi bracket: graded skew and jacobi identity",
               "pass" if ok else "fail", witness)

    heis2 = SplitCJInstance(0, 2, lam={0: 1}, name="HEIS2")
    axioms = check_cj_axioms(heis2)
    report.add("built-in fixture axioms", "pass" if axioms.ok else "fail",
               None if axioms.ok else str(axioms.witness()))

    L = deformation_brackets(heis2, "derived")
    Q = L.to_coderivation()
    words = L.space.words(basis_keys(heis2), 4)
    qrep = check_codifferential(Q, words)
    report.add("deformation codifferential squares to zero",
               "pass" if qrep.ok else "fail",
               None if qrep.ok else _word_witness(heis2, qrep))

    _emit(report, args)
    return EXIT_MATH_FAIL if report.failed else EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cjde",
        description="exact checks for split Courant-Jacobi algebroids and "
                    "Dirac-Jacobi deformations",
    )
    parser.add_argument("--version", action="version", version=f"cjde {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("check", help="verify the structure axioms of an instance file")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("deform", help="analyze a deformation 2-form")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--eta", default=None, help="named deformation from the file")
    g.add_argument("--random", type=int, default=0, metavar="SEED",
                   help="random skew 2-form from a seed")
    p.add_argument("--order", type=_positive_int, default=2,
                   help="formal extension order (>= 1)")
    common(p)
    p.set_defaults(fn=cmd_deform)

    p = sub.add_parser("complement", help="change the Lagrangian complement")
    p.add_argument("file")
    p.add_argument("--epsilon", required=True, help="named epsilon tensor from the file")
    p.add_argument("--trunc", type=_positive_int, default=5,
                   help="word-length truncation (>= 1); every canonical word "
                        "up to it is checked")
    p.add_argument("--corrupt-m2", action="store_true", help=argparse.SUPPRESS)
    common(p)
    p.set_defaults(fn=cmd_complement)

    p = sub.add_parser("cohomology", help="de Rham cohomology over a point base")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=None,
                   help="one form degree, 0..rank (default: every degree)")
    common(p)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("selftest", help="quick property sample of the engine")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InstanceFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
