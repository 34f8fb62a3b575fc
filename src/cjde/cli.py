"""Command-line front end: load instances, run verification suites, emit reports.

Commands:
    cjde check FILE                      -- structure-equation and axiom checks
    cjde deform FILE [--eta NAME|--random SEED] [--order N]
    cjde complement FILE --epsilon NAME [--trunc N]
    cjde cohomology FILE [--degree K]
    cjde selftest [--seed S]

Each command returns a `Report` of line-oriented JSON (one check per line) or
plain text, in which a check fails exactly when it has a witness.  `main`
alone writes it and sets the exit code: 0 when every check passed, 1 on a
mathematical failure, 2 on bad input or an unwritable `--out` (one `error:`
line on stderr).  `complement` checks every canonical word up to the
truncation, and refuses one that asks for more than `MAX_WORDS` words
before listing any.  Identical inputs and seeds produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
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
    first_nonzero,
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
# Most canonical words `complement` checks: a rank-4 file at --trunc 5 asks
# for 13,073, a rank-5 one for 335,137, too many to finish.
MAX_WORDS = 100_000


class Report:
    """Ordered check results; failures always carry a printable witness."""

    def __init__(self):
        self.lines: List[Dict[str, object]] = []

    def check(self, check: str, witness: Optional[object] = None, **extra):
        """A pass/fail line: pass when `witness` is None, else fail showing it."""
        self.add(check, "pass" if witness is None else "fail",
                 None if witness is None else str(witness), **extra)

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
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InstanceFileError(f"cannot write {args.out}: {exc}") from None


def _at(label: str, hit) -> Optional[str]:
    """An (index, residual) witness as text, e.g. "triple (0, 1, 2): ..."; None stays None."""
    return None if hit is None else f"{label}{hit[0]}: {hit[1]}"


def cmd_check(args) -> Report:
    doc = load_instance(args.file)
    inst = doc.instance
    report = Report()
    axioms = check_cj_axioms(inst)
    report.check("structure-equation {Theta,Theta}=0",
                 None if axioms.mc_ok else axioms.mc_residual)
    report.check("loday-jacobi-identity on frame triples",
                 _at("triple ", first_nonzero(axioms.jacobi_residuals)),
                 triples=len(axioms.jacobi_residuals))
    report.check("connection-flatness on frame pairs",
                 _at("pair ", first_nonzero(axioms.flatness_residuals)),
                 pairs=len(axioms.flatness_residuals))
    report.check("biconditional structure-equation <-> direct axioms",
                 None if axioms.biconditional else "sides disagree")

    vd = contact_vdata(inst)
    rng = random.Random(0)
    samples = [random_section(inst.context, rng, weight=3) for _ in range(12)]
    kernel_samples = [random_kernel_section(inst.context, rng) for _ in range(12)]
    vrep = validate(vd, samples, kernel_samples)
    for name, witness in vrep.checks:
        # the MC equation is checked exactly; the other four on 12 samples each
        extra = {} if name == "MC equation {Phi,Phi}=0" else {"samples": len(samples)}
        report.check(f"v-data: {name}", witness, **extra)
    report.check("v-data: curvature flag", flag="curved" if vrep.curved else "flat")
    return report


def _passes_check(inst: SplitCJInstance, report: Report) -> bool:
    """Report the axiom check as the precondition of a deformation analysis.

    Callers look up the names they were given first: an unknown name is bad
    input (exit 2) whether or not the instance passes.
    """
    witness = check_cj_axioms(inst).witness()
    report.check("precondition: instance passes check", witness)
    return witness is None


def _get_eta(doc, args, inst) -> DeformationForm:
    if args.eta is not None:
        if args.eta not in doc.deformations:
            raise InstanceFileError(f"unknown deformation name {args.eta!r}")
        return doc.deformations[args.eta]
    rng = random.Random(args.random)
    data = {}
    for a, b in itertools.combinations(range(inst.n), 2):
        data[(a, b)] = rng.randint(-2, 2)
    return DeformationForm.from_dict(inst, data)


def cmd_deform(args) -> Report:
    doc = load_instance(args.file)
    inst = doc.instance
    eta = _get_eta(doc, args, inst)
    report = Report()
    if not _passes_check(inst, report):
        return report

    residual = mc_residual_form(inst, eta)
    report.add("maurer-cartan residual", "pass" if residual.is_zero() else "info",
               None, residual=str(residual))
    frame = graph_frame(inst, eta)
    involutive, witness = is_dirac_jacobi(inst, frame)
    report.add("graph is dirac-jacobi", "pass" if involutive else "info",
               None, verdict=str(involutive), upsilon_witness=_at("", witness))
    report.check("mc <-> involutivity agreement",
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
            report.check("kuranishi class", coordinates=[str(c) for c in coords],
                         representative=str(rep))
            curve = extend_mc(inst, eta, args.order, h3=h3)
            if curve.ok:
                report.check("formal extension", order=args.order,
                             coefficients=[str(c) for c in curve.coefficients])
            else:
                report.add("formal extension", "info", None,
                           obstructed_at=curve.obstructed_at,
                           obstruction=str(curve.obstruction_representative))
    except (UnsupportedBase, NotFlat) as exc:
        report.add("kuranishi class", "unsupported", None, reason=str(exc))
    return report


def cmd_complement(args) -> Report:
    doc = load_instance(args.file)
    inst = doc.instance
    if args.epsilon not in doc.epsilons:
        raise InstanceFileError(f"unknown epsilon name {args.epsilon!r}")
    eps = doc.epsilons[args.epsilon]
    count = deformation_space(inst).word_count(basis_keys(inst), args.trunc)
    if count > MAX_WORDS:
        raise InstanceFileError(f"--trunc {args.trunc} asks for {count:,} canonical words, "
                                f"more than the bound of {MAX_WORDS:,}")
    report = Report()
    if not _passes_check(inst, report):
        return report

    out = change_complement(inst, eps)
    report.check("theta transported", theta1=str(out["theta1"]))

    Q0 = deformation_brackets(inst, "derived")
    Q1 = deformation_brackets(out["instance"], "derived")
    space = Q0.space
    keys = basis_keys(inst)
    words = space.words(keys, args.trunc)
    eM = out["exp_M"]
    if args.corrupt_m2:
        # test hook: break the arity-2 Taylor coefficient and expect failure
        M = out["M"]
        orig = M.coefficients[2]
        M.coefficients[2] = lambda w: {k: 2 * v for k, v in orig(w).items()}
        eM = exp_coderivation(M)
    report.check(f"exp(M) intertwines codifferentials through arity {args.trunc}",
                 _word_witness(inst, check_morphism(eM, Q0, Q1, words)), words=len(words))

    def m2_mismatch(w) -> Optional[str]:
        closed = m2_sharp_closed(inst, out["eps_section"], *word_to_sections(inst, w))
        derived = vector_to_section(inst, out["M"].coefficient(2, w))
        if closed == derived:
            return None
        return f"word {_word_str(inst, w)}: closed {closed} vs derived {derived}"

    mismatches = (m2_mismatch(w) for w in space.words(keys, 2, 2))
    report.check("M_2 matches sharp/flat closed form",
                 next((m for m in mismatches if m is not None), None))
    return report


def _word_str(inst, word) -> str:
    """A word of basis keys as its monomials, e.g. `(1, u1*u2)`."""
    return f"({', '.join(inst.context.algebra.monomial_str(k) for k in word)})"


def _word_witness(inst, rep) -> Optional[str]:
    """The first failing word of a residual report, or None when it holds."""
    if rep.ok:
        return None
    word, residual = rep.witness()
    return f"word {_word_str(inst, word)}: residual {len(residual)} terms"


def cmd_cohomology(args) -> Report:
    doc = load_instance(args.file)
    inst = doc.instance
    if args.degree is not None and not 0 <= args.degree <= inst.n:
        raise InstanceFileError(f"--degree must be between 0 and {inst.n} (the rank), "
                                f"got {args.degree}")
    report = Report()
    try:
        cm = ComplexMatrices(inst)
    except (UnsupportedBase, NotFlat) as exc:
        raise InstanceFileError(str(exc)) from None
    degrees = [args.degree] if args.degree is not None else list(range(inst.n + 1))
    for k in degrees:
        h = cohomology(inst, k, cm)
        report.check(f"H^{k}", dimension=h.dimension,
                     representatives=[str(r) for r in h.representatives])
    return report


def cmd_selftest(args) -> Report:
    rng = random.Random(args.seed)
    report = Report()
    ctx = ContactContext(1, 2)

    def bracket_defect():
        """Graded skew-symmetry, then Jacobi, on one random triple: a nonzero residual."""
        a, b, c = (random_homogeneous_section(ctx, rng) for _ in range(3))
        if a.is_zero() or b.is_zero() or c.is_zero():
            return None
        sign = (-1) ** ((a.degree() - 2) * (b.degree() - 2))
        skew = jacobi_bracket(a, b) + jacobi_bracket(b, a).scale(sign)
        jac = jacobi_bracket(a, jacobi_bracket(b, c)) \
            - jacobi_bracket(jacobi_bracket(a, b), c) \
            - jacobi_bracket(b, jacobi_bracket(a, c)).scale(sign)
        return next((r for r in (skew, jac) if not r.is_zero()), None)

    defects = (bracket_defect() for _ in range(40))
    report.check("jacobi bracket: graded skew and jacobi identity",
                 next((d for d in defects if d is not None), None))

    heis2 = SplitCJInstance(0, 2, lam={0: 1}, name="HEIS2")
    report.check("built-in fixture axioms", check_cj_axioms(heis2).witness())

    Q = deformation_brackets(heis2, "derived")
    words = Q.space.words(basis_keys(heis2), 4)
    report.check("deformation codifferential squares to zero",
                 _word_witness(heis2, check_codifferential(Q, words)))
    return report


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
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
                        f"up to it is checked, at most {MAX_WORDS:,} words")
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
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.fn(args)
        _emit(report, args)
    except InstanceFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    return EXIT_MATH_FAIL if report.failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
