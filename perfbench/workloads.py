"""The benchmark's workloads: one round's inputs, and its verdicts.

A verdict is one whole verification task: one instance, one fixture's
sweep, or one deformation analysis.  `prepare` loads or generates the inputs
of one round and builds each instance's Theta; a `Verdict` then runs cjde
(`run`, the timed part) and decides the result (`check`) against a
computation made apart from cjde or a property the method must have, never
against a saved copy of earlier output.

Every cjde function is reached through its module (`cjalg.check_cj_axioms`)
so that the tracer, which patches module attributes, sees the call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

from cjde import cjalg, cli, deform, instancefile, linfty

import inputs

# axioms: random instances per round as (m, n, count), and point-base A-side
# instances as (n, integrable, count)
AXIOMS_RANDOM = ((1, 3, 1), (0, 3, 2), (1, 2, 2), (0, 2, 2))
AXIOMS_ASIDE = ((3, True, 4), (3, False, 4), (2, True, 1), (2, False, 1))

# linf_sweep: codifferential arity and morphism truncation per fixture
CODIFF_ARITY = {"heis2": 5, "omni1": 5, "djmix": 3, "obst1": 3, "dgla1": 3, "curv1": 3}
MORPHISM_TRUNC = {"heis2": 4, "omni1": 3, "djmix": 3}

# deform.  Each analysis extends the fixture's named 2-form and seeded closed
# 2-forms with extend_mc, and compares the MC residual with involutivity of
# the graph on seeded 2-forms.  m_1 vanishes on the 2-forms of obst1 and
# djmix, so there the comparison does not depend on the sign convention of
# the graph; dgla1 gets no compared forms (see the FOUND note in CHANGES.md).
SEARCHES = 2
SEARCH_TRIES = 2000
EXTEND_ORDER = 4
# name -> (named 2-form, known outcome of it, extend_mc order, seeded closed
# starts, seeded compared forms); outcome True = obstructed, None = unknown
ANALYSES = {"obst1": ("eta1", True, EXTEND_ORDER, 3, 20),
            "djmix": ("e12", None, EXTEND_ORDER, 3, 20),
            "dgla1": ("eta1", False, 12, 7, 0)}
# `cjde deform` arguments per fixture; None means a seeded `--random` 2-form
CLI_DEFORM = {"heis2": None, "djmix": None,
              "obst1": ["--eta", "eta1", "--order", str(EXTEND_ORDER)],
              "dgla1": ["--eta", "eta1", "--order", str(EXTEND_ORDER)]}
CLI_COHOMOLOGY = ("heis2", "djmix", "obst1", "dgla1", "curv1")


@dataclass
class Verdict:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


class Round:
    """What `prepare` needs besides the round index: fixture data, scalings, paths."""

    def __init__(self, root: str, seed: int, workload: str, workdir: str):
        self.seed = seed
        self.workload = workload
        self.workdir = workdir
        self.fixtures = inputs.load_fixture_data(root)
        self.scales = inputs.ScaleDrawer(seed, workload)

    def prepare(self, index: int) -> List[Verdict]:
        directory = os.path.join(self.workdir, f"round-{index}")
        return PREPARE[self.workload](self, index, directory)

    def rng(self, index: int, part: str):
        return inputs.round_rng(self.seed, self.workload, index, part)


# --- shared helpers --------------------------------------------------------


def run_cli(argv: List[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_lines(text: str) -> List[Dict[str, object]]:
    return [json.loads(line) for line in text.splitlines()]


def load(path: str):
    """Load an instance file and build its Theta before any timed verdict."""
    doc = instancefile.load_instance(path)
    doc.instance.theta
    return doc


def basis_keys(inst) -> list:
    ctx = inst.context
    return [ctx.algebra.normalize_word([ctx.ix_u[a] for a in combo])[1]
            for k in range(inst.n + 1) for combo in itertools.combinations(range(inst.n), k)]


# --- axioms ------------------------------------------------------------------


def check_cli_verdict(name: str, path: str) -> Verdict:
    def check(result) -> bool:
        code, text = result
        lines = cli_lines(text)
        if name == "heis2-broken":
            first = lines[0]
            return (code == 1 and first["check"].startswith("structure-equation")
                    and first["status"] == "fail" and first["witness"] not in (None, "(0)*mu"))
        return code == 0 and all(line["status"] == "pass" for line in lines)
    return Verdict(f"cli check {name}", lambda: run_cli(["check", path]), check)


def axioms_ok(report) -> bool:
    """The structure equation holds exactly when the direct axioms hold."""
    mc_ok = report.mc_residual.is_zero()
    direct_ok = all(r.is_zero() for _, r in report.jacobi_residuals + report.flatness_residuals)
    return mc_ok == direct_ok


def axiom_verdict(name: str, inst, expected_ok=None) -> Verdict:
    """check_cj_axioms on one instance; `expected_ok` is the plain-Fraction verdict."""
    def check(report) -> bool:
        if not axioms_ok(report):
            return False
        return expected_ok is None or report.mc_residual.is_zero() == expected_ok
    return Verdict(name, lambda: cjalg.check_cj_axioms(inst), check)


def prepare_axioms(rnd: Round, index: int, directory: str) -> List[Verdict]:
    paths = inputs.write_scaled_fixtures(rnd.fixtures, inputs.FIXTURES, rnd.scales, directory)
    out = [check_cli_verdict(name, path) for name, path in paths.items()]
    rng = rnd.rng(index, "instances")
    for m, n, count in AXIOMS_RANDOM:
        for i in range(count):
            kw = inputs.random_instance_kwargs(rng, m, n, i)
            inst = cjalg.SplitCJInstance(m, n, name=f"random m={m} n={n} #{i}", **kw)
            inst.theta  # Theta is lazy: build it before the timed verdict
            out.append(axiom_verdict(inst.name, inst))
    for n, integrable, count in AXIOMS_ASIDE:
        for i in range(count):
            kw, expected = inputs.aside_instance(rng, n, integrable, i)
            inst = cjalg.SplitCJInstance(0, n, name=f"A-side n={n} #{i}", **kw)
            inst.theta  # Theta is lazy: build it before the timed verdict
            out.append(axiom_verdict(inst.name, inst, expected))
    return out


# --- linf_sweep ----------------------------------------------------------------


def codifferential_verdict(name: str, inst, arity: int) -> Verdict:
    def run():
        Q = cjalg.deformation_brackets(inst, "derived").to_coderivation()
        words = Q.space.words(basis_keys(inst), arity)
        return len(words), linfty.check_codifferential(Q, words)

    def check(result) -> bool:
        count, report = result
        return report.ok and count == inputs.canonical_word_count(inst.n, arity)
    return Verdict(f"codifferential {name} arity {arity}", run, check)


def morphism_verdict(name: str, inst, eps, trunc: int, corrupt_m2: bool = False) -> Verdict:
    """e^M after change_complement intertwines the two codifferentials.

    With `corrupt_m2` the arity-2 coefficient of M is doubled before the
    exponential is taken, as `cjde complement --corrupt-m2` does.
    """
    def run():
        out = cjalg.change_complement(inst, eps)
        eM = out["exp_M"]
        if corrupt_m2:
            M = out["M"]
            m2 = M.coefficients[2]
            M.coefficients[2] = lambda w: {k: 2 * v for k, v in m2(w).items()}
            eM = linfty.exp_coderivation(M)
        Q0 = cjalg.deformation_brackets(inst, "derived").to_coderivation()
        Q1 = cjalg.deformation_brackets(out["instance"], "derived").to_coderivation()
        words = Q0.space.words(basis_keys(inst), trunc)
        report = linfty.check_morphism(eM, Q0, Q1, words)
        return len(words), report, cjalg.check_cj_axioms(out["instance"])

    def check(result) -> bool:
        count, report, transported = result
        return (report.ok and count == inputs.canonical_word_count(inst.n, trunc)
                and transported.ok)
    return Verdict(f"morphism {name} truncation {trunc}", run, check)


def prepare_linf_sweep(rnd: Round, index: int, directory: str) -> List[Verdict]:
    names = sorted(set(CODIFF_ARITY) | set(MORPHISM_TRUNC))
    docs = {name: load(path) for name, path in
            inputs.write_scaled_fixtures(rnd.fixtures, names, rnd.scales, directory).items()}
    out = [codifferential_verdict(name, docs[name].instance, arity)
           for name, arity in CODIFF_ARITY.items()]
    out += [morphism_verdict(name, docs[name].instance, docs[name].epsilons["eps1"], trunc)
            for name, trunc in MORPHISM_TRUNC.items()]
    return out


# --- deform --------------------------------------------------------------------


def euler_ok(n: int, dims: List[int]) -> bool:
    return (len(dims) == n + 1 and
            sum((-1) ** k * d for k, d in enumerate(dims)) == inputs.euler_characteristic_of_point(n))


def analysis(inst, starts, order: int, forms=()):
    """One deformation analysis of an instance over a point.

    Cohomology in every degree; per closed start its Kuranishi class, its
    formal extension to `order` and the MC residual coefficients of the
    solved part; per form in `forms`, MC residual against involutivity.
    """
    cm = deform.ComplexMatrices(inst)
    hs = [deform.cohomology(inst, k, cm) for k in range(inst.n + 1)]
    curves = []
    for eta in starts:
        kur, _ = deform.kuranishi(inst, eta, hs[3])
        curve = deform.extend_mc(inst, eta, order, h3=hs[3])
        solved = order if curve.ok else curve.obstructed_at - 1
        res = deform.mc_residual_coefficients(inst, curve.coefficients[:solved], solved)
        curves.append((kur, curve, res))
    mc = []
    for form in forms:
        mc_zero = cjalg.mc_residual_form(inst, form).is_zero()
        involutive, witness = cjalg.is_dirac_jacobi(inst, cjalg.graph_frame(inst, form))
        mc.append((mc_zero, involutive, witness))
    return [h.dimension for h in hs], curves, mc


def analysis_ok(n: int, result, first_obstructed=None) -> bool:
    """Euler characteristic, MC <-> involutive, and each extension's outcome.

    The solved part of every curve has zero MC residual through its order;
    an obstruction carries a nonzero class, and comes at order 2 exactly
    when the Kuranishi class is nonzero.  `first_obstructed` is the known
    outcome for the first start, None when only these properties hold.
    """
    dims, curves, mc = result
    if not euler_ok(n, dims):
        return False
    for kur, curve, res in curves:
        if not all(r.is_zero() for r in res) or any(kur) != (curve.obstructed_at == 2):
            return False
        if not curve.ok and not any(curve.obstruction_class):
            return False
    if first_obstructed is not None and first_obstructed != (curves[0][1].obstructed_at == 2):
        return False
    return all(mc_zero == involutive and (involutive or not witness[1].is_zero())
               for mc_zero, involutive, witness in mc)


def search_verdict(search_seed: int) -> Verdict:
    def run():
        inst, eta, coords = deform.search_obstructed_instance(seed=search_seed,
                                                              tries=SEARCH_TRIES)
        return inst.n, coords, analysis(inst, [eta], EXTEND_ORDER)

    def check(result) -> bool:
        n, coords, res = result
        return any(coords) and analysis_ok(n, res, first_obstructed=True)
    return Verdict(f"search seed {search_seed}", run, check)


def analysis_verdict(name: str, inst, starts, order: int, forms, known) -> Verdict:
    return Verdict(f"analysis {name}", lambda: analysis(inst, starts, order, forms),
                   lambda res: analysis_ok(inst.n, res, known))


def closed_two_forms(inst, rng, count: int):
    """Random integer combinations of a basis of the closed 2-forms."""
    cm = deform.ComplexMatrices(inst)
    kernel = deform.nullspace(cm.matrices[2], len(cm.basis[2]))
    out = []
    for _ in range(count):
        weights = [rng.choice((-2, -1, 1, 2)) for _ in kernel]
        coords = [sum(w * v[i] for w, v in zip(weights, kernel)) for i in range(len(cm.basis[2]))]
        out.append(cm.coords_to_form(coords, 2))
    return out


def cli_deform_ok(name: str, result) -> bool:
    code, text = result
    lines = {line["check"]: line for line in cli_lines(text)}
    if code != 0 or any(line["status"] == "fail" for line in lines.values()):
        return False
    mc = lines["maurer-cartan residual"]["status"] == "pass"
    if mc != (lines["graph is dirac-jacobi"]["verdict"] == "True"):
        return False
    ext = lines.get("formal extension")
    if name == "obst1":
        return ext is not None and ext["obstructed_at"] == 2
    if name == "dgla1":
        return ext is not None and ext["status"] == "pass" and \
            len(ext["coefficients"]) == EXTEND_ORDER
    return True


def cli_verdict(deform_argvs: Dict[str, List[str]], cohomology_paths: Dict[str, str],
                ranks: Dict[str, int]) -> Verdict:
    """`cjde deform` and `cjde cohomology` on the point fixtures, each on its own file."""
    def run():
        return ({name: run_cli(argv) for name, argv in deform_argvs.items()},
                {name: run_cli(["cohomology", path]) for name, path in cohomology_paths.items()})

    def check(result) -> bool:
        deformed, cohomologies = result
        return (all(cli_deform_ok(name, res) for name, res in deformed.items()) and
                all(code == 0 and euler_ok(ranks[name], [line["dimension"]
                                                         for line in cli_lines(text)])
                    for name, (code, text) in cohomologies.items()))
    return Verdict("cli deform and cohomology", run, check)


def prepare_deform(rnd: Round, index: int, directory: str) -> List[Verdict]:
    rng = rnd.rng(index, "forms")
    lib = inputs.write_scaled_fixtures(rnd.fixtures, ANALYSES, rnd.scales,
                                       os.path.join(directory, "lib"))
    out = [search_verdict(rnd.seed * 1000 + index * SEARCHES + i) for i in range(SEARCHES)]
    for name, (eta, known, order, n_starts, n_forms) in ANALYSES.items():
        doc = load(lib[name])
        inst = doc.instance
        starts = [doc.deformations[eta]] + closed_two_forms(inst, rng, n_starts)
        forms = [cjalg.DeformationForm.from_dict(inst, inputs.random_two_form(rng, inst.n))
                 for _ in range(n_forms)]
        out.append(analysis_verdict(name, inst, starts, order, forms, known))
    deform_paths = inputs.write_scaled_fixtures(rnd.fixtures, CLI_DEFORM, rnd.scales,
                                                os.path.join(directory, "deform"))
    cohomology_paths = inputs.write_scaled_fixtures(rnd.fixtures, CLI_COHOMOLOGY, rnd.scales,
                                                    os.path.join(directory, "cohomology"))
    deform_argvs = {name: ["deform", path] +
                    (CLI_DEFORM[name] or ["--random", str(rng.randrange(10 ** 6))])
                    for name, path in deform_paths.items()}
    ranks = {name: int(rnd.fixtures[name]["rank"]) for name in CLI_COHOMOLOGY}
    out.append(cli_verdict(deform_argvs, cohomology_paths, ranks))
    return out


PREPARE = {"axioms": prepare_axioms, "linf_sweep": prepare_linf_sweep, "deform": prepare_deform}
