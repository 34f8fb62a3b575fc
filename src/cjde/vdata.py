"""V-data and their higher derived brackets (Voronov's construction).

A V-data quadruple consists of a graded Lie algebra (given by its bracket;
elements support `-` and `is_zero()`), an abelian subalgebra, a projection
whose kernel is a subalgebra, and a Maurer-Cartan element.  The higher
derived brackets

    m_k(a_1, ..., a_k) = P [ ... [Phi, a_1], ..., a_k]

equip the subalgebra with a curved L-infinity[1] structure; `Phi` is stored
already carrying whatever sign the application needs (for the contact model
it is minus the structure section), so no per-call sign flags exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["VData", "ValidationReport", "higher_derived_bracket"]


@dataclass
class VData:
    """Bracket, abelian membership, projection, MC element and curvature flag."""

    bracket: Callable[[object, object], object]
    in_subalgebra: Callable[[object], bool]
    project: Callable[[object], object]
    mc_element: object
    name: str = ""

    @property
    def is_curved(self) -> bool:
        return not self.project(self.mc_element).is_zero()

    def curvature(self) -> object:
        return self.project(self.mc_element)


@dataclass
class ValidationReport:
    """Pass/fail per V-data axiom, with a witness element on failure."""

    checks: List[Tuple[str, bool, Optional[object]]] = field(default_factory=list)
    curved: bool = False

    def add(self, name: str, ok: bool, witness: object = None) -> None:
        self.checks.append((name, ok, None if ok else witness))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failed(self) -> List[str]:
        return [name for name, ok, _ in self.checks if not ok]


def validate(v: VData, samples: Sequence[object],
             kernel_samples: Sequence[object] = ()) -> ValidationReport:
    """Sample-check the V-data axioms.

    `samples` are arbitrary algebra elements used for P idempotency and for
    abelian-ness of the image; `kernel_samples` should lie in ker P and are
    used for the subalgebra-kernel axiom.
    """
    report = ValidationReport()

    ok, wit = True, None
    for s in samples:
        ps = v.project(s)
        if not (v.project(ps) - ps).is_zero():
            ok, wit = False, s
            break
    report.add("projection idempotent", ok, wit)

    ok, wit = True, None
    for s in samples:
        if not v.in_subalgebra(v.project(s)):
            ok, wit = False, s
            break
    report.add("projection lands in subalgebra", ok, wit)

    ok, wit = True, None
    for s in samples:
        for t in samples:
            b = v.bracket(v.project(s), v.project(t))
            if not b.is_zero():
                ok, wit = False, b
                break
        if not ok:
            break
    report.add("subalgebra abelian", ok, wit)

    ok, wit = True, None
    for s in kernel_samples:
        for t in kernel_samples:
            b = v.bracket(s, t)
            if not v.project(b).is_zero():
                ok, wit = False, b
                break
        if not ok:
            break
    report.add("kernel closed under bracket", ok, wit)

    mc = v.bracket(v.mc_element, v.mc_element)
    report.add("MC equation {Phi,Phi}=0", mc.is_zero(), mc)

    report.curved = v.is_curved
    return report


def higher_derived_bracket(v: VData, k: int, args: Sequence[object]) -> object:
    """P[[...[Phi, a_1], ...], a_k]; for k = 0 this is the curvature P(Phi)."""
    if len(args) != k:
        raise ValueError(f"expected {k} arguments, got {len(args)}")
    for a in args:
        if not v.in_subalgebra(a):
            raise ValueError("argument outside the abelian subalgebra")
    current = v.mc_element
    for a in args:
        current = v.bracket(current, a)
    return v.project(current)
