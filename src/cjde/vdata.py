"""V-data and their higher derived brackets (Voronov's construction).

A V-data quadruple consists of a graded Lie algebra (given by its bracket;
elements support `-` and `is_zero()`), an abelian subalgebra, a projection
whose kernel is a subalgebra, and a Maurer-Cartan element.  The higher
derived brackets

    m_k(a_1, ..., a_k) = P [ ... [Phi, a_1], ..., a_k]

equip the subalgebra with a curved L-infinity[1] structure; k = len(args).
`Phi` is stored already carrying whatever sign the application needs, so no
per-call sign flags exist.  The contact model has one V-data: with
Phi = -Theta (held by the instance) it gives the deformation brackets m_k,
with Phi = eps the M_2 of a change of complement.

The bracket of a word is one bracket past the bracket of its prefix.
`derived_bracket_fold` evaluates many words with one fold, left to right in
the letters' order: it keeps the unprojected bracket [...[Phi, a_1], ...,
a_j] of every prefix of length j <= `keep` in a dict owned by the function
it returns, so each word costs one bracket past its longest kept prefix.
The dict is freed with that function.  `higher_derived_bracket` is the same
fold on one argument list, with nothing kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["VData", "ValidationReport", "derived_bracket_fold", "higher_derived_bracket"]


@dataclass
class VData:
    """Bracket, abelian membership, projection, MC element and curvature flag."""

    bracket: Callable[[object, object], object]
    in_subalgebra: Callable[[object], bool]
    project: Callable[[object], object]
    mc_element: object

    @property
    def is_curved(self) -> bool:
        return not self.project(self.mc_element).is_zero()

    def curvature(self) -> object:
        return self.project(self.mc_element)


@dataclass
class ValidationReport:
    """Per V-data axiom its witness: None when it holds, else a failing element."""

    checks: List[Tuple[str, Optional[object]]] = field(default_factory=list)
    curved: bool = False

    @property
    def ok(self) -> bool:
        return all(witness is None for _, witness in self.checks)

    def failed(self) -> List[str]:
        return [name for name, witness in self.checks if witness is not None]


def validate(v: VData, samples: Sequence[object],
             kernel_samples: Sequence[object] = ()) -> ValidationReport:
    """Sample-check the V-data axioms.

    `samples` are arbitrary algebra elements used for P idempotency and for
    abelian-ness of the image; `kernel_samples` should lie in ker P and are
    used for the subalgebra-kernel axiom.  A failing projection check names
    the first failing sample, a failing bracket check the first offending
    bracket, both in sample order.
    """
    images = [v.project(s) for s in samples]
    image_brackets = (v.bracket(a, b) for a in images for b in images)
    kernel_brackets = (v.bracket(s, t) for s in kernel_samples for t in kernel_samples)
    mc = v.bracket(v.mc_element, v.mc_element)
    checks = [
        ("projection idempotent",
         next((s for s, ps in zip(samples, images) if not (v.project(ps) - ps).is_zero()),
              None)),
        ("projection lands in subalgebra",
         next((s for s, ps in zip(samples, images) if not v.in_subalgebra(ps)), None)),
        ("subalgebra abelian", next((b for b in image_brackets if not b.is_zero()), None)),
        ("kernel closed under bracket",
         next((b for b in kernel_brackets if not v.project(b).is_zero()), None)),
        ("MC equation {Phi,Phi}=0", None if mc.is_zero() else mc),
    ]
    return ValidationReport(checks, v.is_curved)


def derived_bracket_fold(v: VData, letter: Callable[[object], object],
                         keep: int) -> Callable[[Tuple], object]:
    """word -> P[[...[Phi, letter(w_1)], ...], letter(w_k)], one bracket per new prefix.

    Words are hashable tuples of letters.  The unprojected bracket of each
    prefix of length <= `keep` is kept by the returned function, so a word
    costs one bracket per letter past its longest kept prefix (module
    docstring).  A letter outside the abelian subalgebra raises ValueError
    on its first use; the function keeps the set of letters it has tested,
    so each distinct letter is tested once.
    """
    prefixes: Dict[Tuple, object] = {(): v.mc_element}
    tested: set = set()

    def fold(word: Tuple) -> object:
        j = min(len(word), keep)
        while word[:j] not in prefixes:
            j -= 1
        current = prefixes[word[:j]]
        for i in range(j, len(word)):
            a = letter(word[i])
            if word[i] not in tested:
                if not v.in_subalgebra(a):
                    raise ValueError("argument outside the abelian subalgebra")
                tested.add(word[i])
            current = v.bracket(current, a)
            if i < keep:
                prefixes[word[:i + 1]] = current
        return v.project(current)
    return fold


def higher_derived_bracket(v: VData, args: Sequence[object]) -> object:
    """P[[...[Phi, a_1], ...], a_k] with k = len(args); for k = 0, the curvature P(Phi)."""
    return derived_bracket_fold(v, lambda a: a, 0)(tuple(args))
