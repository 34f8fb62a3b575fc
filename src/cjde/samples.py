"""Seeded random samples: polynomials, sections and the form-basis keys.

`cjde check` validates the contact V-data on these samples and `cjde
selftest` checks the bracket identities on them; the test suite draws from
the same functions, so a seed gives the same sample everywhere.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

from .cjalg import form_basis
from .contact import ContactContext, Section, project_P
from .gca import Monomial, Poly

__all__ = [
    "random_poly",
    "random_section",
    "random_kernel_section",
    "random_homogeneous_section",
    "basis_keys",
]


def random_poly(ctx: ContactContext, rng: random.Random, weight: int = 4, terms: int = 4,
                indices: Optional[Iterable[int]] = None) -> Poly:
    """Up to `terms` random monomials of at most `weight` letters from `indices`
    (default: every generator), with integer coefficients in [-3, 3]."""
    pool = list(indices) if indices is not None else list(range(len(ctx.algebra.gens)))
    out: Dict[Monomial, int] = {}
    for _ in range(terms):
        k = rng.randint(0, weight)
        word = [rng.choice(pool) for _ in range(k)]
        _, mono = ctx.algebra.normalize_word(word)
        if mono is None:
            continue
        out[mono] = rng.randint(-3, 3)
    return Poly(ctx.algebra, out)


def random_section(ctx: ContactContext, rng: random.Random, weight: int = 4,
                   terms: int = 4) -> Section:
    return Section(ctx, random_poly(ctx, rng, weight, terms))


def random_kernel_section(ctx: ContactContext, rng: random.Random) -> Section:
    """A random section of weight <= 3 minus its projection P: an element of ker P."""
    s = random_section(ctx, rng, weight=3)
    return s - project_P(s)


def random_homogeneous_section(ctx: ContactContext, rng: random.Random, weight: int = 4,
                               terms: int = 5) -> Section:
    """Random section concentrated in one total degree (possibly zero)."""
    by_degree: Dict[int, Dict[Monomial, int]] = {}
    for _ in range(terms):
        k = rng.randint(0, weight)
        word = [rng.randrange(len(ctx.algebra.gens)) for _ in range(k)]
        _, mono = ctx.algebra.normalize_word(word)
        if mono is None:
            continue
        by_degree.setdefault(ctx.algebra.monomial_degree(mono), {})[mono] = rng.randint(-2, 2)
    if not by_degree:
        return ctx.zero_section()
    pick = rng.choice(sorted(by_degree))
    return Section(ctx, Poly(ctx.algebra, by_degree[pick]))


def basis_keys(inst) -> List[Monomial]:
    """Monomial keys of the u-form basis of the deformation space, by degree."""
    return [mono for k in range(inst.n + 1) for mono in form_basis(inst.context, k)]
