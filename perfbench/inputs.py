"""Seeded inputs for the benchmark, and the checks made apart from cjde.

Nothing here imports cjde: instance data is produced as plain dicts and
JSON documents with `Fraction` entries, and the reference checks (the Lie
algebra test for point-base instances, the count of canonical words, the
Euler characteristic) are plain rational arithmetic.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

FIXTURES = ("curv1", "dgla1", "djmix", "heis2", "heis2-broken", "obst1", "omni1")

# Frame scalings are drawn from these values.  A diagonal change of frame
# e_a -> s_a e_a (with the dual frame scaled by 1/s_a) is an isomorphism of
# split Courant-Jacobi algebroids, so every verdict of a fixture is kept
# while its structure functions, and hence every input to cjde, change.
SCALE_VALUES = tuple(Fraction(p, q) * sign for p, q in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3))
                     for sign in (1, -1))


def round_rng(seed: int, workload: str, round_index: int, part: str) -> random.Random:
    """Independent stream per (seed, workload, round, part); str seeds hash stably."""
    return random.Random(f"{seed}/{workload}/{round_index}/{part}")


class ScaleDrawer:
    """Distinct frame scalings per fixture, so no fixture input repeats in a run.

    A rank-2 fixture has len(SCALE_VALUES) ** 2 = 100 scalings.
    """

    def __init__(self, seed: int, workload: str):
        self._rng = random.Random(f"{seed}/{workload}/scales")
        self._seen: Dict[str, set] = {}

    def draw(self, name: str, n: int) -> Tuple[Fraction, ...]:
        seen = self._seen.setdefault(name, set())
        if len(seen) >= len(SCALE_VALUES) ** n:
            raise RuntimeError(f"every frame scaling of {name} has been used")
        while True:
            s = tuple(self._rng.choice(SCALE_VALUES) for _ in range(n))
            if s not in seen:
                seen.add(s)
                return s


# --- fixture files -------------------------------------------------------


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _scale_entry(entry, factor: Fraction):
    """Scale one file entry: a rational string or an exponent -> rational map."""
    if isinstance(entry, dict):
        return {k: _fmt(Fraction(v) * factor) for k, v in entry.items()}
    return _fmt(Fraction(entry) * factor)


def rescale_fixture(data: dict, s: Sequence[Fraction]) -> dict:
    """The instance file of `data` in the frame e_a -> s_a e_a.

    Lower A-indices pick up s_a and upper ones 1/s_a: anchor rho^i_a and rep
    lam_a scale by s_a, bracket c^cc_ab by s_a s_b / s_cc, upsilon phi_abc by
    s_a s_b s_cc; the dual-side entries, the dual upsilon and the epsilons
    scale by the inverse factors, the deformations like a 2-form on A.
    """
    out = dict(data)
    n = int(data["rank"])
    inv = [1 / x for x in s]

    def scaled(arr, depth, factor, idx=()):
        if len(idx) == depth:
            return _scale_entry(arr, factor(*idx))
        return [scaled(x, depth, factor, idx + (i,)) for i, x in enumerate(arr)]

    for key, depth, factor in (
            ("anchor", 2, lambda i, a: s[a]),
            ("anchor_dual", 2, lambda i, a: inv[a]),
            ("rep", 1, lambda a: s[a]),
            ("rep_dual", 1, lambda a: inv[a]),
            ("bracket", 3, lambda cc, a, b: s[a] * s[b] * inv[cc]),
            ("bracket_dual", 3, lambda cc, a, b: inv[a] * inv[b] * s[cc]),
            ("upsilon", 3, lambda a, b, cc: s[a] * s[b] * s[cc]),
            ("upsilon_dual", 3, lambda a, b, cc: inv[a] * inv[b] * inv[cc])):
        if data.get(key) is not None:
            out[key] = scaled(data[key], depth, factor)
    for key, factor in (("deformations", lambda a, b: s[a] * s[b]),
                        ("epsilons", lambda a, b: inv[a] * inv[b])):
        if key in data:
            out[key] = {name: scaled(arr, 2, factor) for name, arr in data[key].items()}
    return out


def load_fixture_data(root: str) -> Dict[str, dict]:
    out = {}
    for name in FIXTURES:
        with open(os.path.join(root, "fixtures", f"{name}.json"), encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def write_scaled_fixtures(fixtures: Dict[str, dict], names: Sequence[str],
                          drawer: ScaleDrawer, directory: str) -> Dict[str, str]:
    """Write each named fixture in a fresh frame; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in names:
        data = fixtures[name]
        scaled = rescale_fixture(data, drawer.draw(name, int(data["rank"])))
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scaled, fh, sort_keys=True)
        paths[name] = path
    return paths


# --- random instances ------------------------------------------------------


def _x_poly(rng: random.Random, m: int):
    """A nonzero rational or, over a line, a + b x with a, b nonzero."""
    if m == 0:
        return rng.choice((-2, -1, 1, 2))
    return {(0,): rng.choice((-2, -1, 1, 2)), (1,): rng.choice((-1, 1))}


def _pick(rng: random.Random, keys: List, share: float) -> List:
    """A fixed share of the keys, chosen at random: the instance size never varies."""
    return rng.sample(keys, round(share * len(keys)))


def random_instance_kwargs(rng: random.Random, m: int, n: int, slot: int) -> dict:
    """All structure functions random: almost always a generic failure.

    Which entries are nonzero is fixed by (m, n, slot) and only their values
    come from `rng`, so the instance in a slot costs about the same in every
    round and for every seed, while no two instances repeat.
    """
    pattern = random.Random(f"pattern/{m}/{n}/{slot}")
    pairs = list(itertools.combinations(range(n), 2))
    ctab = [(cc, a, b) for cc in range(n) for a, b in pairs]
    anchors = [(i, a) for i in range(m) for a in range(n)]
    triples = list(itertools.combinations(range(n), 3))
    kw = {}
    for key, keys, share in (("rho", anchors, 0.7), ("rho_dual", anchors, 0.7),
                             ("lam", list(range(n)), 0.7), ("lam_dual", list(range(n)), 0.7),
                             ("c", ctab, 0.6), ("c_dual", ctab, 0.6),
                             ("phi", triples, 1.0), ("psi", triples, 1.0)):
        kw[key] = {k: _x_poly(rng, m) for k in _pick(pattern, keys, share)}
    return kw


# Three-dimensional real Lie algebras in their standard bases: c[(cc, a, b)]
# is the e_cc-coefficient of [e_a, e_b] for a < b.
LIE3 = (
    {},                                               # abelian
    {(2, 0, 1): 1},                                   # Heisenberg
    {(1, 0, 1): 1, (2, 0, 2): 1},                     # r_3,1
    {(1, 0, 1): 1, (2, 0, 2): 2},                     # r_3,2
    {(1, 0, 1): 1, (1, 0, 2): 1, (2, 0, 2): 1},       # r_3 (Jordan block)
    {(1, 0, 1): 2, (2, 0, 2): -2, (0, 1, 2): 1},      # sl_2
    {(2, 0, 1): 1, (0, 1, 2): 1, (1, 0, 2): -1},      # so_3
)


def bracket_tensor(c: Dict[Tuple[int, int, int], Fraction], n: int) -> List[List[List[Fraction]]]:
    """t[cc][a][b] with the skew part filled in."""
    t = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (cc, a, b), v in c.items():
        t[cc][a][b] += Fraction(v)
        t[cc][b][a] -= Fraction(v)
    return t


def aside_integrable(c: Dict[Tuple[int, int, int], Fraction], lam: Dict[int, Fraction],
                     n: int) -> bool:
    """Point base, A side only: c is a Lie bracket and lam vanishes on brackets.

    With zero anchor and zero dual side the structure equation reduces to
    the Jacobi identity of c and lam([e_a, e_b]) = sum_cc c^cc_ab lam_cc = 0.
    """
    t = bracket_tensor(c, n)
    lv = [Fraction(lam.get(a, 0)) for a in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        if sum(t[cc][a][b] * lv[cc] for cc in range(n)):
            return False
    for a, b, d in itertools.combinations(range(n), 3):
        for e in range(n):
            jac = sum(t[k][b][d] * t[e][a][k] + t[k][d][a] * t[e][b][k]
                      + t[k][a][b] * t[e][d][k] for k in range(n))
            if jac:
                return False
    return True


def _inverse(g: List[List[Fraction]]) -> Optional[List[List[Fraction]]]:
    n = len(g)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(g)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _annihilator(vectors: List[List[Fraction]], n: int) -> List[List[Fraction]]:
    """Basis of {lam : lam . v = 0 for every v}, by elimination over Q."""
    rows = [list(v) for v in vectors if any(v)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in (col for col in range(n) if col not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][free]
        basis.append(v)
    return basis


def aside_instance(rng: random.Random, n: int, integrable: bool,
                   slot: int) -> Tuple[dict, bool]:
    """Point-base A-side data (c, lam) and its verdict by `aside_integrable`.

    Integrable ones are a standard Lie algebra (any bracket when n = 2),
    chosen by `slot`, in a random integer frame, with lam drawn from the
    annihilator of the derived algebra; the others have a random bracket
    and random weights on a pattern of nonzero entries fixed by `slot`.
    """
    pairs = list(itertools.combinations(range(n), 2))
    pattern = random.Random(f"aside/{n}/{slot}")
    if integrable:
        if n == 3:
            base = bracket_tensor(LIE3[1 + slot % (len(LIE3) - 1)], n)
            while True:  # unimodular frames keep the constants integral
                g = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
                ginv = _inverse(g)
                if ginv is not None and all(x.denominator == 1 for row in ginv for x in row):
                    break
            c = {}
            for l, (a, b) in itertools.product(range(n), pairs):
                v = sum(g[i][a] * g[j][b] * base[k][i][j] * ginv[l][k]
                        for i in range(n) for j in range(n) for k in range(n))
                if v:
                    c[(l, a, b)] = v
        else:
            c = {(cc, 0, 1): Fraction(rng.choice((-2, -1, 1, 2))) for cc in range(n)}
        t = bracket_tensor(c, n)
        derived = [[t[cc][a][b] for cc in range(n)] for a, b in pairs]
        ann = _annihilator(derived, n)
        weights = [rng.choice((-1, 1, 2)) for _ in ann]
        lam_vec = [sum((w * v[i] for w, v in zip(weights, ann)), Fraction(0))
                   for i in range(n)]
        lam = {a: x for a, x in enumerate(lam_vec) if x}
    else:
        ctab = [(cc, a, b) for cc in range(n) for a, b in pairs]
        c = {k: Fraction(rng.choice((-1, 1))) for k in _pick(pattern, ctab, 0.5)}
        lam = {a: Fraction(rng.choice((-1, 1))) for a in _pick(pattern, list(range(n)), 0.67)}
    verdict = aside_integrable(c, lam, n)
    if integrable and not verdict:
        raise AssertionError("constructed Lie algebra failed the plain check")
    return {"c": c, "lam": lam}, verdict


def random_two_form(rng: random.Random, n: int) -> Dict[Tuple[int, int], int]:
    return {(a, b): rng.randint(-2, 2) for a, b in itertools.combinations(range(n), 2)}


# --- counts and invariants ---------------------------------------------------


def canonical_word_count(n: int, max_len: int) -> int:
    """Words of length <= max_len over the u-monomials of rank n.

    A key is a subset S of the n frame indices; its shifted degree |S| - 2
    is odd exactly when |S| is odd.  Canonical words are multisets of keys
    in which no odd key repeats.
    """
    odd = sum(math.comb(n, k) for k in range(1, n + 1, 2))
    even = 2 ** n - odd
    total = 0
    for length in range(max_len + 1):
        for j in range(min(odd, length) + 1):
            rest = length - j
            total += math.comb(odd, j) * (math.comb(even + rest - 1, rest) if even else int(rest == 0))
    return total


def euler_characteristic_of_point(n: int) -> int:
    """sum_k (-1)^k C(n, k): the Euler characteristic of the forms, 0 for n >= 1."""
    return sum((-1) ** k * math.comb(n, k) for k in range(n + 1))
