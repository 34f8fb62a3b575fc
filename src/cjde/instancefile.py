"""Loading and saving instance files.

An instance file is UTF-8 JSON carrying the structure functions of a split
Courant-Jacobi algebroid, plus optional named deformations (2-forms on the
A side) and epsilon tensors (2-forms on the dual side).  Rational numbers
are "num/den" strings, bit-exact; polynomial entries are either such a
string (a constant) or a map from comma-separated exponent vectors to
rationals, each exponent at most MAX_EXPONENT.  A tensor with a symmetry
(bracket, upsilon, 2-form) is accepted only if it equals the table that its
canonical entries spread to by the rules of `cjalg`, so each symmetry is
written down in one place.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from typing import Dict, List, Tuple

from .cjalg import DeformationForm, SplitCJInstance, _as_xpoly, _skew_matrix
from .contact import ContactContext
from .gca import Poly, add_into

__all__ = ["InstanceFileError", "InstanceDocument", "load_instance", "save_instance"]

SCHEMA_VERSION = 1

# Largest accepted sizes.  A context has 2m+2n+1 generators and an instance
# n^3 polynomials per tensor, all allocated before any check runs, so a file
# is rejected on its declared sizes alone.  Rank 5 is the largest the engine
# is meant to reach; one more is left as margin.
MAX_BASE_DIM = 4
MAX_RANK = 6
# Largest exponent of a base coordinate in a file.  The kernel keeps each
# exponent in a packed field of at most `gca.MAX_FIELD_EXPONENT` (32767) and a
# product adds exponents, so this leaves room for products of 128 factors at
# the cap before the kernel raises `gca.ExponentOverflow`.
MAX_EXPONENT = 255


# The only top-level keys a file may carry; any other, such as a misspelled
# "anchr", is rejected rather than read as a zero tensor.
KEYS = ("schema", "name", "base_dim", "rank", "anchor", "bracket", "rep", "anchor_dual",
        "bracket_dual", "rep_dual", "upsilon", "upsilon_dual", "deformations", "epsilons")

# The only number spellings a file may use.  int() and Fraction() alone would
# also read digit separators, surrounding spaces, non-ASCII digits, decimals
# and exponents, so "1_0" would load as 10.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_EXPONENT = re.compile(r"[0-9]+")


class InstanceFileError(ValueError):
    """Malformed or inconsistent instance file (CLI exit code 2)."""


def _is_json_int(v) -> bool:
    """True for a JSON integer: bool is a subclass of int and does not count."""
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_rational(s) -> Fraction:
    if isinstance(s, str):
        if not _RATIONAL.fullmatch(s):
            raise InstanceFileError(f"bad rational {s!r}: expected 'num' or 'num/den' "
                                    "in ASCII digits")
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:  # 1/0, or past int's digit limit
            raise InstanceFileError(f"bad rational {s!r}: {exc}") from None
    if _is_json_int(s):
        return Fraction(s)
    if isinstance(s, bool):
        raise InstanceFileError(f"a rational entry may not be a boolean, got {s!r}")
    raise InstanceFileError(f"rational must be a 'num/den' string, got {s!r}")


def _format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _parse_poly(entry, m: int) -> Dict[Tuple[int, ...], Fraction]:
    """Polynomial as an exponent-vector dict (exponents over the x variables)."""
    if isinstance(entry, (str, int)):
        q = _parse_rational(entry)
        return {(0,) * m: q} if q else {}
    if isinstance(entry, dict):
        terms: List[Tuple[Tuple[int, ...], Fraction]] = []
        for key, val in entry.items():
            if key == "":
                exps: Tuple[int, ...] = (0,) * m
            else:
                parts = key.split(",")
                if not all(_EXPONENT.fullmatch(p) for p in parts):
                    raise InstanceFileError(f"bad exponent vector {key!r}: expected "
                                            "comma-separated ASCII digits")
                try:
                    exps = tuple(map(int, parts))
                except ValueError as exc:  # past int's digit limit
                    raise InstanceFileError(f"bad exponent vector {key!r}: {exc}") from None
            if len(exps) != m:
                raise InstanceFileError(f"exponent vector {key!r} does not match base dim {m}")
            if any(e > MAX_EXPONENT for e in exps):
                raise InstanceFileError(f"exponent vector {key!r}: an exponent exceeds "
                                        f"{MAX_EXPONENT}")
            terms.append((exps, _parse_rational(val)))
        return add_into({}, terms)
    raise InstanceFileError(f"bad polynomial entry {entry!r}")


def _format_poly(p: Poly, inst: SplitCJInstance):
    ctx = inst.context
    coeffs: Dict[Tuple[int, ...], Fraction] = {}
    for mono, c in p.terms.items():
        exps = [0] * inst.m
        for idx, e in mono:
            exps[ctx.ix_x.index(idx)] = e
        coeffs[tuple(exps)] = c
    if not coeffs:
        return "0"
    if list(coeffs) == [(0,) * inst.m]:
        return _format_rational(coeffs[(0,) * inst.m])
    return {",".join(str(e) for e in exps): _format_rational(c)
            for exps, c in sorted(coeffs.items())}


def _expect_array(data, key: str, shape: Tuple[int, ...], m: int):
    """Parse a nested array of polynomials with the given shape (or all-zero)."""
    if key not in data:
        return None
    arr = data[key]

    def recurse(a, sh):
        if not sh:
            return _parse_poly(a, m)
        if not isinstance(a, list) or len(a) != sh[0]:
            raise InstanceFileError(f"{key}: expected array of length {sh[0]}")
        return [recurse(x, sh[1:]) for x in a]

    return recurse(arr, shape)


class InstanceDocument:
    """A parsed instance file: the instance plus named deformations/epsilons."""

    def __init__(self, instance: SplitCJInstance,
                 deformations: Dict[str, DeformationForm],
                 epsilons: Dict[str, Dict[Tuple[int, int], Dict]]):
        self.instance = instance
        self.deformations = deformations
        self.epsilons = epsilons


def load_instance(path: str) -> InstanceDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceFileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InstanceFileError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InstanceFileError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InstanceFileError(f"{path} nests JSON too deeply") from None
    if not isinstance(data, dict):
        raise InstanceFileError("top level must be a JSON object")
    unknown = sorted(set(data) - set(KEYS))
    if unknown:
        raise InstanceFileError(f"unknown top-level key(s) {', '.join(map(repr, unknown))}; "
                                f"allowed: {', '.join(KEYS)}")
    for key in ("deformations", "epsilons"):
        if not isinstance(data.get(key, {}), dict):
            raise InstanceFileError(f"{key} must be a JSON object mapping names to 2-forms")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise InstanceFileError(f"name must be a JSON string, got {name!r}")
    sizes = [data.get(key) for key in ("schema", "base_dim", "rank")]
    if not all(map(_is_json_int, sizes)):
        raise InstanceFileError("schema, base_dim and rank must be JSON integers, got "
                                f"{sizes[0]!r}, {sizes[1]!r} and {sizes[2]!r}")
    schema, m, n = sizes
    if schema != SCHEMA_VERSION:
        raise InstanceFileError(f"unsupported schema version {schema!r}")
    if m < 0 or n < 1:
        raise InstanceFileError("base_dim must be >= 0 and rank >= 1")
    if m > MAX_BASE_DIM or n > MAX_RANK:
        raise InstanceFileError(f"base_dim {m} and rank {n} exceed the supported "
                                f"sizes (base_dim <= {MAX_BASE_DIM}, rank <= {MAX_RANK})")

    anchor = _expect_array(data, "anchor", (m, n), m)
    bracket = _expect_array(data, "bracket", (n, n, n), m)
    rep = _expect_array(data, "rep", (n,), m)
    anchor_d = _expect_array(data, "anchor_dual", (m, n), m)
    bracket_d = _expect_array(data, "bracket_dual", (n, n, n), m)
    rep_d = _expect_array(data, "rep_dual", (n,), m)
    ups = _expect_array(data, "upsilon", (n, n, n), m)
    ups_d = _expect_array(data, "upsilon_dual", (n, n, n), m)
    # every entry is parsed, and so checked, before any polynomial is built
    forms = {key: {name: _expect_array({key: arr}, key, (n, n), m)
                   for name, arr in data.get(key, {}).items()}
             for key in ("deformations", "epsilons")}

    def sparse(arr, keys):
        """The nonzero entries of a parsed array at the given index tuples."""
        if arr is None:
            return {}
        out = {}
        for key in keys:
            v = arr
            for i in key:
                v = v[i]
            if v:
                out[key] = v
        return out

    anchors = list(itertools.product(range(m), range(n)))
    frame = [(a,) for a in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    ctab = [(cc, a, b) for cc in range(n) for a, b in pairs]
    triples = list(itertools.combinations(range(n), 3))
    inst = SplitCJInstance(
        m, n,
        rho=sparse(anchor, anchors), c=sparse(bracket, ctab), lam=sparse(rep, frame),
        rho_dual=sparse(anchor_d, anchors), c_dual=sparse(bracket_d, ctab),
        lam_dual=sparse(rep_d, frame), phi=sparse(ups, triples), psi=sparse(ups_d, triples),
        name=name,
    )
    ctx = inst.context
    _check_spread(ctx, bracket, inst.c, "bracket is not skew")
    _check_spread(ctx, bracket_d, inst.c_dual, "bracket_dual is not skew")
    _check_spread(ctx, ups, inst.phi, "upsilon is not fully antisymmetric")
    _check_spread(ctx, ups_d, inst.psi, "upsilon_dual is not fully antisymmetric")

    def two_forms(key: str, label: str) -> Dict[str, Dict[Tuple[int, int], Dict]]:
        out = {}
        for name, parsed in forms[key].items():
            out[name] = sparse(parsed, pairs)
            _check_spread(ctx, parsed, _skew_matrix(ctx, n, out[name]),
                          f"{label} {name!r} is not skew")
        return out

    deformations = {name: DeformationForm.from_dict(inst, entries)
                    for name, entries in two_forms("deformations", "deformation").items()}
    return InstanceDocument(inst, deformations, two_forms("epsilons", "epsilon"))


def _check_spread(ctx: ContactContext, arr, table, message: str,
                  key: Tuple[int, ...] = ()) -> None:
    """Reject a parsed tensor unless it equals `table`, the spread of its canonical entries.

    Entries are compared in index order; the first that differs is named
    after `message`.
    """
    if isinstance(table, list):
        for i, (entry, value) in enumerate(zip(arr or [], table)):
            _check_spread(ctx, entry, value, message, key + (i,))
    elif _as_xpoly(ctx, arr) != table:
        raise InstanceFileError(f"{message} at index {key}")


def save_instance(path: str, doc: InstanceDocument) -> None:
    inst = doc.instance

    def fmt(t):
        return [fmt(x) for x in t] if isinstance(t, list) else _format_poly(t, inst)

    data = {
        "schema": SCHEMA_VERSION,
        "name": inst.name,
        "base_dim": inst.m,
        "rank": inst.n,
        "anchor": fmt(inst.rho),
        "bracket": fmt(inst.c),
        "rep": fmt(inst.lam),
        "anchor_dual": fmt(inst.rho_dual),
        "bracket_dual": fmt(inst.c_dual),
        "rep_dual": fmt(inst.lam_dual),
        "upsilon": fmt(inst.phi),
        "upsilon_dual": fmt(inst.psi),
    }
    if doc.deformations:
        data["deformations"] = {name: fmt(form.entries)
                                for name, form in doc.deformations.items()}
    if doc.epsilons:
        data["epsilons"] = {name: fmt(_skew_matrix(inst.context, inst.n, eps))
                            for name, eps in doc.epsilons.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
