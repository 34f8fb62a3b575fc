"""Loading and saving instance files.

An instance file is UTF-8 JSON carrying the structure functions of a split
Courant-Jacobi algebroid, plus optional named deformations (2-forms on the
A side) and epsilon tensors (2-forms on the dual side).  Rational numbers
are "num/den" strings, bit-exact; polynomial entries are either such a
string (a constant) or a map from comma-separated exponent vectors to
rationals, each exponent at most MAX_EXPONENT.  No key repeats in a JSON
object, and no two nonzero terms of a polynomial spell one exponent vector.

The file writes each tensor as a dense nested array; this module is the
only place where dense tables exist.  An instance stores its tensors as
their nonzero canonical entries (see `cjalg`), and `cjalg._canonical_key`
is the one symmetry rule both ways.  Loading reads each array in one pass
(`_read_tensor`): it keeps the nonzero entries at canonical index tuples,
and accepts a tensor with a symmetry (bracket, upsilon, 2-form) only if
every other entry is the signed canonical entry, or zero at a repeated
index.  Saving writes `_spread`, which lays stored entries out on every
index tuple with the sign of `cjalg._canonical_key`.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from typing import Dict, List, Tuple

from .cjalg import (DeformationForm, PolyLike, SplitCJInstance, _as_xpoly, _canonical,
                    _canonical_key, _shapes)
from .contact import ContactContext
from .gca import Poly, Scalar, _is_int

__all__ = ["InstanceFileError", "InstanceDocument", "load_instance", "save_instance"]

SCHEMA_VERSION = 1

# Largest accepted sizes.  A context has 2m+2n+1 generators and a file's
# parsed arrays n^3 polynomial entries per tensor, all parsed before any check
# runs, so a file is rejected on its declared sizes alone.  Rank 5 is the
# largest the engine is meant to reach; one more is left as margin.
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

# Each structure tensor's file key and `SplitCJInstance` attribute.
_TENSORS = (("anchor", "rho"), ("bracket", "c"), ("rep", "lam"), ("anchor_dual", "rho_dual"),
            ("bracket_dual", "c_dual"), ("rep_dual", "lam_dual"), ("upsilon", "phi"),
            ("upsilon_dual", "psi"))
# The symmetry a load error names, by the number of antisymmetric indices.
_SYMMETRY = {2: "skew", 3: "fully antisymmetric"}

# The only number spellings a file may use.  int() and Fraction() alone would
# also read digit separators, surrounding spaces, non-ASCII digits, decimals
# and exponents, so "1_0" would load as 10.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_EXPONENT = re.compile(r"[0-9]+")


class InstanceFileError(ValueError):
    """Malformed or inconsistent instance file (CLI exit code 2)."""


def _unique_keys(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
    """One JSON object as a dict; a repeated key raises, where json keeps its last value."""
    out: Dict[str, object] = {}
    for key, value in pairs:
        if key in out:
            raise InstanceFileError(f"repeated key {key!r} in one JSON object")
        out[key] = value
    return out


def _parse_rational(s) -> Fraction:
    if isinstance(s, str):
        if not _RATIONAL.fullmatch(s):
            raise InstanceFileError(f"bad rational {s!r}: expected 'num' or 'num/den' "
                                    "in ASCII digits")
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:  # 1/0, or past int's digit limit
            raise InstanceFileError(f"bad rational {s!r}: {exc}") from None
    if _is_int(s):
        return Fraction(s)
    if isinstance(s, bool):
        raise InstanceFileError(f"a rational entry may not be a boolean, got {s!r}")
    raise InstanceFileError(f"rational must be a 'num/den' string, got {s!r}")


def _format_rational(q: Scalar) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _parse_poly(entry, m: int) -> Dict[Tuple[int, ...], Fraction]:
    """Polynomial as an exponent-vector dict (exponents over the x variables)."""
    if isinstance(entry, (str, int)):
        q = _parse_rational(entry)
        return {(0,) * m: q} if q else {}
    if isinstance(entry, dict):
        terms: Dict[Tuple[int, ...], Fraction] = {}
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
            q = _parse_rational(val)
            if not q:  # a zero coefficient writes no term
                continue
            if exps in terms:
                raise InstanceFileError(f"repeated exponent vector {key!r}: an earlier key "
                                        "of the polynomial spells the same exponents")
            terms[exps] = q
        return terms
    raise InstanceFileError(f"bad polynomial entry {entry!r}")


def _format_poly(p: Poly, inst: SplitCJInstance):
    ctx = inst.context
    coeffs: Dict[Tuple[int, ...], Scalar] = {}
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


def _expect_array(arr, key: str, shape: Tuple[int, ...], m: int):
    """Parse a nested array of polynomials with the given shape; `key` names it in errors."""

    def recurse(a, sh):
        if not sh:
            return _parse_poly(a, m)
        if not isinstance(a, list) or len(a) != sh[0]:
            raise InstanceFileError(f"{key}: expected array of length {sh[0]}")
        return [recurse(x, sh[1:]) for x in a]

    return recurse(arr, shape)


class InstanceDocument:
    """A parsed instance file: the instance plus named deformations/epsilons.

    A loaded epsilon is a stored 2-tensor, as `DeformationForm.entries` is;
    saving takes any dict `cjalg.epsilon_section` does.
    """

    def __init__(self, instance: SplitCJInstance,
                 deformations: Dict[str, DeformationForm],
                 epsilons: Dict[str, Dict[Tuple[int, int], PolyLike]]):
        self.instance = instance
        self.deformations = deformations
        self.epsilons = epsilons


def load_instance(path: str) -> InstanceDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
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
    if not all(map(_is_int, sizes)):
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

    shapes = _shapes(m, n)
    arrays = {key: _expect_array(data[key], key, shapes[attr][0], m) if key in data else None
              for key, attr in _TENSORS}
    # every entry is parsed, and so checked, before any polynomial is built
    forms = {key: {name: _expect_array(arr, key, (n, n), m)
                   for name, arr in data.get(key, {}).items()}
             for key in ("deformations", "epsilons")}

    ctx = ContactContext(m, n)
    inst = SplitCJInstance(m, n, name=name, context=ctx, **{
        attr: _read_tensor(ctx, arrays[key], *shapes[attr], key) for key, attr in _TENSORS})
    deformations = {name: DeformationForm.from_dict(
        inst, _read_tensor(ctx, arr, (n, n), 2, f"deformation {name!r}"))
        for name, arr in forms["deformations"].items()}
    epsilons = {name: _read_tensor(ctx, arr, (n, n), 2, f"epsilon {name!r}")
                for name, arr in forms["epsilons"].items()}
    return InstanceDocument(inst, deformations, epsilons)


def _read_tensor(ctx: ContactContext, arr, shape: Tuple[int, ...], k: int,
                 what: str) -> Dict[Tuple[int, ...], Poly]:
    """The stored tensor of a parsed array antisymmetric in its last k indices, in one pass.

    The array's index tuples are walked in order.  A canonical one (kept as
    it is by `cjalg._canonical_key`, sign +1) holds an entry, kept when
    nonzero; it sorts first among its permutations, so every other tuple
    is compared with the signed entry already read, or with zero when an
    antisymmetric index repeats.  The first that differs is named after
    `what`.  An absent array is the zero tensor.
    """
    out: Dict[Tuple[int, ...], Poly] = {}
    if arr is None:
        return out
    zero = ctx.algebra.zero()
    for idx in itertools.product(*map(range, shape)):
        v = arr
        for i in idx:
            v = v[i]
        hit = _canonical_key(idx, shape, k)
        if hit == (idx, 1):
            if v:
                out[idx] = _as_xpoly(ctx, v)
        elif _as_xpoly(ctx, v) != (zero if hit is None else out.get(hit[0], zero).scale(hit[1])):
            raise InstanceFileError(f"{what} is not {_SYMMETRY[k]} at index {idx}")
    return out


def _spread(ctx: ContactContext, tensor, shape: Tuple[int, ...], k: int) -> list:
    """The dense nested list of a stored tensor over `shape`.

    Each index tuple holds the entry of its canonical key with the sign of
    `cjalg._canonical_key`, and zero when an antisymmetric index repeats.
    A tensor stored as a list over its first index is spread row by row.
    Only saving spreads; loading reads each array with `_read_tensor`.
    """
    if len(shape) > k:
        return [_spread(ctx, row, shape[1:], k) for row in tensor]
    zero = ctx.algebra.zero()

    def nest(idx: Tuple[int, ...]):
        if len(idx) < len(shape):
            return [nest(idx + (i,)) for i in range(shape[len(idx)])]
        hit = _canonical_key(idx, shape, k)
        if hit is None:
            return zero
        value = tensor.get(hit[0], zero)
        return value if hit[1] > 0 else -value

    return nest(())


def save_instance(path: str, doc: InstanceDocument) -> None:
    inst = doc.instance
    ctx, shapes, pair = inst.context, _shapes(inst.m, inst.n), (inst.n, inst.n)

    def fmt(t):
        return [fmt(x) for x in t] if isinstance(t, list) else _format_poly(t, inst)

    data = {"schema": SCHEMA_VERSION, "name": inst.name, "base_dim": inst.m, "rank": inst.n}
    for key, attr in _TENSORS:
        data[key] = fmt(_spread(ctx, getattr(inst, attr), *shapes[attr]))
    if doc.deformations:
        data["deformations"] = {name: fmt(_spread(ctx, form.entries, pair, 2))
                                for name, form in doc.deformations.items()}
    if doc.epsilons:
        data["epsilons"] = {name: fmt(_spread(ctx, _canonical(ctx, eps, pair, 2), pair, 2))
                            for name, eps in doc.epsilons.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
