"""Instance file schema: parsing, validation, round trips."""

import json
import os
import random
import re
import sys
from fractions import Fraction

import pytest

from conftest import printed, random_structure, random_x_poly

from cjde.cjalg import DeformationForm, SplitCJInstance, build_theta
from cjde.contact import ContactContext
from cjde.gca import Poly, koszul_sign
from cjde.instancefile import (
    InstanceDocument,
    InstanceFileError,
    load_instance,
    save_instance,
)


def roundtrip(tmp_path, doc):
    path = tmp_path / "inst.json"
    save_instance(str(path), doc)
    return load_instance(str(path))


def test_roundtrip_structural_equality(tmp_path, omni1):
    doc = InstanceDocument(
        omni1,
        {"e12": DeformationForm.from_dict(omni1, {(0, 1): {(1,): 1}})},
        {"eps1": {(0, 1): Fraction(1, 2)}},
    )
    again = roundtrip(tmp_path, doc)
    inst = again.instance
    assert inst.m == omni1.m and inst.n == omni1.n
    # structural equality through the structure section
    assert str(build_theta(inst)) == str(build_theta(omni1))
    assert set(again.deformations) == {"e12"}
    assert str(again.deformations["e12"]) == str(doc.deformations["e12"])
    assert set(again.epsilons) == {"eps1"}


FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


@pytest.mark.parametrize("name", sorted(f[:-5] for f in os.listdir(FIXTURES)
                                        if f.endswith(".json")))
def test_save_writes_each_fixture_byte_for_byte(tmp_path, name):
    # the dense layout, deformations and epsilons included, is the file's own
    path = os.path.join(FIXTURES, f"{name}.json")
    out = tmp_path / "again.json"
    save_instance(str(out), load_instance(path))
    with open(path, "rb") as fh:
        assert out.read_bytes() == fh.read()



def test_loaded_epsilons_are_stored_two_tensors():
    """A loaded epsilon is a stored 2-tensor, as a deformation's entries are:
    base polynomials at increasing pairs, in sorted key order, zeros left out."""
    checked = 0
    for name in sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json")):
        doc = load_instance(os.path.join(FIXTURES, name))
        inst = doc.instance
        for eps in doc.epsilons.values():
            assert list(eps.items()) == \
                list(DeformationForm.from_dict(inst, eps).entries.items())
            assert all(isinstance(v, Poly) and v.algebra is inst.context.algebra
                       for v in eps.values())
            checked += 1
    assert checked >= 3

def shuffled_keys(rng, entries, k):
    """The entries at keys whose last k indices are permuted at random, values
    signed by the permutation, in a shuffled insertion order."""
    out = []
    for key, value in entries.items():
        key = key if isinstance(key, tuple) else (key,)
        perm = list(range(k))
        rng.shuffle(perm)
        head, tail = key[:len(key) - k], key[len(key) - k:]
        sign = koszul_sign(perm, (1,) * k)
        out.append((head + tuple(tail[i] for i in perm),
                    value if sign > 0 else {e: -c for e, c in value.items()}))
    rng.shuffle(out)
    return dict(out)


@pytest.mark.parametrize("seed", range(4))
def test_seeded_roundtrip_over_a_base(tmp_path, seed):
    rng = random.Random(seed)
    ctx = ContactContext(1 + seed % 2, 3)
    kw = random_structure(rng, ctx)
    antisymmetric = {"rho": 1, "c": 2, "lam": 1, "rho_dual": 1, "c_dual": 2, "lam_dual": 1,
                     "phi": 3, "psi": 3}
    shuffled = {name: shuffled_keys(rng, kw[name], k) for name, k in antisymmetric.items()}
    inst = SplitCJInstance(ctx.m, ctx.n, context=ctx, name=f"seed{seed}", **shuffled)
    assert inst.theta == SplitCJInstance(ctx.m, ctx.n, context=ctx, **kw).theta
    pairs = {(b, a): random_x_poly(ctx, rng) for a, b in [(0, 1), (0, 2), (1, 2)]}
    doc = InstanceDocument(inst, {"eta": DeformationForm.from_dict(inst, pairs)},
                           {"eps": dict(pairs)})
    again = roundtrip(tmp_path, doc)
    for name in antisymmetric:
        assert printed(getattr(again.instance, name)) == printed(getattr(inst, name))
    assert printed(again.deformations["eta"].entries) == printed(doc.deformations["eta"].entries)
    assert DeformationForm.from_dict(again.instance, again.epsilons["eps"]).entries == \
        DeformationForm.from_dict(again.instance, pairs).entries
    # a second save writes the same bytes
    first = (tmp_path / "inst.json").read_bytes()
    roundtrip(tmp_path, again)
    assert (tmp_path / "inst.json").read_bytes() == first


def test_save_is_deterministic(tmp_path, heis2):
    doc = InstanceDocument(heis2, {}, {})
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(str(p1), doc)
    save_instance(str(p2), doc)
    assert p1.read_bytes() == p2.read_bytes()


def test_missing_file():
    with pytest.raises(InstanceFileError):
        load_instance("/nonexistent/file.json")


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InstanceFileError):
        load_instance(str(path))


def test_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "base_dim": 0, "rank": 2}))
    with pytest.raises(InstanceFileError):
        load_instance(str(path))


def test_skewness_enforced(tmp_path):
    data = {
        "schema": 1, "base_dim": 0, "rank": 2,
        "bracket": [[["0", "1"], ["1", "0"]],   # not skew in (a,b)
                    [["0", "0"], ["0", "0"]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFileError, match="skew"):
        load_instance(str(path))


def test_antisymmetry_enforced(tmp_path):
    arr = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    arr[0][1][2] = "1"
    arr[1][0][2] = "1"  # should be -1
    data = {"schema": 1, "base_dim": 0, "rank": 3, "upsilon_dual": arr}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFileError, match="antisym"):
        load_instance(str(path))


def load_json(tmp_path, data):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    return load_instance(str(path))


def test_symmetry_errors_name_the_first_bad_index(tmp_path):
    bracket = [[["0", "1"], ["1", "0"]], [["0", "0"], ["0", "0"]]]
    with pytest.raises(InstanceFileError, match=r"bracket is not skew at index \(0, 1, 0\)"):
        load_json(tmp_path, {"schema": 1, "base_dim": 0, "rank": 2, "bracket": bracket})
    ups = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    ups[0][1][2], ups[1][0][2] = "1", "1"
    with pytest.raises(InstanceFileError,
                       match=r"upsilon_dual is not fully antisymmetric at index \(0, 2, 1\)"):
        load_json(tmp_path, {"schema": 1, "base_dim": 0, "rank": 3, "upsilon_dual": ups})


def test_repeated_index_upsilon_entry_rejected(tmp_path):
    ups = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    ups[0][0][1] = "1"  # a repeated index: zero in any antisymmetric tensor
    with pytest.raises(InstanceFileError,
                       match=r"upsilon is not fully antisymmetric at index \(0, 0, 1\)"):
        load_json(tmp_path, {"schema": 1, "base_dim": 0, "rank": 3, "upsilon": ups})


@pytest.mark.parametrize("key,label", [("deformations", "deformation"),
                                       ("epsilons", "epsilon")])
def test_two_forms_must_be_skew(tmp_path, key, label):
    data = {"schema": 1, "base_dim": 1, "rank": 2,
            key: {"w": [["0", {"1": "1"}], [{"1": "1"}, "0"]]}}
    with pytest.raises(InstanceFileError, match=rf"{label} 'w' is not skew at index \(1, 0\)"):
        load_json(tmp_path, data)
    data[key]["w"] = [["0", {"1": "1"}], [{"1": "-1"}, "0"]]
    assert load_json(tmp_path, data)


def test_bad_rational(tmp_path):
    data = {"schema": 1, "base_dim": 0, "rank": 2, "rep": ["1/0", "0"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFileError):
        load_instance(str(path))


# int() caps the digits of a decimal string (sys.get_int_max_str_digits, 4300
# by default); Python 3.10 words the limit without "digits"
LIMIT = r"Exceeds the limit \(4300( digits)?\) for integer string conversion: value has 4301 " \
        r"digits; use sys.set_int_max_str_digits\(\) to increase the limit"


@pytest.mark.parametrize("text,reason", [
    ("1/0", re.escape("Fraction(1, 0)")), ("-3/0", re.escape("Fraction(-3, 0)")),
    ("1" * 4301, LIMIT), ("-1/" + "7" * 4301, LIMIT)])
def test_bad_rational_error_text(tmp_path, text, reason):
    if sys.get_int_max_str_digits() != 4300:
        pytest.skip("the digit limit is not Python's default")
    data = {"schema": 1, "base_dim": 0, "rank": 2, "rep": [text, "0"]}
    with pytest.raises(InstanceFileError) as info:
        load_json(tmp_path, data)
    assert re.fullmatch(f"bad rational {re.escape(repr(text))}: {reason}", str(info.value))


def test_symmetry_compares_values_not_spellings(tmp_path):
    # "2/4" and "-1/2" are one value up to sign: a skew pair, whatever the spelling
    bracket = [[["0", "2/4"], ["-1/2", "0"]], [["0", "0"], ["0", "0"]]]
    data = {"schema": 1, "base_dim": 0, "rank": 2, "bracket": bracket}
    inst = load_json(tmp_path, data).instance
    assert inst.c[0] == {(0, 1): inst.context.algebra.scalar(Fraction(1, 2))}
    bracket[0][1][0] = "1/2"
    with pytest.raises(InstanceFileError, match=r"bracket is not skew at index \(0, 1, 0\)"):
        load_json(tmp_path, data)
    # over a base, each exponent vector is compared with its negated twin
    rep = [["0", {"1": "2/4", "0": "3"}], [{"0": "-6/2", "1": "-1/2"}, "0"]]
    data = {"schema": 1, "base_dim": 1, "rank": 2, "deformations": {"w": rep}}
    assert load_json(tmp_path, data).deformations["w"].entries[(0, 1)].terms == \
        {(): 3, ((0, 1),): Fraction(1, 2)}
    rep[1][0] = {"0": "-3", "1": "-1/2", "2": "1"}
    with pytest.raises(InstanceFileError, match=r"deformation 'w' is not skew at index \(1, 0\)"):
        load_json(tmp_path, data)


def test_bad_exponent_vector(tmp_path):
    data = {"schema": 1, "base_dim": 1, "rank": 2, "rep": [{"0,0": "1"}, "0"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFileError):
        load_instance(str(path))


# Fraction() and int() also read digit separators, surrounding spaces,
# non-ASCII digits, decimals and exponents; a file holds none of them
@pytest.mark.parametrize("text", ["1_0", " 2", "2 ", "1.5", "1e3", "+1", "1/-2",
                                  "\u0662", "1/\u0663", "", "-"])
def test_rational_spellings_rejected(tmp_path, text):
    data = {"schema": 1, "base_dim": 0, "rank": 2, "rep": [text, "0"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFileError, match=f"bad rational {re.escape(repr(text))}"):
        load_instance(str(path))


@pytest.mark.parametrize("key", ["1_0", " 2", "2 ", "\u0662", "-1", "+1", "1.0"])
def test_exponent_spellings_rejected(tmp_path, key):
    data = {"schema": 1, "base_dim": 1, "rank": 2, "rep": [{key: "1"}, "0"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFileError, match=f"bad exponent vector {re.escape(repr(key))}"):
        load_instance(str(path))


def test_plain_numbers_load(tmp_path):
    data = {"schema": 1, "base_dim": 2, "rank": 2,
            "rep": [{"2,0": "-3/4", "0,10": "12"}, {"": 5, "0,0": "0/7"}]}
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(data))
    inst = load_instance(str(path)).instance
    assert str(inst.lam[(0,)]) == "-3/4*x1^2 + 12*x2^10"
    assert str(inst.lam[(1,)]) == "5"


def test_rationals_bit_exact(tmp_path, heis2):
    big = Fraction(10**40 + 1, 10**39)
    doc = InstanceDocument(
        heis2, {"e": DeformationForm.from_dict(heis2, {(0, 1): big})}, {})
    again = roundtrip(tmp_path, doc)
    entry = again.deformations["e"].entries[(0, 1)]
    assert entry.coefficient(()) == big


def test_unknown_deformation_shape(tmp_path):
    data = {"schema": 1, "base_dim": 0, "rank": 2,
            "deformations": {"x": [["0", "1"]]}}  # wrong shape
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFileError):
        load_instance(str(path))
