"""Command-line interface: exit codes, report formats, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys

import pytest

from cjde import cli, contact, gca
from cjde.cli import Report, main
from cjde.cjalg import change_complement
from cjde.instancefile import MAX_EXPONENT, load_instance
from cjde.linfty import GradedSpace

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_pass(capsys):
    code, out, _ = run_cli(["check", fixture("heis2.json")], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(line["status"] == "pass" for line in lines)
    failing = [line for line in lines if line["status"] == "fail"]
    assert not failing


def test_check_reports_sample_counts(capsys):
    code, out, _ = run_cli(["check", fixture("heis2.json")], capsys)
    assert code == 0
    lines = {line["check"]: line for line in map(json.loads, out.strip().splitlines())}
    for name in ("projection idempotent", "projection lands in subalgebra",
                 "subalgebra abelian", "kernel closed under bracket"):
        assert lines[f"v-data: {name}"]["samples"] == 12
    for name in ("MC equation {Phi,Phi}=0", "curvature flag"):
        assert "samples" not in lines[f"v-data: {name}"]


def test_check_fail_carries_witness(capsys):
    code, out, _ = run_cli(["check", fixture("heis2-broken.json")], capsys)
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    failing = [line for line in lines if line["status"] == "fail"]
    assert failing
    assert all(line["witness"] for line in failing)



def test_check_text_format(capsys):
    """`--format text`: one line per check, the status padded to 11 columns,
    extras as sorted key=value pairs, then the witness."""
    code, out, _ = run_cli(["check", fixture("heis2-broken.json"), "--format", "text"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "FAIL        structure-equation {Theta,Theta}=0  witness: (2*u1*u2*p)*mu",
        "FAIL        loday-jacobi-identity on frame triples  triples=64  "
        "witness: triple (0, 1, 2): (-u1)*mu",
        "FAIL        connection-flatness on frame pairs  pairs=16  "
        "witness: pair (0, 1, 'mu'): (1)*mu",
        "PASS        biconditional structure-equation <-> direct axioms",
        "PASS        v-data: projection idempotent  samples=12",
        "PASS        v-data: projection lands in subalgebra  samples=12",
        "PASS        v-data: subalgebra abelian  samples=12",
        "PASS        v-data: kernel closed under bracket  samples=12",
        "FAIL        v-data: MC equation {Phi,Phi}=0  witness: (2*u1*u2*p)*mu",
        "PASS        v-data: curvature flag  flag=flat",
    ]


def test_cohomology_text_format_prints_list_extras(capsys):
    code, out, _ = run_cli(["cohomology", fixture("obst1.json"), "--format", "text"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "PASS        H^0  dimension=1 representatives=['(1)*mu']",
        "PASS        H^1  dimension=3 representatives=['(u1)*mu', '(u2)*mu', '(u3)*mu']",
        "PASS        H^2  dimension=3 representatives="
        "['(u1*u2)*mu', '(u1*u3)*mu', '(u2*u3)*mu']",
        "PASS        H^3  dimension=1 representatives=['(u1*u2*u3)*mu']",
    ]

def test_check_malformed_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == 2
    assert "error" in err


def test_check_schema_violation_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": 1, "base_dim": 0, "rank": 2,
        "bracket": [[["0", "1"], ["1", "0"]], [["0", "0"], ["0", "0"]]],
    }))
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == 2


def test_deform_named_eta(capsys):
    code, out, _ = run_cli(
        ["deform", fixture("heis2.json"), "--eta", "e12"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    by_check = {line["check"]: line for line in lines}
    assert by_check["maurer-cartan residual"]["residual"] == "(0)*mu"
    assert by_check["graph is dirac-jacobi"]["verdict"] == "True"


def test_deform_obstruction_reported(capsys):
    code, out, _ = run_cli(
        ["deform", fixture("obst1.json"), "--eta", "eta1", "--order", "4"], capsys)
    assert code == 0  # an obstruction is a result, not a failure
    lines = [json.loads(line) for line in out.strip().splitlines()]
    by_check = {line["check"]: line for line in lines}
    assert by_check["formal extension"]["obstructed_at"] == 2


def test_deform_builds_d_three_times(monkeypatch, capsys):
    # d_{A,L} is built for Theta's A and dual sides and once for the complex;
    # the closedness checks of cmd_deform, kuranishi and extend_mc reuse it
    built = []
    init = contact.LineDerivation.__init__

    def counting(self, *args, **kwargs):
        built.append(args[1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(contact.LineDerivation, "__init__", counting)
    code, _, _ = run_cli(
        ["deform", fixture("obst1.json"), "--eta", "eta1", "--order", "4"], capsys)
    assert code == 0
    assert len(built) == 3


def test_deform_unknown_eta_exits_2(capsys):
    code, out, err = run_cli(
        ["deform", fixture("heis2.json"), "--eta", "nope"], capsys)
    assert code == 2


@pytest.mark.parametrize("command, name, option", [
    ("deform", "heis2-broken.json", "--eta"),
    ("complement", "heis2.json", "--epsilon"),
    ("complement", "heis2-broken.json", "--epsilon")])
def test_an_unknown_name_exits_2_on_every_instance(command, name, option, capsys):
    # the name is input: it is looked up before the instance is checked, so a
    # failing instance does not turn a typo into a mathematical failure
    kind = "deformation" if option == "--eta" else "epsilon"
    _assert_one_error_line(*run_cli([command, fixture(name), option, "nope"], capsys),
                           f"unknown {kind} name 'nope'")


def test_complement_on_a_failing_instance_reports_the_precondition(tmp_path, capsys):
    with open(fixture("heis2-broken.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["epsilons"] = {"eps1": [["0", "1/2"], ["-1/2", "0"]]}
    path = tmp_path / "heis2-broken-eps.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["complement", str(path), "--epsilon", "eps1"], capsys)
    assert (code, err) == (1, "")
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(line["check"], line["status"]) for line in lines] == [
        ("precondition: instance passes check", "fail")]
    assert lines[0]["witness"]


def test_deform_random_deterministic(capsys):
    code1, out1, _ = run_cli(
        ["deform", fixture("djmix.json"), "--random", "7"], capsys)
    code2, out2, _ = run_cli(
        ["deform", fixture("djmix.json"), "--random", "7"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_deform_dgla1_random_agrees(seed, capsys):
    code, out, _ = run_cli(["deform", fixture("dgla1.json"), "--random", seed], capsys)
    assert code == 0
    by_check = {line["check"]: line for line in map(json.loads, out.strip().splitlines())}
    assert by_check["mc <-> involutivity agreement"]["status"] == "pass"


@pytest.mark.parametrize("args", [
    ["deform", fixture("obst1.json"), "--eta", "eta1", "--order", "0"],
    ["deform", fixture("obst1.json"), "--eta", "eta1", "--order", "-3"],
    ["complement", fixture("heis2.json"), "--epsilon", "eps1", "--trunc", "0"],
])
def test_nonpositive_order_or_trunc_exits_2(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "must be at least 1" in out.err


def test_complement_bounds_the_word_count_before_listing_words(monkeypatch, tmp_path, capsys):
    """A rank-5 file at the default truncation asks for 335,137 canonical
    words, past `cli.MAX_WORDS`: an input error naming the count and the
    bound, raised before any word is listed."""
    def no_listing(*args, **kwargs):
        raise AssertionError("GradedSpace.words was called")

    monkeypatch.setattr(GradedSpace, "words", no_listing)
    zero = [["0"] * 5 for _ in range(5)]
    path = tmp_path / "rank5.json"
    path.write_text(json.dumps({"schema": 1, "base_dim": 0, "rank": 5,
                                "epsilons": {"eps1": zero}}))
    _assert_one_error_line(*run_cli(["complement", str(path), "--epsilon", "eps1"], capsys),
                           "--trunc 5 asks for 335,137 canonical words, more than the "
                           f"bound of {cli.MAX_WORDS:,}")
    assert cli.MAX_WORDS == 100_000


def test_complement_checks_every_word(capsys):
    code, out, _ = run_cli(
        ["complement", fixture("djmix.json"), "--epsilon", "eps1", "--trunc", "4"], capsys)
    assert code == 0
    by_check = {line["check"]: line for line in map(json.loads, out.strip().splitlines())}
    # canonical words of length <= 4 over the 8 u-monomials of rank 3, four
    # of them odd (no repeats) and four even
    count = sum(math.comb(4, j) * math.comb(4 + (L - j) - 1, L - j)
                for L in range(5) for j in range(L + 1))
    assert count == 321
    assert by_check["exp(M) intertwines codifferentials through arity 4"]["words"] == count


def test_complement_identity(capsys, tmp_path):
    # eps = 0 is not stored in fixtures; build one on the fly
    import json as js
    with open(fixture("heis2.json")) as fh:
        doc = js.load(fh)
    doc["epsilons"] = {"zero": [["0", "0"], ["0", "0"]]}
    path = tmp_path / "h.json"
    path.write_text(js.dumps(doc))
    code, out, _ = run_cli(
        ["complement", str(path), "--epsilon", "zero", "--trunc", "4"], capsys)
    assert code == 0
    lines = [js.loads(line) for line in out.strip().splitlines()]
    assert all(line["status"] == "pass" for line in lines)


def test_complement_morphism_through_5(capsys):
    code, out, _ = run_cli(
        ["complement", fixture("heis2.json"), "--epsilon", "eps1",
         "--trunc", "5"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    by_check = {line["check"]: line for line in lines}
    key = "exp(M) intertwines codifferentials through arity 5"
    assert by_check[key]["status"] == "pass"
    assert by_check["M_2 matches sharp/flat closed form"]["status"] == "pass"


def test_complement_corrupted_m2_fails(capsys):
    code, out, _ = run_cli(
        ["complement", fixture("heis2.json"), "--epsilon", "eps1",
         "--trunc", "3", "--corrupt-m2"], capsys)
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    failing = [line for line in lines if line["status"] == "fail"]
    assert failing and all(line["witness"] for line in failing)


@pytest.mark.parametrize("name", ["heis2", "omni1"])
def test_complement_corrupted_m2_witnesses_name_monomials(name, capsys):
    code, out, _ = run_cli(
        ["complement", fixture(f"{name}.json"), "--epsilon", "eps1",
         "--trunc", "3", "--corrupt-m2"], capsys)
    assert code == 1
    lines = {line["check"]: line for line in map(json.loads, out.strip().splitlines())}
    morphism = lines["exp(M) intertwines codifferentials through arity 3"]["witness"]
    assert morphism.startswith("word (1, u1*u2): residual ")
    closed = lines["M_2 matches sharp/flat closed form"]["witness"]
    assert closed.startswith("word (u1, u1*u2): closed ")


def test_complement_corrupted_m2_djmix_is_an_automorphism(capsys):
    # eps1 on djmix leaves Theta unchanged, so e^{tM} intertwines Q with
    # itself for every t: doubling M_2 cannot break the morphism check there,
    # only the closed-form comparison
    doc = load_instance(fixture("djmix.json"))
    assert change_complement(doc.instance, doc.epsilons["eps1"])["theta1"] == doc.instance.theta
    for trunc in ("2", "3", "4"):
        code, out, _ = run_cli(
            ["complement", fixture("djmix.json"), "--epsilon", "eps1",
             "--trunc", trunc, "--corrupt-m2"], capsys)
        assert code == 1
        lines = {line["check"]: line for line in map(json.loads, out.strip().splitlines())}
        key = f"exp(M) intertwines codifferentials through arity {trunc}"
        assert lines[key]["status"] == "pass"
        assert lines["M_2 matches sharp/flat closed form"]["status"] == "fail"


def test_complement_closed_m2_error_is_not_a_pass(monkeypatch):
    # an error from the closed form reaches the caller instead of turning the
    # check into a vacuous pass
    def broken(*args):
        raise ValueError("closed form unavailable")

    monkeypatch.setattr(cli, "m2_sharp_closed", broken)
    with pytest.raises(ValueError, match="closed form unavailable"):
        main(["complement", fixture("heis2.json"), "--epsilon", "eps1", "--trunc", "3"])


def test_complement_closed_m2_asked_on_covered_words(monkeypatch, capsys):
    # rank 2: the closed form covers every pair of form degrees, so it is asked
    # on all 8 canonical 2-words of the basis 1, u1, u2, u1u2
    asked = []
    closed = cli.m2_sharp_closed

    def recording(inst, eps_sec, s1, s2):
        asked.append(sorted((s1.degree(), s2.degree())))
        return closed(inst, eps_sec, s1, s2)

    monkeypatch.setattr(cli, "m2_sharp_closed", recording)
    code, _, _ = run_cli(
        ["complement", fixture("heis2.json"), "--epsilon", "eps1", "--trunc", "3"], capsys)
    assert code == 0
    assert sorted(asked) == [[0, 0], [0, 1], [0, 1], [0, 2], [1, 1], [1, 2], [1, 2], [2, 2]]


def test_cohomology_report(capsys):
    code, out, _ = run_cli(
        ["cohomology", fixture("obst1.json"), "--degree", "2"], capsys)
    assert code == 0
    line = json.loads(out.strip().splitlines()[0])
    assert line["check"] == "H^2"
    assert line["dimension"] == 3


@pytest.mark.parametrize("degree", ["-1", "3", "99"])
def test_cohomology_degree_out_of_range_exits_2(degree, capsys):
    # heis2 has rank 2: forms of degree outside 0..2 do not exist
    code, out, err = run_cli(["cohomology", fixture("heis2.json"), "--degree", degree], capsys)
    assert code == 2
    assert out == ""
    assert "--degree" in err and "between 0 and 2" in err


def test_cohomology_degree_at_rank_accepted(capsys):
    code, out, _ = run_cli(["cohomology", fixture("heis2.json"), "--degree", "2"], capsys)
    assert code == 0
    assert json.loads(out.strip().splitlines()[0])["check"] == "H^2"


def test_cohomology_unsupported_base(capsys):
    code, out, err = run_cli(["cohomology", fixture("omni1.json")], capsys)
    assert code == 2


def test_selftest(capsys):
    code, out, _ = run_cli(["selftest", "--seed", "1"], capsys)
    assert code == 0


def test_selftest_reports_exactly_its_checks(capsys):
    # each of these can fail; a check that passes by construction is not reported
    code, out, _ = run_cli(["selftest", "--seed", "0"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [line["check"] for line in lines] == [
        "jacobi bracket: graded skew and jacobi identity",
        "built-in fixture axioms",
        "deformation codifferential squares to zero",
    ]
    assert all(line["status"] == "pass" for line in lines)


def test_reports_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(["check", fixture("djmix.json")], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["check", fixture("heis2.json"), "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().strip()


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "cjde.cli", "check", fixture("heis2.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0


@pytest.mark.parametrize("sizes", [{"base_dim": 0, "rank": 10 ** 9},
                                   {"base_dim": 10 ** 9, "rank": 2}])
def test_oversized_instance_exits_2(sizes, tmp_path, capsys):
    # rejected on the declared sizes, before any context or tensor is built
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps({"schema": 1, **sizes}))
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert "exceed the supported sizes" in err


@pytest.mark.parametrize("place", ["rep", "deformations"])
def test_exponent_above_max_exits_2(place, monkeypatch, tmp_path, capsys):
    # rejected while the file is parsed, before any polynomial is built
    big = str(MAX_EXPONENT + 1)
    doc = {"schema": 1, "base_dim": 1, "rank": 2}
    if place == "rep":
        doc["rep"] = ["0", {big: "1"}]
    else:
        doc["deformations"] = {"eta": [["0", {big: "1"}], [{big: "-1"}, "0"]]}
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(doc))
    built = []
    monkeypatch.setattr(gca.Poly, "_trusted", staticmethod(lambda *args: built.append(args)))
    monkeypatch.setattr(gca.Poly, "__init__", lambda self, *args: built.append(args))
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert f"exceeds {MAX_EXPONENT}" in err
    assert built == []


def test_exponent_at_max_loads(tmp_path, capsys):
    doc = {"schema": 1, "base_dim": 1, "rank": 1, "rep": [{str(MAX_EXPONENT): "1"}]}
    good = tmp_path / "top.json"
    good.write_text(json.dumps(doc))
    code, out, _ = run_cli(["check", str(good)], capsys)
    assert code in (0, 1)
    assert out


@pytest.mark.parametrize("doc, message", [
    ({"schema": 1, "base_dim": 0.9, "rank": 2}, "JSON integer"),
    ({"schema": 1, "base_dim": 0, "rank": 2.5}, "JSON integer"),
    ({"schema": 1, "base_dim": 0, "rank": "2"}, "JSON integer"),
    ({"schema": True, "base_dim": 0, "rank": 2}, "JSON integer"),
    ({"schema": 1, "base_dim": 0, "rank": 1, "rep": [True]}, "boolean"),
    ({"schema": 1, "base_dim": 1, "rank": 1, "rep": [{"1": True}]}, "boolean"),
    ({"schema": 1, "base_dim": 1, "rank": 1, "rep": [{" 2": "1"}]}, "' 2'"),
    ({"schema": 1, "base_dim": 1, "rank": 1, "rep": [{"2": "1_0"}]}, "'1_0'"),
], ids=["float-base_dim", "float-rank", "string-rank", "boolean-schema",
        "boolean-constant", "boolean-coefficient", "spaced-exponent", "separated-rational"])
@pytest.mark.parametrize("command", ["check", "cohomology"])
def test_non_integer_json_exits_2(doc, message, command, tmp_path, capsys):
    # no silent coercion: 0.9 is not 0, "2" is not 2 and true is not 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli([command, str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert message in err


def _heis2_with(tmp_path, drop=(), **changes):
    """A copy of heis2.json with the `drop` keys removed and `changes` set."""
    with open(fixture("heis2.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in drop:
        del doc[key]
    doc.update(changes)
    path = tmp_path / "heis2-edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _assert_one_error_line(code, out, err, message):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("key, value", [("deformations", [1]), ("epsilons", "x"),
                                        ("deformations", None)])
def test_forms_that_are_not_objects_exit_2(key, value, tmp_path, capsys):
    bad = _heis2_with(tmp_path, **{key: value})
    _assert_one_error_line(*run_cli(["check", bad], capsys), key)


@pytest.mark.parametrize("content, message", [
    (bytes([0xFF, 0xFE, 0x7B, 0x7D]), "not UTF-8"),
    (b"[" * 100_000 + b"]" * 100_000, "nests JSON too deeply"),
], ids=["not-utf8", "deep-nesting"])
def test_undecodable_file_exits_2(content, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    _assert_one_error_line(*run_cli(["check", str(bad)], capsys), message)


def test_misspelled_key_exits_2(tmp_path, capsys):
    # an ignored "anchr" would leave the anchor zero and the check a vacuous pass
    bad = _heis2_with(tmp_path, drop=["anchor"], anchr=[])
    _assert_one_error_line(*run_cli(["check", bad], capsys), "'anchr'")


@pytest.mark.parametrize("name", [[1, 2], 7, None, {"a": "b"}, True],
                         ids=["array", "number", "null", "object", "boolean"])
def test_non_string_name_exits_2(name, tmp_path, capsys):
    # a name is a label: str([1, 2]) would label the reports with "[1, 2]"
    bad = _heis2_with(tmp_path, name=name)
    _assert_one_error_line(*run_cli(["check", bad], capsys), "name")


@pytest.mark.parametrize("command", [["check", fixture("heis2-broken.json")],
                                     ["selftest"]])
def test_unwritable_out_exits_2(command, tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(command + ["--out", str(target)], capsys)
    _assert_one_error_line(code, out, err, f"cannot write {target}")
    assert not target.exists()


def test_report_check_verdict_is_the_witness():
    report = Report()
    report.check("holds", samples=3)
    assert report.lines == [{"check": "holds", "status": "pass", "witness": None,
                             "samples": 3}]
    assert not report.failed
    report.check("breaks", "word (u1): residual 2 terms")
    assert report.lines[-1] == {"check": "breaks", "status": "fail",
                                "witness": "word (u1): residual 2 terms"}
    assert report.failed


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # counts every ArgumentParser built, the subcommand parsers included
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    try:
        counts = []
        for _ in range(2):
            code, _, _ = run_cli(["check", fixture("heis2.json")], capsys)
            assert code == 0
            counts.append(len(built))
        assert built.count("cjde") == 1
        assert counts[0] == counts[1] > 1
    finally:
        cli._parser.cache_clear()


# JSON text, as json.dumps cannot write a repeated key
_REPEATS = '{"schema": 1, "base_dim": 1, "rank": 2, %s}'
_ETA = '[["0", "1"], ["-1", "0"]]'


@pytest.mark.parametrize("body, message", [
    ('"rep": [{"1": "2", "01": "3"}, "0"], "rep": ["5", "0"]', "repeated key 'rep'"),
    ('"rep": [{"1": "2", "1": "3"}, "0"]', "repeated key '1'"),
    ('"rep": [{"1": "2", "01": "3"}, "0"]', "exponent vector '01'"),
    ('"rep": [{"": "2", "0": "3"}, "0"]', "exponent vector '0'"),
    (f'"deformations": {{"eta": {_ETA}, "eta": {_ETA}}}', "repeated key 'eta'"),
    (f'"epsilons": {{"eps": {_ETA}, "eps": {_ETA}}}', "repeated key 'eps'"),
], ids=["top-level", "in-polynomial", "exponent-spellings", "empty-exponent",
        "deformations", "epsilons"])
def test_repeated_key_exits_2(body, message, tmp_path, capsys):
    # json.load keeps a repeated key's last value and the parser summed two
    # spellings of one exponent vector: either would drop or merge an entry
    bad = tmp_path / "repeats.json"
    bad.write_text(_REPEATS % body)
    _assert_one_error_line(*run_cli(["check", str(bad)], capsys), message)
