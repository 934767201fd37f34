"""Command-line surface: outputs, exit codes, and round trips."""

import argparse
import ast
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qacodes import (__version__, cli, concatenation, diagnostics, families, linear_codes,
                     reference)
from qacodes.algebra import AbelianGroup, FieldSpec
from qacodes.cli import main
from qacodes.concatenation import qa_from_descriptor, qa_to_descriptor
from qacodes.idempotents import SemisimpleDecomposition
from qacodes.linear_codes import LinearCode, code_to_descriptor
from qacodes.reference import qa_27_6_12

F2 = FieldSpec(2, 1).subfield(1)


@pytest.fixture()
def qa27_file(tmp_path):
    path = tmp_path / "qa27.json"
    path.write_text(json.dumps(qa_to_descriptor(qa_27_6_12())))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classes_text(capsys):
    code, out, _ = run(capsys, "--no-banner", "classes", "--q", "2", "--group", "3,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rep=[0,0] size=1 members=[[0,0]]"
    assert len([l for l in lines if l.startswith("rep=")]) == 5
    assert lines[-1].endswith("1 2 2 2 2")


def test_classes_json_and_banner(capsys, qa27_file, tmp_path):
    code, out, _ = run(capsys, "--json", "classes", "--q", "2", "--group", "5,5")
    assert code == 0
    doc = json.loads(out)
    assert doc["field_degrees"] == [1, 4, 4, 4, 4, 4, 4]
    code, out, _ = run(capsys, "classes", "--q", "2", "--group", "3,3")
    assert out.splitlines()[0].startswith("qacodes ")
    # every millisecond subcommand: text mode puts the banner first,
    # --no-banner prints the same text without it, --json the document alone
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(code_to_descriptor(qa_27_6_12().flattened)))
    for argv in (["classes", "--q", "2", "--group", "3,3"],
                 ["decompose", "--q", "2", "--group", "3,3"],
                 ["construct", "--code", qa27_file],
                 ["constituents", "--code", str(flat), "--group", "3,3"],
                 ["bound", "--code", qa27_file],
                 ["distance", "--code", qa27_file],
                 ["family", "--q", "2", "--p", "3", "--max-outer-length", "1"]):
        code, text, _ = run(capsys, *argv)
        assert code == 0 and text.splitlines()[0] == f"qacodes {__version__}", argv
        code, bare, _ = run(capsys, "--no-banner", *argv)
        assert code == 0 and bare and bare == text.split("\n", 1)[1], argv
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0 and isinstance(json.loads(out), dict), argv


def _run_catching_usage_errors(capsys, argv):
    """Exit code, stdout and stderr of one `main` call; an argparse usage
    error exits through SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch, tmp_path):
    """Calls in sequence give what each gives as the first call of a
    process, with a parser of its own, although the parser is built once:
    options of one call (--json, --dim, --out) do not leak into the next,
    and a usage error leaves the parser fit for the next call."""
    search = ["search", "--q", "2", "--group", "3,3", "--index", "2", "--dmin", "8"]
    family = ["family", "--q", "2", "--p", "3", "--max-outer-length", "2"]
    calls = [["--json", "classes", "--q", "2", "--group", "3,3"],
             ["classes", "--q", "2", "--group", "3,3"],
             search + ["--dim", "6"],
             search,
             family + ["--out", str(tmp_path / "fam.csv")],
             family,
             ["classes", "--q", "2"],
             ["--no-banner", "decompose", "--q", "2", "--group", "3"]]
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(_run_catching_usage_errors(capsys, argv))
    assert [code for code, _, _ in alone] == [0, 0, 0, 0, 0, 0, 2, 0]
    assert alone[2] != alone[3] and alone[4] != alone[5]

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "qacodes":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    assert [_run_catching_usage_errors(capsys, argv) for argv in calls] == alone
    assert len(built) == 1


def test_python_dash_m_runs_the_cli_from_a_checkout():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "qacodes", "--no-banner", "classes", "--q", "2",
         "--group", "3,3"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "field degrees over F_2: 1 2 2 2 2"


def test_handlers_do_not_print():
    """Each subcommand handler returns its document and its text lines, and
    `main` alone writes to stdout."""
    module = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    handlers = [f for f in module.body
                if isinstance(f, ast.FunctionDef) and f.name.startswith("_cmd_")]
    assert len(handlers) == 9
    writers = [f.name for f in handlers for node in ast.walk(f)
               if (isinstance(node, ast.Name) and node.id == "print")
               or (isinstance(node, ast.Attribute) and node.attr == "stdout")]
    assert writers == []


def test_package_imports_only_declared_dependencies():
    """Every import in the package is from the standard library, numpy (its
    one declared dependency) or the package itself, so that a clean install
    runs it; other packages may be installed where the tests run."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "qacodes"}
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.partition(".")[0] not in allowed]
    assert found == []


@pytest.mark.parametrize("q,group,degrees", [("257", "2", "1 1"), ("2", "47", "1 23 23")],
                         ids=["q257", "q2-C47"])
def test_classes_past_byte_sized_digits(capsys, q, group, degrees):
    code, out, _ = run(capsys, "--no-banner", "classes", "--q", q, "--group", group)
    assert code == 0
    assert out.strip().splitlines()[-1] == f"field degrees over F_{q}: {degrees}"


def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "decompose", "--q", "2", "--group", "3,3")
    _, out2, _ = run(capsys, "decompose", "--q", "2", "--group", "3,3")
    assert out1 == out2


def test_construct_bound_distance(capsys, qa27_file, tmp_path):
    out_path = str(tmp_path / "flat.json")
    code, out, _ = run(capsys, "--no-banner", "construct", "--code", qa27_file,
                       "--out", out_path)
    assert code == 0
    assert "parameters: [27,6,12]" in out
    doc = json.loads(Path(out_path).read_text())
    assert doc["params"] == {"length": 27, "dim": 6, "distance": 12}

    code, out, _ = run(capsys, "--no-banner", "bound", "--code", qa27_file)
    assert code == 0 and out.strip() == "12"

    code, out, _ = run(capsys, "--no-banner", "distance", "--code", qa27_file)
    assert code == 0 and out.strip() == "12"

    flat_code = tmp_path / "flatcode.json"
    flat_code.write_text(json.dumps(doc["flattened"]))
    code, out, _ = run(capsys, "--no-banner", "distance", "--code", str(flat_code))
    assert code == 0 and out.strip() == "12"

    code, out, _ = run(capsys, "--no-banner", "--json", "constituents",
                       "--code", str(flat_code), "--group", "3,3")
    assert code == 0
    cons = json.loads(out)["constituents"]
    assert [c["class_member"] for c in cons] == [[1, 0], [1, 1]]


def test_constituents_of_a_code_in_another_presentation(capsys, monkeypatch, tmp_path):
    """A flattened code written in another presentation of the tower (F_16
    by x^4 + x^3 + 1, not the default x^4 + x + 1) is moved into the
    decomposition's presentation, and `constituents` prints what it prints
    for the code in the default one."""
    doc = code_to_descriptor(reference.qa_50_12_18().flattened)
    own, other = tmp_path / "own.json", tmp_path / "other.json"
    own.write_text(json.dumps(doc))
    other.write_text(json.dumps(dict(doc, modulus=[1, 0, 0, 1, 1])))
    argv = ["--no-banner", "constituents", "--group", "5,5", "--code"]
    want = run(capsys, *argv, str(own))
    assert want[0] == 0 and len(want[1].splitlines()) == 3
    embedded = []
    embed = concatenation.embed_code
    monkeypatch.setattr(concatenation, "embed_code",
                        lambda *args: embedded.append(args) or embed(*args))
    assert run(capsys, *argv, str(other)) == want
    assert len(embedded) == 1


def test_search_command(capsys, tmp_path):
    out_path = str(tmp_path / "res.json")
    code, out, _ = run(capsys, "--no-banner", "search", "--q", "2", "--group", "3,3",
                       "--index", "2", "--dmin", "8", "--out", out_path)
    assert code == 0
    doc = json.loads(Path(out_path).read_text())
    assert doc["results"], "distance 8 is reachable at index 2"
    for entry in doc["results"]:
        assert entry["params"]["distance"] >= 8
    assert "stats" in doc
    for stage in doc["stats"]["stages"]:
        assert stage["weighed"] <= stage["candidates"] and stage["weighed_per_s"] >= 0


def test_search_results_feed_back_into_construct(capsys, tmp_path):
    out_path = tmp_path / "res.json"
    code, _, _ = run(capsys, "--no-banner", "search", "--q", "2", "--group", "3,3",
                     "--index", "2", "--dmin", "10", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["results"]
    entry = doc["results"][0]
    qa_doc = tmp_path / "qa.json"
    qa_doc.write_text(json.dumps({
        "q": doc["q"], "group": doc["group"], "index": doc["index"],
        "constituents": entry["constituents"],
    }))
    code, out, _ = run(capsys, "--no-banner", "--json", "distance",
                       "--code", str(qa_doc))
    assert code == 0
    assert json.loads(out)["distance"] == entry["params"]["distance"]


def test_family_command(capsys, tmp_path):
    out_path = str(tmp_path / "fam.csv")
    code, out, _ = run(capsys, "--no-banner", "family", "--q", "2", "--p", "3",
                       "--lcd", "--max-outer-length", "2", "--out", out_path)
    assert code == 0
    rows = Path(out_path).read_text().strip().splitlines()
    assert rows[0] == "i,n_i,length,dim,distance_exact_or_bound,rate,rel_distance,lcd"
    assert len(rows) == 5  # four LCD outer codes of length <= 2
    assert all(r.endswith(",1") for r in rows[1:])


def test_family_lcd_refuses_a_non_lcd_outer_file(capsys, tmp_path):
    """`--lcd` checks a user's outer codes rather than dropping the ones
    with a nonzero hull: the [3,1] code spanned by 110 has hull 1."""
    path = tmp_path / "outer.json"
    path.write_text(json.dumps([code_to_descriptor(LinearCode(F2, 3, [[1, 1, 0]]))]))
    code, out, err = run(capsys, "--no-banner", "family", "--q", "2", "--p", "3",
                         "--lcd", "--outer", str(path))
    assert code == 2 and out == ""
    assert err == ("error: outer code 0 ([3,1]) has a nonzero hull but "
                   "lcd_required is set\n")


def test_family_lcd_computes_fewer_hulls(capsys, monkeypatch):
    """Each Gram matrix of `family --q 2 --p 3 --lcd` is ranked once, in
    stacks: 86 for its census (every nonzero binary code of length <= 4),
    in at most one stacked `rank` call per (length, dimension) group of it,
    and 50 for its members, in at most one per group of them.  Counted at
    `rank`, which every hull goes through; 136 hulls in all, as when each
    was computed once per code (236 when the --lcd filter and FamilySpec
    each computed them again)."""
    calls = []  # (phase, Gram matrices ranked)
    phase = ["census"]
    rank = linear_codes.rank
    report = cli.family_report

    def counted(field, matrix):
        calls.append((phase[0], math.prod(np.shape(matrix)[:-2])))
        return rank(field, matrix)

    def members(*args):
        phase[0] = "members"
        return report(*args)

    monkeypatch.setattr(linear_codes, "rank", counted)
    monkeypatch.setattr(cli, "family_report", members)
    code, out, _ = run(capsys, "--no-banner", "family", "--q", "2", "--p", "3", "--lcd")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 50
    census = [m for ph, m in calls if ph == "census"]
    member = [m for ph, m in calls if ph == "members"]
    assert sum(census) == 86 and len(census) <= sum(range(1, 5))
    assert sum(member) == 50 and len(member) <= len({(r[1], r[3]) for r in rows})


def test_family_cap_refusal(capsys, monkeypatch):
    """Past the codeword cap, `family` exits 3 with the size of the first
    outer code it cannot enumerate, before it weighs any group."""
    weighed = []
    monkeypatch.setattr(families, "weight_distributions",
                        lambda *args: weighed.append(args))
    code, out, err = run(capsys, "--cap-codewords", "8", "family", "--q", "2", "--p", "3")
    assert (code, out) == (3, "")
    assert err == ("error: codeword enumeration for [4,4] over a size-2 field: "
                   "would need 16 > cap 8\n")
    assert weighed == []


def test_family_library_obeys_the_subspace_cap(capsys):
    """The built-in LCD library is a subspace census, so --cap-subspaces
    bounds it: binary codes of length 3 have 16 subspaces."""
    code, out, err = run(capsys, "--cap-subspaces", "5", "family", "--q", "2", "--p", "3")
    assert (code, out) == (3, "")
    assert err == ("error: subspace enumeration of length 3 over a size-2 field: "
                   "would need 16 > cap 5\n")


@pytest.mark.parametrize("doc", [5, None, {"q": 2}], ids=["int", "null", "object"])
def test_family_outer_must_be_a_list(capsys, tmp_path, doc):
    path = tmp_path / "outer.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "--no-banner", "family", "--q", "2", "--p", "3",
                         "--outer", str(path))
    assert code == 2 and out == ""
    assert err == f"error: descriptor outer codes must be a list, got {json.dumps(doc)}\n"


def test_verify_paper(capsys):
    code, out, _ = run(capsys, "--no-banner", "verify-paper")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert all(l.startswith("PASS") for l in lines)
    assert any("[50,12,18]" in l for l in lines)
    code, out, _ = run(capsys, "--json", "verify-paper")
    doc = json.loads(out)
    assert code == 0 and doc["all_ok"] and len(doc["checks"]) == len(lines)
    # each check carries the wall time of the step that produced it
    assert all(type(c["seconds"]) is float and c["seconds"] >= 0 for c in doc["checks"])


def test_verify_paper_reports_a_broken_lift_as_a_failure(capsys, monkeypatch):
    # the identity suite of (2, C3) gets a fresh decomposition whose lift of
    # class 1 leaves the ideal; the cached decomposition is left alone
    broken = SemisimpleDecomposition(AbelianGroup((3,)), 2)
    psi = broken.psi_matrix(1)
    psi[0, 0] = broken.spec.vadd(psi[0, 0], 1)
    broken._psi_matrix[1] = psi
    plain = diagnostics.decompose_algebra
    monkeypatch.setattr(diagnostics, "decompose_algebra", lambda group, q: (
        broken if (q, group.orders) == (2, (3,)) else plain(group, q)))
    code, out, err = run(capsys, "--no-banner", "verify-paper")
    assert code == 4
    assert "FAIL  identity suite q=2, H=3  (projection/lift are inverse ring " \
        "isomorphisms)" in out.splitlines()
    assert sum(l.startswith("FAIL") for l in out.splitlines()) == 1
    assert err == "internal error: reference suite regression\n"


def test_error_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "--no-banner", "classes", "--q", "2", "--group", "2,2")
    assert code == 2 and "non-semisimple" in err
    code, _, err = run(capsys, "--no-banner", "distance", "--code",
                       str(tmp_path / "missing.json"))
    assert code == 2
    # q is checked to be a prime power before the semisimplicity test
    for command, extra in (("classes", []), ("decompose", []),
                           ("search", ["--index", "2", "--dmin", "8"])):
        code, out, err = run(capsys, "--no-banner", command, "--q", "0", "--group", "3",
                             *extra)
        assert code == 2 and out == ""
        assert err == "error: field size must be at least 2, got 0\n", command
    # enumeration cap exceeded maps to exit 3
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "q": 2, "modulus": [1, 1], "field_degree": 1, "length": 30,
        "generators": [[("1" if i == j else "0") for j in range(30)]
                       for i in range(30)],
    }))
    code, _, err = run(capsys, "--no-banner", "--cap-codewords", "1000",
                       "distance", "--code", str(big))
    assert code == 3 and "cap" in err
    # a non-positive cap is bad input, not an exceeded cap
    for flag, value in (("--cap-codewords", "-5"), ("--cap-subspaces", "-1")):
        code, _, err = run(capsys, "--no-banner", flag, value, "search", "--q", "2",
                           "--group", "3,3", "--index", "2", "--dmin", "8")
        assert code == 2 and "cap must be positive" in err and "would need" not in err
    code, _, err = run(capsys, "--no-banner", "--cap-codewords", "0",
                       "distance", "--code", str(big))
    assert code == 2 and "cap must be positive" in err


def test_search_refuses_a_dimension_target_past_the_cap_after_stage_one(capsys):
    # survivors of distinct classes add up to 30, and 2^30 codewords exceed
    # the default cap, so no stage past the first runs
    start = time.perf_counter()
    code, _, err = run(capsys, "--no-banner", "search", "--q", "2", "--group", "5,5",
                       "--index", "2", "--dmin", "8", "--dim", "30")
    assert code == 3
    assert "search stage 1" in err and f"would need {2 ** 30}" in err
    assert time.perf_counter() - start < 20


def test_search_refuses_a_candidate_past_the_cap_within_a_stage(capsys):
    """A stage-2 candidate of dimension 5 needs 2^5 codewords, more than the
    cap; stage 1 (dimensions up to 4) fits it."""
    code, out, err = run(capsys, "--cap-codewords", "16", "search", "--q", "2",
                         "--group", "3,3", "--index", "2", "--dmin", "4")
    assert (code, out) == (3, "")
    assert err == ("error: search stage 2: codeword enumeration for [18,5]: "
                   "would need 32 > cap 16\n")


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_search_rejects_nonpositive_dimension_target(capsys, dim):
    code, out, err = run(capsys, "--no-banner", "search", "--q", "2", "--group", "3,3",
                         "--index", "2", "--dmin", "8", "--dim", dim)
    assert code == 2 and "dimension target must be positive" in err
    assert out == ""


# one command line for each integer option, its value left as {}
_INTEGER_OPTIONS = [
    ["--cap-codewords", "{}", "classes", "--q", "2", "--group", "3"],
    ["--cap-subspaces", "{}", "classes", "--q", "2", "--group", "3"],
    ["classes", "--q", "{}", "--group", "3"],
    ["decompose", "--q", "{}", "--group", "3"],
    ["search", "--q", "{}", "--group", "3,3", "--index", "2", "--dmin", "8"],
    ["search", "--q", "2", "--group", "3,3", "--index", "{}", "--dmin", "8"],
    ["search", "--q", "2", "--group", "3,3", "--index", "2", "--dmin", "{}"],
    ["search", "--q", "2", "--group", "3,3", "--index", "2", "--dmin", "8", "--dim", "{}"],
    ["family", "--q", "{}", "--p", "3"],
    ["family", "--q", "2", "--p", "{}"],
    ["family", "--q", "2", "--p", "3", "--max-outer-length", "{}"],
    ["verify-paper", "--seed", "{}"],
]


@pytest.mark.parametrize("text", [" 2", "2 ", "+2", "0_2", "\u0662"])
def test_integer_options_take_only_ascii_digits(capsys, text):
    """Every integer option reads an optional '-' and ASCII digits, and
    refuses anything else through argparse rather than normalising it."""
    for argv in _INTEGER_OPTIONS:
        argv = [text if a == "{}" else a for a in argv]
        code, out, err = _run_catching_usage_errors(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.endswith(f": invalid integer value: {text!r}\n"), argv


@pytest.mark.parametrize("group", ["1_5", " 3,3", "+3,3", "\u0663,3", "3, 3", "3,3 "])
def test_group_orders_take_only_ascii_digits(capsys, group):
    """The orders of --group follow the integer options' rule, with one
    error line that names the group and the order refused."""
    code, out, err = run(capsys, "classes", "--q", "2", "--group", group)
    assert (code, out) == (2, "")
    bad = next(t for t in group.split(",") if not (t.isascii() and t.isdigit()))
    assert err == (f"error: bad group {group!r}: order {bad!r} is not an optional '-' "
                   "followed by ASCII digits\n")


def test_class_member_outside_the_group_exits_2(capsys, tmp_path):
    path = tmp_path / "qa.json"
    path.write_text(json.dumps({
        "q": 2, "group": [5, 5], "index": 1,
        "constituents": [{"class_member": [4, 7], "generators": [["1000"]]}]}))
    for command in ("construct", "distance"):
        code, out, err = run(capsys, "--no-banner", command, "--code", str(path))
        assert code == 2 and out == ""
        assert err.strip() == "error: class_member [4, 7] lies outside the group [5, 5]"


def test_short_element_string_exits_2(capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"q": 4, "field_degree": 1, "length": 2,
                                "modulus": [1, 1, 1], "generators": [["1", "01"]]}))
    code, out, err = run(capsys, "--no-banner", "distance", "--code", str(path))
    assert code == 2 and out == ""
    assert err.strip() == ("error: element string '1' has 1 digits; "
                           "the F_4 presentation needs 2")


@pytest.mark.parametrize("entry", [" 01", "01 ", "0, 1", "+1,0", "0_1,0", "١0"])
def test_malformed_element_string_exits_2(capsys, tmp_path, entry):
    """A string that is not n ASCII digits, nor n comma-separated plain
    numbers, is refused, not normalised: one error line names it, from a flat
    descriptor (with and without a modulus) and from a quasi-abelian one."""
    flat = {"q": 4, "field_degree": 1, "length": 2, "generators": [["10", entry]]}
    first = dict(flat, generators=[[entry, "10"]])  # the string the width is read from
    docs = {"distance": [flat, first, dict(flat, modulus=[1, 1, 1])],
            "construct": [{"q": 2, "group": [3], "index": 1, "constituents": [
                {"class_member": [1], "generators": [[entry]]}]}]}
    for command, variants in docs.items():
        for doc in variants:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "--no-banner", command, "--code", str(path))
            assert code == 2 and out == ""
            assert err == (f"error: element string {entry!r} is malformed: write ASCII "
                           "digits below 2, with or without commas between them\n")


def test_element_text_is_the_array_codec(capsys, monkeypatch, qa27_file):
    """Descriptors and the CLI read and write element text through the
    array codec on FieldSpec: with its scalar fronts broken, well-formed text
    still round-trips and the CLI output is unchanged."""
    qa = qa_27_6_12()
    flat = qa.flattened
    argvs = [["--no-banner", "--json", "decompose", "--q", "2", "--group", "3,3"],
             ["--no-banner", "--json", "construct", "--code", qa27_file]]
    before = [run(capsys, *argv) for argv in argvs]

    def scalar_front(*args):
        raise AssertionError("element text went through a scalar front")

    monkeypatch.setattr(FieldSpec, "element_str", scalar_front)
    monkeypatch.setattr(FieldSpec, "from_string", scalar_front)
    assert linear_codes.code_from_descriptor(code_to_descriptor(flat)) == flat
    descriptor = qa_to_descriptor(qa)
    assert qa_to_descriptor(qa_from_descriptor(descriptor)) == descriptor
    assert [run(capsys, *argv) for argv in argvs] == before
    assert before[0][0] == 0 and len(json.loads(before[0][1])["idempotents"]) == 5


@pytest.mark.parametrize("command", ["distance", "construct"])
@pytest.mark.parametrize("doc", [[1, 2], 5, "code"])
def test_non_object_descriptor_exits_2(capsys, tmp_path, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "--no-banner", command, "--code", str(path))
    assert code == 2
    assert err.strip() == "error: descriptor must be a JSON object"


@pytest.mark.parametrize("doc", [
    {"q": 2, "group": 5, "index": 2},
    {"q": 2, "group": [3, 3], "index": 2, "constituents": [1]},
    {"q": 2, "group": [3, 3], "index": 2,
     "constituents": [{"class_member": [1, 0], "generators": [[1, 0]]}]},
    {"q": None, "group": [3, 3], "index": 2},
    {"q": 2, "group": [3, 3], "index": True},
    {"q": 2, "group": [3, 3], "index": 2,
     "constituents": [{"class_member": [1, 0], "generators": [["10", "01", "11"]]}]},
], ids=["group", "constituent", "element", "q", "bool", "row-length"])
def test_mistyped_descriptor_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "--no-banner", "construct", "--code", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("rows,row,got", [
    ([["1", "0"]], 0, 2),
    ([["1", "0", "1"], ["1", "1"]], 1, 2),
], ids=["short", "ragged"])
def test_generator_row_of_the_wrong_length_exits_2(capsys, tmp_path, rows, row, got):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"q": 2, "modulus": [1, 1], "field_degree": 1,
                                "length": 3, "generators": rows}))
    code, out, err = run(capsys, "--no-banner", "distance", "--code", str(path))
    assert code == 2 and out == ""
    assert err.strip() == f"error: generator row {row} has {got} entries; expected 3"


# one value of each JSON type; every one is small, so a mistyped key is
# malformed input and never a resource limit
_JSON_VALUES = [None, True, 3, 1.5, "x", [1], {"k": 1}]


def _key_mutations(doc: dict, rng: random.Random):
    """Each key of `doc` dropped (all but the optional "modulus"), renamed
    twice and given a value of another JSON type: (label, mutated copy, what
    the reader's one error line must contain)."""
    for key, value in doc.items():
        if key != "modulus":
            yield (f"drop {key}", {k: v for k, v in doc.items() if k != key},
                   f"lacks required key {key!r}")
        at = rng.randrange(len(key) + 1)
        for new in (key[:-1], key[:at] + rng.choice("aqsxz_") + key[at:]):
            if new not in doc:
                yield (f"rename {key} {new}",
                       {(new if k == key else k): v for k, v in doc.items()},
                       f"has unknown key {new!r}")
        other = rng.choice([v for v in _JSON_VALUES if type(v) is not type(value)])
        yield f"retype {key}", {**doc, key: other}, f"{key} must be"


@pytest.mark.parametrize("name", ["qa_27_6_12", "qa_36_6_16", "qa_50_12_18"])
def test_descriptor_key_fuzz_exits_2(capsys, tmp_path, name):
    rng = random.Random(name)
    qa = getattr(reference, name)()
    qa_doc = qa_to_descriptor(qa)
    cases = [(True, *m) for m in _key_mutations(qa_doc, rng)]
    for e, entry in enumerate(qa_doc["constituents"]):
        for label, mutated, fragment in _key_mutations(entry, rng):
            entries = [mutated if j == e else c for j, c in enumerate(qa_doc["constituents"])]
            cases.append((True, f"constituent {e}: {label}",
                          {**qa_doc, "constituents": entries}, fragment))
    cases += [(False, *m) for m in _key_mutations(code_to_descriptor(qa.flattened), rng)]
    path = tmp_path / "doc.json"
    for is_qa_doc, label, doc, fragment in cases:
        path.write_text(json.dumps(doc))
        for command in ("construct", "distance"):
            code, out, err = run(capsys, "--no-banner", command, "--code", str(path))
            assert code == 2 and out == "", (command, label)
            assert len(err.splitlines()) == 1 and err.startswith("error:"), (command, label)
            # `distance` reads a document with a "group" key as a QA code
            if (command == "construct" or "group" in doc) == is_qa_doc:
                assert fragment in err, (command, label, err)
    # "modulus" alone is optional: without it the default presentation is read
    for doc in (qa_doc, code_to_descriptor(qa.flattened)):
        path.write_text(json.dumps({k: v for k, v in doc.items() if k != "modulus"}))
        code, out, _ = run(capsys, "--no-banner", "distance", "--code", str(path))
        assert code == 0 and int(out) == qa.params().distance
