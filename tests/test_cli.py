"""Command-line surface: outputs, exit codes, and round trips."""

import json

import pytest

from qacodes.cli import main
from qacodes.concatenation import qa_to_descriptor
from qacodes.reference import qa_27_6_12


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


def test_classes_json_and_banner(capsys):
    code, out, _ = run(capsys, "--json", "classes", "--q", "2", "--group", "5,5")
    assert code == 0
    doc = json.loads(out)
    assert doc["field_degrees"] == [1, 4, 4, 4, 4, 4, 4]
    code, out, _ = run(capsys, "classes", "--q", "2", "--group", "3,3")
    assert out.splitlines()[0].startswith("qacodes ")


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
    doc = json.loads(open(out_path).read())
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


def test_search_command(capsys, tmp_path):
    out_path = str(tmp_path / "res.json")
    code, out, _ = run(capsys, "--no-banner", "search", "--q", "2", "--group", "3,3",
                       "--index", "2", "--dmin", "8", "--out", out_path)
    assert code == 0
    doc = json.loads(open(out_path).read())
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
    rows = open(out_path).read().strip().splitlines()
    assert rows[0] == "i,n_i,length,dim,distance_exact_or_bound,rate,rel_distance,lcd"
    assert len(rows) == 5  # four LCD outer codes of length <= 2
    assert all(r.endswith(",1") for r in rows[1:])


def test_verify_paper(capsys):
    code, out, _ = run(capsys, "--no-banner", "verify-paper")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert all(l.startswith("PASS") for l in lines)
    assert any("[50,12,18]" in l for l in lines)


def test_error_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "--no-banner", "classes", "--q", "2", "--group", "2,2")
    assert code == 2 and "non-semisimple" in err
    code, _, err = run(capsys, "--no-banner", "distance", "--code",
                       str(tmp_path / "missing.json"))
    assert code == 2
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


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_search_rejects_nonpositive_dimension_target(capsys, dim):
    code, out, err = run(capsys, "--no-banner", "search", "--q", "2", "--group", "3,3",
                         "--index", "2", "--dmin", "8", "--dim", dim)
    assert code == 2 and "dimension target must be positive" in err
    assert out == ""


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


@pytest.mark.parametrize("command", ["distance", "construct"])
@pytest.mark.parametrize("doc", [[1, 2], 5, "code"])
def test_non_object_descriptor_exits_2(capsys, tmp_path, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "--no-banner", command, "--code", str(path))
    assert code == 2
    assert err.strip() == "error: descriptor must be a JSON object"
