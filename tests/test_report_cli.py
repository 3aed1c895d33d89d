"""The aggregated report and the command-line surface."""

import json

import pytest

from skewdg.cli import main
from skewdg.finalg import AlgebraError, FinAlg
from skewdg.linalg import Mat
from skewdg.report import analyze, n2_presentation
from skewdg.resolution import build_resolution, verify_resolution


def write_matrix(tmp_path, name, rows, n=3):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "matrix": [[str(x) for x in r] for r in rows]}))
    return str(path)


def test_report_consistency_battery():
    for rows in ([[1, 0, 1], [0, 1, 0], [1, 0, 1]],
                 [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                 [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
                 [[1, 1, 0], [1, 1, 0], [1, 1, 0]],
                 [[0, 0, 0], [0, 0, 0], [0, 0, 0]]):
        result = analyze(Mat(rows), dmax=5)
        assert result.consistent, (rows, result.payload["problems"])


def test_report_nonquasi_isomorphic_pair():
    a = analyze(Mat([[1, 0, 1], [0, 1, 0], [1, 0, 1]]), dmax=6)
    b = analyze(Mat([[0, 0, 1], [0, 1, 0], [0, 0, 0]]), dmax=6)
    assert a.payload["cohomology_dims"] == b.payload["cohomology_dims"]
    assert a.payload["resolution"]["ext"]["dim"] == 3
    assert b.payload["resolution"]["ext"]["dim"] == 4


def test_report_n2():
    result = analyze(Mat([[1, 0], [0, 0]]), dmax=5)
    assert result.consistent
    assert result.payload["calabi_yau"] is True
    assert result.payload["presented_dims"] == [1, 1, 1, 1, 1, 1]


def test_n2_presentation_rows():
    # One representative per published n = 2 family.
    assert n2_presentation(Mat([[1, 0], [0, 1]])).generators == []
    assert len(n2_presentation(Mat([[1, 0], [0, 0]])).generators) == 1
    assert len(n2_presentation(Mat([[0, 1], [0, 0]])).generators) == 2
    assert len(n2_presentation(Mat([[1, 1], [0, 0]])).generators) == 1
    assert len(n2_presentation(Mat([[1, 0], [1, 0]])).generators) == 1
    assert len(n2_presentation(Mat([[2, 1], [1, 2]])).generators) == 0
    assert len(n2_presentation(Mat([[1, 1], [1, 1]])).generators) == 2
    # A family outside the published table yields no presentation.
    assert n2_presentation(Mat([[0, 0], [1, 0]])) is None


def test_cli_classify(tmp_path, capsys):
    path = write_matrix(tmp_path, "m.json", [[1, 1, 0], [1, 1, 0], [1, 1, 0]])
    assert main(["classify", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["calabi_yau"] is False
    assert record["koszul"] is True
    assert record["homologically_smooth"] is False


def test_cli_ext_on_staircase(tmp_path, capsys):
    path = write_matrix(tmp_path, "m.json", [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert main(["ext", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["dim"] == 8
    assert record["truncated_polynomial"] == 8
    assert record["frobenius"]["frobenius"] is True


def test_cli_iso_witness(tmp_path, capsys):
    a = write_matrix(tmp_path, "a.json", [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    b = write_matrix(tmp_path, "b.json", [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert main(["iso", a, b]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "Witness"
    assert record["permutation"] == [1, 3, 2]


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "matrix": [["1"]]}')
    assert main(["classify", str(bad)]) == 1
    empty = tmp_path / "empty.json"
    empty.write_text('{"n": 0, "matrix": []}')
    assert main(["cohomology", str(empty)]) == 1
    n2 = write_matrix(tmp_path, "n2.json", [[0, 1], [0, 0]], n=2)
    n3 = write_matrix(tmp_path, "n3.json", [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    n4 = write_matrix(tmp_path, "n4.json", [[1, 0, 0, 0], [0, 1, 0, 0],
                                            [0, 0, 0, 0], [0, 0, 0, 0]], n=4)
    assert main(["iso", n2, n3]) == 1
    assert main(["resolve", n2]) == 2
    for command in ("report", "iso", "aut"):
        assert main([command, n4] + ([n4] if command == "iso" else [])) == 2, command
    # Negative depths are bad input, not an empty check that passes.
    for command in ("validate", "cohomology", "report"):
        assert main([command, n3, "--max-degree", "-1"]) == 1, command
    assert main(["resolve", n3, "--verify", "-1"]) == 1
    assert main(["resolve", n3, "--verify", "0"]) == 0
    assert "verification" not in json.loads(capsys.readouterr().out.splitlines()[-1])
    m3 = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    res = build_resolution(m3)
    with pytest.raises(ValueError, match="dmax"):
        verify_resolution(res.spec, res, dmax=0)
    with pytest.raises(ValueError, match="dmax"):
        analyze(m3, dmax=-1)

    # A ValueError raised inside the library is a bug, not bad input: it
    # propagates with its traceback instead of becoming exit code 1.
    def broken(m):
        raise ValueError("library bug")

    monkeypatch.setattr("skewdg.cli.classify", broken)
    with pytest.raises(ValueError, match="library bug"):
        main(["classify", n3])

    # The Ext commutant is an algebra by construction, so an AlgebraError
    # from packaging it is an internal inconsistency, not bad input.
    def not_closed(mats, size):
        raise AlgebraError("span is not closed under multiplication")

    monkeypatch.setattr(FinAlg, "from_sparse_matrices", staticmethod(not_closed))
    assert main(["ext", n3]) == 3
    assert "not closed" in capsys.readouterr().err


def test_cli_cohomology_max_degree(tmp_path, capsys):
    # The dims stop at --max-degree, also below the degree-2 data that the
    # record always carries; the H^1 and H^2 fields do not depend on it.
    path = write_matrix(tmp_path, "m1.json", [[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    records = {}
    for dmax in (0, 1, 2, 4):
        assert main(["cohomology", path, "--max-degree", str(dmax)]) == 0
        records[dmax] = json.loads(capsys.readouterr().out)
    assert [len(records[d]["dims"]) for d in (0, 1, 2, 4)] == [1, 2, 3, 5]
    for dmax, record in records.items():
        assert record["dims"] == records[4]["dims"][: dmax + 1]
        assert {k: v for k, v in record.items() if k != "dims"} == \
            {k: v for k, v in records[4].items() if k != "dims"}


def test_cli_resolve_verify(tmp_path, capsys):
    path = write_matrix(tmp_path, "m.json", [[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    assert main(["resolve", path, "--verify", "4"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["size"] == 3
    assert record["verification"]["passed"] is True


def test_cli_report_and_determinism(tmp_path, capsys):
    path = write_matrix(tmp_path, "m.json", [[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    assert main(["report", path, "--max-degree", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["report", path, "--max-degree", "4"]) == 0
    second = capsys.readouterr().out
    assert first == second
    record = json.loads(first)
    assert record["consistent"] is True


def test_cli_validate(tmp_path, capsys):
    path = write_matrix(tmp_path, "m.json", [[1, 2], [3, 4]], n=2)
    assert main(["validate", path, "--max-degree", "5"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["square_zero"] and record["leibniz_on_low_degrees"]


def test_cli_frobenius_file(tmp_path, capsys):
    m = 4
    structure = [[[0] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i + j < m:
                structure[i][j][i + j] = 1
    flat = [str(structure[i][j][k]) for i in range(m) for j in range(m) for k in range(m)]
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": m, "unit": ["1", "0", "0", "0"], "structure": flat}))
    assert main(["frobenius", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["frobenius"] is True
    assert record["truncated_polynomial"] == 4


def test_cli_aut(tmp_path, capsys):
    path = write_matrix(tmp_path, "m.json", [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert main(["aut", path]) == 0
    record = json.loads(capsys.readouterr().out)
    ident = [f for f in record["families"] if f["permutation"] == [1, 2, 3]]
    assert ident and ident[0]["relations"] == ["d1 = d2^2"]
