"""The aggregated report and the command-line surface."""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from skewdg import linalg, report, resolution
from skewdg.classify import classify, theorem_c
from skewdg.cli import main
from skewdg.dg import DgSpec
from skewdg.finalg import AlgebraError, FinAlg
from skewdg.linalg import Mat
from skewdg.report import analyze, n2_presentation
from skewdg.resolution import build_resolution, eilenberg_moore, verify_resolution

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))
from make_golden import MATRICES as GOLDEN_MATRICES  # noqa: E402


def test_import_builds_no_tables():
    # The shift tables, graded bases and scale lattices are built on first
    # use; an import that built them would add to every start of the CLI.
    code = ("import skewdg, skewdg.cli, skewdg.report; from skewdg import dg, qpl, skew; "
            "print(len(dg._SHIFTS), len(skew._BASES), len(qpl._LATTICES))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(linalg.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["0", "0", "0"]


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
        assert result["consistent"], (rows, result["problems"])


def test_report_nonquasi_isomorphic_pair():
    a = analyze(Mat([[1, 0, 1], [0, 1, 0], [1, 0, 1]]), dmax=6)
    b = analyze(Mat([[0, 0, 1], [0, 1, 0], [0, 0, 0]]), dmax=6)
    assert a["cohomology_dims"] == b["cohomology_dims"]
    assert a["resolution"]["ext"]["dim"] == 3
    assert b["resolution"]["ext"]["dim"] == 4


def test_analyze_computes_each_answer_once(monkeypatch):
    # One report builds one DgSpec, classifies once and asks Theorem C once;
    # the resolution is built over that spec, label and verdict.  classify
    # answers its B^2 membership tests by solving M^T x = b, without a
    # DgSpec of its own.  M is eliminated for its rank once: the later
    # rank() calls on the same Mat read the kept rank.
    counts = Counter()
    real_init = DgSpec.__init__
    real_rank = linalg.sparse_rank
    rows_of_m = []

    def counted_rank(rows):
        rows = list(rows)
        counts["rank of M"] += rows == rows_of_m
        return real_rank(rows)

    def counted_init(self, m):
        counts["DgSpec"] += 1
        real_init(self, m)

    def counted_classify(m, *args, **kwargs):
        counts["classify"] += 1
        return classify(m, *args, **kwargs)

    def counted_theorem_c(m):
        counts["theorem_c"] += 1
        return theorem_c(m)

    monkeypatch.setattr(DgSpec, "__init__", counted_init)
    monkeypatch.setattr(linalg, "sparse_rank", counted_rank)
    for module in (report, resolution):
        monkeypatch.setattr(module, "classify", counted_classify)
        monkeypatch.setattr(module, "theorem_c", counted_theorem_c)
    checked = 0
    for name, rows in GOLDEN_MATRICES.items():
        if len(rows) > 3:
            continue
        counts.clear()
        m = Mat(rows)
        rows_of_m[:] = linalg.sparse_rows(m.data)
        analyze(m)
        once = 1 if len(rows) == 3 else 0
        assert (counts["classify"], counts["theorem_c"]) == (once, once), name
        assert counts["DgSpec"] == 1, name
        assert counts["rank of M"] == 1, name
        checked += 1
    assert checked == len(GOLDEN_MATRICES) - 2


def test_report_n2():
    result = analyze(Mat([[1, 0], [0, 0]]), dmax=5)
    assert result["consistent"]
    assert result["calabi_yau"] is True
    assert result["presented_dims"] == [1, 1, 1, 1, 1, 1]


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
    # A truncation is a prefix of at most --truncate generators, and every
    # prefix holds e_0: a cap below 1 is bad input.
    for command in ("resolve", "ext", "report"):
        for value in ("0", "-2"):
            assert main([command, n3, "--truncate", value]) == 1, (command, value)
    with pytest.raises(ValueError, match="max_size"):
        eilenberg_moore(DgSpec(m3), max_size=0)
    not_cy = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs",
                          "not_cy.json")
    assert main(["report", not_cy, "--truncate", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["resolution"]["truncation"]["size"] == 1

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


def test_koszul_disagreement_is_inconsistent(tmp_path, capsys, monkeypatch):
    # cohomology and report compare the brute-force dims with the Koszul
    # closed form; a disagreement is an internal inconsistency.
    path = write_matrix(tmp_path, "m1.json", [[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    problem = "cohomology dimensions disagree with the Koszul closed form"
    for module in ("cli", "report"):
        monkeypatch.setattr("skewdg.%s.koszul_dims" % module,
                            lambda n, rank, dmax: [1] * (dmax + 1))
    assert main(["cohomology", path]) == 3
    assert json.loads(capsys.readouterr().out)["problems"] == [problem]
    assert main(["report", path]) == 3
    record = json.loads(capsys.readouterr().out)
    assert record["problems"] == [problem] and record["consistent"] is False


def test_validate_composes_the_images(capsys, monkeypatch):
    # validate decides d^2 = 0 by composing the images of adjacent degrees;
    # one flipped sign in the degree-2 images must show.
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs",
                        "not_cy.json")
    assert main(["validate", path]) == 0
    capsys.readouterr()
    real = DgSpec.images

    def flipped(self, d):
        images = [dict(col) for col in real(self, d)]
        if d == 2:
            col = next(col for col in images if col)
            key = next(iter(col))
            col[key] = -col[key]
        return images

    monkeypatch.setattr(DgSpec, "images", flipped)
    assert main(["validate", path]) == 3
    record = json.loads(capsys.readouterr().out)
    assert record["square_zero"] is False and record["leibniz_on_low_degrees"] is True


def test_validate_checks_leibniz_on_the_images(capsys, monkeypatch):
    # The Leibniz check sums both sides from the monomial images; one image
    # of degree 3 with its sign flipped breaks d(x1 * x2 x3).
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs",
                        "not_cy.json")
    real = DgSpec._image_of

    def flipped(self, mono):
        image = real(self, mono)
        return {t: -c for t, c in image.items()} if mono == (1, 1, 1) else image

    monkeypatch.setattr(DgSpec, "_image_of", flipped)
    assert main(["validate", path, "--max-degree", "0"]) == 3
    record = json.loads(capsys.readouterr().out)
    assert record["square_zero"] is True and record["leibniz_on_low_degrees"] is False


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


def test_cli_frobenius_unit_length(tmp_path, capsys):
    # A unit with more (or fewer) coordinates than the dimension is bad
    # input, not cut to size.
    for unit in (["1", "5"], []):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"dim": 1, "unit": unit, "structure": ["1"]}))
        assert main(["frobenius", str(path)]) == 1, unit
        assert "unit coordinates" in capsys.readouterr().err


def test_cli_aut(tmp_path, capsys):
    path = write_matrix(tmp_path, "m.json", [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert main(["aut", path]) == 0
    record = json.loads(capsys.readouterr().out)
    ident = [f for f in record["families"] if f["permutation"] == [1, 2, 3]]
    assert ident and ident[0]["relations"] == ["d1 = d2^2"]
