import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from zetakit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zeta_labelled_golden(capsys):
    code, out, _ = run(
        capsys, "zeta", "--type", "C", "--path", "NEEEENNNNNEE",
        "--labels", "[1,-5,-4,2,3,6]",
    )
    assert code == 0
    data = json.loads(out)
    assert data["zeta"]["steps"] == "NNENENNENENE"
    assert data["reading_word"] == [-2, 1, 3, 4, 6, 5]
    assert data["area_vector"] == [2, 1, 0, -1, -2, 1]


def test_zeta_sweep_trace(capsys):
    code, out, _ = run(capsys, "zeta", "--type", "C", "--path", "NEEEENNNNNEE", "--sweep")
    assert code == 0
    assert json.loads(out)["sweep_labels"] == [0, 13, 1, -11, -23, -35, -22, -9, 4, 17, 30, 18]


def test_zeta_inverse(capsys):
    code, out, _ = run(capsys, "zeta", "--type", "C", "--path", "NNENENNENENE", "--inverse")
    assert code == 0
    assert json.loads(out)["preimage"]["steps"] == "NEEEENNNNNEE"


def test_zeta_type_d(capsys):
    code, out, _ = run(capsys, "zeta", "--type", "D", "--path", "E-EENNNNNE")
    assert code == 0
    assert json.loads(out)["zeta"]["steps"] == "NENNENENE-"


def test_zeta_inverse_table_mode(capsys):
    code, out, _ = run(
        capsys, "zeta", "--type", "D", "--path", "NENNENENE-", "--inverse"
    )
    assert code == 0
    assert json.loads(out)["preimage"]["steps"] == "E-EENNNNNE"


@pytest.mark.parametrize("labels,code", [
    ("[-5,-4,1,2,3]", 0),
    ("[5,-4,1,2,3]", 3),  # the twisted labels change an odd number of signs
    ("[-4,-5,1,2,3]", 3),  # the labels descend up a column
])
def test_zeta_type_d_labels(capsys, labels, code):
    got, out, err = run(capsys, "zeta", "--type", "D", "--path", "E-EENNNNNE", "--labels", labels)
    assert got == code
    if code == 0:
        assert json.loads(out)["reading_word"] == [-2, -1, 3, 4, 5]
    else:
        assert "not a vertical labelling" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "zeta", "--type", "C", "--path", "NEX")
    assert code == 2
    assert "parse error" in err


def test_shape_error_exit_code(capsys):
    # wrong counts for a square path
    code, _, err = run(capsys, "zeta", "--type", "C", "--path", "NNE")
    assert code == 3
    assert "shape" in err
    # labels violating a rise
    code, _, err = run(
        capsys, "zeta", "--type", "C", "--path", "NEEEENNNNNEE", "--labels", "[1,-4,-5,2,3,6]"
    )
    assert code == 3


def test_inverse_flag_combinations(capsys):
    # types B and D invert by table lookup, with no flag to ask for it
    code, out, _ = run(capsys, "zeta", "--type", "B", "--path", "NNENNENENENE", "--inverse")
    assert code == 0
    assert json.loads(out)["preimage"]["steps"] == "NEEEENNNNNEE"
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--type", "C", "--path", "NNENENNENENE", "--inverse", "--labels", "[1]"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--type", "D", "--path", "E-EENNNNNE", "--sweep"])
    assert exc.value.code == 2
    # the inverse prints no reading word or sweep trace, so both flags are
    # refused, not dropped, empty labels included
    for extra in (["--sweep"], ["--labels", ""]):
        with pytest.raises(SystemExit) as exc:
            main(["zeta", "--type", "C", "--path", "NNENENNENENE", "--inverse", *extra])
        assert exc.value.code == 2


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--type", "C", "--n", "2")
    assert code == 0
    rows = json.loads(out)
    assert all(r["passed"] for r in rows)
    code, _, err = run(capsys, "verify", "--type", "C", "--n", "99")
    assert code == 2
    assert "cap" in err


def test_verify_with_a_malformed_cap_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("ZETAKIT_CAP", "1e9")
    code, out, err = run(capsys, "verify", "--type", "C", "--n", "2")
    assert (code, out) == (2, "")
    assert "parse error" in err and "ZETAKIT_CAP" in err


def test_verify_check_subset(capsys):
    code, out, _ = run(
        capsys, "verify", "--type", "D", "--n", "3", "--check", "bijectivity,uniform"
    )
    assert code == 0
    rows = json.loads(out)
    assert {r["check"] for r in rows} == {"bijectivity", "uniform"}


def test_table_csv(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code, _, _ = run(
        capsys, "table", "--type", "C", "--n", "3", "--stats", "area,dinv",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "path,area,dinv"
    assert len(lines) == 21
    rows = {l.split(",")[0]: l for l in lines[1:]}
    assert all(l.split(",")[1] == l.split(",")[2] for l in lines[1:])


def test_table_contains_golden_row(tmp_path, capsys):
    out_file = tmp_path / "t6.csv"
    code, _, _ = run(
        capsys, "table", "--type", "C", "--n", "6", "--stats", "area,dinv",
        "--out", str(out_file),
    )
    assert code == 0
    rows = [l for l in out_file.read_text().splitlines() if l.startswith("NEEEENNNNNEE")]
    assert rows == ["NEEEENNNNNEE,9,9"]


def test_table_header_only(tmp_path, capsys):
    out_file = tmp_path / "empty.csv"
    code, _, _ = run(
        capsys, "table", "--type", "C", "--n", "0", "--stats", "area", "--out", str(out_file)
    )
    assert code == 0
    assert out_file.read_text().strip() == "path,area"


def test_table_bad_stat(tmp_path, capsys):
    code, _, err = run(
        capsys, "table", "--type", "D", "--n", "2", "--stats", "dinv",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_output_byte_stable(capsys):
    _, first, _ = run(capsys, "zeta", "--type", "C", "--path", "NEEEENNNNNEE")
    _, second, _ = run(capsys, "zeta", "--type", "C", "--path", "NEEEENNNNNEE")
    assert first == second


@pytest.mark.parametrize("argv,code,error", [
    (["verify", "--type", "C", "--n", "0"], 2, "rank error"),
    (["verify", "--type", "C", "--n", "-3"], 2, "rank error"),
    (["verify", "--type", "B", "--n", "1"], 2, "rank error"),
    (["table", "--type", "D", "--n", "1", "--stats", "area"], 2, "rank error"),
    (["table", "--type", "C", "--n", "-2", "--stats", "area"], 2, "rank error"),
    (["zeta", "--type", "B", "--path", "NE"], 3, "shape error"),
    (["zeta", "--type", "A", "--path", ""], 3, "shape error"),
    (["zeta", "--type", "B", "--path", ""], 3, "shape error"),
    (["zeta", "--type", "C", "--path", "", "--inverse"], 3, "shape error"),
    (["zeta", "--type", "D", "--path", "N", "--labels", "[-1]"], 3, "shape error"),
    (["verify", "--type", "A", "--n", "3", "--check", "uniform"], 2, "parse error"),
    (["verify", "--type", "C", "--n", "2", "--check", ","], 2, "parse error"),
    (["verify", "--type", "C", "--n", "2", "--check", ""], 2, "parse error"),
    (["verify", "--type", "B", "--n", "2", "--check", "counting,sweep_equiv"], 2, "parse error"),
    (["zeta", "--type", "D", "--path", "NE-NNENENE"], 3, "no signed step allowed at step 2"),
    (["zeta", "--type", "D", "--path", "EEENNNNNE"], 3, "step 1 must be a signed East step"),
    (["zeta", "--type", "B", "--path", "NE+EENN"], 3, "no signed step allowed at step 2"),
    (["zeta", "--type", "C", "--path", "NNEE", "--labels", "[1,"], 2, "parse error: '[1,' is not JSON"),
])
def test_unsupported_rank_or_shape_exit_code(tmp_path, capsys, argv, code, error):
    if argv[0] == "table":
        argv = argv + ["--out", str(tmp_path / "t.csv")]
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert error in err


_TYPES = st.sampled_from("ABCD")
_PATHS = st.one_of(st.text("NE", max_size=8), st.text("NE+- X", max_size=8))
_LABELS = st.one_of(
    st.lists(st.integers(-4, 4), max_size=4).map(json.dumps),
    st.text("[]1-2,x", max_size=5),
)
_ZETA = st.builds(
    lambda lt, path, labels, flags: ["zeta", "--type", lt, "--path", path] + labels + flags,
    _TYPES,
    _PATHS,
    st.one_of(st.just([]), _LABELS.map(lambda text: ["--labels", text])),
    st.lists(st.sampled_from(["--inverse", "--table", "--sweep"]), unique=True, max_size=2),
)
_CHECK_LISTS = st.lists(
    st.sampled_from(["counting", "bijectivity", "uniform", "sweep_equiv", "bogus", ""]), max_size=2
).map(",".join)
_VERIFY = st.builds(
    lambda lt, n, checks: ["verify", "--type", lt, "--n", str(n)] + checks,
    _TYPES,
    st.integers(-3, 3),
    st.one_of(st.just([]), _CHECK_LISTS.map(lambda c: ["--check", c])),
)
_TABLE = st.builds(
    lambda lt, n, stats: ["table", "--type", lt, "--n", str(n), "--stats", stats],
    _TYPES,
    st.integers(-3, 3),
    st.lists(st.sampled_from(["area", "dinv", "dinv_b_exp", "x"]), max_size=2).map(",".join),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(_ZETA, _VERIFY, _TABLE))
def test_cli_argv_fuzz(tmp_path, argv):
    if argv[0] == "table":
        argv = argv + ["--out", str(tmp_path / "t.csv")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (2, 3):
        assert "error:" in err or "cap exceeded:" in err
