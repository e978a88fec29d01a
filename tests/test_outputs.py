"""``tools/outputs.py compare`` on hand-made run directories."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from test_container import write_wide
from twotower import container

_SPEC = importlib.util.spec_from_file_location("outputs", Path(__file__).resolve().parent.parent / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs)


def _tree(root: Path, files: dict[str, str]) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def _compare(tmp_path, files_a: dict[str, str], files_b: dict[str, str], capsys) -> tuple[int, list[str]]:
    code = outputs.compare(_tree(tmp_path / "a", files_a), _tree(tmp_path / "b", files_b))
    return code, capsys.readouterr().out.splitlines()


def test_identical_trees_exit_zero(tmp_path, capsys):
    files = {"trace.tsv": "month\trecall\tndcg\n1\t0.5\t0.25\n"}
    code, lines = _compare(tmp_path, files, files, capsys)
    assert code == 0
    assert lines == [f"1 files byte-identical, 0 differ, 0 only in {tmp_path / 'a'}, 0 only in {tmp_path / 'b'}"]


def test_labeled_file_with_other_negatives_lines_up_by_tab_column(tmp_path, capsys):
    """Rows of ``train_labeled.tsv`` (user, item sequence, item, day, label)
    whose sequences have other lengths still align column by column: the
    sequence column reports its differing rows, the item and label columns
    their largest shift."""
    a = "0\t3 4 5\t7\t30\t1\n0\t3 4 5\t2\t30\t0\n1\t6\t9\t31\t1\n"
    b = "0\t3 4 5\t7\t30\t1\n0\t3 4\t5\t30\t0\n1\t6 8\t9\t31\t0\n"
    code, lines = _compare(tmp_path, {"train_labeled.tsv": a}, {"train_labeled.tsv": b}, capsys)
    assert code == 1
    assert lines[1:] == [
        "  differs: train_labeled.tsv",
        "    col1: 2 rows differ, max |diff| inf",
        "    col2: max |diff| 3",
        "    col4: max |diff| 1",
    ]


def test_vectors_of_one_length_gap_by_their_largest_component(tmp_path, capsys):
    a = "item\ti1\t0.100000 0.200000\nitem\ti2\t0.300000 0.400000\n"
    b = "item\ti1\t0.100000 0.200500\nitem\ti2\t0.300000 0.400000\n"
    code, lines = _compare(tmp_path, {"embeddings.tsv": a}, {"embeddings.tsv": b}, capsys)
    assert code == 1
    assert lines[-1] == "    col2: 1 rows differ, max |diff| 0.0005"


@pytest.mark.parametrize("b", ["0\t1\t2\n", "0\t1\n0\t1\n"])
def test_other_shape_differs_at_layout(tmp_path, capsys, b):
    code, lines = _compare(tmp_path, {"x.tsv": "0\t1\n"}, {"x.tsv": b}, capsys)
    assert code == 1
    assert lines[-1] == "    layout: differs"


@pytest.mark.parametrize(
    "b, verdict",
    [
        ("1\tu1\t2.500000\n2\tu3\t2.500000\n3\tu7\t1.000000\n", "only swaps"),
        ("1\tu3\t2.500000\n2\tu1\t2.500000\n3\tu9\t1.000000\n", "only swaps"),  # u9 ties with u7 across the cutoff
        ("1\tu3\t2.500000\n2\tu7\t2.500000\n3\tu1\t1.000000\n", "differs beyond"),
        ("1\tu1\t2.500001\n2\tu3\t2.500000\n3\tu7\t1.000000\n", "differs beyond"),
    ],
)
def test_retrieve_stdout_is_called_out_by_printed_score(tmp_path, capsys, b, verdict):
    a = "1\tu3\t2.500000\n2\tu1\t2.500000\n3\tu7\t1.000000\n"
    code, lines = _compare(tmp_path, {"x.retrieve_ut0.txt": a}, {"x.retrieve_ut0.txt": b}, capsys)
    assert code == 1
    assert lines[-1].startswith(f"    {verdict}")


def test_verbose_top_lists_read_their_scores(tmp_path, capsys):
    """Case 0 swaps two ids of equal score, case 1 ranks another id at a
    lower score: one of the two differing cases is more than a swap."""

    def report(tops):
        cases = [{"query": [1], "recall": 1.0, "ndcg": 1.0, "top": top} for top in tops]
        return json.dumps({"task": "ir", "per_case": cases})

    def scores(tops, values):
        return "".join(f"{c}\t{k}\t{i}\t{v}\n" for c, top in enumerate(tops) for k, (i, v) in enumerate(zip(top, values), 1))

    tops_a, tops_b = [[4, 2], [5, 6]], [[2, 4], [6, 5]]
    a = {"eval_report_ir_verbose.json": report(tops_a), "eval_top_ir.tsv": scores(tops_a, ["1.000000", "1.000000"])}
    b = {"eval_report_ir_verbose.json": report(tops_b), "eval_top_ir.tsv": scores(tops_b, ["1.000000", "1.000000"])}
    b["eval_top_ir.tsv"] = b["eval_top_ir.tsv"].replace("1\t1\t6\t1.000000", "1\t1\t6\t1.500000")
    code, lines = _compare(tmp_path, a, b, capsys)
    assert code == 1
    assert "    top: 2 cases differ, differs beyond swaps of equal printed score in 1 (cases [1])" in lines


def test_cache_files_in_one_tree_are_listed_under_their_own_heading(tmp_path, capsys):
    """A tree of a commit from before a cache file existed holds none: such
    files are listed apart from the other files found in one tree, and still
    count, as any file, against a zero exit."""
    trace = {"trace.tsv": "month\trecall\tndcg\n1\t0.5\t0.25\n"}
    extra = {"prepared.bin": "p", "eval_cases_ir.bin": "c", "eval_cases_ut.bin": "c", "new.tsv": "x\n"}
    code, lines = _compare(tmp_path, trace, trace | extra, capsys)
    b = tmp_path / "b"
    assert code == 1
    assert lines == [
        f"1 files byte-identical, 0 differ, 0 only in {tmp_path / 'a'}, 4 only in {b}",
        f"  only in {b}: new.tsv",
        "cache files only in one tree:",
        f"  only in {b}: eval_cases_ir.bin",
        f"  only in {b}: eval_cases_ut.bin",
        f"  only in {b}: prepared.bin",
    ]


@pytest.mark.parametrize(
    "change, verdict",
    [
        (None, "same arrays and metadata, other layout"),
        ("value", "values differ: metadata months_total, array ids"),
    ],
    ids=["layout-only", "value"],
)
def test_container_files_are_compared_by_value(tmp_path, capsys, change, verdict):
    """A container file the parent wrote with int64 columns and one written
    with narrow columns differ in bytes only: both decode to the same arrays.
    A changed value is named.  Either way the trees are not byte-identical."""
    arrays = [("ids", np.array([3, 70_000])), ("table", np.array([0.5, -1.0])), ("tokens", np.frombuffer(b"a\nb", np.uint8))]
    a, b = _tree(tmp_path / "a", {}), _tree(tmp_path / "b", {})
    write_wide(a / "prepared.bin", b"UMPD", 1, 7, {"months_total": 3}, arrays)
    if change == "value":
        arrays[0] = ("ids", np.array([3, 70_001]))
    container.write(str(b / "prepared.bin"), b"UMPD", 1, 7, {"months_total": 4 if change else 3}, arrays)
    code = outputs.compare(a, b)
    assert code == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["  differs: prepared.bin", f"    {verdict}"]
