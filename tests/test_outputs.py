"""``tools/outputs.py compare`` on hand-made run directories."""

import importlib.util
from pathlib import Path

import pytest

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
