"""`tools/compare_outputs.py` says how far each differing output file
moved, and counts the lines and the code lines of a tree's `src/`."""

from __future__ import annotations

import importlib.util
import io
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def npz_bytes(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def test_npz_difference_names_each_array():
    before = npz_bytes(
        meta=np.array('{"delta": 1}'),
        emit=np.array([[0.5, 0.5], [0.25, 0.75]]),
        seen=np.array([True, False]),
    )
    after = npz_bytes(
        meta=np.array('{"delta": 2}'),
        emit=np.array([[0.5, 0.5], [0.2, 0.8]]),
        seen=np.array([True, False]),
    )
    size = compare_outputs.difference_size("u.mshmm.npz", before, after)
    # |0.25 - 0.2| = 0.05 is the largest change, and 0.05 / 0.25 the largest relative one
    assert size == "emit abs 0.05 rel 0.2, meta differs, seen abs 0 rel 0"


def test_csv_difference_counts_rows_and_sizes_numbers():
    before = b"threshold,far,frr\n-3.5,100,0\n-1,50,nan\n"
    after = b"threshold,far,frr\n-3.5,100,0\n-1.01,50,nan\n0,x,0\n"
    size = compare_outputs.difference_size("roc_mc.csv", before, after)
    # -1 -> -1.01 moves by 0.01 / 1.01; both-NaN fields are equal
    assert size == f"rows 3 -> 4, numeric rel {0.01 / 1.01:.3g}, 0 other fields differ"
    size = compare_outputs.difference_size("scores.csv", b"owner,score\na,1\n", b"owner,score\nb,1\n")
    assert size == "rows 2 -> 2, numeric rel 0, 1 other fields differ"


def test_src_lines_counts_every_line_and_the_code_lines(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Package docstring."""\n')
    (package / "mod.py").write_text(
        '"""Module docstring,\n'
        "\n"
        'on three lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # a trailing comment\n"
        "\n"
        "\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        "        '''Method docstring.'''\n"
        "        return '''not a\n"
        "docstring'''\n"
    )
    (tmp_path / "src" / "notes.txt").write_text("not python\n")
    # 1 + 15 lines; the code is `import`, `class`, `def` and both lines of `return`
    assert compare_outputs.src_lines(tmp_path) == (16, 5)
