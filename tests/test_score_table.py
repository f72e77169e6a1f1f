"""The columnar score path: ScoreTable, label codes and the block reader."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sasv import fileio
from sasv.core import (DEFAULT_COST_MODEL, NONTARGET, SPOOF, TARGET,
                       ScoreTable, TrialLabel, label_codes)
from sasv.decision import bayes_accept
from sasv.fileio import FormatError, read_scores, write_scores
from sasv.metrics import split_by_class


def reference_read_scores(path):
    """Line-by-line parse: the behaviour read_scores must reproduce."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 tab-separated "
                                  f"fields, got {len(parts)}")
            enroll_id, test_id, score_text, label_text = parts
            try:
                score = float(score_text)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: unparseable score "
                                  f"{score_text!r}") from None
            if not math.isfinite(score):
                raise FormatError(f"{path}:{lineno}: non-finite score "
                                  f"{score_text!r}")
            try:
                label = TrialLabel.from_string(label_text)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            rows.append((enroll_id, test_id, score, label))
    return rows


# "\x0b", "\x1c", "\x85" and "\u2028" end a line for str.splitlines but not
# in a file read as text, so they stay inside an id
ids = st.text(st.sampled_from("ab#0 -é\x0b\x1c\x85\u2028"), max_size=4)
good_scores = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e3", " 2.5", "-0", "1_0", "+.5", "7"]))
good_labels = st.sampled_from(["target", "nontarget", "spoof"])
comments = st.one_of(st.just(""), st.text(st.sampled_from("#\ta1 "),
                                          max_size=6).map(lambda t: "#" + t))
good_rows = st.tuples(ids, ids, good_scores, good_labels).map("\t".join)
bad_lines = st.one_of(
    st.tuples(ids, good_scores, good_labels).map("\t".join),
    st.tuples(ids, ids, good_scores, good_labels, ids).map("\t".join),
    st.tuples(ids, ids, st.sampled_from(["abc", "", "0x10", "1.0.0"]),
              good_labels).map("\t".join),
    st.tuples(ids, ids, st.sampled_from(["nan", "inf", "-inf", "1e999"]),
              good_labels).map("\t".join),
    st.tuples(ids, ids, good_scores,
              st.sampled_from(["genuine", "Target", "spoof ", ""])
              ).map("\t".join),
    ids)
newlines = st.sampled_from(["\n", "\r\n", "\r"])
block_chars = st.sampled_from([1, 2, 3, 5, 64, fileio.SCORE_BLOCK_CHARS])


def _file_text(lines, newline, final_newline):
    text = newline.join(lines)
    return text + newline if lines and final_newline else text


def _both(path, block):
    """(rows or error text) from read_scores, reading block characters at a
    time, and from the reference."""
    results = []
    for parse in (read_scores, reference_read_scores):
        try:
            with mock.patch.object(fileio, "SCORE_BLOCK_CHARS", block):
                results.append(list(parse(path)))
        except FormatError as exc:
            results.append(str(exc))
    return results


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("scores")


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(good_rows, good_rows, comments), max_size=12),
       newline=newlines, final_newline=st.booleans(), block=block_chars)
def test_well_formed_files_match_reference(work, lines, newline,
                                           final_newline, block):
    path = work / "good.tsv"
    path.write_bytes(_file_text(lines, newline, final_newline)
                     .encode("utf-8"))
    got, want = _both(path, block)
    assert not isinstance(want, str)
    assert got == want
    # byte for byte through the writer (covers -0.0 against 0.0)
    write_scores(work / "a.tsv", ScoreTable.from_rows(got))
    write_scores(work / "b.tsv", want)
    assert (work / "a.tsv").read_bytes() == (work / "b.tsv").read_bytes()


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(good_rows, comments, bad_lines),
                      min_size=1, max_size=12),
       newline=newlines, final_newline=st.booleans(), block=block_chars)
def test_malformed_files_fail_like_reference(work, lines, newline,
                                             final_newline, block):
    path = work / "any.tsv"
    path.write_bytes(_file_text(lines, newline, final_newline)
                     .encode("utf-8"))
    got, want = _both(path, block)
    assert got == want


def test_error_names_line_past_block_boundary(tmp_path):
    path = tmp_path / "s.tsv"
    lines = ["# header\n", "\n"] + [f"e{i}\tt{i}\t{i}.5\tspoof\n"
                                    for i in range(10)]
    lines[9] = "e\tt\tinf\ttarget\n"
    path.write_text("".join(lines))
    for block in (1, 7, 40, fileio.SCORE_BLOCK_CHARS):
        with mock.patch.object(fileio, "SCORE_BLOCK_CHARS", block):
            with pytest.raises(FormatError,
                               match=r"s\.tsv:10: non-finite score 'inf'$"):
                read_scores(path)


@pytest.mark.parametrize("header", ["", "# comment\n"])
@pytest.mark.parametrize("lines", [["e\tt\t1\ttarget\tx\n", "e\t2\tspoof\n"],
                                   ["e\tt\t1\n", "target\te\tt\t2\tspoof\n"]])
def test_fields_cannot_move_between_lines(tmp_path, header, lines):
    # three tabs a line on average, and the fields in file order would
    # parse as two rows
    path = tmp_path / "s.tsv"
    path.write_text(header + "".join(lines))
    got, want = _both(path, fileio.SCORE_BLOCK_CHARS)
    assert got == want and "expected 4 tab-separated fields" in got


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64, fileio.SCORE_BLOCK_CHARS])
@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_unicode_line_breaks_stay_inside_ids(tmp_path, block, sep):
    """Only "\n" (after the text layer's newline translation) ends a line."""
    path = tmp_path / "s.tsv"
    good = [f"e{sep}1\tt1\t0.5\ttarget\n", f"e2\t{sep}\t-1\tspoof\n",
            f"#{sep}e\tt\t1\ttarget\n", f"{sep}\tt3\t2\tnontarget\n"]
    path.write_text("".join(good), encoding="utf-8")
    got, want = _both(path, block)
    assert got == want and len(got) == 3
    assert got[0][0] == f"e{sep}1" and got[2][0] == sep
    # a bad line after them is named by its "\n"-counted number
    path.write_text("".join(good) + f"e{sep}\tt\tx\ttarget\n",
                    encoding="utf-8")
    got, want = _both(path, block)
    assert got == want == f"{path}:5: unparseable score 'x'"


def test_empty_file_is_empty_table(tmp_path):
    path = tmp_path / "s.tsv"
    path.write_text("# nothing\n\n")
    table = read_scores(path)
    assert len(table) == 0 and list(table) == []
    assert table.scores.dtype == np.float64 and table.codes.dtype == np.int8


class TestScoreTable:
    def test_columns_and_rows(self):
        rows = [("e1", "t1", 0.5, TrialLabel.SPOOF),
                ("e2", "t2", -1.0, TrialLabel.TARGET)]
        table = ScoreTable.from_rows(rows)
        assert len(table) == 2
        assert table.codes.tolist() == [SPOOF, TARGET]
        assert table.codes.dtype == np.int8
        assert table.scores.dtype == np.float64
        assert list(table) == rows
        assert all(type(r[2]) is float for r in table)

    def test_columns_must_agree_in_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            ScoreTable(["e"], ["t", "u"], [1.0], [TrialLabel.TARGET])

    def test_label_codes(self):
        labels = [TrialLabel.NONTARGET, TrialLabel.TARGET, TrialLabel.SPOOF]
        codes = label_codes(labels)
        assert codes.dtype == np.int8
        assert codes.tolist() == [NONTARGET, TARGET, SPOOF]
        assert label_codes(codes) is codes
        assert label_codes([]).shape == (0,)
        with pytest.raises(ValueError, match="not a TrialLabel"):
            label_codes(["target"])

    def test_split_by_class_same_for_labels_and_codes(self):
        rng = np.random.default_rng(3)
        labels = [list(TrialLabel)[i] for i in rng.integers(0, 3, 200)]
        scores = rng.normal(size=200)
        by_label = split_by_class(scores, labels)
        by_code = split_by_class(scores, label_codes(labels))
        for x, y in zip(by_label, by_code):
            np.testing.assert_array_equal(x, y)


class TestBayesAcceptArrays:
    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(8)
        a, c = rng.normal(0, 6, 500), rng.normal(0, 6, 500)
        got = bayes_accept(a, c, DEFAULT_COST_MODEL)
        assert got.dtype == bool and got.shape == (500,)
        assert got.tolist() == [bayes_accept(x, y, DEFAULT_COST_MODEL)
                                for x, y in zip(a.tolist(), c.tolist())]

    def test_scalar_returns_python_bool(self):
        assert type(bayes_accept(1.0, 2.0, DEFAULT_COST_MODEL)) is bool

    def test_broadcasts(self):
        got = bayes_accept(np.linspace(-5, 5, 7)[:, None],
                           np.linspace(-5, 5, 3)[None, :], DEFAULT_COST_MODEL)
        assert got.shape == (7, 3)
