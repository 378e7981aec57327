"""Dataset ingestion, validation and grid construction."""

import re
from pathlib import Path

import numpy as np
import pytest

from mixroc.datasets import (
    DatasetError,
    FprGrid,
    PopulationTag,
    ScoreSample,
    from_arrays,
    load_dataset,
    load_two_files,
    make_refined_grid,
    make_uniform_grid,
)

DATA = str(Path(__file__).resolve().parent.parent / "data" / "wieand_pancreatic.csv")


class TestScoreSample:
    def test_scores_sorted_ascending(self):
        s = ScoreSample([3.0, 1.0, 2.0], PopulationTag.NON_DISEASED)
        assert list(s.scores) == [1.0, 2.0, 3.0]

    def test_duplicates_kept(self):
        s = ScoreSample([2.0, 2.0, 1.0], PopulationTag.DISEASED)
        assert list(s.scores) == [1.0, 2.0, 2.0]

    def test_too_short(self):
        with pytest.raises(DatasetError, match="at least 2"):
            ScoreSample([1.0], PopulationTag.DISEASED)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DatasetError, match="finite"):
            ScoreSample([1.0, bad], PopulationTag.DISEASED)

    @pytest.mark.parametrize("scores", [[0.0, 3.5e-193], [-1e308, 1e308]])
    def test_any_finite_range_accepted(self, scores):
        # the rank-based estimators take it; only the parametric fits bound the range
        assert list(ScoreSample(scores, PopulationTag.DISEASED).scores) == scores

    def test_immutable(self):
        s = ScoreSample([1.0, 2.0], PopulationTag.DISEASED)
        with pytest.raises(ValueError):
            s.scores[0] = 7.0


class TestLoadDataset:
    def test_minimum_size_rule(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("score,label\n1.2,0\n3.4,1\n2.2,0\n")
        with pytest.raises(DatasetError, match="at least 2"):
            load_dataset(p)

    def test_wieand_sizes(self):
        ds = load_dataset(DATA, score_col="ca125", label_col="status")
        assert (ds.n_x, ds.n_y) == (51, 90)
        ds = load_dataset(DATA, score_col="ca199", label_col="status")
        assert (ds.n_x, ds.n_y) == (51, 90)

    def test_nan_token_rejected(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("score,label\n1.0,0\nNaN,0\n2.0,1\n3.0,1\n")
        with pytest.raises(DatasetError, match="non-finite|non-numeric"):
            load_dataset(p)

    def test_unknown_label(self, tmp_path):
        p = tmp_path / "lab.csv"
        p.write_text("score,label\n1.0,0\n2.0,2\n")
        with pytest.raises(DatasetError, match="unknown label"):
            load_dataset(p)

    def test_non_numeric_score(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("score,label\n1.0,0\nabc,1\n")
        with pytest.raises(DatasetError, match="non-numeric"):
            load_dataset(p)

    def test_error_names_the_file_line_after_blank_lines(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("score,label\n1.0,0\n\n2.0,0\n\n3.0,1\nabc,1\n")
        with pytest.raises(DatasetError, match=re.escape(f"{p}:7: non-numeric score 'abc'")):
            load_dataset(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(tmp_path / "nope.csv")

    def test_missing_column(self, tmp_path):
        p = tmp_path / "col.csv"
        p.write_text("value,label\n1.0,0\n")
        with pytest.raises(DatasetError, match="missing column"):
            load_dataset(p)

    def test_custom_columns_and_labels(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("v,grp\n1,0\n2,0\n3,1\n4,1\n")
        ds = load_dataset(p, score_col="v", label_col="grp")
        assert list(ds.non_diseased.scores) == [1.0, 2.0]
        assert list(ds.diseased.scores) == [3.0, 4.0]

    def test_byte_order_mark(self, tmp_path):
        p = tmp_path / "excel.csv"
        p.write_bytes(b"\xef\xbb\xbfscore,label\r\n1.5,0\r\n0.5,0\r\n2.5,1\r\n3.5,1\r\n")
        ds = load_dataset(p)
        assert list(ds.non_diseased.scores) == [0.5, 1.5]
        assert list(ds.diseased.scores) == [2.5, 3.5]

    def test_undecodable_byte_names_file(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"score,label\n1.0,0\n2.0,0\n\xff3.0,1\n4.0,1\n")
        with pytest.raises(DatasetError, match=re.escape(f"{p}: ")):
            load_dataset(p)


class TestTwoFileMode:
    def test_load(self, tmp_path):
        nd = tmp_path / "controls.txt"
        d = tmp_path / "cases.txt"
        nd.write_text("1.5\n0.5\n\n2.5\n")
        d.write_text("3.0\n4.0\n")
        ds = load_two_files(nd, d)
        assert list(ds.non_diseased.scores) == [0.5, 1.5, 2.5]
        assert list(ds.diseased.scores) == [3.0, 4.0]

    def test_bad_line(self, tmp_path):
        nd = tmp_path / "a.txt"
        d = tmp_path / "b.txt"
        nd.write_text("1.0\nx\n")
        d.write_text("1.0\n2.0\n")
        with pytest.raises(DatasetError, match="non-numeric"):
            load_two_files(nd, d)

    def test_non_finite_line(self, tmp_path):
        nd = tmp_path / "a.txt"
        d = tmp_path / "b.txt"
        nd.write_text("1.0\ninf\n")
        d.write_text("1.0\n2.0\n")
        with pytest.raises(DatasetError, match=re.escape(f"{nd}:2: non-finite score")):
            load_two_files(nd, d)

    def test_missing_file(self, tmp_path):
        d = tmp_path / "b.txt"
        d.write_text("1.0\n2.0\n")
        with pytest.raises(DatasetError, match="not found"):
            load_two_files(tmp_path / "absent.txt", d)

    def test_too_few_scores_names_file(self, tmp_path):
        nd = tmp_path / "a.txt"
        d = tmp_path / "one_line.txt"
        nd.write_text("1.0\n2.0\n")
        d.write_text("3.0\n")
        with pytest.raises(DatasetError, match=re.escape(f"{d}: a population needs at least 2")):
            load_two_files(nd, d)

    def test_byte_order_mark(self, tmp_path):
        nd = tmp_path / "a.txt"
        d = tmp_path / "b.txt"
        nd.write_bytes(b"\xef\xbb\xbf1.5\n0.5\n")
        d.write_bytes(b"\xef\xbb\xbf3.0\r\n4.0\r\n")
        ds = load_two_files(nd, d)
        assert list(ds.non_diseased.scores) == [0.5, 1.5]
        assert list(ds.diseased.scores) == [3.0, 4.0]


class TestGrid:
    def test_two_points(self):
        assert list(make_uniform_grid(2).points) == [0.0, 1.0]

    def test_five_points(self):
        np.testing.assert_allclose(make_uniform_grid(5).points, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_512_spacing(self):
        g = make_uniform_grid(512)
        assert g.count == 512
        np.testing.assert_allclose(np.diff(g.points), 1.0 / 511.0)

    def test_count_too_small(self):
        with pytest.raises(ValueError):
            make_uniform_grid(1)

    @pytest.mark.parametrize("n", [2, 3, 7, 100, 1999])
    def test_invariants_hold_for_any_count(self, n):
        g = make_uniform_grid(n)
        assert g.points[0] >= 0.0 and g.points[-1] <= 1.0
        assert np.all(np.diff(g.points) > 0)
        assert g.count == n >= 2

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            FprGrid(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FprGrid(np.array([-0.1, 1.0]))

    def test_refined_grid(self):
        g = make_refined_grid()
        assert g.count == 4096
        assert g.points[0] == 0.0 and g.points[-1] == 1.0
        assert np.all(np.diff(g.points) > 0)
        # endpoints are much better resolved than the uniform spacing
        assert g.points[1] < 1e-9 and 1.0 - g.points[-2] < 1e-9



def test_from_arrays_tags():
    ds = from_arrays([1, 2], [3, 4], "demo")
    assert ds.non_diseased.population_tag is PopulationTag.NON_DISEASED
    assert ds.diseased.population_tag is PopulationTag.DISEASED
    assert ds.source_name == "demo"


@pytest.mark.parametrize("name, expected", [("CA 125", "CA 125"), (None, "controls")])
def test_loaders_put_the_name_on_the_dataset(tmp_path, name, expected):
    nd, d, labeled = tmp_path / "controls.txt", tmp_path / "cases.txt", tmp_path / "controls.csv"
    nd.write_text("1.0\n2.0\n")
    d.write_text("3.0\n4.0\n")
    labeled.write_text("score,label\n1.0,0\n2.0,0\n3.0,1\n4.0,1\n")
    for ds in (load_two_files(nd, d, source_name=name), load_dataset(labeled, source_name=name)):
        assert ds.source_name == expected
        assert not hasattr(ds.non_diseased, "source_name")
        assert not hasattr(ds.diseased, "source_name")
