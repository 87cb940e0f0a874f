"""Tests for shared utilities: rng, geometry, text plots."""

import math

import numpy as np
import pytest

from repro.utils.geometry import euclidean, max_pairwise_distance
from repro.utils.rng import base_seed_from, ensure_rng
from repro.utils.textplot import format_series, format_table, percent


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seeds(self):
        a = ensure_rng(42).random()
        b = ensure_rng(42).random()
        assert a == b

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert ensure_rng(g) is g

    def test_bad_type(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_bool_seed_rejected(self, flag):
        # bool is a subclass of int; without an explicit check True would
        # silently seed as 1.  The error must name the offending value.
        with pytest.raises(TypeError, match=repr(bool(flag))):
            ensure_rng(flag)

    @pytest.mark.parametrize("flag", [True, False, np.False_])
    def test_base_seed_rejects_bool(self, flag):
        with pytest.raises(TypeError, match=repr(bool(flag))):
            base_seed_from(flag)

    def test_base_seed_int_passthrough(self):
        assert base_seed_from(41) == 41

class TestGeometry:
    def test_euclidean(self):
        assert euclidean((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_max_pairwise(self):
        pts = [(0, 0), (0, 1), (0, 5)]
        assert max_pairwise_distance(pts) == pytest.approx(5.0)
        assert max_pairwise_distance([(1, 1)]) == 0.0

class TestTextPlot:
    def test_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), (10, 0.25)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_table_float_formats(self):
        text = format_table(["x"], [(1.23456789e-7,), (0.0,)])
        assert "e-07" in text
        assert "0" in text

    def test_series(self):
        text = format_series("name", [1, 2], [3.0, 4.0])
        assert text.startswith("name:")
        assert "(1, 3)" in text

    def test_percent(self):
        assert percent(0.423) == "42.3%"
