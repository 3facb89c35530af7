"""Utility modules: RNG management, table formatting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import as_generator, format_table, spawn_generators
from repro.utils.tables import format_cell


class TestRng:
    def test_as_generator_accepts_all_forms(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g
        assert isinstance(as_generator(5), np.random.Generator)
        assert isinstance(as_generator(None), np.random.Generator)

    def test_spawn_streams_distinct(self):
        gens = spawn_generators(42, 4)
        draws = [g.random(100) for g in gens]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(draws[i], draws[j])

    def test_spawn_reproducible(self):
        a = spawn_generators(42, 3)
        b = spawn_generators(42, 3)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.random(10), gb.random(10))

    def test_spawn_from_generator(self):
        gens = spawn_generators(np.random.default_rng(1), 2)
        assert len(gens) == 2

    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)


class TestTables:
    def test_format_cell_variants(self):
        assert format_cell(None) == "-"
        assert format_cell((1.234, 0.5), precision=1) == "1.2 ± 0.5"
        assert format_cell(3.14159, precision=2) == "3.14"
        assert format_cell("abc") == "abc"
        assert format_cell(7) == "7"

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [33, (1.0, 0.1)]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        header, sep, *data = lines[2:]
        assert "|" in header and all("|" in d for d in data)
        assert set(sep) <= {"-", "+"}

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])
