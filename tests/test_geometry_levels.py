"""Unit tests for shelves/levels."""

import pytest

from repro.core.errors import InvalidPlacementError
from repro.core.placement import Placement
from repro.core.rectangle import Rect
from repro.geometry.levels import Level


class TestLevel:
    def test_fits_empty(self):
        lvl = Level(y=0.0, height=1.0)
        assert lvl.fits(Rect(rid=0, width=1.0, height=1.0))

    def test_fits_partial(self):
        lvl = Level(y=0.0, height=1.0, used_width=0.6)
        assert lvl.fits(Rect(rid=0, width=0.4, height=1.0))
        assert not lvl.fits(Rect(rid=1, width=0.5, height=1.0))

    def test_add_places_left_to_right(self):
        lvl = Level(y=2.0, height=1.0)
        p = Placement()
        lvl.add(Rect(rid=0, width=0.5, height=1.0), p)
        lvl.add(Rect(rid=1, width=0.25, height=0.5), p)
        assert p[0].x == 0.0 and p[0].y == 2.0
        assert p[1].x == 0.5 and p[1].y == 2.0
        assert lvl.used_width == 0.75

    def test_add_overflow_raises(self):
        lvl = Level(y=0.0, height=1.0, used_width=0.9)
        with pytest.raises(InvalidPlacementError):
            lvl.add(Rect(rid=0, width=0.2, height=1.0), Placement())

    def test_top_and_area(self):
        lvl = Level(y=1.0, height=0.5)
        p = Placement()
        lvl.add(Rect(rid=0, width=0.5, height=0.5), p)
        assert lvl.top == 1.5
        assert abs(lvl.filled_area - 0.25) < 1e-12

