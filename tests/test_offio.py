from fractions import Fraction as F

import pytest

from polysect.polytope import convex_hull
from polysect.offio import OffFormatError, emit_off, load_polytope, parse_off

import helpers


SQUARE_TEXT = """\
OFF
# a unit square with one redundant midpoint
5 0 0
0 0
1 0
1 1
0 1
1/2 1/2
"""


class TestParse:
    def test_parses_rationals_and_decimals_exactly(self):
        data = parse_off("3 0\n1/3 0\n0.25 -2\n1 1\n")
        assert data.vertices == (
            (F(1, 3), F(0)),
            (F(1, 4), F(-2)),
            (F(1), F(1)),
        )

    def test_header_comments_and_facets(self):
        text = "OFF\n# comment\n3 1\n0 0\n1 0\n0 1\n3 0 1 2\n"
        data = parse_off(text)
        assert len(data.vertices) == 3
        assert data.facets == ((0, 1, 2),)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "OFF\n",
            "2 0\n1 2\n",  # missing a vertex line
            "1 0\n",  # missing coordinates
            "2 0\n1 2\n3\n",  # ragged dimensions
            "1 0\n1 0.5.5\n",  # malformed number
            "1 0\n0 1e101\n",  # beyond the 1e100 bound on every input number
            "1 0\n-1e400 0\n",
            "3 1\n0 0\n1 0\n0 1\n3 0 1 9\n",  # facet index out of range
            "3 1\n0 0\n1 0\n0 1\n2 0 1 2\n",  # facet count mismatch
            "3 0 x\n0 0\n1 0\n0 1\n",  # every count is an integer
            "3 -2\n0 0\n1 0\n0 1\n",  # and none is negative
            "3 0 -5\n0 0\n1 0\n0 1\n",
        ],
    )
    def test_malformed_inputs_rejected(self, bad):
        with pytest.raises(OffFormatError):
            parse_off(bad)

    @pytest.mark.parametrize("counts", ["3", "3 0", "3 0 0"])
    def test_one_to_three_counts(self, counts):
        assert len(parse_off(f"{counts}\n0 0\n1 0\n0 1\n").vertices) == 3


class TestLoad:
    def test_hull_of_input_with_warning(self):
        poly, warnings = load_polytope(SQUARE_TEXT)
        assert len(poly.vertices) == 4
        assert len(warnings) == 1 and "not extreme" in warnings[0]

    def test_no_warning_for_extreme_input(self):
        poly, warnings = load_polytope("4 0\n0 0\n1 0\n1 1\n0 1\n")
        assert warnings == []
        assert len(poly.vertices) == 4


class TestRoundTrip:
    def test_square(self):
        poly, _ = load_polytope(SQUARE_TEXT)
        again, warnings = load_polytope(emit_off(poly))
        assert warnings == []
        assert again.vertices == poly.vertices
        assert again.halfspaces == poly.halfspaces

    def test_cube_emits_facet_cycles(self):
        cube = convex_hull(helpers.CUBE_VERTICES)
        text = emit_off(cube)
        data = parse_off(text)
        assert len(data.vertices) == 8
        assert len(data.facets) == 6
        assert all(len(f) == 4 for f in data.facets)
        again, warnings = load_polytope(text)
        assert warnings == []
        assert again.vertices == cube.vertices

    def test_exact_fractions_survive(self):
        poly = convex_hull([(F(1, 3), F(0)), (F(1), F(1, 7)), (F(0), F(1))])
        again, _ = load_polytope(emit_off(poly))
        assert again.vertices == poly.vertices
