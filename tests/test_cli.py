"""Command-line interface: exit codes, report schemas, determinism."""

import contextlib
import hashlib
import io
import json
import math
import operator
import os
import shlex
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import event, example, given, settings, strategies as st

from helpers import CUBE_VERTICES, assert_orthonormal, no_extreme_in_cone_in_fractions

import polysect
from polysect.cli import EXAMPLES, _ccw_order, main, parse_flat, parse_vector
from polysect.offio import emit_off
from polysect.polytope import convex_hull


@pytest.fixture()
def cube_off(tmp_path):
    path = tmp_path / "cube.off"
    path.write_text(emit_off(convex_hull(CUBE_VERTICES)))
    return str(path)


@pytest.fixture()
def ball_json(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(
        json.dumps({"kind": "ball", "center": [0, 0, 0], "radius": 1})
    )
    return str(path)


def run(args, tmp_path, name="report.json", svg=None):
    report = tmp_path / name
    argv = list(args) + ["--report", str(report)]
    if svg is not None:
        argv += ["--svg", str(tmp_path / svg)]
    code = main(argv)
    data = json.loads(report.read_text()) if report.exists() else None
    return code, data


class TestParsers:
    def test_parse_vector(self):
        assert parse_vector("1,2,3") == (1, 2, 3)
        assert parse_vector("1/2, -3/4, 0") == (F(1, 2), F(-3, 4), 0)

    def test_parse_vector_errors(self):
        with pytest.raises(ValueError):
            parse_vector("")
        with pytest.raises(ValueError):
            parse_vector("1,x,3")

    def test_parse_flat(self):
        flat, normal, offset = parse_flat("n=1,1,1;c=0", 3)
        assert normal == (1, 1, 1)
        assert offset == 0
        assert flat.dim == 2

    def test_parse_flat_errors(self):
        with pytest.raises(ValueError):
            parse_flat("n=1,1,1", 3)
        with pytest.raises(ValueError):
            parse_flat("n=0,0,0;c=1", 3)
        with pytest.raises(ValueError):
            parse_flat("n=1,1;c=0", 3)


class TestSection:
    def test_cube_hexagon(self, cube_off, tmp_path):
        code, rep = run(
            ["section", "--body", cube_off, "--flat", "n=1,1,1;c=0"],
            tmp_path,
            svg="hex.svg",
        )
        assert code == 0
        assert rep["verdict"] == "polytope-consistent"
        assert rep["vertex_count"] == 6
        assert rep["seed"] == 0
        svg = (tmp_path / "hex.svg").read_text()
        assert svg.startswith("<?xml")
        assert "v5" in svg

    def test_empty_section(self, cube_off, tmp_path):
        code, rep = run(
            ["section", "--body", cube_off, "--flat", "n=1,0,0;c=9"], tmp_path
        )
        assert code == 0
        assert rep["verdict"] == "empty"

    def test_ball_section_is_witnessed(self, ball_json, tmp_path):
        code, rep = run(
            ["section", "--body", ball_json, "--flat", "n=0,0,1;c=0",
             "--samples", "32"],
            tmp_path,
        )
        assert code == 2
        assert rep["verdict"] == "non-polytope"
        assert rep["witness_triple"] is not None
        assert (rep["polygon"], rep["edge_count"]) == (False, None)

    def test_oracle_section_that_closes_reports_its_edges(self, tmp_path):
        # the cap's bump lies past x = 0, so this section is the cube's square
        cube = [[int(x) for x in v] for v in CUBE_VERTICES]
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(
            {"kind": "cap", "polytope": {"vertices": cube}, "center": [1, 0, 0], "radius": 1}
        ))
        code, rep = run(
            ["section", "--body", str(path), "--flat", "n=1,0,0;c=-0.9", "--samples", "16"],
            tmp_path,
        )
        assert code == 0
        assert rep["verdict"] == "polytope-consistent"
        assert (rep["polygon"], rep["edge_count"], rep["witness_triple"]) == (True, 4, None)

    def test_wide_pentagon_lists_a_counterclockwise_cycle(self, tmp_path):
        # seen from the centroid near x = 2e19 the four small vertices lie
        # within 1e-19 of angle ±π, where a float atan2 cannot order them
        pentagon = [(10**20, 0), (0, -1), (-1, "-1/2"), (-1, "1/2"), (0, 1)]
        spec = {"kind": "polytope",
                "vertices": [[x, y, z] for x, y in pentagon for z in (-1, 1)]}
        path = tmp_path / "pentagon.json"
        path.write_text(json.dumps(spec))
        code, rep = run(
            ["section", "--body", str(path), "--flat", "n=0,0,1;c=0"], tmp_path
        )
        assert code == 0
        chart = [[F(c["exact"]) for c in v] for v in rep["chart_vertices"]]
        assert chart == [[-1, F(-1, 2)], [0, -1], [10**20, 0], [0, 1], [-1, F(1, 2)]]
        for k in range(5):
            (ax, ay), (bx, by), (cx, cy) = (chart[(k + i) % 5] for i in range(3))
            assert (bx - ax) * (cy - by) - (by - ay) * (cx - bx) > 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                    min_size=3, max_size=12, unique=True))
    def test_ccw_order_is_the_atan2_order(self, pts):
        # small lattice polygons, where float atan2 orders the angles right
        poly = convex_hull(pts)
        if poly.dim != 2:
            return
        verts = list(poly.vertices)
        cx = sum(v[0] for v in verts) / len(verts)
        cy = sum(v[1] for v in verts) / len(verts)
        by_float = sorted(
            verts, key=lambda v: math.atan2(float(v[1] - cy), float(v[0] - cx))
        )
        assert _ccw_order(poly) == by_float

    def test_three_dim_chart_keeps_the_vertex_order(self, cube_off, tmp_path):
        code, rep = run(
            ["project", "--body", cube_off, "--basis", "1,0,0;0,1,0;0,0,1"], tmp_path
        )
        assert code == 0
        chart = [tuple(F(c["exact"]) for c in v) for v in rep["chart_vertices"]]
        assert chart == list(convex_hull(CUBE_VERTICES).vertices)

    def test_rational_payloads_have_both_forms(self, cube_off, tmp_path):
        _, rep = run(
            ["section", "--body", cube_off, "--flat", "n=1,1,1;c=0"], tmp_path
        )
        v = rep["vertices"][0][0]
        assert set(v) == {"decimal", "exact"}
        assert "/" in v["exact"]


class TestProjectConeWalk:
    def test_project_square(self, cube_off, tmp_path):
        code, rep = run(
            ["project", "--body", cube_off, "--xi", "0,0,1"], tmp_path,
            svg="shadow.svg",
        )
        assert code == 0
        assert rep["vertex_count"] == 4
        assert (tmp_path / "shadow.svg").exists()

    def test_project_with_basis(self, cube_off, tmp_path):
        code, rep = run(
            ["project", "--body", cube_off, "--basis", "1,0,0;0,1,0"], tmp_path
        )
        assert code == 0
        assert rep["vertex_count"] == 4

    def test_project_xi_on_a_planar_body_is_error(self, tmp_path, capsys):
        tri = tmp_path / "tri.off"
        tri.write_text("OFF\n3 0 0\n0 0\n1 0\n0 1\n")
        code, rep = run(["project", "--body", str(tri), "--xi", "0,0,1"], tmp_path)
        assert code == 1 and rep is None
        assert capsys.readouterr().err == "error: --xi projection needs a 3-dimensional body\n"

    def test_counts_at_their_bounds_are_accepted(self, cube_off, tmp_path):
        # an exact cone answers without sampling, so the bounds cost nothing
        code, rep = run(
            ["mirkil", "--body", cube_off, "--apex", "0,0,3", "--samples", "1000",
             "--boundary-points", "1024"],
            tmp_path,
        )
        assert code == 0
        assert rep["budgets"]["requested"] == 1000
        assert rep["budgets"]["boundary_points"] == 1024

    def test_cone_rays(self, cube_off, tmp_path):
        code, rep = run(
            ["cone", "--body", cube_off, "--apex", "0,0,3"], tmp_path
        )
        assert code == 0
        assert rep["extreme_ray_count"] == 4
        assert len(rep["halfspaces"]) == 4

    def test_cone_apex_inside_is_error(self, cube_off, tmp_path, capsys):
        code, _ = run(["cone", "--body", cube_off, "--apex", "0,0,0"], tmp_path)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_walk_cube(self, cube_off, tmp_path):
        code, rep = run(
            ["walk", "--body", cube_off, "--xi", "0,0,1"], tmp_path,
            svg="walk.svg",
        )
        assert code == 0
        assert rep["vertex_count"] == 4
        assert rep["steps"] <= 8
        svg = (tmp_path / "walk.svg").read_text()
        assert "v0" in svg and "v3" in svg


class TestCriteriaCommands:
    def test_klee_k1_ball_witness(self, ball_json, tmp_path):
        code, rep = run(
            ["klee-k1", "--body", ball_json, "--flats", "5", "--seed", "7"],
            tmp_path,
        )
        assert code == 2
        assert rep["criterion"] == "K1"
        assert rep["verdict"] == "non-polytope"
        assert rep["witness"]["reverified"] is True
        assert rep["seed"] == 7

    def test_klee_k1_cube_consistent(self, cube_off, tmp_path):
        code, rep = run(
            ["klee-k1", "--body", cube_off, "--flats", "5", "--seed", "1"],
            tmp_path,
        )
        assert code == 0
        assert rep["verdict"] == "polytope-consistent"
        assert rep["exact"] is True

    def test_klee_k2(self, cube_off, tmp_path):
        code, rep = run(
            ["klee-k2", "--body", cube_off, "--subspaces", "5", "--seed", "3"],
            tmp_path,
        )
        assert code == 0
        assert rep["criterion"] == "K2"

    def test_t11(self, cube_off, tmp_path):
        code, rep = run(
            ["t11", "--body", cube_off, "--flats", "5", "--delta", "0.25",
             "--seed", "1"],
            tmp_path,
        )
        assert code == 0
        assert rep["criterion"] == "T1.1"

    def test_t12(self, cube_off, tmp_path):
        code, rep = run(
            ["t12", "--body", cube_off, "--apexes", "3", "--seed", "5"],
            tmp_path,
        )
        assert code == 0
        assert rep["criterion"] == "T1.2"
        assert rep["sphere"]["radius"] > 0

    def test_t12_radius_places_the_apexes(self, ball_json, tmp_path):
        code, rep = run(
            ["t12", "--body", ball_json, "--apexes", "2", "--radius", "5", "--seed", "1"],
            tmp_path,
        )
        assert code == 2
        assert rep["sphere"] == {"center": [0.0, 0.0, 0.0], "radius": 5.0}
        assert math.hypot(*rep["witness"]["apex"]) == pytest.approx(5.0, rel=1e-12)

    def test_epsilon(self, cube_off, tmp_path):
        code, rep = run(
            ["epsilon", "--body", cube_off, "--p", "1,1,1", "--q=-1,-1,-1"],
            tmp_path,
        )
        assert code == 0
        assert rep["certificate"]["case"] == "interior-crossing"
        assert rep["no_extreme_in_cone"] is True

    def test_epsilon_without_an_angle_bound_is_error(self, tmp_path, capsys):
        # the section of the thin triangle through the midpoint of its long
        # edge has no vertex on that edge besides the midpoint
        thin = tmp_path / "thin.off"
        thin.write_text("OFF\n3 0 0\n0 0\n1 0\n0 8\n")
        code, rep = run(["epsilon", "--body", str(thin), "--p", "0,0", "--q", "0,8"], tmp_path)
        assert code == 1 and rep is None
        assert capsys.readouterr().err == (
            "error: boundary case: no section vertex besides the midpoint\n"
        )

    def test_t12_on_a_one_point_body(self, tmp_path):
        # the default sphere of a point has radius 1, not 3 * 0
        point = tmp_path / "pt.off"
        point.write_text("1\n2 3 4\n")
        code, rep = run(["t12", "--body", str(point)], tmp_path)
        assert code == 0
        assert rep["sphere"] == {"center": [2.0, 3.0, 4.0], "radius": 1.0}

    def test_t12_without_sections_notes_zero_budget(self, ball_json, tmp_path):
        code, rep = run(
            ["t12", "--body", ball_json, "--apexes", "2", "--sections-per-apex", "0"],
            tmp_path,
        )
        assert code == 0
        assert rep["verdict"] == "polytope-consistent"
        assert rep["budgets"]["samples_used"] == 2
        assert rep["notes"] == ["zero-budget"]

    def test_t12_without_sections_on_a_wrapped_polytope(self, cube_off, tmp_path):
        # a polytope spec is wrapped into an oracle, yet its cones are exact
        # and no section was asked of them: no "zero-budget" note either way
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"kind": "polytope", "off": cube_off}))
        notes = []
        for body in (cube_off, str(spec)):
            code, rep = run(
                ["t12", "--body", body, "--apexes", "1", "--sections-per-apex", "0"],
                tmp_path,
            )
            assert code == 0 and rep["verdict"] == "polytope-consistent"
            notes.append(rep["notes"])
        assert notes[0] == notes[1] == ["apex 0: exact cone, 6 extreme rays"]

    def test_tester_reports_share_one_shape(self, ball_json, cube_off, tmp_path):
        flags = {
            "klee-k1": ["--flats", "3"],
            "klee-k2": ["--subspaces", "3"],
            "t11": ["--flats", "3", "--delta", "0.25"],
            "t12": ["--apexes", "2"],
            "mirkil": ["--apex", "0,0,3", "--samples", "3"],
        }
        own = {"t12": {"sphere"}, "mirkil": {"apex"}}
        keys, witness_keys = set(), set()
        for body, refutes in ((cube_off, False), (ball_json, True)):
            for command in flags:
                code, rep = run([command, "--body", body, "--seed", "2", *flags[command]], tmp_path)
                assert code == (2 if refutes else 0), (command, body)
                keys.add(frozenset(rep.keys() - own.get(command, set())))
                if refutes:
                    witness_keys.add(frozenset(rep["witness"]))
        assert len(keys) == 1
        assert len(witness_keys) == 1

    def test_mirkil_ball_witness(self, ball_json, tmp_path):
        code, rep = run(
            ["mirkil", "--body", ball_json, "--apex", "0,0,3",
             "--samples", "10", "--seed", "2"],
            tmp_path,
            svg="witness.svg",
        )
        assert code == 2
        assert rep["verdict"] == "non-polyhedral"
        assert rep["witness"] is not None
        assert (tmp_path / "witness.svg").exists()
        # the section's frame: the unit axis toward the ball, then a pair
        # normal to it
        normals = rep["witness"]["normals"]
        assert normals[0] == [0.0, 0.0, -1.0]
        assert_orthonormal(normals, 3)

    def test_mirkil_ball_spec_values_pinned(self, tmp_path):
        # the ball's center and radius reach the cone oracle as the floats of
        # their exact rationals; these report bytes predate reading them
        # through the body-spec parsers, and were recorded again when the
        # Mirkil report took the other testers' shape, when one adaptive
        # probe replaced the doubled-density re-draw, and when 3-D scans came
        # to draw their section frame as 4-D scans do (exit code, verdict and
        # samples_used kept)
        spec = tmp_path / "ball.json"
        spec.write_text(
            '{"kind": "ball", "center": ["1/2", 0.1, 1e-7], "radius": "1/2"}\n'
        )
        report = tmp_path / "report.json"
        argv = ["mirkil", "--body", str(spec), "--apex", "3,0,0", "--seed", "1"]
        assert main(argv + ["--report", str(report)]) == 2
        assert _sha(report.read_bytes()) == (
            "c818ba8697b43a11ac0206ab08f056821dd7eebebbede74486629d99493ed4bb"
        )

    def test_mirkil_sample_without_section_is_noted(self, tmp_path):
        # from an apex close beside a long ellipsoid the cone holds directions
        # at right angles to its hint, so the section normal to the hint is
        # unbounded
        ell = tmp_path / "ell.json"
        ell.write_text('{"kind": "ellipsoid", "center": [0, 0, 0], "semi_axes": [1, 10, 100]}')
        code, rep = run(
            ["mirkil", "--body", str(ell), "--apex", "1.02,5,50", "--samples", "1",
             "--seed", "0"],
            tmp_path,
        )
        assert code == 0
        assert rep["verdict"] == "polyhedral-consistent"
        assert rep["notes"] == ["sample 0: coverage violation (no bounded cross-section)"]

    def test_mirkil_four_dim_witness_keeps_its_frame(self, tmp_path):
        ball4 = tmp_path / "ball4.json"
        ball4.write_text('{"kind": "ball", "center": [0, 0, 0, 0], "radius": 1}')
        code, rep = run(
            ["mirkil", "--body", str(ball4), "--apex", "0,0,0,3", "--samples", "1",
             "--seed", "0"],
            tmp_path,
        )
        assert code == 2 and rep["notes"] == []
        assert [len(v) for v in rep["witness"]["normals"]] == [4, 4, 4]

    @pytest.mark.parametrize("apex", ["0,3", "0,0,3,7"])
    def test_apex_of_another_dimension_is_error(
        self, apex, ball_json, cube_off, tmp_path, capsys
    ):
        ellipsoid = tmp_path / "ellipsoid.json"
        ellipsoid.write_text(
            '{"kind": "ellipsoid", "center": [0, 0, 0], "semi_axes": [1, 1, 2]}'
        )
        for body in (cube_off, ball_json, str(ellipsoid)):
            code, rep = run(
                ["mirkil", "--body", body, "--apex", apex, "--samples", "1"], tmp_path
            )
            assert code == 1 and rep is None
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "dimension" in err

    def test_mirkil_cube_consistent(self, cube_off, tmp_path):
        code, rep = run(
            ["mirkil", "--body", cube_off, "--apex", "0,0,3", "--samples", "5"],
            tmp_path,
        )
        assert code == 0
        assert rep["verdict"] == "polyhedral-consistent"


# body -> documented exit code of t12 and mirkil on it: 2 for a witness, 0
# for a polytope, 1 for a cap, whose visual cone has no closed-form
# membership (a body without ray_interval)
_CUBE = [[int(x) for x in v] for v in CUBE_VERTICES]
CONE_BODIES = {
    "ball.json": ({"kind": "ball", "center": [0, 0, 0], "radius": 1}, 2),
    "ellipsoid.json": ({"kind": "ellipsoid", "center": [0, 0, 0], "semi_axes": [1, 1, 2]}, 2),
    "polytope.json": ({"kind": "polytope", "vertices": _CUBE}, 0),
    "cube.off": (None, 0),
    "cap.json": (
        {"kind": "cap", "polytope": {"vertices": _CUBE}, "center": [1, 0, 0], "radius": 1},
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(CONE_BODIES))
@pytest.mark.parametrize(
    "argv",
    [
        ["t12", "--apexes", "1", "--sections-per-apex", "1", "--boundary-points", "8"],
        ["mirkil", "--apex", "0,0,4", "--samples", "1", "--boundary-points", "8"],
    ],
)
def test_visual_cone_commands_end_on_every_body_kind(name, argv, cube_off, tmp_path):
    # each in its own process, under a time limit: a hang fails the test
    spec, expected = CONE_BODIES[name]
    body = cube_off if spec is None else tmp_path / name
    if spec is not None:
        body.write_text(json.dumps(spec))
    src = os.path.dirname(os.path.dirname(os.path.abspath(polysect.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "polysect.cli", *argv, "--body", str(body)],
        capture_output=True, text=True, timeout=30, env=env, cwd=tmp_path,
    )
    assert done.returncode == expected, done.stderr
    if expected == 1:
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "ray_interval" in done.stderr
    else:
        assert json.loads(done.stdout)["command"] == argv[0]


class TestPlumbing:
    def test_env_seed_default(self, cube_off, tmp_path, monkeypatch):
        monkeypatch.setenv("POLYSECT_SEED", "41")
        _, rep = run(
            ["klee-k1", "--body", cube_off, "--flats", "2"], tmp_path
        )
        assert rep["seed"] == 41

    def test_bad_env_seed_is_error(self, cube_off, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("POLYSECT_SEED", "abc")
        code, _ = run(["klee-k1", "--body", cube_off, "--flats", "2"], tmp_path)
        assert code == 1
        assert capsys.readouterr().err == "error: POLYSECT_SEED must be an integer\n"

    def test_spec_missing_key_is_error(self, tmp_path, capsys):
        code, _ = run(
            ["klee-k1", "--body-json", '{"kind": "ball", "center": [0, 0, 0]}'],
            tmp_path,
        )
        assert code == 1
        assert capsys.readouterr().err == "error: ball spec needs 'radius'\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["klee-k1", "--flats", "2", "--boundary-points", "4"],
             "need at least 8 boundary points"),
            (["klee-k1", "--flats", "2", "--tau", "nan"],
             "argument --tau: must be finite and positive"),
            (["section"], "the following arguments are required: --flat"),
            (["project"], "one of the arguments --xi --basis is required"),
            (["project", "--xi", "0,0,1", "--basis", "1,0,0;0,1,0"],
             "argument --basis: not allowed with argument --xi"),
            (["section", "--flat", "n=1,1,1;c=0", "--samples", "1025"],
             "argument --samples: must be at most 1024"),
            (["klee-k1", "--boundary-points", "1025"],
             "argument --boundary-points: must be at most 1024"),
            (["klee-k1", "--flats", "1001"], "argument --flats: must be at most 1000"),
            (["t11", "--flats", "1001", "--delta", "0.25"],
             "argument --flats: must be at most 1000"),
            (["klee-k2", "--subspaces", "1001"],
             "argument --subspaces: must be at most 1000"),
            (["t12", "--apexes", "1001"], "argument --apexes: must be at most 1000"),
            (["t12", "--sections-per-apex", "1001"],
             "argument --sections-per-apex: must be at most 1000"),
            (["t12", "--boundary-points", "1025"],
             "argument --boundary-points: must be at most 1024"),
            (["mirkil", "--apex", "0,0,3", "--samples", "1001"],
             "argument --samples: must be at most 1000"),
            (["mirkil", "--apex", "0,0,3", "--boundary-points", "1025"],
             "argument --boundary-points: must be at most 1024"),
            (["klee-k1", "--flats", "2.5"], "argument --flats: invalid int value: '2.5'"),
        ],
    )
    def test_malformed_call_is_one_error_line(
        self, argv, message, ball_json, tmp_path, capsys
    ):
        code, rep = run([argv[0], "--body", ball_json] + argv[1:], tmp_path)
        assert code == 1
        assert rep is None
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["section", "--flat", "n=1,1,1;c=0"],
            ["project", "--xi", "0,0,1"],
            ["cone", "--apex", "0,0,3"],
            ["klee-k1", "--flats", "1"],
            ["klee-k2", "--subspaces", "1"],
            ["t11", "--flats", "1", "--delta", "0.25"],
            ["t12", "--apexes", "1"],
            ["epsilon", "--p", "1,1,1", "--q=-1,-1,-1"],
            ["walk", "--xi", "0,0,1"],
            ["mirkil", "--apex", "0,0,3"],
        ],
    )
    @pytest.mark.parametrize(
        "tau, reason",
        [
            ("nan", "must be finite and positive"),
            ("inf", "must be finite and positive"),
            ("0", "must be finite and positive"),
            ("-1e-9", "must be finite and positive"),
            ("1e-13", "must be at least 1e-12"),
        ],
    )
    def test_bad_tau_rejected_on_every_command(
        self, argv, tau, reason, cube_off, tmp_path, capsys
    ):
        code, rep = run(
            [argv[0], "--body", cube_off] + argv[1:] + [f"--tau={tau}"], tmp_path
        )
        assert code == 1
        assert rep is None
        assert capsys.readouterr().err == f"error: argument --tau: {reason}\n"

    @pytest.mark.parametrize(
        "body, argv, vector",
        [
            ("ball", ["mirkil", "--apex", "{}"], "1e400,0,0"),
            ("cube", ["mirkil", "--apex", "{}"], "1e400,0,0"),
            ("ball", ["mirkil", "--apex", "{}"], "0,0,1e155"),
            ("cube", ["cone", "--apex", "{}"], "0,0,-1e101"),
            ("cube", ["project", "--xi", "{}"], "0,0,1e400"),
            ("cube", ["walk", "--xi", "{}"], "1e400,0,1"),
            ("cube", ["project", "--basis", "{};0,1,0"], "1e400,0,0"),
            ("cube", ["epsilon", "--p", "{}", "--q=-1,-1,-1"], "1e400,1,1"),
            ("cube", ["epsilon", "--p", "1,1,1", "--q={}"], "-1e400,-1,-1"),
            ("cube", ["section", "--flat", "n={};c=0"], "1e400,1,1"),
        ],
    )
    def test_vector_beyond_float_range_is_error(
        self, body, argv, vector, ball_json, cube_off, tmp_path, capsys
    ):
        path = ball_json if body == "ball" else cube_off
        argv = [a.format(vector) for a in argv]
        code, rep = run([argv[0], "--body", path] + argv[1:], tmp_path)
        assert code == 1
        assert rep is None
        assert capsys.readouterr().err == (
            f"error: bad vector {vector!r}: a value is beyond 1e100 in absolute value\n"
        )

    @pytest.mark.parametrize(
        "offset, reason",
        [
            ("1e400", "c is beyond 1e100 in absolute value"),
            ("-1e101", "c is beyond 1e100 in absolute value"),
            ("1/0", "Fraction(1, 0)"),
            ("x", "Invalid literal for Fraction: 'x'"),
        ],
    )
    def test_bad_flat_offset_is_error(
        self, offset, reason, ball_json, cube_off, tmp_path, capsys
    ):
        for body in (ball_json, cube_off):
            flat = f"n=1,1,1;c={offset}"
            code, rep = run(["section", "--body", body, "--flat", flat], tmp_path)
            assert code == 1
            assert rep is None
            assert capsys.readouterr().err == f"error: bad flat spec {flat!r}: {reason}\n"

    @staticmethod
    def _scaled_cube(tmp_path, scale):
        path = tmp_path / "big.off"
        rows = [" ".join("-" * (x < 0) + scale for x in v) for v in CUBE_VERTICES]
        path.write_text("OFF\n8 0 0\n" + "\n".join(rows) + "\n")
        return str(path)

    COMMANDS_ON_A_CUBE = [  # (argv, svg file name or None)
        (["t12", "--apexes", "1"], None),
        (["section", "--flat", "n=1,1,1;c=0"], None),
        (["walk", "--xi", "0,0,1"], None),
        (["project", "--xi", "0,0,1"], "p.svg"),
        (["epsilon", "--p", "1,1,1", "--q=-1,-1,-1"], None),
    ]

    @pytest.mark.parametrize("scale", ["1e101", "1e400"])
    def test_off_coordinate_beyond_bound_is_error(self, scale, tmp_path, capsys):
        # OFF coordinates are held to the bound on every number read from
        # outside, in an OFF file and in one a body spec names
        off = self._scaled_cube(tmp_path, scale)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "polytope", "off": "big.off"}))
        for body in (off, str(spec)):
            for (cmd, *flags), svg in self.COMMANDS_ON_A_CUBE:
                code, rep = run([cmd, "--body", body, *flags], tmp_path, svg=svg)
                assert code == 1 and rep is None
                assert capsys.readouterr().err == (
                    "error: coordinate on vertex line 0 is beyond 1e100 in absolute value\n"
                )
                assert not (tmp_path / "p.svg").exists()

    def test_off_coordinates_at_the_bound_run(self, tmp_path):
        off = self._scaled_cube(tmp_path, "1e100")
        for (cmd, *flags), svg in self.COMMANDS_ON_A_CUBE:
            code, rep = run([cmd, "--body", off, *flags], tmp_path, svg=svg)
            assert code == 0 and rep["verdict"] in ("success", "polytope-consistent")
        assert (tmp_path / "p.svg").exists()

    @pytest.mark.parametrize("delta", ["inf", "-inf", "nan"])
    def test_non_finite_delta_is_error(self, delta, ball_json, cube_off, tmp_path, capsys):
        for body in (ball_json, cube_off):
            code, rep = run(
                ["t11", "--body", body, "--flats", "2", f"--delta={delta}"], tmp_path
            )
            assert code == 1
            assert rep is None
            assert capsys.readouterr().err == "error: delta must be finite\n"

    @pytest.mark.parametrize(
        "radius, reason",
        [
            ("inf", "must be finite and positive"),
            ("nan", "must be finite and positive"),
            ("0", "must be finite and positive"),
            ("-1", "must be finite and positive"),
            ("1e300", "must be at most 1e100"),
            ("1e101", "must be at most 1e100"),
        ],
    )
    def test_bad_apex_radius_is_error(
        self, radius, reason, ball_json, cube_off, tmp_path, capsys
    ):
        for body in (ball_json, cube_off):
            code, rep = run(
                ["t12", "--body", body, "--apexes", "1", f"--radius={radius}"], tmp_path
            )
            assert code == 1
            assert rep is None
            assert capsys.readouterr().err == f"error: argument --radius: {reason}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--apexes", "-5"], "apex budget must be nonnegative"),
            (["--apexes", "-1"], "apex budget must be nonnegative"),
            (["--sections-per-apex", "-3"], "sections per apex must be nonnegative"),
        ],
    )
    def test_negative_t12_count_is_error(
        self, flags, message, ball_json, cube_off, tmp_path, capsys
    ):
        for body in (cube_off, ball_json):
            code, rep = run(["t12", "--body", body, "--apexes", "1"] + flags, tmp_path)
            assert code == 1
            assert rep is None
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["klee-k1", "--help"])
        assert exc.value.code == 0
        assert "--boundary-points" in capsys.readouterr().out

    def test_inline_body_json(self, tmp_path):
        code, rep = run(
            ["klee-k1", "--body-json",
             '{"kind": "ball", "center": [0, 0, 0], "radius": 1}',
             "--flats", "2"],
            tmp_path,
        )
        assert code == 2

    def test_body_and_body_json_together_is_error(self, tmp_path, capsys):
        # one body per call: neither flag may silently win over the other
        code, rep = run(
            ["klee-k1", "--body", str(tmp_path / "missing.off"), "--body-json",
             '{"kind": "ball", "center": [0, 0, 0], "radius": 1}',
             "--flats", "1", "--boundary-points", "8"],
            tmp_path,
        )
        assert code == 1
        assert rep is None
        assert capsys.readouterr().err == (
            "error: argument --body-json: not allowed with argument --body\n"
        )

    def test_missing_body_is_error(self, tmp_path, capsys):
        code, _ = run(["walk", "--xi", "0,0,1"], tmp_path)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flat_spec_is_error(self, cube_off, tmp_path, capsys):
        code, _ = run(
            ["section", "--body", cube_off, "--flat", "nope"], tmp_path
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_oracle_body_rejected_for_exact_commands(
        self, ball_json, tmp_path, capsys
    ):
        code, _ = run(["walk", "--body", ball_json, "--xi", "0,0,1"], tmp_path)
        assert code == 1
        assert "polytope body" in capsys.readouterr().err

    def test_svg_without_two_dim_output_is_error(
        self, cube_off, tmp_path, capsys
    ):
        code, _ = run(
            ["cone", "--body", cube_off, "--apex", "0,0,3"], tmp_path,
            svg="nope.svg",
        )
        assert code == 1
        assert "no 2-dimensional output" in capsys.readouterr().err

    def test_svg_without_two_dim_output_writes_no_report(
        self, cube_off, tmp_path, capsys
    ):
        # the check comes before any output: no report file, nothing on stdout
        args = ["cone", "--body", cube_off, "--apex", "0,0,3"]
        code, rep = run(args, tmp_path, svg="nope.svg")
        assert (code, rep) == (1, None)
        assert main(args + ["--svg", str(tmp_path / "nope.svg")]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("error: no 2-dimensional output") == 2
        assert not (tmp_path / "nope.svg").exists()

    @pytest.mark.parametrize("missing", ["svg", "report"])
    def test_failed_write_leaves_no_output_file(self, cube_off, tmp_path, capsys, missing):
        # the svg is written first: a failed svg leaves no report, and a
        # failed report removes the svg
        paths = {"svg": tmp_path / "x.svg", "report": tmp_path / "r.json"}
        paths[missing] = tmp_path / "nodir" / paths[missing].name
        code = main([
            "section", "--body", cube_off, "--flat", "n=1,1,1;c=0",
            "--svg", str(paths["svg"]), "--report", str(paths["report"]),
        ])
        assert code == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert not any(path.exists() for path in paths.values())

    def test_no_timestamps_anywhere(self, cube_off, tmp_path):
        _, rep = run(
            ["section", "--body", cube_off, "--flat", "n=1,1,1;c=0"], tmp_path
        )
        text = json.dumps(rep).lower()
        assert "time" not in text
        assert "date" not in text

    def test_svg_and_report_both_on_stdout_is_error(self, tmp_path, capsys):
        # checked before the body is loaded: the missing body file is not read
        code = main([
            "project", "--body", str(tmp_path / "missing.off"), "--xi", "0,0,1",
            "--svg", "-",
        ])
        assert code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --svg - needs --report PATH: both cannot go to stdout\n"

    def test_svg_on_stdout_with_a_report_file(self, cube_off, tmp_path, capsys):
        code, rep = run(["project", "--body", cube_off, "--xi", "0,0,1", "--svg", "-"], tmp_path)
        assert (code, rep["command"]) == (0, "project")
        out = capsys.readouterr().out
        assert out.startswith("<?xml") and out.endswith("</svg>\n")

    @pytest.mark.parametrize("name", ["NaN", "5", '{"first": "ball"}'])
    def test_spec_name_that_is_not_a_string_is_error(self, name, tmp_path, capsys):
        # the name is echoed into the report, which must stay valid JSON
        spec = '{"kind": "ball", "center": [0, 0, 0], "radius": 1, "name": %s}' % name
        path = tmp_path / "named.json"
        path.write_text(spec)
        for body in (["--body-json", spec], ["--body", str(path)]):
            code, rep = run(["klee-k1", *body, "--flats", "1"], tmp_path)
            assert (code, rep) == (1, None)
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: body spec name must be a string\n" * 2

    def test_spec_name_is_kept_byte_for_byte(self, tmp_path):
        name = 'b\u00e4ll "NaN" \\ 1e400'
        spec = json.dumps({"kind": "ball", "center": [0, 0, 0], "radius": 1, "name": name})
        path = tmp_path / "named.json"
        path.write_text(spec)
        for body in (["--body-json", spec], ["--body", str(path)]):
            code, rep = run(
                ["klee-k1", *body, "--flats", "1", "--boundary-points", "8"], tmp_path
            )
            assert code in (0, 2) and rep["body"]["name"] == name

    def test_stdout_report(self, cube_off, capsys):
        code = main(["cone", "--body", cube_off, "--apex", "0,0,3"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["extreme_ray_count"] == 4


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["section", "--flat", "n=1,1,1;c=0"],
            ["project", "--xi", "0,0,1"],
            ["cone", "--apex", "0,0,3"],
            ["klee-k1", "--flats", "4", "--seed", "7"],
            ["klee-k2", "--subspaces", "4", "--seed", "3"],
            ["t11", "--flats", "4", "--delta", "0.25", "--seed", "1"],
            ["t12", "--apexes", "2", "--seed", "5"],
            ["epsilon", "--p", "1,1,1", "--q=-1,-1,-1"],
            ["walk", "--xi", "0,0,1"],
            ["mirkil", "--apex", "0,0,3", "--samples", "3", "--seed", "2"],
        ],
    )
    def test_repeat_runs_are_byte_identical(self, argv, cube_off, tmp_path):
        outputs = []
        for i in range(2):
            report = tmp_path / f"r{i}.json"
            svg = tmp_path / f"r{i}.svg"
            full = argv[:1] + ["--body", cube_off] + argv[1:] + [
                "--report", str(report)
            ]
            if argv[0] in {"section", "project", "walk"}:
                full += ["--svg", str(svg)]
            code = main(full)
            assert code in (0, 2)
            blob = report.read_bytes()
            if svg.exists():
                blob += svg.read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1]

    def test_ball_witness_determinism(self, ball_json, tmp_path):
        outputs = []
        for i in range(2):
            report = tmp_path / f"b{i}.json"
            svg = tmp_path / f"b{i}.svg"
            code = main(
                ["mirkil", "--body", ball_json, "--apex", "0,0,3",
                 "--samples", "8", "--seed", "2",
                 "--report", str(report), "--svg", str(svg)]
            )
            assert code == 2
            outputs.append(report.read_bytes() + svg.read_bytes())
        assert outputs[0] == outputs[1]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# (exit code, SHA-256 of stdout, {SVG file: SHA-256}) of each documented
# example, recorded before the section sweep and the cone scan shared one
# ray-exit primitive; the klee-k1 entry when section sampling took its
# centre from 8 exits; the mirkil entry when its report took the other
# testers' shape; both again when one adaptive probe replaced the fixed
# samples (same exit codes, verdicts and samples_used); the mirkil entry
# again when 3-D scans came to draw their section frame as 4-D scans do
# (same exit code, verdict and samples_used)
EXAMPLE_OUTPUTS = {
    'section --body cube.off --flat "n=1,1,1;c=0" --svg hex.svg': (
        0, "815cdf6a5c3fe8c9c9e8085172dd990631a48f5f859324d080d3b1a6a409457f",
        {"hex.svg": "68823ef18e5156aa83051823d9eb5985bd354e9b399ea63277770e1362365ad6"},
    ),
    "project --body cube.off --xi 0,0,1": (
        0, "a4f5be2a00f2526badf7945910674c799e99e37bd5228fe6d0e13be28fbb45de", {},
    ),
    "cone --body cube.off --apex 0,0,3": (
        0, "390c756ec342c53f4bedb3edd9cb7c5a23410a9f6f20a735c76cf71050b8bec8", {},
    ),
    "klee-k1 --body ball.json --flats 5 --seed 7": (
        2, "73ba08dd0d7e0e4ddfa14b78f4f71807e016b6acdb6478e10546075a30329d6a", {},
    ),
    "klee-k2 --body cube.off --subspaces 10 --seed 3": (
        0, "27d3d2c21cbafec0cc9e5c21171e14b9ac96257d32aa838a6d8b47e44759f6ca", {},
    ),
    "t11 --body cube.off --flats 8 --delta 0.25 --seed 1": (
        0, "2c6efe482104337a4cc3878a1761be442f6f86be2071175562dc33f3a16135a9", {},
    ),
    "t12 --body cube.off --apexes 4 --seed 5": (
        0, "1f678daa296f175644617905a4464c4af35ecac2b9ca6d5aaff90c60fcb8be12", {},
    ),
    "epsilon --body cube.off --p 1,1,1 --q=-1,-1,-1": (
        0, "f2e67f59787172f8e6470cc0ecc0d0ea7ae0ad4cc2eaa073a0e97eb5c67be0cd", {},
    ),
    "walk --body cube.off --xi 0,0,1 --svg walk.svg": (
        0, "8454156592763a7bff3c9765de1cbdcfdb6d13af96a4371b72bb834eb191cc35",
        {"walk.svg": "409c2d9a7e725a03bdc959ef3e2d75fb5c004bad5643e39499aad5e5914950d2"},
    ),
    "mirkil --body ball.json --apex 0,0,3 --samples 10 --seed 2": (
        2, "1e2f6615b57c0d4222ce00db95da0a4bcf71c0fd440d0e30ac2938067072d4b7", {},
    ),
}


def test_documented_examples_are_golden(cube_off, ball_json, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("POLYSECT_SEED", raising=False)
    commands = [
        line.strip()[len("polysect "):]
        for line in EXAMPLES.splitlines()
        if line.strip().startswith("polysect ")
    ]
    assert sorted(commands) == sorted(EXAMPLE_OUTPUTS)
    got = {}
    for command in commands:
        code = main(shlex.split(command))
        stdout = capsys.readouterr().out
        svgs = {p.name: _sha(p.read_bytes()) for p in tmp_path.glob("*.svg")}
        for p in tmp_path.glob("*.svg"):
            p.unlink()
        got[command] = (code, _sha(stdout.encode()), svgs)
    # one comparison after the loop names every example that moved
    assert got == EXAMPLE_OUTPUTS


@pytest.fixture(scope="module")
def body_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bodies")
    (root / "cube.off").write_text(emit_off(convex_hull(CUBE_VERTICES)))
    (root / "ball.json").write_text(
        json.dumps({"kind": "ball", "center": [0, 0, 0], "radius": 1})
    )
    return {"cube": str(root / "cube.off"), "ball": str(root / "ball.json")}


FLOAT_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e-300", "0.25", "1e300", "1e400"]
INT_VALUES = ["nan", "inf", "-1", "0", "7", "8", "16", "1e9", "2.5"]
# beyond every count bound, so it fails up front on oracle bodies too
HUGE_INT = "123456789012345678901234567890"

# command -> (fixed arguments, numeric flags it takes)
FUZZ_COMMANDS = {
    "section": (["--flat", "n=1,1,1;c=0"], ["--tau", "--samples"]),
    "klee-k1": (["--flats", "1"], ["--tau", "--boundary-points"]),
    "klee-k2": (["--subspaces", "1"], ["--tau", "--boundary-points"]),
    "t11": (["--flats", "2"], ["--tau", "--boundary-points", "--delta"]),
    "t12": (["--apexes", "1", "--sections-per-apex", "1"],
            ["--tau", "--boundary-points", "--radius"]),
    "mirkil": (["--apex", "0,0,3"], ["--tau", "--boundary-points", "--samples"]),
}


@st.composite
def fuzzed_calls(draw):
    body = draw(st.sampled_from(["ball", "cube"]))
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    fixed, flags = FUZZ_COMMANDS[command]
    argv = [command, *fixed]
    for flag in draw(st.lists(st.sampled_from(flags), min_size=1, unique=True)):
        if flag in ("--tau", "--delta", "--radius"):
            value = draw(st.sampled_from(FLOAT_VALUES))
        else:
            value = draw(st.sampled_from(INT_VALUES + [HUGE_INT]))
        argv.append(f"{flag}={value}")
    if command == "t11" and not any(a.startswith("--delta") for a in argv):
        argv.append("--delta=0.25")
    return body, argv


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


# what a JSON body spec may hold where a number or a list belongs
SPEC_NUMBERS = [0, 1, -1, 3, 0.5, "1/2", "-3/2", "0.25"]
SPEC_JUNK = [
    None, True, "abc", "1/0", "nan", "1e999", float("nan"), float("inf"),
    float("-inf"), 1e300, -1e300, 10**400, 1e-300, [], {}, {"a": [1]}, [[1, 2]],
]
spec_junk = st.sampled_from(SPEC_JUNK)
spec_numbers = st.one_of(st.sampled_from(SPEC_NUMBERS), spec_junk)
spec_vectors = st.one_of(
    st.lists(st.sampled_from(SPEC_NUMBERS), min_size=3, max_size=3),
    st.lists(spec_numbers, max_size=5),
    spec_junk,
)
# the fields of a polytope spec; CUBE_OFF stands for a valid OFF file's path
polytope_fields = st.one_of(
    st.fixed_dictionaries({"vertices": st.one_of(
        st.just([[int(x) for x in v] for v in CUBE_VERTICES]),
        st.lists(spec_vectors, max_size=6),
        spec_junk,
    )}),
    st.fixed_dictionaries({"off": st.sampled_from(
        ["CUBE_OFF", "missing.off", "", 5, None, ["a"]]
    )}),
    st.just({}),
)
SPEC_FIELDS = {
    "center": spec_vectors,
    "radius": spec_numbers,
    "semi_axes": spec_vectors,
    "polytope": st.one_of(polytope_fields, spec_junk),
}
KIND_FIELDS = {
    "ball": ("center", "radius"),
    "ellipsoid": ("center", "semi_axes"),
    "polytope": (),
    "cap": ("polytope", "center", "radius"),
}


@st.composite
def body_specs(draw):
    """Body specs of every kind with missing keys, wrong types and bad numbers."""
    if draw(st.integers(0, 9)) == 0:
        return draw(spec_junk)
    if draw(st.integers(0, 9)) == 0:
        kind = draw(st.sampled_from(["torus", 5, None]))
    else:
        kind = draw(st.sampled_from(sorted(KIND_FIELDS)))
    spec = {"kind": kind}
    if kind == "polytope":
        spec.update(draw(polytope_fields))
    for key in KIND_FIELDS.get(kind, ("center", "radius")):
        if draw(st.integers(0, 5)) > 0:  # else the key is missing
            spec[key] = draw(SPEC_FIELDS[key])
    return spec


def _check_contract(argv):
    """Exit 0/1/2, no traceback, one error line on 1, valid JSON otherwise.

    Returns the exit code and the report (None on exit 1)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return code, None
    return code, json.loads(out.getvalue(), parse_constant=_no_constant)


# small 3-D rational clouds, OFF files for the exact commands: flat, thin
# and one-point clouds as well as full-dimensional ones
OFF_COORDS = [F(-2), F(-1), F(-1, 2), F(0), F(1, 3), F(1), F(3, 2), F(2)]
VECTOR_ENTRIES = ["-3", "-1", "0", "1", "2", "1/2", "5"]


@st.composite
def exact_calls(draw):
    """(OFF text, cloud, argv) for a `walk`, `cone` or `epsilon` call."""
    coord = st.sampled_from(OFF_COORDS)
    size = draw(st.sampled_from([1, 2, 3, 4, 6, 9, 12]))
    cloud = draw(st.lists(st.tuples(coord, coord, coord), min_size=size, max_size=size, unique=True))
    text = "OFF\n%d 0 0\n" % len(cloud) + "".join(
        " ".join(map(str, p)) + "\n" for p in cloud
    )
    vector = st.lists(st.sampled_from(VECTOR_ENTRIES), min_size=3, max_size=3).map(",".join)
    command = draw(st.sampled_from(["walk", "cone", "epsilon", "epsilon"]))
    if command == "walk":
        argv = ["walk", f"--xi={draw(vector)}"]
    elif command == "cone":
        argv = ["cone", f"--apex={draw(vector)}"]
    else:
        # two cloud points, so that both lie in the body, distinct if they can be
        p, q = draw(st.lists(st.sampled_from(cloud), min_size=2, max_size=2,
                             unique=len(cloud) > 1))
        argv = ["epsilon"] + [f"--{k}={','.join(map(str, v))}" for k, v in (("p", p), ("q", q))]
    return text, cloud, argv


def _exact(value):
    return F(value["exact"])


def _check_exact_report(command, report, cloud):
    """The exact invariants of an exit-0 walk, cone or epsilon report."""
    if command == "walk":
        pts = [tuple(map(_exact, v)) for v in report["vertices"]]
        assert len(pts) >= 3
        for a, b, c in zip(pts, pts[1:] + pts[:1], pts[2:] + pts[:2]):
            assert (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) > 0
    elif command == "cone":
        rays = [tuple(map(_exact, r)) for r in report["rays"]]
        assert len(rays) == report["extreme_ray_count"]
        for hs in report["halfspaces"]:
            normal, offset = tuple(map(_exact, hs["normal"])), _exact(hs["offset"])
            assert all(sum(map(operator.mul, normal, r)) <= offset for r in rays)
    else:
        cert = report["certificate"]
        p, q = (tuple(map(_exact, cert[k])) for k in ("p", "q"))
        assert report["verdict"] == "success" and report["no_extreme_in_cone"] is True
        assert no_extreme_in_cone_in_fractions(
            convex_hull(cloud), p, q, cert["epsilon"]
        ) is True


class TestFuzz:
    @settings(max_examples=40, deadline=None)
    @given(fuzzed_calls())
    def test_numeric_flags_never_crash(self, body_files, call):
        body, argv = call
        _check_contract(argv[:1] + ["--body", body_files[body]] + argv[1:])

    @settings(max_examples=60, deadline=None)
    @given(body_specs())
    @example({"kind": "ball", "center": 5, "radius": 1})
    @example({"kind": "ball", "center": None, "radius": 1})
    @example({"kind": "polytope", "vertices": 5})
    @example({"kind": "ball", "center": [0, 0, 0], "radius": float("inf")})
    @example({"kind": "ball", "center": [0, 0, 0], "radius": "1/0"})
    @example({"kind": "polytope", "off": 5})
    @example({"kind": "ball", "center": [1e300, 0, 0], "radius": 1e300})
    def test_body_specs_never_crash(self, body_files, spec):
        text = json.dumps(spec).replace('"CUBE_OFF"', json.dumps(body_files["cube"]))
        _check_contract(
            ["klee-k1", "--body-json", text, "--flats", "1", "--boundary-points", "8"]
        )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(exact_calls())
    def test_exact_reports_keep_their_invariants(self, tmp_path_factory, call):
        text, cloud, argv = call
        path = tmp_path_factory.mktemp("fuzz") / "body.off"
        path.write_text(text)
        code, report = _check_contract(argv[:1] + ["--body", str(path)] + argv[1:])
        event(f"{argv[0]} exit {code}")
        if code == 0:
            _check_exact_report(argv[0], report, cloud)
