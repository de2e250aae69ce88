import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import pwrot
from pwrot import _steppy, casestudy, cli, stepper
from pwrot.cli import build_parser, main
from pwrot.critical import critical_bundle
from pwrot.cyclo import make_field
from pwrot.dynamics import orbit
from pwrot.pointexpr import parse_alpha, parse_box, parse_point
from pwrot.tiles import scan_region, tile_from_seed

from jsonref import orbit_dict, scan_csv, scan_sidecar, tile_dict
from test_acceptance import SCANS

GOLDEN_ITERATES_PHI = [
    "-phi",
    "-1/2*phi + (1/2 + 1/2*phi)*sqrt(2+phi)*i",
    "1 + 1/2*phi + (1/2 + 1/2*phi)*sqrt(2+phi)*i",
    "1 + phi",
    "1/2 - 1/2*phi*sqrt(2+phi)*i",
    "-1 - sqrt(2+phi)*i",
    "-1 - 1/2*phi + (1/2 - 1/2*phi)*sqrt(2+phi)*i",
    "-1/2*phi + (-1/2 + 1/2*phi)*sqrt(2+phi)*i",
    "sqrt(2+phi)*i",
    "3/2 + 1/2*phi*sqrt(2+phi)*i",
    "phi",
]


# The three tile-scan grids of the benchmark and the README scan (78 tiles),
# with the SHA-256 of the CSV and of its JSON sidecar; see
# TestScan.test_golden_digests.
SCAN_DIGESTS = [
    ("4/5", "-3,-3,3,3", "1", 3000,
     "99c78cf3301c4e690dce42123613b1ac93bb3e803085c78672f23a118a27744c",
     "b8202fbea58ecab40991a65d32c20f5d3d07f49fb4eab9371ea3ab2b5087187a"),
    ("11/12", "-1,-1,3,2", "1/2", 1000,
     "8afca72115ca2d09165cb2850b9dee2da7db1ba0e3889f4e8ad412546905a739",
     "a06049abd1d6c9bf79bc355f74a0f9f961cfd155d1ad03ae68cf1cc30d4f4406"),
    ("3/7", "-2,-2,2,2", "4/3", 3000,
     "a94565922e274f818e867e89710e805fa0b95cc15b6d2a9015eafae872cfa738",
     "31f96efd751364a6d0a9e5cd37429ac26720b65569cbed9e5e4a182f66f14d0b"),
    ("4/5", "-3,-3,3,3", "1/4", 3000,
     "bdd3d47ec6f894f1888f90b61cc6c374e1558a8e7407aca75f4d0c52e077ecf3",
     "5d7dfa9c0855cf2ea0ec2d224de8ec9edbc146688e330000431fa309dacb957d"),
]


# `pwrot critical` outputs with their SHA-256: the two depth-20 bundles of
# the benchmark, a text dump, an SVG with and without --merge, and a merged
# SVG at 11/12, whose even q merges powers t mod q/2, taken before
# merge_collinear read grid lines; see TestCritical.test_golden_digests.
CRITICAL_DIGESTS = [
    (("--alpha", "4/5", "--depth", "20", "--box=-4,-4,4,4", "--direction", "both",
      "--format", "json"),
     "ff87b8896d134aebd9e5a1cc62c07ee03da7d3e9a5b6e37cbc50c024db687b17"),
    (("--alpha", "11/12", "--depth", "20", "--box=-1,-2,6,3", "--direction", "both",
      "--format", "json"),
     "e0c7a4bfc8915c3fc6f7f28df6e3c0e056e9acc202836ab702064663d74a87c9"),
    (("--alpha", "3/7", "--depth", "6", "--box=-2,-2,2,2", "--direction", "both"),
     "cd8639f858135eecdd1e902d05da098ddbb8e6bfaeff28e5ff43642fe3129686"),
    (("--alpha", "4/5", "--depth", "8", "--box=-3,-3,3,3", "--direction", "both",
      "--format", "svg"),
     "6a1e3fa7280b77f5933935ae21a446931c21d1a288146c011dd7d6d4575b031c"),
    (("--alpha", "4/5", "--depth", "8", "--box=-3,-3,3,3", "--direction", "both",
      "--format", "svg", "--merge"),
     "99bdc1013ae46150db0b7578068d4bd46075e7e52868e2ea1e4ecace8ddad6d8"),
    (("--alpha", "11/12", "--depth", "20", "--box=-1,-2,6,3", "--direction", "both",
      "--format", "svg", "--merge"),
     "0fea391a55c671ab927f64fc7638cf9854c60fa149baed9e1e7b09a7edc5836b"),
]


# Outputs written by `cyclo.format_golden`, or by `str` of an element outside
# its span or field, with the SHA-256 of stdout, taken before the golden
# coordinates were written from the integer vector: the two orbit-periods
# commands of the benchmark, orbits, and tile text.  The third field says
# whether the entry also runs with the pure kernel, which takes the smaller
# golden and returns sizes; see TestFormatDigests.
FORMAT_DIGESTS = [
    (("casestudy", "golden", "--table", "--max-n", "7", "--budget", "400000"),
     "22d8304f22f97ce4266d5e068043e5f030447c2c80b49a1e44d5f5d8a03dd7f7", False),
    (("casestudy", "returns", "--n", "100000"),
     "d4aa259e7589053f8d680775898276dc6dabef46d659e921efacdf8c88731716", False),
    (("casestudy", "golden", "--table", "--max-n", "5", "--budget", "400000"),
     "6792649605f7dc013e8e41172678c8d8d7a3c473416f7f348f0fc490ee550ce1", True),
    (("casestudy", "returns", "--n", "10000"),
     "6e003663e0171e923f430bce052dadd5df28714f37905688316a059b178ef5ed", True),
    (("iterate", "--alpha", "4/5", "--point", "Q", "--n", "30", "--format", "phi"),
     "1e686a40d863b4e1dc6a0da2af39d922b90efe8d497d05055db5591cee42bab1", True),
    (("iterate", "--alpha", "4/5", "--point", "Q", "--n", "30", "--format", "pretty"),
     "1e686a40d863b4e1dc6a0da2af39d922b90efe8d497d05055db5591cee42bab1", True),
    (("iterate", "--alpha", "4/5", "--point", "(1/3,1/7)", "--n", "12"),
     "5df88ba6839e8bcfd523f1b06f426a1bfe951d411b8f1b6f847d17d1333d0d30", True),
    (("iterate", "--alpha", "3/7", "--point", "(1/2,1/3)", "--n", "20"),
     "584bc4ebe1a90751e758d641642947be69a564fd4ab51653b3c934943c3ed741", True),
    (("tile", "--alpha", "4/5", "--seed", "P1"),
     "ea34a0b0c3968fdcf8a9f732ce6a16ff9281f6d453747574617558d12f6de820", True),
    (("tile", "--alpha", "11/12", "--seed", "C"),
     "c8b48e9001662fc77a397f9672e501cc00bc1896bd05bb0cb89a3484c66d12a1", True),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_python(code: str) -> list[str]:
    """The words that ``code`` prints, run by a fresh interpreter that
    imports pwrot from this tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(pwrot.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.split()


def test_python_dash_m_runs_the_command_line():
    env = dict(os.environ, PYTHONPATH=str(Path(pwrot.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "pwrot", "period", "--alpha", "4/5", "--point", "P0"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.split() == ["period", "1"]


def test_import_needs_only_the_standard_library():
    loaded = _fresh_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pwrot.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    assert "pwrot.cli" in loaded
    foreign = [name for name in loaded if name.split(".")[0] not in sys.stdlib_module_names
               and name.split(".")[0] != "pwrot"]
    assert foreign == []


def test_import_loads_no_introspection_modules():
    # the records are NamedTuples and plain classes: no dataclasses module,
    # nor the inspect, ast and dis that it imports, at every command's start
    loaded = _fresh_python("import sys, pwrot.cli\nprint('\\n'.join(sys.modules))\n")
    assert "pwrot.cli" in loaded
    assert [name for name in ("dataclasses", "inspect", "ast", "dis") if name in loaded] == []


class TestIterate:
    def test_golden_orbit_phi_format(self, capsys):
        code, out, _ = run(
            capsys, "iterate", "--alpha", "4/5", "--point", "Q", "--n", "10",
            "--format", "phi",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 11
        for i, line in enumerate(lines):
            idx, value, addr = line.split("\t")
            assert int(idx) == i
            assert value == GOLDEN_ITERATES_PHI[i]
        assert lines[0].endswith("\t0")   # Q starts on the line

    def test_json_digest(self, capsys, tmp_path):
        # the SHA-256 of the exact coefficient strings and shadows, taken
        # before the strings were written without Fraction objects
        target = tmp_path / "orbit.json"
        code, _, _ = run(
            capsys, "iterate", "--alpha", "3/7", "--point", "(1/3, 1/5)", "--n", "40",
            "--format", "json", "--out", str(target),
        )
        assert code == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "0c7a82d3b27c0bbdb29aaf497b2b6ac4e52abc654a454f3fe7688cc3cc122e39"
        )

    def test_svg_digest(self, capsys, tmp_path):
        # taken before the orbit scene lost its viewport and color knobs
        target = tmp_path / "orbit.svg"
        code, _, _ = run(
            capsys, "iterate", "--alpha", "4/5", "--point", "Q", "--n", "30",
            "--format", "svg", "--out", str(target),
        )
        assert code == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "369fd0a4818a5ae8aa5c594dcc366f452a3a7e9bfd315aac266563308dbe7e65"
        )

    def test_origin_one_step(self, capsys):
        code, out, _ = run(
            capsys, "iterate", "--alpha", "4/5", "--point", "(0,0)", "--n", "1",
            "--format", "coeff",
        )
        assert code == 0
        assert out.strip().splitlines()[1].split("\t")[1] == "z^6"  # -lambda

    def test_hexagon_center_closes(self, capsys):
        code, out, _ = run(
            capsys, "iterate", "--alpha", "11/12", "--point", "C", "--n", "20",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t")[1] == lines[20].split("\t")[1]

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "iterate", "--alpha", "4/5", "--point", "P0", "--n", "2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,re,im"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert abs(float(first[1]) - 0.5) < 1e-12

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(
            capsys, "iterate", "--alpha", "4/5", "--point", "(nope)", "--n", "1",
        )
        assert code == 4
        assert "error" in err

    def test_bad_alpha_exit_code(self, capsys):
        code, _, _ = run(capsys, "iterate", "--alpha", "5/10", "--point", "Q")
        assert code == 4

    @pytest.mark.parametrize("args", [
        ("scan", "--alpha", "4/5", "--grid", "1/0"),
        ("critical", "--alpha", "4/5", "--box", "0,0,1/0,1"),
        ("period", "--alpha", "4/5", "--point", "(1/0,2)"),
        ("period", "--alpha", "11/12", "--point", "[1,1/0,0,0]"),
        ("period", "--alpha", "4/5", "--point", "1/0+phi"),
        ("critical", "--alpha", "4/5", "--cap", "-1", "--depth", "2"),
    ])
    def test_zero_denominator_or_negative_cap_exit_code(self, capsys, args):
        code, out, err = run(capsys, *args)
        assert code == 4
        assert out == "" and err.startswith("error: ")

    def test_missing_alpha(self, capsys):
        code, _, err = run(capsys, "iterate", "--point", "Q")
        assert code == 4
        assert "--alpha" in err


class TestPeriod:
    def test_fixed_point(self, capsys):
        code, out, _ = run(
            capsys, "period", "--alpha", "4/5", "--point", "P0", "--budget", "10",
        )
        assert code == 0
        assert out.splitlines()[0] == "period 1"

    def test_budget_exhaustion_exit_two(self, capsys):
        code, out, _ = run(
            capsys, "period", "--alpha", "4/5", "--point", "P3",
            "--budget", "5",
        )
        assert code == 2
        assert "no exact return" in out


class TestTouchCap:
    """A touch list that reaches the kernels' cap is noted on stderr, and the
    command still exits 0; below the cap nothing changes.  The cap is
    shrunk in the pure kernel, whose TOUCH_CAP the compiled kernel mirrors."""

    PERIOD = ("period", "--alpha", "4/5", "--point", "(-1,0)", "--budget", "100")
    RETURNS = ("casestudy", "returns", "--n", "220")

    @pytest.fixture
    def cap(self, monkeypatch):
        monkeypatch.setenv("PWROT_PURE", "1")
        return lambda n: monkeypatch.setattr(_steppy, "TOUCH_CAP", n)

    def test_period_touches_at_the_cap(self, capsys, cap):
        # the orbit of (-1, 0) returns at 35 and touches the line at 0, 10,
        # 21 and 31
        _, full, _ = run(capsys, *self.PERIOD)
        assert [r.split("\t")[0].strip() for r in full.splitlines()[2:]] == ["0", "10", "21", "31"]
        for n in (3, 4):
            cap(n)
            code, out, err = run(capsys, *self.PERIOD)
            assert code == 0
            assert out.splitlines() == full.splitlines()[:2 + n]
            assert err == f"note: touch cap {n} reached; later critical-line touches not listed\n"
        cap(5)
        assert run(capsys, *self.PERIOD) == (0, full, "")

    def test_returns_at_the_cap(self, capsys, cap):
        _, full, _ = run(capsys, *self.RETURNS)
        assert len(full.splitlines()) == 12
        cap(5)
        code, out, err = run(capsys, *self.RETURNS)
        assert code == 0
        assert out.splitlines() == full.splitlines()[:6]
        assert err == "note: touch cap 5 reached; later critical-line touches not listed\n"
        cap(12)
        assert run(capsys, *self.RETURNS) == (0, full, "")

    def test_kernels_share_the_cap(self):
        source = Path(stepper.__file__).with_name("_stepkernel.c").read_text()
        assert f"TOUCH_CAP = {_steppy.TOUCH_CAP} " in source


class TestTile:
    def test_hexagon_text(self, capsys):
        code, out, _ = run(capsys, "tile", "--alpha", "11/12", "--seed", "C")
        assert code == 0
        assert "ell 20" in out
        assert "k 3" in out
        assert "sides 6" in out
        assert "regular False" in out
        assert out.count("~(") == 7  # center plus six vertices

    def test_json_has_exact_vertices(self, capsys):
        code, out, _ = run(
            capsys, "tile", "--alpha", "4/5", "--seed", "P1", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["ell"] == 7 and data["k"] == 5
        assert data["interior_period"] == 35
        assert len(data["vertices"]) == 5
        assert all(len(v) == 8 for v in data["vertices"])

    def test_svg_digest(self, capsys, tmp_path):
        target = tmp_path / "tile.svg"
        code, _, _ = run(
            capsys, "tile", "--alpha", "4/5", "--seed", "P1", "--format", "svg",
            "--out", str(target),
        )
        assert code == 0
        # taken before the SVG writers shared one polygon scene builder
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "729df6fcee340bd6a84cf9d1a4ba3f37246dc6163b0b20b57a502e9b03df82aa"
        )

    def test_svg_digest_exact_predicates(self, capsys, tmp_path, exact_predicates):
        self.test_svg_digest(capsys, tmp_path)

    def test_seed_on_line_is_bad_input(self, capsys):
        code, _, err = run(capsys, "tile", "--alpha", "4/5", "--seed", "Q")
        assert code == 4


class TestCritical:
    def test_text_dump(self, capsys):
        code, out, _ = run(
            capsys, "critical", "--alpha", "4/5", "--depth", "3",
            "--box=-2,-2,2,2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.split("\t")[0].isdigit() for line in lines)

    def test_svg_is_valid_xml(self, capsys, tmp_path):
        target = tmp_path / "crit.svg"
        code, _, _ = run(
            capsys, "critical", "--alpha", "11/12", "--depth", "6",
            "--box=-3,-3,3,3", "--format", "svg", "--out", str(target),
        )
        assert code == 0
        root = ET.parse(target).getroot()
        assert root.tag.endswith("svg")
        assert len(list(root)) > 3

    def test_empty_bundle_writes_nothing(self, capsys):
        code, out, _ = run(capsys, "critical", "--alpha", "4/5", "--depth", "0",
                           "--box=1,1,2,2")
        assert code == 0 and out == ""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_each_distinct_endpoint_is_formatted_once(self, capsys, monkeypatch, fmt):
        argv = ("--alpha", "4/5", "--depth", "8", "--box=-3,-3,3,3", "--direction", "both")
        args = build_parser().parse_args(["critical", *argv])
        bundle = critical_bundle(make_field(*parse_alpha(args.alpha)), args.depth,
                                 parse_box(args.box), direction=args.direction)
        ends = [(w.vec, w.den) for s in bundle.all_segments() for w in (s.a, s.b)]
        formatted = []
        coeff_strs = cli._coeff_strs
        monkeypatch.setattr(cli, "_coeff_strs", lambda z: formatted.append(z) or coeff_strs(z))
        code, _, _ = run(capsys, "critical", *argv, "--format", fmt)
        assert code == 0
        assert len(formatted) == len(set(ends)) < len(ends)

    def test_determinism(self, capsys):
        args = ("critical", "--alpha", "4/5", "--depth", "5", "--box=-2,-2,2,2",
                "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    # The digests are the SHA-256 of `pwrot critical ARGS --out FILE`, taken
    # before box clipping was decided by one enclosure per endpoint, so any
    # change in a segment, its order or its printed form fails here.
    @pytest.mark.parametrize("args, digest", CRITICAL_DIGESTS)
    def test_golden_digests(self, capsys, tmp_path, args, digest):
        target = tmp_path / "critical.out"
        code, _, _ = run(capsys, "critical", *args, "--out", str(target))
        assert code == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", CRITICAL_DIGESTS)
    def test_golden_digests_exact_enclosures(self, capsys, tmp_path, exact_enclosures, args,
                                             digest):
        # the same bytes when no enclosure decides a sign: every split, window
        # face and box face takes its exact test
        self.test_golden_digests(capsys, tmp_path, args, digest)

    # The JSON writer against the standard library's encoder on the dict the
    # writer stands for.
    @pytest.mark.parametrize("case, argv", [
        ("empty depth 0", ("--alpha", "4/5", "--depth", "3", "--box=-2,1/2,2,3")),
        ("truncated", ("--alpha", "4/5", "--depth", "10", "--box=-4,-4,4,4", "--cap", "10")),
        ("both", ("--alpha", "11/12", "--depth", "4", "--box=-1,-2,6,3", "--direction", "both")),
    ])
    def test_json_matches_the_standard_encoder(self, capsys, case, argv):
        code, out, _ = run(capsys, "critical", *argv, "--format", "json")
        assert code == 0
        args = build_parser().parse_args(["critical", *argv])
        bundle = critical_bundle(make_field(*parse_alpha(args.alpha)), args.depth,
                                 parse_box(args.box), direction=args.direction, cap=args.cap)
        data = [
            {
                "depth": layer.depth,
                "direction": layer.direction,
                "segments": [
                    {
                        "a": [str(c) for c in seg.a.coeffs],
                        "b": [str(c) for c in seg.b.coeffs],
                        "a_shadow": (seg.a.to_complex().real, seg.a.to_complex().imag),
                        "b_shadow": (seg.b.to_complex().real, seg.b.to_complex().imag),
                    }
                    for seg in layer.segments
                ],
            }
            for layer in bundle.layers
        ]
        assert out == json.dumps({"truncated": bundle.truncated, "layers": data}, indent=1) + "\n"
        covers = {
            "empty depth 0": bundle.layers[0].segments == () and bundle.all_segments() != [],
            "truncated": bundle.truncated,
            "both": {layer.direction for layer in bundle.layers} == {"pullback", "forward"},
        }
        assert covers[case]


class TestScan:
    def test_csv_and_sidecar(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "scan", "--alpha", "4/5", "--box=-1,-1,1,1",
            "--grid", "1/2", "--budget", "2000", "--out", str(target),
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("tile,ell,k,sides,regular")
        assert len(lines) > 1
        sidecar = json.loads((tmp_path / "scan.json").read_text())
        assert sidecar["outcomes"]["period"] > 0
        assert sidecar["tiles"]

    def test_csv_out_named_like_its_sidecar_is_bad_input(self, capsys, tmp_path):
        # the sidecar goes to --out with the suffix .json, which would be the
        # CSV's own path: refuse before writing either
        target = tmp_path / "scan.json"
        code, out, err = run(
            capsys, "scan", "--alpha", "4/5", "--box=-1,-1,1,1", "--grid", "1/2",
            "--budget", "2000", "--out", str(target),
        )
        assert code == 4
        assert out == "" and str(target) in err and "sidecar" in err
        assert list(tmp_path.iterdir()) == []
        # the same name is fine for the JSON format, which has no sidecar
        code, _, _ = run(
            capsys, "scan", "--alpha", "4/5", "--box=-1,-1,1,1", "--grid", "1/2",
            "--budget", "2000", "--format", "json", "--out", str(target),
        )
        assert code == 0
        assert json.loads(target.read_text())["tiles"]

    def test_svg_digest(self, capsys, tmp_path):
        # taken before the tiles scene was built through the polygon scene
        target = tmp_path / "scan.svg"
        code, _, _ = run(
            capsys, "scan", "--alpha", "4/5", "--box=-3,-3,3,3", "--grid", "1",
            "--budget", "3000", "--format", "svg", "--out", str(target),
        )
        assert code == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "ced5f148b7efedf0ca18a75137f2ce46c33c124b89efcd2bc7acd7a13680b0bd"
        )
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("grid", ["0", "abc"])
    def test_bad_grid_is_bad_input(self, capsys, grid):
        code, out, err = run(
            capsys, "scan", "--alpha", "4/5", "--box=-1,-1,1,1", "--grid", grid,
        )
        assert code == 4
        assert out == "" and err.startswith("error: ")

    def test_negative_max_tile_period_is_bad_input(self, capsys):
        code, out, err = run(capsys, "scan", "--alpha", "4/5", "--max-tile-period", "-1")
        assert code == 4
        assert out == "" and "max_tile_period" in err

    # The three tile-scan grids of the benchmark and the README scan.  The
    # digests are the SHA-256 of the CSV and of its JSON sidecar as written
    # by `pwrot scan --alpha A --box=B --grid G --budget N --out scan.csv`
    # (`sha256sum scan.csv scan.json`), the first three taken before
    # half-plane intersection moved to the integer direction grid, the
    # README scan's before the tile build's predicates were decided by
    # integer enclosures, so any change in tile vertices, vertex order or
    # canonical start fails here.
    @pytest.mark.parametrize("alpha, box, grid, budget, csv_digest, json_digest", SCAN_DIGESTS)
    def test_golden_digests(self, capsys, tmp_path, alpha, box, grid, budget,
                            csv_digest, json_digest):
        target = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "scan", "--alpha", alpha, f"--box={box}", "--grid", grid,
            "--budget", str(budget), "--out", str(target),
        )
        assert code == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256((tmp_path / "scan.json").read_bytes()).hexdigest() == json_digest

    @pytest.mark.parametrize("alpha, box, grid, budget, csv_digest, json_digest", SCAN_DIGESTS)
    def test_golden_digests_pure_kernel(self, capsys, tmp_path, monkeypatch, alpha, box, grid,
                                        budget, csv_digest, json_digest):
        # the same bytes when every walk runs on the pure kernel
        monkeypatch.setenv("PWROT_PURE", "1")
        self.test_golden_digests(capsys, tmp_path, alpha, box, grid, budget, csv_digest,
                                 json_digest)

    @pytest.mark.parametrize("alpha, box, grid, budget, csv_digest, json_digest", SCAN_DIGESTS)
    def test_golden_digests_exact_enclosures(self, capsys, tmp_path, exact_enclosures, alpha,
                                             box, grid, budget, csv_digest, json_digest):
        # the same bytes when no enclosure decides a sign: every offset,
        # vertex and point the tile build encloses takes its exact test
        self.test_golden_digests(capsys, tmp_path, alpha, box, grid, budget, csv_digest,
                                 json_digest)

    @pytest.mark.parametrize("alpha, box, grid, budget, csv_digest, json_digest", SCAN_DIGESTS)
    def test_golden_digests_exact_predicates(self, capsys, tmp_path, exact_predicates, alpha,
                                             box, grid, budget, csv_digest, json_digest):
        # the same bytes when no enclosure decides a predicate: every side,
        # strip, binding, turn and point-order test of every tile build takes
        # its exact test
        self.test_golden_digests(capsys, tmp_path, alpha, box, grid, budget, csv_digest,
                                 json_digest)


# Scans for the writers: every acceptance grid, one with an empty histogram
# and no tile, and one whose --max-tile-period drops the period-85 tiles.
# (case, alpha, box, grid, budget, max tile period)
WRITER_SCANS = [
    (f"acceptance {label}", f"{p}/{q}", f"{box.x0},{box.y0},{box.x1},{box.y1}", str(grid),
     budget, None)
    for label, ((p, q), box, grid, budget) in SCANS.items()
] + [
    ("empty", "4/5", "-1,-1,1,1", "1", 3, None),
    ("filtered", "4/5", "-3,-3,3,3", "1", 3000, 30),
]


class TestJsonWriters:
    """Each JSON writer against ``json.dumps(data, indent=1) + "\\n"`` on the
    dict it stands for (tests/jsonref.py), byte for byte, and a scan's CSV
    against the CSV read from those dicts."""

    @pytest.mark.parametrize("case, alpha, box, grid, budget, cap", WRITER_SCANS)
    def test_scan(self, capsys, tmp_path, case, alpha, box, grid, budget, cap):
        argv = ["scan", "--alpha", alpha, f"--box={box}", "--grid", grid, "--budget", str(budget)]
        if cap is not None:
            argv += ["--max-tile-period", str(cap)]
        target = tmp_path / "scan.csv"
        assert run(capsys, *argv, "--out", str(target))[0] == 0
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        report = scan_region(make_field(*parse_alpha(alpha)), parse_box(box), Fraction(grid),
                             budget, max_tile_period=cap)
        sidecar = scan_sidecar(report)
        assert out == (tmp_path / "scan.json").read_text() == json.dumps(sidecar, indent=1) + "\n"
        assert target.read_text() == scan_csv(report)
        periods = [t["interior_period"] for t in sidecar["tiles"]]
        if case == "empty":
            assert sidecar["histogram"] == {} and periods == []
        elif case == "filtered":
            assert periods and max(periods) <= cap < max(map(int, sidecar["histogram"]))
        else:
            assert len(periods) >= 5

    def test_scan_csv_on_stdout_writes_no_json(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_scan_json", None)
        code, out, _ = run(capsys, "scan", "--alpha", "11/12", "--box=-1,-1,3,2", "--grid", "1",
                           "--budget", "1000")
        assert code == 0
        report = scan_region(make_field(11, 12), parse_box("-1,-1,3,2"), 1, 1000)
        assert out == scan_csv(report) and report.tiles

    @pytest.mark.parametrize("alpha, seed", [("4/5", "P1"), ("11/12", "C")])
    def test_tile(self, capsys, alpha, seed):
        code, out, _ = run(capsys, "tile", "--alpha", alpha, "--seed", seed, "--format", "json")
        assert code == 0
        tile = tile_from_seed(parse_point(seed, make_field(*parse_alpha(alpha))), 100000)
        assert out == json.dumps(tile_dict(tile), indent=1) + "\n"

    @pytest.mark.parametrize("n", [0, 10])
    def test_iterate(self, capsys, n):
        code, out, _ = run(capsys, "iterate", "--alpha", "4/5", "--point", "(1/3,1/7)", "--n",
                           str(n), "--format", "json")
        assert code == 0
        points = orbit(parse_point("(1/3,1/7)", make_field(4, 5)), n)
        assert out == json.dumps(orbit_dict("4/5", points), indent=1) + "\n"

    def test_iterate_on_the_line(self, capsys):
        # Q lies on the line and its orbit meets both half planes: all three
        # branch texts
        code, out, _ = run(capsys, "iterate", "--alpha", "4/5", "--point", "Q", "--n", "6",
                           "--format", "json")
        assert code == 0
        data = orbit_dict("4/5", orbit(parse_point("Q", make_field(4, 5)), 6))
        assert {p["address"] for p in data["orbit"]} == {"-", "0", "+"}
        assert out == json.dumps(data, indent=1) + "\n"


class TestCasestudy:
    def test_golden_table(self, capsys):
        code, out, _ = run(capsys, "casestudy", "golden", "--table", "--max-n", "4")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [int(r.split("\t")[1]) for r in rows] == [1, 7, 38, 232, 1388]

    def test_returns(self, capsys):
        code, out, _ = run(capsys, "casestudy", "returns", "--n", "220")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [int(r.split("\t")[0]) for r in rows] == [
            0, 3, 10, 15, 38, 48, 53, 78, 83, 93, 220,
        ]
        assert rows[-1].split("\t")[1] == "-10 + 7*phi"

    def test_hexagon(self, capsys):
        code, out, _ = run(capsys, "casestudy", "hexagon")
        assert code == 0
        assert "all checks passed" in out

    @pytest.mark.parametrize("args", [
        ("returns", "--n", "-1"),
        ("golden", "--max-n", "-1"),
    ])
    def test_negative_size_is_bad_input(self, capsys, args):
        code, out, err = run(capsys, "casestudy", *args)
        assert code == 4
        assert out == "" and err.startswith("error: ")

    def test_hexagon_budget_exhaustion_exit_two(self, capsys):
        code, out, err = run(capsys, "casestudy", "hexagon", "--budget", "19")
        assert code == 2
        assert out == "" and "within budget 19" in err

    def test_hexagon_failed_check_exit_three(self, capsys, monkeypatch):
        monkeypatch.setattr(casestudy, "polygon_is_regular", lambda polygon: True)
        code, out, _ = run(capsys, "casestudy", "hexagon")
        assert code == 3
        assert "[FAIL] hexagon is not regular" in out and "result: FALSIFIED" in out

    def test_hexagon_svg(self, capsys, tmp_path):
        target = tmp_path / "hexagon.svg"
        code, _, _ = run(capsys, "casestudy", "hexagon", "--svg", str(target))
        assert code == 0
        # taken before the SVG writers shared one polygon scene builder
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "f01209b726dea633ba648382fb3177ad94e11c3ca582c3e654b61d377f6692e4"
        )

    def test_hexagon_svg_draws_the_checked_tile(self, capsys, tmp_path, monkeypatch):
        # the figure draws the tile the report checked, built once within
        # --budget, with the bytes pinned above
        budgets = []

        def counted(z, budget):
            budgets.append(budget)
            return tile_from_seed(z, budget)

        monkeypatch.setattr(casestudy, "tile_from_seed", counted)
        monkeypatch.setattr(cli, "tile_from_seed", counted)
        target = tmp_path / "hexagon.svg"
        code, _, _ = run(capsys, "casestudy", "hexagon", "--budget", "50", "--svg", str(target))
        assert code == 0 and budgets == [50]
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "f01209b726dea633ba648382fb3177ad94e11c3ca582c3e654b61d377f6692e4"
        )

    def test_golden_svg(self, capsys, tmp_path):
        target = tmp_path / "fig.svg"
        code, _, _ = run(
            capsys, "casestudy", "golden", "--max-n", "2", "--svg", str(target),
        )
        assert code == 0
        assert ET.parse(target).getroot().tag.endswith("svg")
        # taken before the SVG writers shared one segment scene builder
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "9205f0fec3d28610175ec8f557d3c9fed8e252f94076639c96aecc3e164c96b6"
        )

    @pytest.mark.parametrize("args", [
        ("golden", "--max-n", "3", "--budget", "100"),
        ("hexagon",),
    ])
    def test_unwritable_svg_prints_nothing(self, capsys, tmp_path, args):
        code, out, err = run(capsys, "casestudy", *args, "--svg", str(tmp_path / "no" / "x.svg"))
        assert code == 4
        assert out == "" and err.startswith("error: ")

    def test_svg_keeps_the_budget_verdict(self, capsys, tmp_path):
        target = tmp_path / "fig.svg"
        code, out, _ = run(capsys, "casestudy", "golden", "--max-n", "3", "--budget", "100",
                           "--svg", str(target))
        assert code == 2 and target.exists()
        rows = out.strip().splitlines()
        assert rows[0] == "n\tperiod\tcenter"
        assert [r.split("\t")[1] for r in rows[1:]] == ["1", "7", "38", "> 100"]

    def test_golden_svg_pure_kernel(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PWROT_PURE", "1")
        self.test_golden_svg(capsys, tmp_path)


class TestFormatDigests:
    @pytest.mark.parametrize("args, digest", [e[:2] for e in FORMAT_DIGESTS])
    def test_digests(self, capsys, args, digest):
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", [e[:2] for e in FORMAT_DIGESTS if e[2]])
    def test_digests_pure_kernel(self, capsys, monkeypatch, args, digest):
        monkeypatch.setenv("PWROT_PURE", "1")
        self.test_digests(capsys, args, digest)

    @pytest.mark.parametrize("args, digest", [e[:2] for e in FORMAT_DIGESTS if e[0][0] == "tile"])
    def test_tile_digests_exact_predicates(self, capsys, exact_predicates, args, digest):
        self.test_digests(capsys, args, digest)


class TestVerify:
    def test_p1_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--alpha", "4/5", "--seed", "P1", "--budget", "100",
        )
        assert code == 0
        assert "all checks passed" in out
        assert "FALSIFIED" not in out

    def test_hexagon_center(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--alpha", "11/12", "--seed", "C", "--budget", "100",
        )
        assert code == 0

    def test_negative_samples_is_bad_input(self, capsys):
        code, out, err = run(
            capsys, "verify", "--alpha", "4/5", "--seed", "P1", "--samples", "-1",
        )
        assert code == 4
        assert out == "" and "samples" in err

    def test_failed_check_exits_three(self, capsys, monkeypatch):
        # exit code 3 is the verdict of the reports, which the command prints
        verify_polygon_bounds = cli.verify_polygon_bounds

        def failing(tile):
            report = verify_polygon_bounds(tile)
            report.record("forced failure", False, "recorded by the test")
            return report

        monkeypatch.setattr(cli, "verify_polygon_bounds", failing)
        code, out, _ = run(
            capsys, "verify", "--alpha", "4/5", "--seed", "P1", "--budget", "100",
        )
        assert code == 3
        assert "[FAIL] forced failure" in out and "result: FALSIFIED" in out


class TestBadPaths:
    """A path that cannot be written or read is bad input: exit 4 and one
    ``error:`` line, not a traceback."""

    def test_out_in_a_missing_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "period", "--alpha", "4/5", "--point", "P0",
                             "--out", str(tmp_path / "absent" / "x.txt"))
        assert code == 4
        assert out == "" and err.startswith("error: ") and "absent" in err

    def test_unwritable_scan_sidecar(self, capsys, tmp_path):
        (tmp_path / "scan.json").mkdir()
        code, _, err = run(capsys, "scan", "--alpha", "4/5", "--box=-1,-1,1,1", "--grid", "1/2",
                           "--budget", "2000", "--out", str(tmp_path / "scan.csv"))
        assert code == 4
        assert err.startswith("error: ") and "scan.json" in err

    def test_svg_in_a_missing_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "casestudy", "hexagon", "--svg",
                           str(tmp_path / "absent" / "hex.svg"))
        assert code == 4
        assert err.startswith("error: ") and "hex.svg" in err

    def test_config_that_is_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "iterate", "--alpha", "4/5", "--point", "P0",
                             "--config", str(tmp_path))
        assert code == 4
        assert out == "" and err.startswith("error: config file")

    def test_config_that_is_not_utf8(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_bytes(b"alpha = 4/5\nn = \xff\n")
        code, out, err = run(capsys, "iterate", "--point", "P0", "--config", str(cfg))
        assert code == 4
        assert out == "" and err.startswith("error: config file")


class TestConfig:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("alpha = 4/5\nn = 3\n")
        code, out, _ = run(
            capsys, "iterate", "--config", str(cfg), "--point", "P0",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("alpha = 11/12\n")
        code, out, _ = run(
            capsys, "iterate", "--config", str(cfg), "--alpha", "4/5",
            "--point", "Q", "--n", "1", "--format", "phi",
        )
        assert code == 0
        assert out.splitlines()[0].split("\t")[1] == "-phi"

    def test_missing_config_is_bad_input(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "iterate", "--config", str(tmp_path / "absent"),
            "--alpha", "4/5", "--point", "Q",
        )
        assert code == 4

    def test_config_sets_options_that_have_defaults(self, capsys, tmp_path):
        # format and direction have defaults, which once kept the file's values
        cfg = tmp_path / "cfg"
        cfg.write_text("alpha=4/5\ndepth=2\nbox=-1,-1,1,1\nformat=json\ndirection=forward\n")
        code, out, _ = run(capsys, "critical", "--config", str(cfg))
        assert code == 0
        assert [layer["direction"] for layer in json.loads(out)["layers"]] == ["forward"] * 3
        code, out, _ = run(capsys, "critical", "--config", str(cfg), "--format", "text")
        assert code == 0 and out.startswith("0\t[")

    def test_config_switch(self, capsys, tmp_path):
        # "merge = true" acts as --merge, and "merge = false" as no flag: the
        # bytes of the pinned CRITICAL_DIGESTS entries with and without it
        (merged, merged_digest), (plain, plain_digest) = CRITICAL_DIGESTS[4], CRITICAL_DIGESTS[3]
        assert merged[:-1] == plain and plain[-2:] == ("--format", "svg")
        cfg, target = tmp_path / "cfg", tmp_path / "critical.svg"
        for value, digest in (("true", merged_digest), ("false", plain_digest)):
            cfg.write_text(f"merge = {value}\nformat = svg\n")
            code, _, _ = run(capsys, "critical", "--config", str(cfg), *plain[:-2],
                             "--out", str(target))
            assert code == 0
            assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    def test_bad_config_value_names_its_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        for line, key in [("format = xml", "--format"), ("merge = maybe", "merge")]:
            cfg.write_text(f"alpha = 4/5\n{line}\n")
            code, out, err = run(capsys, "critical", "--config", str(cfg))
            assert code == 4
            assert out == "" and key in err

    def test_keys_the_command_lacks_are_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("alpha = 4/5\nn = 3\ndepth = x\nwhich = golden\nconfig = absent\n")
        code, out, _ = run(capsys, "iterate", "--config", str(cfg), "--point", "P0")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_non_integer_config_value_is_bad_input(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("alpha = 4/5\nn = x\n")
        code, out, err = run(capsys, "iterate", "--config", str(cfg), "--point", "Q")
        assert code == 4
        assert out == "" and "n" in err
