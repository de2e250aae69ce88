import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import pwrot
from pwrot import geometry
from pwrot.cli import main

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
# the benchmark, a text dump, and an SVG with and without --merge; see
# TestCritical.test_golden_digests.
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


@pytest.fixture
def exact_predicates(monkeypatch):
    """No integer enclosure decides a predicate of the tile build, so each
    takes its exact test."""
    monkeypatch.setattr(geometry, "_decide", lambda t, err: None)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_needs_only_the_standard_library():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pwrot.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pwrot.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded = proc.stdout.split()
    assert "pwrot.cli" in loaded
    foreign = [name for name in loaded if name.split(".")[0] not in sys.stdlib_module_names
               and name.split(".")[0] != "pwrot"]
    assert foreign == []


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
    def test_golden_digests_exact_predicates(self, capsys, tmp_path, exact_predicates, alpha,
                                             box, grid, budget, csv_digest, json_digest):
        # the same bytes when no enclosure decides a predicate: every side,
        # strip, binding, turn and point-order test of every tile build takes
        # its exact test
        self.test_golden_digests(capsys, tmp_path, alpha, box, grid, budget, csv_digest,
                                 json_digest)


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

    def test_hexagon_svg(self, capsys, tmp_path):
        target = tmp_path / "hexagon.svg"
        code, _, _ = run(capsys, "casestudy", "hexagon", "--svg", str(target))
        assert code == 0
        # taken before the SVG writers shared one polygon scene builder
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
