"""End-to-end tests of the command-line surface and its exit codes."""

import argparse
import csv
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reproguard import cli, container, hyperprior, octree, platform_sim
from reproguard.safeguard import GuardMode


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def small_ply(tmp_path):
    path = tmp_path / "cloud.ply"
    assert run("synth-pc", "--kind", "dense", "--depth", "8", "--count", "5000",
               "--seed", "3", "--out", str(path)) == 0
    return path


class TestEncodeDecode:
    def test_exact_roundtrip_under_noise(self, small_ply, tmp_path, capsys):
        rgd = tmp_path / "c.rgd"
        assert run("encode-pc", "--input", str(small_ply), "--output", str(rgd),
                   "--epsilon", "1e-6", "--k", "250") == 0
        out = capsys.readouterr().out
        assert "overhead" in out and "bpp" in out
        for seed in ("1", "2"):
            code = run("decode-pc", "--input", str(rgd), "--expect", str(small_ply),
                       "--perturb-e", "5e-7", "--perturb-seed", seed)
            assert code == 0
            assert "EXACT" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["full", "center"])
    def test_mode_option_names_the_stream_mode(self, name, small_ply, tmp_path, capsys):
        rgd = tmp_path / "c.rgd"
        assert run("encode-pc", "--input", str(small_ply), "--output", str(rgd),
                   "--mode", name) == 0
        assert container.read_file(rgd).mode is GuardMode[name.upper()]
        assert run("decode-pc", "--input", str(rgd), "--expect", str(small_ply),
                   "--perturb-e", "5e-7") == 0
        assert "EXACT" in capsys.readouterr().out

    def test_zero_perturbation_is_exact(self, small_ply, tmp_path, capsys):
        rgd = tmp_path / "c.rgd"
        run("encode-pc", "--input", str(small_ply), "--output", str(rgd))
        assert run("decode-pc", "--input", str(rgd), "--expect", str(small_ply),
                   "--perturb-e", "0") == 0
        assert "EXACT" in capsys.readouterr().out

    def test_decode_writes_ply(self, small_ply, tmp_path):
        rgd = tmp_path / "c.rgd"
        out_ply = tmp_path / "out.ply"
        run("encode-pc", "--input", str(small_ply), "--output", str(rgd))
        assert run("decode-pc", "--input", str(rgd), "--output", str(out_ply)) == 0
        a = octree.read_ply(small_ply)
        b = octree.read_ply(out_ply)
        assert np.array_equal(a.codes, b.codes)

    def test_unprotected_decode_breaks(self, tmp_path, capsys):
        ply = tmp_path / "big.ply"
        run("synth-pc", "--depth", "10", "--count", "20000", "--seed", "7",
            "--out", str(ply))
        rgd = tmp_path / "c.rgd"
        assert run("encode-pc", "--input", str(ply), "--output", str(rgd),
                   "--no-protect") == 0
        capsys.readouterr()
        code = run("decode-pc", "--input", str(rgd), "--expect", str(ply),
                   "--perturb-e", "5e-7", "--perturb-dist", "adversarial")
        out = capsys.readouterr().out
        assert code in (cli.EXIT_MISMATCH, cli.EXIT_MALFORMED)
        assert "DECODE MISMATCH" in out or "DECODE FAILURE" in out

    def test_epsilon_too_wide_for_k(self, small_ply, tmp_path):
        assert run("encode-pc", "--input", str(small_ply),
                   "--output", str(tmp_path / "x.rgd"),
                   "--epsilon", "0.002", "--k", "250") == cli.EXIT_CONFIG

    def test_missing_input_file(self, tmp_path):
        assert run("encode-pc", "--input", str(tmp_path / "nope.ply"),
                   "--output", str(tmp_path / "x.rgd")) == cli.EXIT_IO

    def test_bad_ply_is_a_parse_error(self, tmp_path):
        bad = tmp_path / "bad.ply"
        bad.write_text("ply\nformat ascii 1.0\nelement vertex 1\n0 0 0\n")
        assert run("encode-pc", "--input", str(bad),
                   "--output", str(tmp_path / "x.rgd")) == cli.EXIT_PARSE

    def test_negative_vertex_count_is_a_parse_error(self, tmp_path):
        bad = tmp_path / "bad.ply"
        bad.write_text("ply\nformat ascii 1.0\ncomment bit_depth 4\n"
                       "element vertex -1\nproperty int x\nproperty int y\n"
                       "property int z\nend_header\n0 0 0\n")
        assert run("encode-pc", "--input", str(bad),
                   "--output", str(tmp_path / "x.rgd")) == cli.EXIT_PARSE

    def test_huge_vertex_count_is_a_parse_error(self, tmp_path):
        bad = tmp_path / "bad.ply"
        bad.write_text("ply\nformat ascii 1.0\ncomment bit_depth 4\n"
                       "element vertex 100000000000000\nproperty int x\n"
                       "property int y\nproperty int z\nend_header\n0 0 0\n")
        assert run("encode-pc", "--input", str(bad),
                   "--output", str(tmp_path / "x.rgd")) == cli.EXIT_PARSE

    def test_corrupt_container(self, small_ply, tmp_path):
        rgd = tmp_path / "c.rgd"
        run("encode-pc", "--input", str(small_ply), "--output", str(rgd))
        data = bytearray(rgd.read_bytes())
        data[0] ^= 0xFF
        rgd.write_bytes(bytes(data))
        assert run("decode-pc", "--input", str(rgd)) == cli.EXIT_MALFORMED


@pytest.mark.parametrize("case", ["synth-pc", "sweep", "encode-pc", "ply-comment"])
def test_negative_bit_depth_is_a_typed_error(case, small_ply, tmp_path, capsys):
    out = str(tmp_path / "out")
    neg = tmp_path / "neg.ply"
    neg.write_text(small_ply.read_text().replace("comment bit_depth 8",
                                                 "comment bit_depth -1"))
    argv = {
        "synth-pc": ["synth-pc", "--depth", "-1", "--out", out],
        "sweep": ["sweep", "--payload", "pc", "--epsilons", "1e-6", "--depth", "-1",
                  "--out", out],
        "encode-pc": ["encode-pc", "--input", str(small_ply), "--depth", "-1",
                      "--output", out],
        "ply-comment": ["encode-pc", "--input", str(neg), "--output", out],
    }[case]
    want = cli.EXIT_PARSE if case == "ply-comment" else cli.EXIT_CONFIG
    assert run(*argv) == want
    assert "bit depth -1 outside [1, 21]" in capsys.readouterr().err


class TestSweep:
    def test_pc_grid(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("sweep", "--payload", "pc", "--epsilons", "1e-5,1e-6",
                   "--ks", "250", "--seeds", "0", "--depth", "7",
                   "--count", "2000", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["epsilon"] for r in rows] == ["1e-05", "1e-06"]
        assert all(r["exact"] == "true" for r in rows)
        assert float(rows[0]["overhead_pct"]) > float(rows[1]["overhead_pct"])
        assert all(r["q"] == repr(1.0 / 250) for r in rows)

    def test_invalid_pair_becomes_skip_row(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("sweep", "--payload", "pc", "--epsilons", "0.002,1e-6",
                   "--ks", "250", "--seeds", "0", "--depth", "6",
                   "--count", "500", "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert "skipping" in err
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        skip = [r for r in rows if r["exact"].startswith("skipped:")]
        assert len(skip) == 1 and skip[0]["epsilon"] == "0.002"

    def test_zero_k_becomes_skip_row(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("sweep", "--payload", "pc", "--epsilons", "1e-6",
                   "--ks", "0", "--seeds", "0", "--out", str(out)) == 0
        assert "skipping k=0" in capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["exact"].startswith("skipped:")
        assert rows[0]["q"] == ""

    @pytest.mark.parametrize("k", ["-2", "-1"])
    def test_negative_k_skip_row_has_no_q(self, k, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("sweep", "--payload", "pc", "--epsilons", "1e-6",
                   "--ks", k, "--seeds", "0", "--out", str(out)) == 0
        assert f"skipping k={k}" in capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["exact"].startswith("skipped:")
        assert rows[0]["q"] == ""

    def test_skip_rows_name_their_grid(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("sweep", "--payload", "pc", "--epsilons", "1e-6",
                   "--ks", "0,-3", "--seeds", "0", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["exact"] for r in rows] == [
            "skipped: k=0 eps=1e-06: k must be a positive integer",
            "skipped: k=-3 eps=1e-06: k must be a positive integer",
        ]
        assert all(r["q"] == "" for r in rows)

    def test_empty_seeds_header_only(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("sweep", "--payload", "pc", "--epsilons", "1e-6",
                   "--ks", "250", "--seeds", "", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",") == cli._CSV_FIELDS

    @pytest.mark.parametrize("flag, value", [
        ("--epsilons", "abc"),
        ("--epsilons", "1e-6,x"),
        ("--ks", "x"),
        ("--ks", "250.5"),
        ("--seeds", "a"),
        ("--seeds", "0,1.5"),
    ])
    def test_bad_list_item_is_a_config_error(self, flag, value, tmp_path, capsys):
        argv = {"--epsilons": "1e-6", "--ks": "250", "--seeds": "0", flag: value}
        args = [a for item in argv.items() for a in item]
        assert run("sweep", "--payload", "pc", *args,
                   "--out", str(tmp_path / "s.csv")) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    def test_trailing_comma_is_skipped(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("sweep", "--payload", "pc", "--epsilons", "1e-6,", "--ks", "250,",
                   "--seeds", "0,", "--depth", "5", "--count", "200",
                   "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["epsilon"], r["seed"]) for r in rows] == [("1e-06", "0")]

    def test_seeds_sort_as_integers(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("sweep", "--payload", "pc", "--epsilons", "1e-6,0.002",
                   "--ks", "250", "--seeds", "10,2", "--depth", "5",
                   "--count", "200", "--out", str(out)) == 0
        assert "skipping" in capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["epsilon"], r["seed"]) for r in rows] == [
            ("0.002", ""), ("1e-06", "2"), ("1e-06", "10"),
        ]

    def test_image_payload(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("sweep", "--payload", "image", "--epsilons", "1e-4",
                   "--seeds", "0", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["payload"] == "image"
        # the step of the scale table on log sigma
        assert rows[0]["q"] == repr(hyperprior.default_scale_table().q)
        assert rows[0]["exact"] == "true"


class TestInterop:
    def test_in_contract_pc(self, capsys):
        assert run("interop", "--payload", "pc", "--trials", "3",
                   "--epsilon", "1e-6", "--e", "5e-7") == 0
        assert "exact 3/3" in capsys.readouterr().out

    def test_in_contract_image(self, capsys):
        assert run("interop", "--payload", "image", "--trials", "3",
                   "--epsilon", "1e-4", "--e", "8e-6") == 0
        assert "exact 3/3" in capsys.readouterr().out

    def test_zero_error_is_exact(self, capsys):
        assert run("interop", "--payload", "pc", "--trials", "2",
                   "--epsilon", "1e-6", "--e", "0") == 0
        assert "exact 2/2" in capsys.readouterr().out

    def test_out_of_contract_is_flagged_not_failed(self, capsys):
        code = run("interop", "--payload", "pc", "--trials", "3",
                   "--epsilon", "1e-7", "--e", "5e-7", "--dist", "adversarial")
        out = capsys.readouterr().out
        assert code == 0
        assert "[OUT OF CONTRACT]" in out


@pytest.mark.parametrize("argv", [
    ["interop", "--payload", "pc", "--trials", "-1"],
    ["interop", "--payload", "image", "--trials", "0"],
    ["demo-image", "--trials", "0"],
])
def test_no_trials_is_a_config_error(argv, capsys):
    assert run(*argv) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "exact" not in out and "--trials must be >= 1" in err


@pytest.mark.parametrize("case", ["decode-pc", "interop", "demo-image"])
def test_negative_drift_is_a_config_error(case, small_ply, tmp_path, capsys):
    rgd = tmp_path / "c.rgd"
    assert run("encode-pc", "--input", str(small_ply), "--output", str(rgd)) == 0
    capsys.readouterr()
    argv = {
        "decode-pc": ["decode-pc", "--input", str(rgd), "--perturb-e", "-1"],
        "interop": ["interop", "--payload", "pc", "--trials", "1", "--e", "-1"],
        "demo-image": ["demo-image", "--trials", "1", "--e", "-1"],
    }[case]
    assert run(*argv) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "exact" not in out and "EXACT" not in out
    assert "e_max must be finite and >= 0" in err


class TestDemoImage:
    def test_protected_exact(self, capsys):
        assert run("demo-image", "--trials", "2", "--epsilon", "1e-4",
                   "--e", "8e-6") == 0
        out = capsys.readouterr().out
        assert "exact 2/2" in out

    def test_unprotected_fails(self, capsys):
        code = run("demo-image", "--trials", "2", "--epsilon", "1e-4",
                   "--e", "8e-6", "--dist", "adversarial", "--no-protect")
        out = capsys.readouterr().out
        assert code == cli.EXIT_MISMATCH
        assert "MISMATCH" in out or "FAILURE" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "reproguard.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for sub in ("encode-pc", "decode-pc", "sweep", "interop", "demo-image"):
        assert sub in proc.stdout


# ---------------------------------------------------------------------------
# one list of guard modes: GuardMode, README's bullets and --mode's choices

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_modes_and_mode_choices_follow_guard_mode():
    names = [m.name.lower() for m in GuardMode]
    section = README.read_text(encoding="utf-8").split("\n## Protection modes\n")[1]
    section = section.split("\n## ")[0]
    assert re.findall(r"^- \*\*(\w+)\*\*:", section, re.MULTILINE) == names
    sub = next(
        a for a in cli._build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    mode = next(a for a in sub.choices["encode-pc"]._actions if a.dest == "mode")
    assert list(mode.choices) == names


@pytest.mark.parametrize(
    "command, dest",
    [("decode-pc", "perturb_dist"), ("interop", "dist"), ("demo-image", "dist")],
)
def test_drift_choices_are_platform_sims(command, dest):
    # one list of drift distributions; an e of 0 is the one spelling of none
    sub = next(
        a for a in cli._build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    dist = next(a for a in sub.choices[command]._actions if a.dest == dest)
    assert list(dist.choices) == list(platform_sim._DISTS)
    assert "none" not in dist.choices


def test_readme_exit_codes_are_the_cli_exit_codes():
    section = README.read_text(encoding="utf-8").split("\n### Exit codes\n")[1]
    section = section.split("\n#")[0]
    codes = [int(c) for c in re.findall(r"^\| (\d+) \|", section, re.MULTILINE)]
    assert codes == sorted(v for n, v in vars(cli).items() if n.startswith("EXIT_"))
