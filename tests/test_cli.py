"""Command line entry points."""

from __future__ import annotations

import hashlib

import pytest

from vodsim import cli
from vodsim.cli import main

CONF = """
horizon = 150
seed = 3
num_videos = 120
cache_capacity = 40
"""


def write_conf(tmp_path, text=CONF):
    path = tmp_path / "small.conf"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_requires_subcommand():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_run_writes_reports(tmp_path, capsys):
    conf = write_conf(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", conf, "--out", str(out)]) == 0
    files = sorted(path.name for path in out.iterdir())
    assert len(files) == 14
    assert "summary.txt" in files
    printed = capsys.readouterr().out
    assert "wrote 14 files" in printed


def test_run_no_psg_flag(tmp_path):
    conf = write_conf(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", conf, "--no-psg", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "psg_enabled=False" in summary
    assert "served_lps=0" in summary


def test_run_seed_override_changes_output(tmp_path):
    conf = write_conf(tmp_path)
    main(["run", "--config", conf, "--out", str(tmp_path / "a")])
    main(["run", "--config", conf, "--seed", "77", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "summary.txt").read_text()
    b = (tmp_path / "b" / "summary.txt").read_text()
    assert "seed=3" in a
    assert "seed=77" in b
    assert a != b


def test_compare_emits_both_columns(tmp_path, capsys):
    conf = write_conf(tmp_path)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", conf, "--out", str(out)]) == 0
    lines = (out / "rejections.csv").read_text().splitlines()
    assert lines[0] == "metric,with_psg,without_psg"
    printed = capsys.readouterr().out
    assert "with sharing" in printed
    assert "without sharing" in printed


def test_compare_columns_are_the_run_and_no_psg_run(tmp_path):
    conf = write_conf(tmp_path)
    for name, argv in (("cmp", ["compare"]), ("on", ["run"]), ("off", ["run", "--no-psg"])):
        assert main([*argv, "--config", conf, "--rate", "4", "--out", str(tmp_path / name)]) == 0

    def rows(name):
        lines = (tmp_path / name / "rejections.csv").read_text(encoding="utf-8").splitlines()
        return [line.split(",") for line in lines[1:]]

    compared = rows("cmp")
    assert [[metric, with_psg] for metric, with_psg, _ in compared] == rows("on")
    assert [[metric, without] for metric, _, without in compared] == rows("off")
    assert rows("on") != rows("off")


def test_sweep_writes_table(tmp_path):
    conf = write_conf(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", conf, "--scales", "0.5,1", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("rate_scale,total_arrival_rate,")
    assert len(lines) == 3
    assert lines[1].startswith("0.500000,")


def test_bad_config_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("num_proxies = 1\n", encoding="utf-8")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_bad_sweep_scales(tmp_path, capsys):
    code = main(["sweep", "--scales", " , ", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "no rate scales" in capsys.readouterr().err


def test_non_finite_horizon_reports_error(tmp_path, capsys):
    code = main(["run", "--horizon", "nan", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("scales", ["abc", "1,-1"])
def test_bad_sweep_scale_fails_before_any_run(tmp_path, capsys, scales):
    code = main(["sweep", "--scales", scales, "--horizon", "50", "--out", str(tmp_path / "x")])
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "scale 1" not in captured.out
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_out_that_is_a_file_fails_before_any_run(command, tmp_path, capsys, monkeypatch):
    def no_run(config):
        raise AssertionError(f"{command} started a run")

    monkeypatch.setattr(cli, "run", no_run)
    monkeypatch.setattr(cli, "baseline_no_psg", no_run)
    afile = tmp_path / "afile"
    afile.write_text("kept\n", encoding="utf-8")
    for out in (afile, afile / "reports"):
        code = main([command, "--horizon", "50", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "not a directory" in captured.err
        assert captured.out == ""
    assert afile.read_text(encoding="utf-8") == "kept\n"


# Reference SHA-256 of the report directories of ``compare`` (with its
# sharing-off baseline and its drain), ``sweep`` and two ``run`` cases
# the benchmark's report digests do not cover.  Each hashes every file in
# name order as "name\nlength\n" then its bytes.  A change to any report
# byte of any of these commands changes its digest.
GOLDEN = {
    "compare": (["compare", "--seed", "1", "--horizon", "500"],
                "a1a52c5866dd603455ee9f56ab88b12e1afc90528c622835df54fd388f70007d"),
    "sweep": (["sweep", "--seed", "1", "--scales", "0.25,1", "--horizon", "500"],
              "f462c5c127226a7a951393e054908ff79089fa7fc61a131eccacc5c6a01dc44e"),
    # x16 load: caches run over capacity and shrink back as streams close
    "run_x16": (["run", "--seed", "1", "--rate", "16", "--horizon", "500"],
                "c28295bb80674c4b5c51f5f1d97e6a6d809d5dedf4576de4d6cbba4f8d213820"),
    # sharing off: every miss goes to the central link
    "run_no_psg": (["run", "--seed", "1", "--horizon", "500", "--no-psg"],
                   "e21a2a35c8655d094d3850780a65ada027ceb798392bd82492a90162f8203c79"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_reports_match_golden_digest(command, tmp_path):
    argv, expected = GOLDEN[command]
    out = tmp_path / command
    assert main([*argv, "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        digest.update(f"{path.name}\n{len(data)}\n".encode())
        digest.update(data)
    assert digest.hexdigest() == expected
