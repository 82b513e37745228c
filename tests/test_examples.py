"""Every example script must run end to end.

Examples are executed in-process (import + ``main()``) with arguments
trimmed to test-friendly sizes where they support it.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(
        "example_" + name.replace(".py", ""), str(path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        module.main()
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    run_example("quickstart.py", [])
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "all entries match the paper" in out


def test_music_player(capsys):
    run_example("music_player.py", [])
    out = capsys.readouterr().out
    assert "Architecture comparison" in out
    assert "registration" in out


def test_ringtone(capsys):
    run_example("ringtone.py", ["--calls", "1"])
    out = capsys.readouterr().out
    assert "paper: 3 + 4" in out


def test_domain_sharing(capsys):
    run_example("domain_sharing.py", [])
    out = capsys.readouterr().out
    assert "shared domain key" in out
    assert "Outsider rejected" in out


def test_architecture_explorer(capsys):
    run_example("architecture_explorer.py", [])
    out = capsys.readouterr().out
    assert "partitioning explorer" in out
    assert "ringtone-like" in out


def test_battery_life(capsys):
    run_example("battery_life.py", [])
    out = capsys.readouterr().out
    assert "workloads/charge" in out


def test_wire_capture(capsys):
    run_example("wire_capture.py", [])
    out = capsys.readouterr().out
    assert "ROAP wire capture" in out
    assert "total traffic" in out


def test_lossy_channel(capsys):
    run_example("lossy_channel.py", ["--rsa-bits", "512"])
    out = capsys.readouterr().out
    assert "lossy bearer" in out
    assert "ok" in out
    assert "crypto SW [ms]" in out


def test_fleet_million(capsys):
    run_example("fleet_million.py",
                ["--devices", "1000", "--workers", "2",
                 "--rsa-bits", "512", "--seed", "example-fleet"])
    out = capsys.readouterr().out
    assert "simulated 1000 devices" in out
    assert "Rights Issuer load" in out
    assert "bit-identical to 2-worker run: yes" in out
