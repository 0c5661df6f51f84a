"""Command-line interface: subcommands, outputs, exit codes."""

import csv
import os

import numpy as np
import pytest

from tetmpm.cli import main
from tetmpm.constitutive import MaterialLaw, MaterialParams
from tetmpm.meshgen import box_mesh, rotated, rotation_x
from tetmpm.presets import DEFAULT_FRAMES, PRESETS
from tetmpm.scene import BodySpec, SceneConfig, parse_scene, write_scene


@pytest.fixture()
def tiny_scene(tmp_path):
    cube = BodySpec(mesh=box_mesh((0.1, 0.1, 0.1), (1, 1, 1), origin=(0.3, 0.3, 0.4)),
                    material=MaterialParams(law=MaterialLaw.NEOHOOKEAN,
                                            youngs_modulus=5e4, poisson_ratio=0.3,
                                            density=1000.0))
    cfg = SceneConfig(bodies=[cube], dt=2e-3, grid_spacing=0.05, grid_dims=(16, 16, 16))
    return write_scene(cfg, str(tmp_path / "scene"), name="tiny")


def test_presets_list(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out
        assert str(DEFAULT_FRAMES[name]) in out


def test_presets_write_round_trips(tmp_path, capsys):
    assert main(["presets", "write", "incline-slide", "--out", str(tmp_path)]) == 0
    path = os.path.join(str(tmp_path), "incline_slide.scene")
    assert os.path.exists(path)
    cfg = parse_scene(path)
    assert len(cfg.bodies) == 2
    assert cfg.bodies[0].kinematic and not cfg.bodies[1].kinematic


def test_presets_write_needs_name(capsys):
    assert main(["presets", "write"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_preset_fails_cleanly(tmp_path, capsys):
    code = main(["simulate", "preset:not-a-scene", "--frames", "1",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "unknown preset" in capsys.readouterr().err


def test_simulate_scene_file(tiny_scene, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["simulate", tiny_scene, "--frames", "3", "--out", out]) == 0
    assert "3 steps" in capsys.readouterr().out
    files = sorted(os.listdir(out))
    assert files == ["diagnostics.csv", "frame_0001.csv", "frame_0002.csv",
                     "frame_0003.csv"]
    with open(os.path.join(out, "diagnostics.csv")) as f:
        rows = list(csv.reader(f))
    assert len(rows) == 4  # header + 3 steps


def test_simulate_missing_scene(tmp_path, capsys):
    code = main(["simulate", str(tmp_path / "nope.scene"), "--frames", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_sweep_mu_writes_csv(tmp_path, capsys):
    angle = np.pi / 6
    R = rotation_x(-angle)
    slab = BodySpec(mesh=rotated(box_mesh((0.3, 0.9, 0.08), (1, 3, 1),
                                          origin=(-0.15, -0.2, -0.08)), R),
                    material=MaterialParams(), kinematic=True)
    block = BodySpec(mesh=rotated(box_mesh((0.1, 0.1, 0.1), (1, 1, 1),
                                           origin=(-0.05, 0.0, 0.002)), R),
                     material=MaterialParams(law=MaterialLaw.NEOHOOKEAN,
                                             youngs_modulus=5e4, poisson_ratio=0.3,
                                             density=1000.0))
    cfg = SceneConfig(bodies=[slab, block], dt=2e-3, grid_spacing=0.05,
                      grid_origin=(-0.3, -0.3, -0.35), grid_dims=(11, 18, 12))
    scene = write_scene(cfg, str(tmp_path / "scene"), name="mini_incline")
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep-mu", scene, "--mu", "0.0,0.8", "--frames", "20",
                 "--out", out]) == 0
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["mu", "mean_speed"]
    assert [float(r[0]) for r in rows[1:]] == [0.0, 0.8]
    float(rows[1][1]), float(rows[2][1])  # parseable speeds


def test_sweep_mu_rejects_empty_values(tiny_scene, tmp_path, capsys):
    code = main(["sweep-mu", tiny_scene, "--mu", ",", "--out",
                 str(tmp_path / "s.csv")])
    assert code == 1
    assert "at least one value" in capsys.readouterr().err
