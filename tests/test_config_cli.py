import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fringescale import (
    ConfigError,
    CwtParams,
    DemodParams,
    NoiseSpec,
    PhantomSpec,
    cwt_sweep,
    field_from_array,
    read_field,
    write_field,
)
from fringescale import cli, core, wft
from fringescale.cli import main
from fringescale.config import (
    SCHEMA,
    echo_text,
    parse_config_text,
    parse_override,
    resolve,
)
from fringescale.cwt import default_scale_grid
from fringescale.render import DEFAULT_CONTOUR_LEVELS


class TestParse:
    def test_basic_lines(self):
        v = parse_config_text("grid.width = 128\ncarrier.fx = 0.2\n")
        assert v == {"grid.width": 128, "carrier.fx": 0.2}

    def test_comments_and_blanks(self):
        text = "# full line\n\ngrid.width = 64  # trailing\n   \n"
        assert parse_config_text(text) == {"grid.width": 64}

    def test_hash_inside_a_value_is_kept(self):
        text = "out.dir = run#1/s\nrun.label = a#b # note\n#x = 1\n"
        assert parse_config_text(text) == {"out.dir": "run#1/s",
                                           "run.label": "a#b"}

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match=":3:.*grid.depth"):
            parse_config_text("\n\ngrid.depth = 3\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("grid.width = wide\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("grid.width 64\n")

    def test_bool_spellings(self):
        assert parse_config_text("render.enabled = off\n") == {"render.enabled": False}
        assert parse_config_text("render.enabled = YES\n") == {"render.enabled": True}
        with pytest.raises(ConfigError):
            parse_config_text("render.enabled = maybe\n")

    def test_float_list(self):
        v = parse_config_text("cwt.scales = 1, 2.5, 10\n")
        assert v["cwt.scales"] == (1.0, 2.5, 10.0)

    def test_override(self):
        assert parse_override("noise.seed=99") == ("noise.seed", 99)
        with pytest.raises(ConfigError):
            parse_override("noise.seed")
        with pytest.raises(ConfigError):
            parse_override("bogus.key=1")


class TestResolve:
    def test_defaults_materialize(self):
        rc = resolve({})
        assert rc.grid.width == 512 and rc.grid.height == 512
        assert rc.carrier.fx == 0.125
        # ridge band derives from the carrier frequency
        assert rc.demod.band_x == pytest.approx((0.025, 0.225))
        assert rc.raw["phantom.center_x"] == 256.0
        assert len(rc.cwt.scales) == 32
        assert rc.anchor is None
        assert rc.phantom is not None and rc.phantom.kind == "gaussian_plume"

    def test_defaults_are_the_librarys(self):
        rc = resolve({})
        plume = PhantomSpec(kind="gaussian_plume")
        assert (rc.phantom.peak, rc.phantom.widths) == (plume.peak, plume.widths)
        assert rc.noise == NoiseSpec()
        assert rc.demod == DemodParams.for_carrier(0.125)
        assert rc.cwt.threshold_fraction == CwtParams.threshold_fraction
        assert rc.contour_levels == DEFAULT_CONTOUR_LEVELS

    def test_band_follows_carrier(self):
        rc = resolve({"carrier.fx": 0.2})
        assert rc.demod.band_x == pytest.approx((0.1, 0.3))

    def test_explicit_band_wins(self):
        rc = resolve({"demod.band_x_lo": 0.05, "demod.band_x_hi": 0.3})
        assert rc.demod.band_x == (0.05, 0.3)

    def test_anchor_enabled_by_coords(self):
        rc = resolve({"demod.anchor_x0": 0, "demod.anchor_y0": 0,
                      "demod.anchor_w": 32, "demod.anchor_h": 32})
        assert rc.anchor == (0, 0, 32, 32)

    @pytest.mark.parametrize("values, match", [
        ({"demod.anchor_x0": 0}, "together"),
        ({"demod.anchor_y0": 5, "demod.anchor_w": 8, "demod.anchor_h": 8},
         "together"),
        ({"demod.anchor_x0": 0, "demod.anchor_y0": 0}, ">= 1"),
        ({"demod.anchor_x0": 0, "demod.anchor_y0": 0,
          "demod.anchor_w": 8, "demod.anchor_h": 0}, ">= 1"),
        ({"grid.width": 64, "grid.height": 64, "demod.anchor_x0": 60,
          "demod.anchor_y0": 0, "demod.anchor_w": 10, "demod.anchor_h": 8},
         "does not fit"),
        ({"grid.width": 64, "grid.height": 64, "demod.anchor_x0": 0,
          "demod.anchor_y0": 57, "demod.anchor_w": 8, "demod.anchor_h": 8},
         "does not fit"),
    ])
    def test_bad_anchor_rejected(self, values, match):
        with pytest.raises(ConfigError, match=match):
            resolve(values)

    @pytest.mark.parametrize("values, anchor", [
        # flush with the grid's far corner
        ({"grid.width": 64, "grid.height": 64, "demod.anchor_x0": 56,
          "demod.anchor_y0": 56, "demod.anchor_w": 8, "demod.anchor_h": 8},
         (56, 56, 8, 8)),
        # the grid of measured images is known only once they are read
        ({"input.reference": "a.fgrid", "input.deformed": "b.fgrid",
          "demod.anchor_x0": 600, "demod.anchor_y0": 0,
          "demod.anchor_w": 8, "demod.anchor_h": 8}, (600, 0, 8, 8)),
    ])
    def test_anchor_kept_when_it_may_fit(self, values, anchor):
        assert resolve(values).anchor == anchor

    @pytest.mark.parametrize("rect", [(60, 0, 10, 10), (0, 60, 8, 8),
                                      (0, 0, 0, 8), (-1, 0, 8, 8)])
    def test_rib_rect_off_grid_rejected(self, rect):
        values = {"grid.width": 64, "grid.height": 64, "phantom.kind": "rib_step"}
        values.update(zip(("phantom.rib_x0", "phantom.rib_y0",
                           "phantom.rib_w", "phantom.rib_h"), rect))
        with pytest.raises(ConfigError, match="does not fit"):
            resolve(values)

    def test_rng_pinned(self):
        with pytest.raises(ConfigError, match="philox4x64"):
            resolve({"noise.rng": "mt19937"})

    def test_input_files_must_pair(self):
        with pytest.raises(ConfigError, match="together"):
            resolve({"input.reference": "a.fgrid"})

    def test_domain_errors_become_config_errors(self):
        with pytest.raises(ConfigError):
            resolve({"carrier.fx": 0.7})
        with pytest.raises(ConfigError):
            resolve({"grid.width": 4})
        with pytest.raises(ConfigError):
            resolve({"render.contour_levels": 0})

    def test_echo_reparse_fixpoint(self):
        rc = resolve({"carrier.fx": 0.2, "noise.seed": 7})
        echoed = parse_config_text(echo_text(rc))
        rc2 = resolve(echoed)
        assert rc2.raw == rc.raw

    @pytest.mark.parametrize("value", [" x", "x ", "a\nb", "a\rb", "a #b",
                                       "a\t#b", "#b"])
    def test_value_that_would_not_echo_back_refused(self, value):
        with pytest.raises(ConfigError, match="read back"):
            resolve({"run.label": value})

    @pytest.mark.parametrize("value", ["run#1/s", "a=b", "", "x y"])
    def test_value_that_echoes_back_kept(self, value):
        # a path echoes absolute; empty still means unset
        rc = resolve({"out.dir": value})
        want = os.path.abspath(value) if value else ""
        assert parse_config_text(echo_text(rc))["out.dir"] == want

    @given(st.text(), st.sampled_from([("run.label",), ("out.dir",),
                                       ("input.reference", "input.deformed")]))
    def test_text_value_refused_or_echoed_exactly(self, text, keys):
        try:
            rc = resolve(dict.fromkeys(keys, text))
        except ConfigError:
            return
        assert parse_config_text(echo_text(rc)) == rc.raw

    def test_echo_contains_derived_band(self):
        text = echo_text(resolve({}))
        assert "demod.band_x_hi = 0.225" in text
        assert "noise.rng = philox4x64" in text
        # the derived low edge echoes the exact float used
        echoed = parse_config_text(text)
        assert echoed["demod.band_x_lo"] == 0.125 - 0.1


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config_keys() -> list[str]:
    """Keys named in the README's configuration table, with the shorthand
    ``a.b_x0/y0/w/h`` expanded: each token after a ``/`` replaces the
    first key's last ``_`` segment."""
    section = README.read_text().split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    keys = []
    for line in section.splitlines():
        if not line.startswith("|"):
            continue
        for tok in re.findall(r"`([a-z]+\.[a-z0-9_]+(?:/[a-z0-9]+)*)`", line):
            first, *rest = tok.split("/")
            stem = first.rsplit("_", 1)[0]
            keys += [first] + [f"{stem}_{t}" for t in rest]
    return keys


def test_readme_config_table_names_exactly_the_schema_keys():
    keys = readme_config_keys()
    assert len(keys) == len(set(keys)), "a key is listed twice"
    assert set(keys) == set(SCHEMA)


FAST = [
    "--set", "grid.width=64", "--set", "grid.height=64",
    "--set", "phantom.sigma_x=10", "--set", "phantom.sigma_y=10",
    "--set", "phantom.peak=1.0",
    "--set", "demod.window_sigma=5", "--set", "demod.step=0.025",
    "--set", "demod.band_x_lo=0.05", "--set", "demod.band_x_hi=0.2",
    "--set", "demod.band_y_lo=-0.05", "--set", "demod.band_y_hi=0.05",
    "--set", "cwt.scales=2,5",
]


class TestCliSynth:
    def test_writes_fields_and_echo(self, tmp_path):
        out = tmp_path / "run"
        assert main(["synth", "--out", str(out)] + FAST) == 0
        for name in ("reference.fgrid", "deformed.fgrid", "phase_true.fgrid",
                     "config_echo.txt"):
            assert (out / name).exists()
        f = read_field(out / "reference.fgrid")
        assert f.grid.shape == (64, 64)

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid.width = 64\ngrid.height = 64\n"
                       "phantom.sigma_x = 10\nphantom.sigma_y = 10\n")
        out = tmp_path / "o"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        echo = (out / "config_echo.txt").read_text()
        assert "grid.width = 64" in echo

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path), "--set", "nope=1"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("item", ["cwt.scale_count=32",
                                      "cwt.threshold_mode=small",
                                      "phantom.file=x.fgrid",
                                      "cwt.pad=false",
                                      "cwt.normalize=false",
                                      "carrier.amplitude=2"])
    def test_removed_keys_exit_2(self, tmp_path, capsys, item):
        out = tmp_path / "o"
        assert main(["synth", "--out", str(out), "--set", item]) == 2
        assert "unknown config key" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_phantom_kind_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["synth", "--out", str(out),
                     "--set", "phantom.kind=from_file"]) == 2
        assert "unknown phantom kind" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_file_exits_2(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path)]) == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as ei:
            main(["transmogrify"])
        assert ei.value.code == 2


class TestCliDemodCwt:
    def test_demod_and_cwt_roundtrip(self, tmp_path):
        synth_out = tmp_path / "s"
        assert main(["synth", "--out", str(synth_out)] + FAST) == 0
        demod_out = tmp_path / "d"
        assert main(["demod", "--out", str(demod_out),
                     "--reference", str(synth_out / "reference.fgrid"),
                     "--deformed", str(synth_out / "deformed.fgrid")]
                    + FAST) == 0
        phase = read_field(demod_out / "phase.fgrid")
        assert phase.grid.shape == (64, 64)
        cwt_out = tmp_path / "c"
        assert main(["cwt", "--out", str(cwt_out),
                     "--phase", str(demod_out / "phase.fgrid")] + FAST) == 0
        manifest = (cwt_out / "manifest.txt").read_text().splitlines()
        assert manifest[0] == "planes 2"
        assert (cwt_out / "plane_000_alpha2.fgrid").exists()
        assert (cwt_out / "plane_001_alpha5.fgrid").exists()

    @pytest.mark.parametrize("command", ["synth", "demod", "cwt", "pipeline"])
    def test_echo_reproduces_the_run(self, tmp_path, command):
        # a '#' inside a path is part of the value, not a comment
        src = tmp_path / "in#1"
        assert main(["synth", "--out", str(src)] + FAST) == 0
        inputs = {
            "synth": [], "pipeline": [],
            "demod": ["--reference", str(src / "reference.fgrid"),
                      "--deformed", str(src / "deformed.fgrid")],
            "cwt": ["--phase", str(src / "phase_true.fgrid")],
        }[command]
        first, again = tmp_path / "run#1" / "o", tmp_path / "again#2"
        assert main([command, "--out", str(first)] + FAST + inputs) == 0
        echo = (first / "config_echo.txt").read_text()
        assert f"out.dir = {first}\n" in echo
        assert main([command, "--config", str(first / "config_echo.txt"),
                     "--out", str(again)]) == 0
        names = sorted(q.name for q in first.iterdir())
        assert names == sorted(q.name for q in again.iterdir())
        assert any(n.endswith(".fgrid") for n in names)
        for name in names:
            if name != "config_echo.txt":
                assert (first / name).read_bytes() == (again / name).read_bytes(), name
        assert ((again / "config_echo.txt").read_text()
                == echo.replace(f"out.dir = {first}\n", f"out.dir = {again}\n"))

    def test_hash_in_paths_survives_the_echo(self, tmp_path, monkeypatch):
        # the echo once read run#1/s as run, and demod inputs under run#1/
        # as the missing file run
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--out", "run#1/s"] + FAST) == 0
        assert main(["synth", "--config", "run#1/s/config_echo.txt"]) == 0
        assert main(["demod", "--out", "run#1/d",
                     "--reference", "run#1/s/reference.fgrid",
                     "--deformed", "run#1/s/deformed.fgrid"] + FAST) == 0
        assert main(["demod", "--config", "run#1/d/config_echo.txt",
                     "--out", "d2"]) == 0
        assert not (tmp_path / "run").exists()
        assert ((tmp_path / "run#1/d/phase.fgrid").read_bytes()
                == (tmp_path / "d2/phase.fgrid").read_bytes())

    def test_echo_reruns_from_any_directory(self, tmp_path, monkeypatch):
        # a relative input once echoed as given, so the re-run from a
        # sibling directory read a missing file and exited 3
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        monkeypatch.chdir(a)
        assert main(["synth", "--out", "s"] + FAST) == 0
        assert main(["cwt", "--phase", "s/phase_true.fgrid", "--out", "c"] + FAST) == 0
        echo = (a / "c" / "config_echo.txt").read_text()
        assert f"input.phase = {Path.cwd() / 's' / 'phase_true.fgrid'}\n" in echo
        monkeypatch.chdir(b)
        assert main(["cwt", "--config", "../a/c/config_echo.txt", "--out", "c2"]) == 0
        names = sorted(q.name for q in (a / "c").iterdir())
        assert names == sorted(q.name for q in (b / "c2").iterdir())
        for name in names:
            if name != "config_echo.txt":
                assert (a / "c" / name).read_bytes() == (b / "c2" / name).read_bytes()

    def test_band_grid_reaching_nyquist_exits_2_before_any_output(
            self, tmp_path, capsys):
        # band_x_hi is inside Nyquist, but the grid's last point is 0.5
        out = tmp_path / "o"
        assert main(["pipeline", "--out", str(out),
                     "--set", "grid.width=64", "--set", "grid.height=64",
                     "--set", "demod.band_x_lo=0.3",
                     "--set", "demod.band_x_hi=0.499999999999",
                     "--set", "demod.step=0.1"]) == 2
        assert "reaches Nyquist" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override", [["--out", "o "], ["--out", " o"],
                                          ["--set", "run.label=a #b"]])
    def test_value_the_echo_would_change_exits_2(self, tmp_path, monkeypatch,
                                                 capsys, override):
        monkeypatch.chdir(tmp_path)
        assert main(["synth"] + FAST + override) == 2
        assert "read back" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_cwt_without_phase_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["cwt", "--out", str(out)] + FAST) == 2
        assert "cwt needs a --phase field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["demod", "pipeline"])
    def test_pair_overflowing_the_scan_exits_4(self, tmp_path, capsys, command):
        # finite, but the single-precision scan's mag2 would overflow
        synth_out = tmp_path / "s"
        assert main(["synth", "--out", str(synth_out)] + FAST) == 0
        big = {}
        for name in ("reference", "deformed"):
            big[name] = tmp_path / f"{name}_1e25.fgrid"
            f = read_field(synth_out / f"{name}.fgrid")
            write_field(big[name], field_from_array(f.values * 1e25))
        capsys.readouterr()
        out = tmp_path / "o"
        assert main([command, "--out", str(out)] + FAST + [
            "--set", f"input.reference={big['reference']}",
            "--set", f"input.deformed={big['deformed']}"]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "numeric error" in err
        assert not out.exists()

    # an overflow warning from the sweep would print beside the one-line
    # error
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_phase_overflowing_the_planes_exits_4(self, tmp_path, capsys, rng):
        p = tmp_path / "huge.fgrid"
        write_field(p, field_from_array(1e306 * (1.0 + rng.random((32, 32)))))
        out = tmp_path / "o"
        assert main(["cwt", "--out", str(out), "--phase", str(p),
                     "--set", "cwt.scales=2,5"]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "numeric error" in err
        assert not (out / "manifest.txt").exists()
        assert not list(out.glob("plane_*"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_phase_overflowing_the_first_plane_leaves_no_directory(self, tmp_path, rng):
        p = tmp_path / "huge.fgrid"
        write_field(p, field_from_array(1e306 * (1.0 + rng.random((32, 32)))))
        out = tmp_path / "o"
        assert main(["cwt", "--out", str(out), "--phase", str(p)]) == 4
        assert not out.exists()

    def test_demod_missing_inputs_exits_2(self, tmp_path):
        assert main(["demod", "--out", str(tmp_path)] + FAST) == 2

    def test_demod_missing_file_exits_3(self, tmp_path, capsys):
        code = main(["demod", "--out", str(tmp_path),
                     "--reference", str(tmp_path / "no.fgrid"),
                     "--deformed", str(tmp_path / "no2.fgrid")] + FAST)
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_corrupt_fgrid_exits_3(self, tmp_path):
        bad = tmp_path / "bad.fgrid"
        bad.write_bytes(b"FGRID 1 64 64 0\n\x00\x00")
        assert main(["cwt", "--out", str(tmp_path / "o"),
                     "--phase", str(bad)] + FAST) == 3

    def test_all_masked_exits_4(self, tmp_path, capsys):
        f = field_from_array(np.zeros((64, 64)), np.zeros((64, 64), dtype=bool))
        p = tmp_path / "masked.fgrid"
        write_field(p, f)
        code = main(["cwt", "--out", str(tmp_path / "o"),
                     "--phase", str(p)] + FAST)
        assert code == 4
        assert "numeric error" in capsys.readouterr().err
        # the sweep checks its input when called, before any output exists
        assert not (tmp_path / "o").exists()

    def test_manifest_divisor_restores_raw_plane(self, tmp_path, rng):
        mask = np.ones((48, 40), dtype=bool)
        mask[5:15, 8:20] = False
        f = field_from_array(np.where(mask, rng.normal(size=mask.shape), 0.0), mask)
        write_field(tmp_path / "phase.fgrid", f)
        out = tmp_path / "o"
        assert main(["cwt", "--out", str(out), "--phase", str(tmp_path / "phase.fgrid"),
                     "--set", "cwt.scales=1.5,3,7",
                     "--set", "cwt.threshold_fraction=0.2"]) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        assert lines[:3] == ["planes 3", "normalized true", "thresholded true"]
        raw = cwt_sweep(f, CwtParams((1.5, 3.0, 7.0), threshold_fraction=0.0,
                                     normalize=False))
        for line, (alpha, raw_plane, _) in zip(lines[3:], raw):
            _, scale, name, divisor = line.split()
            assert float(scale) == alpha
            divisor = float(divisor)
            assert divisor == np.abs(raw_plane.values[mask]).max()
            plane = read_field(out / name).values
            kept = plane != 0.0
            assert 0 < kept.sum() < mask.sum()
            np.testing.assert_allclose(plane[kept] * divisor,
                                       raw_plane.values[kept], rtol=1e-15, atol=0)
            assert (np.abs(raw_plane.values[~kept]) < 0.2 * divisor).all()

    def test_sweep_memory_is_a_few_planes(self, tmp_path, rng):
        # 32 small scales on a 128^2 phase: the padding stays 8 px, so the
        # traced peak is the input, its spectrum and the plane in hand.
        # Holding the stack (three copies, as a whole-stack normalize and
        # threshold did) peaks at over 100 planes' bytes.
        n = 128
        mask = np.ones((n, n), dtype=bool)
        mask[10:30, 10:40] = False
        f = field_from_array(np.where(mask, rng.normal(size=(n, n)), 0.0), mask)
        write_field(tmp_path / "phase.fgrid", f)
        scales = ",".join(repr(float(a)) for a in np.geomspace(1, 4, 32))
        args = ["cwt", "--phase", str(tmp_path / "phase.fgrid"),
                "--set", f"cwt.scales={scales}"]
        assert main(args + ["--out", str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            assert main(args + ["--out", str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(list((tmp_path / "o").glob("plane_*.fgrid"))) == 32
        assert peak < 12 * n * n * 8


class TestCliRender:
    def test_heatmap_and_contours(self, tmp_path):
        f = field_from_array(np.arange(64, dtype=float).reshape(8, 8))
        src = tmp_path / "f.fgrid"
        write_field(src, f)
        ppm = tmp_path / "f.ppm"
        assert main(["render", "--field", str(src), str(ppm)]) == 0
        assert ppm.read_bytes().startswith(b"P6")
        assert (tmp_path / "f.ppm.txt").exists()
        csv = tmp_path / "f.csv"
        assert main(["render", "--field", str(src), "--style", "contours",
                     "--levels", "3", str(csv)]) == 0
        assert csv.read_text().startswith("level,segment,x,y")

    def test_bad_levels_exits_2(self, tmp_path):
        f = field_from_array(np.zeros((8, 8)))
        src = tmp_path / "f.fgrid"
        write_field(src, f)
        assert main(["render", "--field", str(src), "--style", "contours",
                     "--levels", "0", str(tmp_path / "x.csv")]) == 2

    def test_unknown_style_exits_2(self, tmp_path):
        src = tmp_path / "f.fgrid"
        write_field(src, field_from_array(np.zeros((8, 8))))
        with pytest.raises(SystemExit) as ei:
            main(["render", "--field", str(src), "--style", "sparkline",
                  str(tmp_path / "x.out")])
        assert ei.value.code == 2
        assert not (tmp_path / "x.out").exists()


class TestCliPipeline:
    def test_outputs_and_counts(self, tmp_path):
        out = tmp_path / "p"
        assert main(["pipeline", "--out", str(out)] + FAST) == 0
        fgrids = sorted(q.name for q in out.glob("*.fgrid"))
        assert fgrids == ["deformed.fgrid", "phase.fgrid", "phase_true.fgrid",
                          "plane_000_alpha2.fgrid", "plane_001_alpha5.fgrid",
                          "reference.fgrid"]
        assert (out / "manifest.txt").exists()
        assert (out / "config_echo.txt").exists()
        assert (out / "phase.ppm").exists()
        assert (out / "phase_contours.csv").exists()
        # display-scale renders exist for the nearest grid scales
        assert (out / "plane_000_alpha2.ppm").exists()
        assert (out / "plane_001_alpha5.ppm").exists()

    def test_default_scale_grid_plane_count(self, tmp_path):
        out = tmp_path / "p"
        pairs = list(zip(FAST[::2], FAST[1::2]))
        args = [a for flag, val in pairs if val != "cwt.scales=2,5"
                for a in (flag, val)]
        assert main(["pipeline", "--out", str(out)] + args) == 0
        planes = list(out.glob("plane_*.fgrid"))
        assert len(planes) == 32
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[0] == "planes 32"

    def test_deterministic_outputs(self, tmp_path, scan_workers):
        a, b = tmp_path / "a", tmp_path / "b"
        noisy = FAST + ["--set", "noise.sigma=0.05", "--set", "noise.seed=42"]
        assert main(["pipeline", "--out", str(a)] + noisy) == 0
        assert main(["pipeline", "--out", str(b)] + noisy) == 0
        for name in ("reference.fgrid", "deformed.fgrid", "phase.fgrid",
                     "plane_000_alpha2.fgrid"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("anchor", [
        ["--set", "demod.anchor_x0=0", "--set", "demod.anchor_y0=0"],
        ["--set", "demod.anchor_x0=60", "--set", "demod.anchor_y0=0",
         "--set", "demod.anchor_w=10", "--set", "demod.anchor_h=10"],
        ["--set", "demod.anchor_x0=0", "--set", "demod.anchor_w=8",
         "--set", "demod.anchor_h=8"],
    ])
    def test_bad_anchor_exits_2_before_any_output(self, tmp_path, capsys, anchor):
        out = tmp_path / "p"
        assert main(["pipeline", "--out", str(out)] + FAST + anchor) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_rib_rect_exits_2_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "p"
        rib = ["--set", "phantom.kind=rib_step", "--set", "phantom.rib_x0=60",
               "--set", "phantom.rib_y0=0", "--set", "phantom.rib_w=10",
               "--set", "phantom.rib_h=10"]
        assert main(["pipeline", "--out", str(out)] + FAST + rib) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["demod", "pipeline"])
    def test_measured_off_grid_anchor_exits_2_before_any_scan(
            self, tmp_path, capsys, monkeypatch, command):
        synth_out = tmp_path / "s"
        assert main(["synth", "--out", str(synth_out)] + FAST) == 0
        scans, demodulate = [], cli.demodulate

        def counting_demodulate(*a, **k):
            scans.append(a)
            return demodulate(*a, **k)

        monkeypatch.setattr(cli, "demodulate", counting_demodulate)
        out = tmp_path / "p"
        args = FAST + [
            "--set", f"input.reference={synth_out / 'reference.fgrid'}",
            "--set", f"input.deformed={synth_out / 'deformed.fgrid'}",
            "--set", "demod.anchor_x0=60", "--set", "demod.anchor_y0=0",
            "--set", "demod.anchor_w=10", "--set", "demod.anchor_h=10",
        ]
        assert main([command, "--out", str(out)] + args) == 2
        assert "does not fit grid 64x64" in capsys.readouterr().err
        assert not scans
        assert not out.exists()

    @pytest.mark.parametrize("command", ["demod", "pipeline"])
    def test_measured_grid_mismatch_exits_4_before_any_scan(
            self, tmp_path, capsys, monkeypatch, command):
        synth_out = tmp_path / "s"
        assert main(["synth", "--out", str(synth_out)] + FAST) == 0
        deformed = read_field(synth_out / "deformed.fgrid")
        short = tmp_path / "deformed_64x48.fgrid"
        write_field(short, field_from_array(deformed.values[:48].copy()))
        scans, demodulate = [], cli.demodulate

        def counting_demodulate(*a, **k):
            scans.append(a)
            return demodulate(*a, **k)

        monkeypatch.setattr(cli, "demodulate", counting_demodulate)
        out = tmp_path / "p"
        args = FAST + [
            "--set", f"input.reference={synth_out / 'reference.fgrid'}",
            "--set", f"input.deformed={short}",
        ]
        assert main([command, "--out", str(out)] + args) == 4
        assert "64x64 and deformed grid 64x48 differ" in capsys.readouterr().err
        assert not scans
        assert not out.exists()

    def test_input_files_instead_of_phantom(self, tmp_path):
        synth_out = tmp_path / "s"
        assert main(["synth", "--out", str(synth_out)] + FAST) == 0
        out = tmp_path / "p"
        args = FAST + [
            "--set", f"input.reference={synth_out / 'reference.fgrid'}",
            "--set", f"input.deformed={synth_out / 'deformed.fgrid'}",
        ]
        assert main(["pipeline", "--out", str(out)] + args) == 0
        assert (out / "phase.fgrid").exists()
        assert not (out / "phase_true.fgrid").exists()


def test_import_and_pipeline_run_load_no_scipy(tmp_path):
    # every FFT is numpy's; scipy.fft alone would add about 0.17 s and
    # 27 MB to each fresh process, and a lazy import inside main would
    # only move that cost into the run
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import json, sys\n"
        "import fringescale, fringescale.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "imported = scipy_modules()\n"
        f"code = fringescale.cli.main(['pipeline', '--out', sys.argv[1]] + {FAST!r})\n"
        "print(json.dumps([imported, code, scipy_modules()]))\n")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], 0, []]


# FAST on the default 32-scale grid, whose display planes are 7, 15, 26
# and 31
FAST_32 = [a for flag, val in zip(FAST[::2], FAST[1::2]) if val != "cwt.scales=2,5"
           for a in (flag, val)]


def _output_args(command: str, tmp_path: Path) -> list[str]:
    """Arguments for a 32-plane pipeline or cwt run, less --out."""
    if command == "pipeline":
        return ["pipeline"] + FAST_32
    phase = tmp_path / "phase_in.fgrid"
    if not phase.exists():
        rng = np.random.default_rng(7)
        mask = np.ones((48, 40), dtype=bool)
        mask[5:15, 8:20] = False
        write_field(phase, field_from_array(
            np.where(mask, rng.normal(size=mask.shape), 0.0), mask))
    return ["cwt", "--phase", str(phase)]


def _output_files(out: Path) -> dict[str, bytes]:
    """Every file a run left in out but its config echo, which names out."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.is_file() and p.name != "config_echo.txt"}


# A child process that sees argv[1] usable CPUs, refuses the sweep's plane
# argv[2] unless it is negative, runs the CLI on the rest of argv and
# prints its exit code, the threads alive after it and the threads it
# started.
_CHILD = """\
import sys, threading
from fringescale import cli, core, cwt, errors, wft
core._usable_cpus = wft._usable_cpus = lambda: int(sys.argv[1])
refused, started, start = int(sys.argv[2]), [], threading.Thread.start
threading.Thread.start = lambda t: (started.append(t), start(t))[1]
make = cwt.CwtSweep._plane
def plane(sweep, alpha):
    if refused >= 0 and alpha == sweep.scales[refused]:
        raise errors.NumericError("plane refused")
    return make(sweep, alpha)
cwt.CwtSweep._plane = plane
code = cli.main(sys.argv[3:])
print(code, threading.active_count(), len(started))
"""


class TestOutputThread:
    """The calling thread makes the planes while a second one writes and
    renders them; with one usable CPU no thread starts and the outputs
    are written inline. The files must not depend on which."""

    @pytest.mark.parametrize("command", ["pipeline", "cwt"])
    def test_same_outputs_at_one_and_two_cpus(self, tmp_path, monkeypatch,
                                              thread_starts, command):
        writers = []
        write = cli.write_field

        def recording(path, field):
            writers.append(threading.current_thread())
            write(path, field)
        monkeypatch.setattr(cli, "write_field", recording)
        args, outputs = _output_args(command, tmp_path), {}
        for cpus in (1, 2):
            monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
            monkeypatch.setattr(wft, "_usable_cpus", lambda: cpus)
            started, writers[:] = len(thread_starts), []
            out = tmp_path / f"cpus{cpus}"
            assert main(args + ["--out", str(out)]) == 0
            started = thread_starts[started:]
            assert not any(t.is_alive() for t in thread_starts)
            if cpus == 1:
                assert not started
                assert set(writers) == {threading.main_thread()}
            else:
                # the last 32 writes are the planes, all on one started
                # thread; the cwt subcommand scans nothing, so that thread
                # is the only one it starts
                assert len(set(writers[-32:])) == 1 and writers[-1] in started
                assert command == "pipeline" or len(started) == 1
            outputs[cpus] = _output_files(out)
        assert outputs[1] == outputs[2]
        names = set(outputs[1])
        scales = default_scale_grid()
        planes = {f"plane_{i:03d}_alpha{a:g}" for i, a in enumerate(scales)}
        assert {n for n in names if n.startswith("plane_") and n.endswith(".fgrid")} == \
            {f"{p}.fgrid" for p in planes}
        assert "manifest.txt" in names
        if command == "pipeline":
            for stem in ["phase"] + [f"plane_{i:03d}_alpha{scales[i]:g}"
                                     for i in (7, 15, 26, 31)]:
                assert {f"{stem}.ppm", f"{stem}.ppm.txt", f"{stem}_contours.csv"} <= names

    @staticmethod
    def run_child(cpus: int, refused: int, argv: list[str]) -> tuple[int, int, int]:
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
        # a deadlocked hand-off would hang here until the timeout
        proc = subprocess.run([sys.executable, "-c", _CHILD, str(cpus), str(refused)]
                              + argv, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, alive, started = map(int, proc.stdout.split())
        return code, alive, started

    @pytest.mark.parametrize("refused", [-1, 6])
    @pytest.mark.parametrize("command", ["pipeline", "cwt"])
    def test_failed_write_stops_the_run(self, tmp_path, command, refused):
        # a directory where plane 5 goes: its write fails with an OSError
        # while the sweep is still making planes. Refused, plane 6 raises
        # NumericError too, often before plane 5's write on two CPUs, but
        # the first failure in order, the write's, is the one reported
        args, scales, left = _output_args(command, tmp_path), default_scale_grid(), {}
        for cpus in (1, 2):
            out = tmp_path / f"cpus{cpus}"
            (out / f"plane_005_alpha{scales[5]:g}.fgrid").mkdir(parents=True)
            code, alive, started = self.run_child(cpus, refused,
                                                  args + ["--out", str(out)])
            assert (code, alive) == (3, 1)
            assert (started == 0) == (cpus == 1)
            left[cpus] = _output_files(out)
        assert left[1] == left[2]
        assert "manifest.txt" not in left[1]
        assert sorted(n for n in left[1] if n.endswith(".fgrid") and
                      n.startswith("plane_")) == [f"plane_{i:03d}_alpha{scales[i]:g}.fgrid"
                                                  for i in range(5)]
        assert not [n for n in left[1] if n.endswith(".tmp")]

    @pytest.mark.parametrize("command", ["pipeline", "cwt"])
    def test_refused_plane_stops_the_run(self, tmp_path, command):
        # plane 9 raises NumericError on the calling thread after plane 7,
        # a display plane, is handed over
        args, scales, left = _output_args(command, tmp_path), default_scale_grid(), {}
        for cpus in (1, 2):
            out = tmp_path / f"cpus{cpus}"
            code, alive, started = self.run_child(cpus, 9, args + ["--out", str(out)])
            assert (code, alive) == (4, 1)
            assert (started == 0) == (cpus == 1)
            left[cpus] = _output_files(out)
        assert left[1] == left[2]
        assert "manifest.txt" not in left[1]
        assert sorted(n for n in left[1] if n.endswith(".fgrid") and
                      n.startswith("plane_")) == [f"plane_{i:03d}_alpha{scales[i]:g}.fgrid"
                                                  for i in range(9)]
        if command == "pipeline":
            assert f"plane_007_alpha{scales[7]:g}_contours.csv" in left[1]
