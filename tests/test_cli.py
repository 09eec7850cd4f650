import csv
import dataclasses
import json

import numpy as np
import pytest

from nupolar import cli, harness
from nupolar.cli import main
from nupolar.construction import CodeSpec
from nupolar.harness import CHOICES, ExperimentConfig

# One valid, non-default text value per ExperimentConfig field (the base
# configuration is N = 64, K = 32).
FIELD_TEXT = {
    "N": "128", "K": "16", "M": "48", "method": "BEC_oracle", "pattern_method": "CW",
    "decoder": "SCL", "list_size": "4", "crc_len": "24", "design_snr_db": "-1.5",
    "ebno_sweep": "1.5, 2 3", "max_frames": "512", "min_frame_errors": "7", "seed": "9",
    "g_mode": "product", "rule": "exact", "scl_threshold": "0.25", "repeat": "weak_info",
}


def run_cli(args):
    return main(args)


class TestConstruct:
    def test_emits_json_spec(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        rc = run_cli(["construct", "--N", "8", "--K", "4", "--out", str(out)])
        assert rc == 0
        spec = CodeSpec.from_json(out.read_text())
        assert spec.mother_len == 8
        assert spec.payload_len == 4

    def test_shortened_spec_has_one_based_indices(self, tmp_path):
        out = tmp_path / "spec.json"
        rc = run_cli([
            "construct", "--N", "8", "--M", "6", "--K", "3",
            "--method", "NUPGA_shortened", "--pattern-method", "NAT_PD",
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["pattern"]["indices"] == [7, 8]
        assert doc["tx_len"] == 6

    def test_stdout_default(self, capsys):
        rc = run_cli(["construct", "--N", "4", "--K", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mother_len"] == 4


class TestSimulate:
    def test_writes_csv_and_json(self, tmp_path):
        csv = tmp_path / "r.csv"
        js = tmp_path / "r.json"
        spec = tmp_path / "s.json"
        rc = run_cli([
            "simulate", "--N", "64", "--K", "32", "--ebno", "2.0",
            "--max-frames", "256", "--min-frame-errors", "10", "--seed", "5",
            "--out-csv", str(csv), "--out-json", str(js), "--emit-spec", str(spec),
        ])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "ebno_db,frames,bit_errors,frame_errors,ber,fer"
        assert len(lines) == 2
        doc = json.loads(js.read_text())
        assert doc["config"]["N"] == 64
        CodeSpec.from_json(spec.read_text())

    def test_emit_spec_builds_the_spec_once(self, tmp_path, monkeypatch):
        calls = []
        build = cli.build_spec
        monkeypatch.setattr(cli, "build_spec", lambda cfg: calls.append(cfg) or build(cfg))
        monkeypatch.setattr(harness, "build_spec", cli.build_spec)
        rc = run_cli(["simulate", "--N", "64", "--K", "32", "--ebno", "2.0", "--max-frames", "256",
                      "--out-csv", str(tmp_path / "r.csv"), "--emit-spec", str(tmp_path / "s.json")])
        assert rc == 0
        assert len(calls) == 1

    def test_extreme_sweep_entry_fails_before_any_point(self, tmp_path, monkeypatch, capsys):
        points = []
        monkeypatch.setattr(harness, "run_point", lambda *a, **k: points.append(a))
        csv = tmp_path / "r.csv"
        rc = run_cli(["simulate", "--N", "64", "--K", "32", "--ebno", "1,4000", "--max-frames", "2048",
                      "--min-frame-errors", "100000", "--out-csv", str(csv)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert points == []
        assert not csv.exists()

    def test_deterministic_rerun(self, tmp_path):
        args = ["simulate", "--N", "64", "--K", "32", "--ebno", "1.0,2.0",
                "--max-frames", "256", "--min-frame-errors", "8", "--seed", "3",
                "--out-csv"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(args + [str(a)]) == 0
        assert run_cli(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_sweep_header_only(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = run_cli(["simulate", "--N", "64", "--K", "32", "--out-csv", str(out)])
        assert rc == 0
        assert out.read_text() == "ebno_db,frames,bit_errors,frame_errors,ber,fer\n"

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "# comment line\nN = 64\nK = 32\nebno_sweep = 1.0\n"
            "max_frames = 128\nmin_frame_errors = 4\nseed = 1\n"
        )
        out = tmp_path / "r.csv"
        rc = run_cli(["simulate", "--config", str(cfgfile), "--seed", "2", "--out-csv", str(out)])
        assert rc == 0

    # rate_excludes_crc is a retired key: unknown like any other.
    @pytest.mark.parametrize("line", ["rate_excludes_crc = ture", "rule = bogus", "g_mode = bogus",
                                      "repeat = bogus", "list = 4", "seed 4"])
    def test_bad_config_file_value_exits_2(self, tmp_path, capsys, line):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"N = 64\nK = 32\nebno_sweep = 1.0\nmax_frames = 256\n{line}\n")
        rc = run_cli(["simulate", "--config", str(cfgfile), "--out-csv", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--ebno", "inf"), ("--ebno", "1,nan"), ("--ebno", "4000"),
                                             ("--ebno", "-4000"), ("--N", "abc"),
                                             ("--design-snr-db", "4000"), ("--design-snr-db", "inf")])
    def test_bad_flag_value_exits_2(self, tmp_path, capsys, flag, value):
        rc = run_cli(["simulate", "--N", "64", "--K", "32", "--max-frames", "256", flag, value,
                      "--out-csv", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(CHOICES))
    def test_choice_flags_reject_unknown_values(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--N", "64", "--K", "32", "--" + name.replace("_", "-"), "bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentConfig)])
    def test_flag_and_file_value_give_same_config(self, tmp_path, name):
        # Only the ebno_sweep case runs frames: one per point.
        base = {"N": "64", "K": "32", "max_frames": "1"}
        base.pop(name, None)
        cfgfile = tmp_path / "exp.cfg"
        configs = []
        for extra_line, flags in [("", ["--" + name.replace("_", "-"), FIELD_TEXT[name]]),
                                  (f"{name} = {FIELD_TEXT[name]}\n", [])]:
            cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in base.items()) + extra_line)
            out = tmp_path / "r.json"
            rc = run_cli(["simulate", "--config", str(cfgfile), *flags,
                          "--out-csv", str(tmp_path / "r.csv"), "--out-json", str(out)])
            assert rc == 0
            configs.append(json.loads(out.read_text())["config"])
        assert configs[0] == configs[1]
        assert configs[0][name] != ExperimentConfig(N=64, K=32, max_frames=1).as_dict()[name]

    def test_bad_config_exits_2(self, capsys):
        rc = run_cli(["simulate", "--N", "63", "--K", "32", "--ebno", "1.0"])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_required_keys_exits_2(self, capsys):
        rc = run_cli(["simulate", "--K", "32"])
        assert rc == 2
        assert "N" in capsys.readouterr().err

    def test_unwritable_output_reports_path(self, capsys):
        rc = run_cli(["simulate", "--N", "64", "--K", "32",
                      "--out-csv", "/nonexistent-dir/r.csv"])
        assert rc == 1
        assert "/nonexistent-dir/r.csv" in capsys.readouterr().err


class TestCompare:
    def test_joint_csv(self, tmp_path):
        a = tmp_path / "mother.cfg"
        a.write_text("N = 64\nK = 32\n")
        b = tmp_path / "bec.cfg"
        b.write_text("N = 64\nK = 32\nmethod = BEC_oracle\n")
        out = tmp_path / "joint.csv"
        rc = run_cli([
            "compare", str(a), str(b), "--ebno", "2.0",
            "--max-frames", "256", "--min-frame-errors", "8", "--seed", "4",
            "--out-csv", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label,ebno_db,frames,bit_errors,frame_errors,ber,fer"
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"mother", "bec"}

    def test_same_stems_are_labelled_by_path(self, tmp_path, monkeypatch):
        # a/x.cfg and b/x.cfg share the name x: each run is labelled by its
        # path as given, so the joint rows can be told apart.
        monkeypatch.chdir(tmp_path)
        for d, extra in (("a", ""), ("b", "method = BEC_oracle\n")):
            (tmp_path / d).mkdir()
            (tmp_path / d / "x.cfg").write_text("N = 64\nK = 32\n" + extra)
        rc = run_cli(["compare", "a/x.cfg", "b/x.cfg", "--ebno", "2.0,3.0", "--max-frames", "256",
                      "--seed", "4", "--out-csv", "joint.csv"])
        assert rc == 0
        rows = (tmp_path / "joint.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["a/x.cfg"] * 2 + ["b/x.cfg"] * 2
        # The rows are each run's own CSV rows, as for distinct names.
        for path, got in (("a/x.cfg", rows[:2]), ("b/x.cfg", rows[2:])):
            assert run_cli(["simulate", "--config", path, "--ebno", "2.0,3.0", "--max-frames", "256",
                            "--seed", "4", "--out-csv", "one.csv"]) == 0
            want = (tmp_path / "one.csv").read_text().splitlines()[1:]
            assert [row.split(",", 1)[1] for row in got] == want

    @pytest.mark.parametrize("names", [("a,b.cfg", "c.cfg"), ('say "hi".cfg', "line\r\nbreak.cfg")],
                             ids=["comma", "quote-crlf"])
    def test_labels_are_csv_fields(self, tmp_path, monkeypatch, names):
        # Labels holding a comma, a quote or a line break are quoted, so
        # every row keeps the header's width and each label reads back.
        monkeypatch.chdir(tmp_path)
        for name in names:
            (tmp_path / name).write_text("N = 16\nK = 8\nmax_frames = 256\n")
        assert run_cli(["compare", *names, "--ebno", "1", "--out-csv", "joint.csv"]) == 0
        with open(tmp_path / "joint.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["label", "ebno_db", "frames", "bit_errors", "frame_errors", "ber", "fer"]
        assert [len(row) for row in rows] == [len(header)] * 2
        assert [row[0] for row in rows] == [name.rsplit(".", 1)[0] for name in names]

    def test_label_is_not_a_configuration_key(self, tmp_path, capsys):
        # A run's label is its configuration file's name, not a field.
        cfg = tmp_path / "old.cfg"
        cfg.write_text("N = 64\nK = 32\nlabel = nupga\n")
        assert run_cli(["simulate", "--config", str(cfg), "--max-frames", "1"]) == 2
        assert "unknown configuration key 'label'" in capsys.readouterr().err
