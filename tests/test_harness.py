import multiprocessing

import numpy as np
import pytest

from nupolar.construction import ConstructionError
from nupolar.harness import ExperimentConfig, build_spec, run_point, run_sweep


def small_cfg(**kw):
    base = dict(N=64, K=32, decoder="SC", ebno_sweep=(2.0,), max_frames=1024,
                min_frame_errors=30, seed=9)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_fill_m(self):
        cfg = ExperimentConfig(N=64, K=32)
        assert cfg.M == 64
        assert cfg.rate == 0.5

    def test_crc_rate_accounting_flag(self):
        cfg = ExperimentConfig(N=64, K=32, M=48, crc_len=24, decoder="CASCL", list_size=4)
        assert cfg.payload_bits == 8
        assert cfg.rate == 32 / 48
        cfg2 = ExperimentConfig(N=64, K=32, M=48, crc_len=24, decoder="CASCL",
                                list_size=4, rate_excludes_crc=True)
        assert cfg2.rate == 8 / 48

    def test_validation(self):
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, decoder="CASCL", crc_len=0)
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, crc_len=8)
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, min_frame_errors=0)
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, decoder="BP")
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, decoder="SCL", list_size=0)
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, rule="bogus")
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, g_mode="bogus")
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, pattern_method="bogus")
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, repeat="bogus")
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, ebno_sweep=(1.0, float("inf")))


class TestBuildSpec:
    def test_method_dispatch(self):
        assert build_spec(ExperimentConfig(N=64, K=32)).construction_method == "GA_uniform"
        assert (
            build_spec(ExperimentConfig(N=64, K=24, M=48, method="NUPGA_shortened")).construction_method
            == "NUPGA_shortened"
        )
        ext = build_spec(ExperimentConfig(N=64, K=32, M=80, method="NUPGA_extended"))
        assert ext.construction_method == "NUPGA_extended"
        assert ext.tx_len == 80
        bec = build_spec(ExperimentConfig(N=64, K=32, method="BEC_oracle"))
        assert bec.construction_method == "BEC_oracle"

    def test_shape_errors(self):
        with pytest.raises(ConstructionError):
            build_spec(ExperimentConfig(N=64, K=32, M=80, method="GA_uniform"))
        with pytest.raises(ConstructionError):
            build_spec(ExperimentConfig(N=64, K=32, M=48, method="NUPGA_extended"))


class TestRunPoint:
    def test_high_snr_is_clean(self):
        p = run_point(small_cfg(max_frames=1000, min_frame_errors=1000), 12.0)
        assert p.frames == 1000
        assert p.fer == 0.0
        assert p.bit_errors == 0

    def test_low_snr_fails_every_frame(self):
        p = run_point(small_cfg(), -5.0)
        assert p.fer > 0.95

    def test_stops_on_error_budget(self):
        cfg = small_cfg(max_frames=100_000, min_frame_errors=25)
        p = run_point(cfg, 0.0)
        assert p.frame_errors >= 25
        assert p.frames < 100_000

    def test_pool_is_gone_after_return(self):
        run_point(small_cfg(max_frames=100_000, min_frame_errors=300), 0.0, workers=2)
        assert multiprocessing.active_children() == []

    def test_fer_at_least_ber(self):
        p = run_point(small_cfg(), 1.0)
        assert p.fer >= p.ber
        assert p.ber == p.bit_errors / (p.frames * 32)


class TestRunSweep:
    def test_empty_sweep_gives_header_only_csv(self):
        rep = run_sweep(small_cfg(ebno_sweep=()))
        assert rep.csv_text() == "ebno_db,frames,bit_errors,frame_errors,ber,fer\n"

    def test_same_seed_reproduces_csv(self):
        cfg = small_cfg(ebno_sweep=(1.0, 2.0))
        a = run_sweep(cfg).csv_text()
        b = run_sweep(cfg).csv_text()
        assert a == b

    def test_worker_count_does_not_change_results(self):
        cfg = small_cfg(ebno_sweep=(1.5,), max_frames=512, min_frame_errors=512)
        texts = {run_sweep(cfg, workers=w).csv_text() for w in (1, 3, 4)}
        assert len(texts) == 1
        # Stops on the error target long before max_frames, so the batches
        # that workers ran past the stopping point must be dropped.
        cfg = small_cfg(ebno_sweep=(0.0,), max_frames=100_000, min_frame_errors=300)
        reports = [run_sweep(cfg, workers=w) for w in (1, 2, 3)]
        assert len({rep.csv_text() for rep in reports}) == 1
        p = reports[0].points[0]
        assert p.frame_errors >= 300 and p.frames < 100_000

    def test_cascl_worker_count_does_not_change_results(self):
        cfg = ExperimentConfig(N=64, K=40, decoder="CASCL", crc_len=24, list_size=4,
                               ebno_sweep=(1.0,), max_frames=512, min_frame_errors=512, seed=11)
        one, two = (run_sweep(cfg, workers=w) for w in (1, 2))
        counters = [(p.frames, p.bit_errors, p.frame_errors) for p in (one.points[0], two.points[0])]
        assert counters[0] == counters[1]
        assert counters[0][0] == 512 and counters[0][2] > 0
        assert one.csv_text() == two.csv_text()

    def test_report_echoes_config_and_version(self):
        rep = run_sweep(small_cfg(ebno_sweep=(3.0,), label="unit"))
        doc = rep.to_json_dict()
        assert doc["config"]["N"] == 64
        assert doc["config"]["label"] == "unit"
        assert doc["library_version"]
        assert doc["points"][0]["ebno_db"] == 3.0
        assert doc["points"][0]["wall_time_s"] > 0

    def test_fer_decreases_with_snr(self):
        cfg = small_cfg(ebno_sweep=(0.0, 4.0), max_frames=2048, min_frame_errors=2048)
        fers = [p.fer for p in run_sweep(cfg).points]
        assert fers[0] > fers[1]

    def test_cascl_path_runs(self):
        cfg = ExperimentConfig(N=64, K=32, decoder="CASCL", crc_len=24, list_size=4,
                               ebno_sweep=(2.0,), max_frames=256, min_frame_errors=20, seed=2)
        p = run_sweep(cfg).points[0]
        assert p.frames > 0

    def test_scl_path_runs(self):
        cfg = ExperimentConfig(N=64, K=32, decoder="SCL", list_size=4,
                               ebno_sweep=(2.0,), max_frames=256, min_frame_errors=20, seed=2)
        p = run_sweep(cfg).points[0]
        assert p.frames > 0

    @pytest.mark.slow
    def test_low_rate_cascl_smoke_sweep_is_monotone(self):
        # Reduced-frame smoke run of the low-rate list-decoding setup:
        # FER must not increase with Eb/N0 beyond counting noise.
        cfg = ExperimentConfig(N=512, M=400, K=50, method="NUPGA_shortened",
                               decoder="CASCL", list_size=16, crc_len=24,
                               ebno_sweep=(0.0, 1.5, 3.0), max_frames=1024,
                               min_frame_errors=1024, seed=13)
        fers = [p.fer for p in run_sweep(cfg).points]
        assert fers[0] >= fers[1] >= fers[2] - 0.01
        assert fers[0] > fers[2]
