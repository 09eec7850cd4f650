"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 8 and 9 carry the ``slow`` marker (longer Monte-Carlo runs);
deselect them with ``-m "not slow"`` for a quick pass.
"""

import ga_reference
import numpy as np
import pytest

import nupolar as npl
from nupolar.construction import CodeSpec, RateMatchPattern
from nupolar.harness import ExperimentConfig, run_point, run_sweep
from oracles import dense_encode, known_bit_ga_channels, ml_decode


def report(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


def crossing_db(points, target_fer=1e-2):
    """Eb/N0 where a (descending) FER curve crosses the target, by
    log-linear interpolation between the bracketing sweep points."""
    xs = np.array([p.ebno_db for p in points])
    ys = np.log10([max(p.fer, 1e-12) for p in points])
    t = np.log10(target_fer)
    for i in range(len(xs) - 1):
        if ys[i] >= t >= ys[i + 1]:
            return xs[i] + (xs[i + 1] - xs[i]) * (t - ys[i]) / (ys[i + 1] - ys[i])
    raise AssertionError(f"FER curve never crosses {target_fer}: {list(zip(xs, 10**ys))}")


def test_criterion_01_encoder_equivalence():
    """Butterfly encode equals dense Kronecker encode, 1000 random pairs."""
    rng = np.random.default_rng(101)
    rel_cache = {}
    sizes = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    for _ in range(1000):
        N = int(rng.choice(sizes))
        if N not in rel_cache:
            rel_cache[N] = npl.evolve_reliabilities(np.full(N, 4.0))
        # the clamped transfer function cannot rank the very weakest
        # channels of large codes, so stay within the usable count
        usable = int(np.count_nonzero(rel_cache[N] > 0))
        K = int(rng.integers(1, usable + 1))
        spec = CodeSpec(N, K, N, npl.select_information_set(rel_cache[N], K), RateMatchPattern())
        msg = rng.integers(0, 2, K, dtype=np.uint8)
        assert np.array_equal(npl.encode(spec, msg), dense_encode(spec, msg)), (N, K)
    report(1, "butterfly == dense Kronecker on 1000 random (spec, message) pairs, N in {2..1024}")


def test_criterion_02_bec_conservation_and_ordering():
    """Per-node capacity conservation to 1e-12 and minus/plus ordering."""
    rng = np.random.default_rng(102)
    z1 = rng.uniform(0, 1, 10_000)
    z2 = rng.uniform(0, 1, 10_000)
    minus, plus = npl.bec_pair(z1, z2)
    np.testing.assert_allclose(
        (1 - minus) + (1 - plus), (1 - z1) + (1 - z2), rtol=0, atol=1e-12
    )
    assert np.all(plus <= minus)
    # treewise: conservation holds at every stage of full evolutions; stage
    # s is the evolutions of the aligned blocks of 2^s positions
    for _ in range(50):
        eps = rng.uniform(0, 1, 256)
        for s in range(1, 9):
            stage = np.concatenate([npl.evolve_bec(block) for block in eps.reshape(-1, 1 << s)])
            assert abs(np.sum(1 - stage) - np.sum(1 - eps)) < 1e-9
    report(2, "capacity conserved to 1e-12 over 10^4 random pairs; plus <= minus everywhere")


def test_criterion_03_ga_consistency():
    """phi_inv(phi(x)) identity to 1e-6; two-mean update reduces exactly."""
    # Grid avoids the two non-invertible artefacts of the closed form: the
    # clamp plateau below ~0.0294 and the seam where the branches overlap.
    grid = np.concatenate([
        np.exp(np.linspace(np.log(0.03), np.log(9.0), 500)),
        np.exp(np.linspace(np.log(10.2), np.log(50.0), 500)),
    ])
    back = npl.phi_inv(npl.phi(grid))
    assert np.max(np.abs(back - grid)) <= 1e-6
    ms = np.exp(np.linspace(np.log(1e-3), np.log(200.0), 1000))
    gm, gp = ga_reference.ga_pair_uniform(ms)
    nm, np_ = npl.nupga_pair(ms, ms, "sum")
    assert np.array_equal(gm, nm) and np.array_equal(gp, np_)
    report(3, "phi_inv . phi identity <= 1e-6 on 1000 points; equal-input two-mean update exact")


def test_criterion_04_worked_example_masks():
    """The size-4 information sets: {0,1,0,1} mother, {0,1,1,0} shortened."""
    mother = npl.build_mother_code(4, 2, design_snr_db=0.0)
    assert (~mother.frozen_mask).astype(int).tolist() == [0, 1, 0, 1]
    short = npl.build_shortened_code(4, 3, 2, "NAT_PD", design_snr_db=0.0)
    assert short.pattern.indices.tolist() == [3]  # the keep-mask [1, 1, 1, 0]
    assert (~short.frozen_mask).astype(int).tolist() == [0, 1, 1, 0]
    assert short.info_positions.tolist() == [1, 2]
    # Reference fixture, non-gating: the originally reported evolved values
    # {0.21, 1.64, 2.28, 0} are not reproduced by the printed recursion; the
    # reproducible vector below selects the same information set.
    rel = npl.evolve_reliabilities([4.0, 4.0, 4.0, 0.0])
    np.testing.assert_allclose(rel, [1.472634, 8.0, 6.282073, 0.0], atol=1e-5)
    report(4, "size-4 mother mask {0,1,0,1} and shortened mask {0,1,1,0} reproduced exactly")


def test_criterion_05_scl_equals_ml_at_full_list():
    """SCL with L = 2^K returns the ML codeword on every frame."""
    rng = np.random.default_rng(105)
    spec = npl.build_mother_code(8, 4)
    sigma = float(np.sqrt(1.0 / (2.0 * 0.5 * 10 ** 0.3)))  # Eb/N0 = 3 dB, R = 1/2
    msgs = rng.integers(0, 2, (1000, 4), dtype=np.uint8)
    y = (1.0 - 2.0 * npl.encode(spec, msgs)) + rng.normal(0.0, sigma, (1000, 8))
    llr = 2.0 * y / sigma**2
    best, _ = npl.scl_decode_batch(spec, llr, L=16, rule="exact")
    for i in range(1000):
        assert np.array_equal(best[i, 0], ml_decode(spec, llr[i])), f"frame {i}"
    report(5, "SCL(L=16, exact) == exhaustive ML on 1000 frames, N=8 K=4 at 3 dB")


def test_criterion_06_shortening_validity():
    """Shortened codeword positions are zero for every pattern method."""
    rng = np.random.default_rng(106)
    for method in ("NAT_PD", "RQUP", "CW"):
        spec = npl.build_shortened_code(512, 320, 160, method)
        msgs = rng.integers(0, 2, (1000, 160), dtype=np.uint8)
        cws = npl.encode(spec, msgs)
        assert not cws[:, spec.pattern.indices].any(), method
        assert npl.tx_frame(spec, cws).shape == (1000, 320)
    report(6, "NAT_PD/RQUP/CW shortened positions all-zero over 1000 random messages each")


def _fig8_sweep(method, sweep, seed=205):
    cfg = ExperimentConfig(
        N=512, M=320, K=160, method=method, pattern_method="CW" if method == "GA_uniform" else "NAT_PD",
        decoder="SC", ebno_sweep=tuple(sweep), max_frames=200_000, min_frame_errors=100, seed=seed,
    )
    return run_sweep(cfg, workers=2).points


def test_criterion_07_shortened_fer_comparison():
    """Re-polarized shortening beats the CW baseline by >= 0.2 dB at 1e-2."""
    nupga = _fig8_sweep("NUPGA_shortened", (1.5, 2.0, 2.5, 3.0, 3.5))
    cw = _fig8_sweep("GA_uniform", (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5))
    cw_by_ebno = {p.ebno_db: p for p in cw}
    for p in nupga:
        if p.ebno_db <= 3.0:
            assert p.fer <= cw_by_ebno[p.ebno_db].fer, (
                f"ordering violated at {p.ebno_db} dB: {p.fer} vs {cw_by_ebno[p.ebno_db].fer}"
            )
    gap = crossing_db(cw) - crossing_db(nupga)
    assert gap >= 0.2, f"gap at FER 1e-2 is {gap:.3f} dB"
    report(7, f"NUPGA <= CW at every point in [1.5, 3.0] dB; gap at FER 1e-2 = {gap:.2f} dB (>= 0.2)")


@pytest.mark.slow
def test_criterion_08_low_rate_cascl_gain():
    """Re-polarization gain over the same-pattern baseline at M=400, K=50.

    The source states a gain of >= 0.4 dB at FER 1e-2 under CA-SCL (L=16,
    CRC-24).  That figure cannot hold for this construction: at these
    parameters re-polarization selects exactly the baseline's information
    set, in both g-modes, so the two are one code and the gain is 0 dB for
    any decoder.  The test checks the chain that makes 0 dB the right
    answer rather than a construction fault:

    (a) the NAT_PD pattern is closed upward (i shortened implies i | 2^b
        shortened), so a shortened position is only ever paired with a
        shortened partner or as the upper input of a live one;
    (b) on it the pass-through evolution equals GA of the channel the
        decoder sees, with shortened bits known (f(a, inf) = a,
        g(a, inf) = inf), at every live position;
    (c) the only other reading of "zero and re-evolve", GA with no known
        bits, which treats shortened bits as erasures, does move the
        information set, and measures worse: at 1.0 dB (seed 208, 1024
        frames per design) its FER must exceed the known-bit design's by
        more than the 95% interval of the difference.
    """
    N, M, K = 512, 400, 50
    pattern = npl.shortening_pattern("NAT_PD", N, M)
    shortened = np.zeros(N, dtype=bool)
    shortened[pattern.indices] = True
    members = np.flatnonzero(shortened)
    for b in range(9):
        assert shortened[members | (1 << b)].all(), f"pattern not closed under bit {b}"

    stage0 = np.where(shortened, 0.0, npl.design_snr_to_llr_mean(0.0))
    ref, known = known_bit_ga_channels(stage0, shortened)
    assert np.array_equal(known, shortened)
    evolved = npl.evolve_reliabilities(stage0)
    np.testing.assert_array_equal(evolved[~known], ref[~known])

    for g_mode in ("sum", "product"):
        nupga = npl.build_shortened_code(N, M, K, "NAT_PD", g_mode=g_mode)
        baseline = npl.build_shortened_code(N, M, K, "NAT_PD", g_mode=g_mode, repolarize=False)
        assert np.array_equal(nupga.frozen_mask, baseline.frozen_mask), (
            f"{g_mode} mode: re-polarized and baseline masks differ, so the gain is not 0 dB by proof"
        )

    known_bit = npl.build_shortened_code(N, M, K, "NAT_PD")
    rel, _ = known_bit_ga_channels(stage0, np.zeros(N, dtype=bool))
    rel[shortened] = 0.0
    frozen = npl.select_information_set(rel, K)
    frozen[shortened] = True
    erasure = CodeSpec(N, K, M, frozen, pattern, construction_method="NUPGA_shortened")
    moved = int(np.count_nonzero(erasure.frozen_mask != known_bit.frozen_mask))
    assert moved > 0, "the erasure reading should move the information set"
    cfg = ExperimentConfig(
        N=N, M=M, K=K, method="NUPGA_shortened", pattern_method="NAT_PD", decoder="CASCL",
        list_size=16, crc_len=24, ebno_sweep=(1.0,), max_frames=1024, min_frame_errors=1024, seed=208,
    )
    pk = run_point(cfg, 1.0, workers=2, spec=known_bit)
    pe = run_point(cfg, 1.0, workers=2, spec=erasure)
    margin = 1.96 * np.sqrt(pk.fer * (1 - pk.fer) / pk.frames + pe.fer * (1 - pe.fer) / pe.frames)
    assert pe.fer - pk.fer > margin, (
        f"erasure-reading FER {pe.fer:.4f} not above known-bit FER {pk.fer:.4f} by the 95% CI ({margin:.4f})"
    )
    report(8, f"re-polarized mask == baseline mask (sum and product), so the gain is 0 dB by proof "
              f"(stated >= 0.4 dB unattainable); erasure reading differs in {moved} frozen positions and "
              f"loses: FER {pe.fer:.3f} vs {pk.fer:.3f} at 1.0 dB")


def _ber_sigma(point, payload_bits):
    # Cluster-robust BER standard error: frame errors are the independent
    # events; each contributes ~(bit_errors / frame_errors) wrong bits.
    if point.frame_errors == 0:
        return 0.0
    mult = point.bit_errors / point.frame_errors / payload_bits
    return mult * np.sqrt(point.fer / point.frames)


@pytest.mark.slow
def test_criterion_09_extension_vs_shortening_ber():
    """Extension (256 -> 280) vs shortening (512 -> 280) at K = 128.

    Stated bound: extension BER <= shortening BER at each swept point
    within a 95% confidence interval, under CA-SCL (L=16, CRC-24).  The
    test runs the default ``tail`` placement only.  At desk scale the
    shortened code, backed by one more polarization level of its N=512
    mother, is measurably stronger than the 24-position repetition
    extension, so the stated ordering does not hold; the assertion is kept
    as stated.  The test measures (seed 209, 1.5 dB) extension BER 1.186e-2
    against 5.624e-3 for shortening, beyond the 2.547e-3 margin.  With
    2048 frames per code at 1.5 dB, CA-SCL FER is 0.018 for shortening
    against 0.037 for ``tail`` and 0.034 for ``weak_info`` extension.  The
    GA union bound (sum of Q(sqrt(m/2)) over the information set at
    Eb/N0 = 2.0 dB, codes designed at 0 dB) agrees: 0.178 for shortening against
    0.247 (``tail``), 0.219 (``weak_info``) and 0.218 for 24 repeated
    positions picked greedily, one at a time, to minimize the bound.  The
    decoders are sound (criterion 5: SCL equals ML) and the repeated
    observations are combined by LLR addition, so no program fault is
    known; whether the stated ordering is wrong cannot be settled without
    the paper's definition of extension and the figure behind it.
    """
    ext = npl.build_extended_code(256, 24, 128)
    sho = npl.build_shortened_code(512, 280, 128, "NAT_PD")
    payload = 128 - 24
    points = {}
    for name, spec, N, method in (
        ("ext", ext, 256, "NUPGA_extended"),
        ("short", sho, 512, "NUPGA_shortened"),
    ):
        cfg = ExperimentConfig(
            N=N, M=280, K=128, method=method, decoder="CASCL", list_size=16, crc_len=24,
            ebno_sweep=(1.5, 2.0), max_frames=12_000, min_frame_errors=100, seed=209,
        )
        points[name] = [run_point(cfg, e, workers=2, spec=spec) for e in cfg.ebno_sweep]
    for pe, ps in zip(points["ext"], points["short"]):
        margin = 1.96 * np.sqrt(_ber_sigma(pe, payload) ** 2 + _ber_sigma(ps, payload) ** 2)
        assert pe.ber <= ps.ber + margin, (
            f"at {pe.ebno_db} dB extension BER {pe.ber:.3e} exceeds shortening BER "
            f"{ps.ber:.3e} beyond the 95% CI ({margin:.3e})"
        )
    report(9, "extension BER <= shortening BER within 95% CI at every swept point")


def test_criterion_10_worker_determinism():
    """Byte-identical CSV from the same seed under 1, 4, and 8 workers."""
    cfg = ExperimentConfig(
        N=64, K=32, decoder="SC", ebno_sweep=(1.0, 2.5),
        max_frames=1024, min_frame_errors=1024, seed=210,
    )
    texts = [run_sweep(cfg, workers=w).csv_text() for w in (1, 4, 8)]
    assert texts[0] == texts[1] == texts[2]
    report(10, "simulate CSV byte-identical across worker counts {1, 4, 8}")
