"""Seeded differential tests of the list decoders, the encoder and rate
matching on random codes.

Each case is a random frozen mask of a mother, shortened (NAT_PD, RQUP,
CW) or extended code at N <= 64, with frames salted with ``EXTREME_LLRS``
(see ``random_codes``).  ``scl_decode_batch`` must equal the eager
reference decoder of ``scl_reference`` bit for bit, messages, metrics and
order, and ``ca_scl_decode_batch`` must make the choice its rule states,
recounted candidate by candidate.  Each list size draws codes of its own
from a fixed seed, which every rule and threshold decodes.  On codes of
their own, ``encode`` must equal the GF(2) matrix product of
``oracles.dense_encode``, and a noiseless frame must come out of
``tx_frame``, BPSK and ``dematch`` as its codeword's LLRs.  At the codes'
payload and transmitted lengths, ``frame_draws`` must equal the frame
stream written out from numpy's Philox.  On shortened codes with
[information, frozen] pairs, ``sc_decode_batch`` must equal the full-width
walk, with and without the metric.  One ``message_decoder``, as
``run_point`` builds it per point, must decode batch after batch of a
shortened code exactly as a fresh one and the public functions do.  A
failing draw is a program bug.
"""

import functools
import itertools
import warnings

import numpy as np
import pytest

from nupolar.channel import ChannelConfig, bpsk_modulate, frame_draws
from nupolar.codec import (
    CRC24,
    CrcConfig,
    _ListDecoder,
    ca_scl_decode_batch,
    crc_check,
    encode,
    message_decoder,
    sc_decode_batch,
    scl_decode_batch,
)
from nupolar.construction import PATTERN_METHODS, CodeSpec, shortening_pattern
from nupolar.ratematch import dematch, tx_frame
from oracles import dense_encode
from random_codes import EXTREME_LLRS, random_cases
from scl_reference import reference_scl_decode_batch, walk_llrs

COMBOS = list(itertools.product((2, 4, 8), ("minsum", "exact"), (0.0, 1e-3, 1.0)))
# A 2-bit CRC (x^2 + x + 1), so that on random frames some candidates pass
# and some frames have none that does.
CRC2 = CrcConfig(poly=0b11, width=2)


@functools.cache
def list_size_cases(L):
    return random_cases(np.random.default_rng(1000 + L), mother_rounds=2, matched_rounds=1)


def recount_crc_select(msgs, pm, crc):
    """Per frame, the first candidate in metric order whose metric is finite
    and whose message passes ``crc``; else candidate 0, with ``crc_ok`` False."""
    chosen = []
    for frame_msgs, frame_pm in zip(msgs, pm):
        passing = (rank for rank, (msg, metric) in enumerate(zip(frame_msgs, frame_pm))
                   if np.isfinite(metric) and crc_check(msg, crc))
        rank = next(passing, None)
        chosen.append((0, False) if rank is None else (rank, True))
    return np.array([rank for rank, _ in chosen]), np.array([ok for _, ok in chosen])


@pytest.mark.parametrize("L, rule, threshold", COMBOS)
def test_scl_equals_reference_and_ca_scl_its_rule(L, rule, threshold):
    outcomes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec, frames in list_size_cases(L):
            msgs, pm = scl_decode_batch(spec, frames, L, threshold, rule)
            with np.errstate(over="ignore"):
                ref_msgs, ref_pm = reference_scl_decode_batch(spec, frames, L, threshold, rule)
            assert np.array_equal(msgs, ref_msgs), spec.to_json()
            assert np.array_equal(pm, ref_pm), spec.to_json()
            if spec.payload_len <= CRC2.width:
                continue
            got = ca_scl_decode_batch(spec, frames, L, CRC2, threshold, rule)
            rank, crc_ok = recount_crc_select(msgs, pm, CRC2)
            frame = np.arange(len(frames))
            assert np.array_equal(got[0], msgs[frame, rank]), spec.to_json()
            assert np.array_equal(got[1], pm[frame, rank]), spec.to_json()
            assert np.array_equal(got[2], crc_ok) and np.array_equal(got[3], rank), spec.to_json()
            outcomes |= set(zip(crc_ok.tolist(), (rank > 0).tolist()))
    # The draws reach every branch of the rule: no candidate passes, the
    # best one passes, and a later one passes.
    assert outcomes == {(False, False), (True, False), (True, True)}


def random_messages(seed):
    """``(spec, msgs)`` pairs: a batch of random messages for each random code."""
    rng = np.random.default_rng(seed)
    for spec, frames in random_cases(rng, mother_rounds=2, matched_rounds=1):
        yield spec, rng.integers(0, 2, (len(frames), spec.payload_len), dtype=np.uint8)


def test_encode_equals_dense_encode():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec, msgs in random_messages(2000):
            assert np.array_equal(encode(spec, msgs), dense_encode(spec, msgs)), spec.to_json()


def test_noiseless_frames_dematch_to_their_codewords():
    # A BPSK symbol is its bit's noiseless LLR: dematch gives +inf where a
    # position is never sent, the bit's sign where it is sent once, and
    # twice that where it is repeated.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec, msgs in random_messages(2001):
            cw = encode(spec, msgs)
            sent = np.ones(spec.mother_len)  # observations of each position
            sent[spec.pattern.indices] = {"shorten": 0, "extend": 2}.get(spec.pattern.kind, 1)
            want = np.where(sent == 0, np.inf, sent * (1.0 - 2.0 * cw))
            got = dematch(spec, bpsk_modulate(tx_frame(spec, cw)))
            assert np.array_equal(got, want), spec.to_json()


def test_frame_draws_equal_the_written_out_stream():
    # Frame j of seed s draws from Philox keyed by the words (s mod 2^64, j):
    # integers(0, 2, n_bits, uint8), then normal(0, sigma, n_noise).
    shapes = sorted({(spec.payload_len, spec.tx_len) for spec, _ in list_size_cases(2)})
    count = 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 7, -3, 2**64 - 1):
            chan = ChannelConfig(1.0, 0.5, seed)
            for start in (0, 255, 2**63 + 9, 2**64 - count):
                for n_bits, n_noise in shapes:
                    bits, noise = frame_draws(chan, start, count, n_bits, n_noise)
                    for j in range(count):
                        key = np.array([seed % 2**64, start + j], dtype=np.uint64)
                        rng = np.random.Generator(np.random.Philox(key=key))
                        assert np.array_equal(bits[j], rng.integers(0, 2, n_bits, np.uint8)), (seed, start + j)
                        assert np.array_equal(noise[j], rng.normal(0, chan.sigma, n_noise)), (seed, start + j)


@pytest.mark.parametrize("rule", ["minsum", "exact"])
def test_live_column_walk_equals_the_full_width_walk(rule):
    # random_cases salts the live columns of each shortened code and gives
    # it a second batch with a finite LLR in the dead suffix, which keeps the
    # full width.  Both walks at live = N decide every node at full width,
    # the metric-free one through the same fast nodes, the metric one
    # through none.
    methods, live_walks = set(), 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec, frames in random_cases(np.random.default_rng(2003), mother_rounds=0, matched_rounds=4):
            N, frozen = spec.mother_len, spec.frozen_mask
            if spec.pattern.kind != "shorten" or not (~frozen[: N // 2] & frozen[N // 2 :]).any():
                continue
            methods |= {m for m in PATTERN_METHODS if shortening_pattern(m, N, spec.tx_len) == spec.pattern}
            live = int(spec.tx_positions.max()) + 1
            live_walks += live % 2 == 0 and np.isposinf(frames[:, live:]).all()
            got, _ = sc_decode_batch(spec, frames, rule)
            for metric in (False, True):
                full = _ListDecoder(spec, 1, 0.0, rule, metric)
                full.live = N
                assert np.array_equal(got, full.decode(walk_llrs(frames))[0][:, 0]), (metric, spec.to_json())
    # Codes of every method have an [information, frozen] pair, and some
    # decode on their live columns.
    assert methods == set(PATTERN_METHODS) and live_walks >= 3


# Each (decoder, L) of message_decoder, with the message its public function picks.
PUBLIC_PICKS = {
    ("SC", 1): lambda spec, frames, thr, rule: sc_decode_batch(spec, frames, rule)[0],
    ("SCL", 1): lambda spec, frames, thr, rule: scl_decode_batch(spec, frames, 1, thr, rule)[0][:, 0],
    ("SCL", 4): lambda spec, frames, thr, rule: scl_decode_batch(spec, frames, 4, thr, rule)[0][:, 0],
    ("CASCL", 4): lambda spec, frames, thr, rule: ca_scl_decode_batch(spec, frames, 4, CRC24, thr, rule)[0],
}


def unit_batches(rng, method, M):
    """A random shortened code at N = 64, K > 24, and the read-only batches
    one point's decoder meets in turn: a full unit, one with a finite LLR
    in the dead suffix (the full-width walk), a short last unit, an empty
    batch, a short full-width one and a full unit again."""
    pattern = shortening_pattern(method, 64, M)
    frozen = rng.random(64) < 0.25
    frozen[pattern.indices] = True
    spec = CodeSpec(64, int(64 - frozen.sum()), M, frozen, pattern)
    assert spec.payload_len > CRC24.width

    def batch(count, dead_known):
        rx = rng.normal(1.0, 2.0, (count, M))
        frames = dematch(spec, np.where(rng.random(rx.shape) < 0.1, rng.choice(EXTREME_LLRS, rx.shape), rx))
        if not dead_known:
            frames[:, -1] = rng.normal(0.0, 2.0, count)
        frames.flags.writeable = False
        return frames

    return spec, [batch(16, True), batch(16, False), batch(5, True), batch(0, True), batch(3, False),
                  batch(16, True)]


@pytest.mark.parametrize("rule", ["minsum", "exact"])
def test_one_decoder_decodes_every_unit_as_a_fresh_one(rule):
    rng = np.random.default_rng(3000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in PATTERN_METHODS:
            # An even M gives NAT_PD the live-column walk; an odd one keeps the full width.
            for M in (48 + 2 * int(rng.integers(8)), 49 + 2 * int(rng.integers(7))):
                spec, batches = unit_batches(rng, method, M)
                for (decoder, L), pick in PUBLIC_PICKS.items():
                    decode = message_decoder(spec, decoder, L, 1e-3, rule)
                    for frames in batches:
                        got = decode(frames)
                        where = (decoder, L, len(frames), spec.to_json())
                        assert got.dtype == np.uint8 and got.shape == (len(frames), spec.payload_len), where
                        assert np.array_equal(got, message_decoder(spec, decoder, L, 1e-3, rule)(frames)), where
                        assert np.array_equal(got, pick(spec, frames, 1e-3, rule)), where
