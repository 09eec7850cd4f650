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
walk, with and without the metric.  A failing draw is a program bug.
"""

import functools
import itertools
import warnings

import numpy as np
import pytest

from nupolar.channel import ChannelConfig, bpsk_modulate, frame_draws
from nupolar.codec import (
    CrcConfig,
    _ListDecoder,
    ca_scl_decode_batch,
    crc_check,
    encode,
    sc_decode_batch,
    scl_decode_batch,
)
from nupolar.construction import PATTERN_METHODS, shortening_pattern
from nupolar.oracles import dense_encode
from nupolar.ratematch import dematch, tx_frame
from random_codes import random_cases
from scl_reference import reference_scl_decode_batch

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
                assert np.array_equal(got, full.decode(frames)[0][:, 0]), (metric, spec.to_json())
    # Codes of every method have an [information, frozen] pair, and some
    # decode on their live columns.
    assert methods == set(PATTERN_METHODS) and live_walks >= 3
