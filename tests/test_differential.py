"""Seeded differential tests of the list decoders on random codes.

Each case is a random frozen mask of a mother, shortened (NAT_PD, RQUP,
CW) or extended code at N <= 64, with frames salted with ``EXTREME_LLRS``
(see ``random_codes``).  ``scl_decode_batch`` must equal the eager
reference decoder of ``scl_reference`` bit for bit, messages, metrics and
order, and ``ca_scl_decode_batch`` must make the choice its rule states,
recounted candidate by candidate.  Each list size draws codes of its own
from a fixed seed, which every rule and threshold decodes.  A failing draw
is a decoder bug.
"""

import functools
import itertools
import warnings

import numpy as np
import pytest

from nupolar.codec import CrcConfig, ca_scl_decode_batch, crc_check, scl_decode_batch
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
