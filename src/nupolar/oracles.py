"""Independent brute-force references used by the test suite.

Nothing here shares code with the modules it checks: encoding goes through
an explicit Kronecker-power matrix, maximum-likelihood decoding enumerates
every message, and the erasure and known-bit GA recursions work on
interleaved halves rather than the in-place butterfly.  The known-bit GA
recursion shares only the transfer function ``phi`` / ``phi_inv`` (checked
on its own by the acceptance suite) and carries the known positions as an
explicit mask instead of encoding them as a mean of 0.  Enumeration sizes
are deliberately capped so the oracles stay fast.
"""

from __future__ import annotations

import numpy as np

from .construction import CodeSpec
from .numerics import phi, phi_inv

ML_MAX_K = 16
DENSE_MAX_N = 1024


def kronecker_generator(N: int) -> np.ndarray:
    """The n-fold Kronecker power of [[1,0],[1,1]] as a dense 0/1 matrix."""
    if N > DENSE_MAX_N:
        raise ValueError(f"dense generator capped at N = {DENSE_MAX_N}")
    gen = np.array([[1]], dtype=np.uint8)
    while gen.shape[0] < N:
        gen = np.kron(np.array([[1, 0], [1, 1]], dtype=np.uint8), gen)
    return gen


def dense_encode(spec: CodeSpec, msg) -> np.ndarray:
    """Encode by explicit GF(2) matrix multiplication."""
    msg = np.asarray(msg, dtype=np.uint8)
    u = np.zeros(msg.shape[:-1] + (spec.mother_len,), dtype=np.uint8)
    u[..., spec.info_positions] = msg
    gen = kronecker_generator(spec.mother_len)
    return (u @ gen) % 2


def _all_messages(K: int) -> np.ndarray:
    grid = np.indices((2,) * K).reshape(K, -1).T
    return grid.astype(np.uint8)


def ml_decode(spec: CodeSpec, frame) -> np.ndarray:
    """Exhaustive maximum-likelihood decoding of one LLR frame."""
    msgs, _, scores = ml_codeword_scores(spec, frame)
    return msgs[int(np.argmax(scores))]


def ml_codeword_scores(spec: CodeSpec, frame):
    """All candidate codewords with their exact log-likelihood scores.

    Scores every one of the 2^K codewords by its exact log-likelihood
    under the BPSK/AWGN model, which is the correlation of (1 - 2x) with
    the LLRs.  Saturated (infinite) LLR positions carry no discriminating
    information because every valid codeword is zero there, so they are
    excluded from the correlation.
    """
    if spec.payload_len > ML_MAX_K:
        raise ValueError(f"exhaustive decoding capped at K = {ML_MAX_K}")
    llr = np.asarray(frame, dtype=np.float64)
    if llr.shape != (spec.mother_len,):
        raise ValueError(f"frame length must be N = {spec.mother_len}")
    msgs = _all_messages(spec.payload_len)
    codewords = dense_encode(spec, msgs)
    usable = np.isfinite(llr)
    scores = (1.0 - 2.0 * codewords[:, usable]) @ llr[usable]
    return msgs, codewords, scores


def exact_bec_channels(erasures) -> np.ndarray:
    """Erasure probability of every synthetic channel, by direct recursion.

    Adjacent positions polarize first (worse channel on the even index),
    after which the even and odd sub-lattices evolve independently.
    """
    eps = np.asarray(erasures, dtype=np.float64)
    if eps.size > DENSE_MAX_N:
        raise ValueError(f"recursion capped at N = {DENSE_MAX_N}")
    if eps.size == 1:
        return eps.copy()
    even = eps[0::2]
    odd = eps[1::2]
    worse = even + odd - even * odd
    better = even * odd
    out = np.empty_like(eps)
    out[0::2] = exact_bec_channels(worse)
    out[1::2] = exact_bec_channels(better)
    return out


def known_bit_ga_channels(means, known, g_mode: str = "sum"):
    """GA means of every synthetic channel when some code bits are known.

    ``known`` is a boolean mask of codeword positions whose bit the decoder
    knows to be zero (shortened positions, fed at ``KNOWN_ZERO_LLR``); their
    ``means`` entries are ignored.  A known input behaves as an LLR of
    infinite mean: the check node gives f(a, inf) = a and the variable node
    gives g(a, inf) = inf, whichever side of the pair it sits on.  Between
    two unknown inputs the usual two-mean update applies, with no special
    case for a mean of 0 (that is an erasure, not a known bit).

    Same recursion as :func:`exact_bec_channels`, run one level at a time
    over all sub-problems: row ``r`` of the working matrix holds the
    sub-problem whose outputs land on the positions congruent to ``r``.
    Returns ``(means, known)`` per synthetic channel; a known output channel
    carries a bit the decoder can infer, and its mean is reported as 0.
    """
    if g_mode not in ("sum", "product"):
        raise ValueError(f"unknown g_mode {g_mode!r}")
    k = np.array(known, dtype=bool)
    m = np.where(k, 0.0, np.asarray(means, dtype=np.float64))
    if m.ndim != 1 or k.shape != m.shape or m.size & (m.size - 1):
        raise ValueError("means and known mask must be equal power-of-two-length vectors")
    m, k = m[None, :], k[None, :]
    while m.shape[1] > 1:
        a, b = m[:, 0::2], m[:, 1::2]
        ka, kb = k[:, 0::2], k[:, 1::2]
        live = ~ka & ~kb
        arg = 1.0 - (1.0 - np.asarray(phi(a))) * (1.0 - np.asarray(phi(b)))
        underflow = arg <= 0.0  # both phi values underflow: the limit is min(a, b)
        f = np.where(underflow, np.minimum(a, b), np.asarray(phi_inv(np.where(underflow, 1.0, arg))))
        if g_mode == "sum":
            g = a + b
        else:  # saturates at infinity; a mean of 0 still gives 0
            with np.errstate(over="ignore", invalid="ignore"):
                g = np.where((a == 0.0) | (b == 0.0), 0.0, a * b)
        # Check node: a known input leaves the other input as it is.
        # Variable node: one known input makes the output known.
        minus = np.where(live, f, np.where(ka, b, a))
        plus = np.where(live, g, 0.0)
        m = np.concatenate([minus, plus])
        k = np.concatenate([ka & kb, ka | kb])
    return m[:, 0], k[:, 0]
