"""The dense encoder that the benchmark checks ``encode`` against.

Encoding goes through an explicit Kronecker-power matrix, so it shares no
code with the butterfly of ``codec.encode``.  The test suite's other
brute-force references live beside its tests.
"""

from __future__ import annotations

import numpy as np

from .construction import CodeSpec

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
