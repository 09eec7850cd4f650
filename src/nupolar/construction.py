"""Frozen-set construction for mother, shortened, and extended polar codes.

A code is built by evolving a stage-0 reliability vector (one LLR mean per
codeword position) through the polarization butterfly and unfreezing the K
most reliable source positions.  Uniform vectors give the classic mother
code.  In general each entry is the design-point mean times the number of
times the position is observed: 0 if shortened, 1 if sent, 2 if repeated.
Evolving that non-uniform vector gives the re-polarized (NUPGA) shortened
and extended codes.  Baseline shortened codes (CW / RQUP / NAT_PD selection
without re-polarization) and the exact BEC code are also provided.  All
builders share one tail, and the butterfly skips every pair with a
shortened member.

All indices in the Python API are 0-based.  The JSON serialization of
:class:`CodeSpec` uses 1-based positions.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .numerics import G_MODES, bec_pair, nupga_pair

CONSTRUCTION_METHODS = ("GA_uniform", "NUPGA_shortened", "NUPGA_extended", "BEC_oracle")
PATTERN_METHODS = ("CW", "RQUP", "NAT_PD")
REPEAT_RULES = ("tail", "weak_info")


class ConstructionError(ValueError):
    """A code with the requested parameters cannot be built."""


def _check_power_of_two(n: int) -> int:
    n = _integer(n, "mother length")
    if n < 2 or n & (n - 1):
        raise ConstructionError(f"mother length must be a power of two >= 2, got {n}")
    return n


def _whole(values, what: str) -> np.ndarray:
    """``values``, an array of indices, as int64, rejecting (not truncating)
    anything fractional and anything that is not a number, booleans too, in
    a list or not.  A scalar length goes through :func:`_integer`."""
    arr = np.asarray(values)
    listed = () if isinstance(values, np.ndarray) else np.asarray(values, dtype=object).flat
    with np.errstate(invalid="ignore"):  # inf and NaN cast to garbage, caught below
        ints = arr.astype(np.int64) if arr.dtype.kind in "iuf" else None
    if ints is None or not np.array_equal(ints, arr) or any(isinstance(v, (bool, np.bool_)) for v in listed):
        raise ConstructionError(f"{what} must be whole numbers")
    return ints


def _integer(value, what: str) -> int:
    # ``value`` as an int; a boolean is not a whole number here.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConstructionError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    # ``value`` as a float; a boolean is not a real number here.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConstructionError(f"{what} must be a number, got {value!r}")
    return float(value)


def bit_reverse(indices, n_bits: int):
    """Reverse the lowest ``n_bits`` bits of each index."""
    idx = np.asarray(indices)
    out = np.zeros_like(idx)
    for b in range(n_bits):
        out |= ((idx >> b) & 1) << (n_bits - 1 - b)
    return out


@dataclass
class RateMatchPattern:
    """Codeword positions removed (shorten) or repeated (extend).

    ``indices`` are sorted, distinct, 0-based positions into the length-N
    mother codeword.  ``kind`` is one of ``"none"``, ``"shorten"``,
    ``"extend"``.
    """

    kind: str = "none"
    indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self):
        if self.kind not in ("none", "shorten", "extend"):
            raise ConstructionError(f"unknown pattern kind {self.kind!r}")
        idx = np.sort(_whole(self.indices, "pattern indices").ravel())
        if idx.size and (np.any(np.diff(idx) == 0) or idx[0] < 0):
            raise ConstructionError("pattern indices must be distinct and non-negative")
        if self.kind == "none" and idx.size:
            raise ConstructionError("a 'none' pattern carries no indices")
        idx.setflags(write=False)
        self.indices = idx

    def __len__(self) -> int:
        return int(self.indices.size)

    def tx_positions(self, N: int) -> np.ndarray:
        """Mother position of each transmitted symbol, in transmit order.

        The kept positions come first in ascending order, then the repeated
        positions.  ``np.bincount(tx, minlength=N)`` counts how often each
        position is observed: 0 if shortened, 1 if sent, 2 if repeated.
        """
        if self.indices.size and self.indices[-1] >= N:
            raise ConstructionError("pattern positions exceed the mother length")
        sent = np.ones(N, dtype=bool)
        sent[self.indices] = self.kind != "shorten"
        repeated = self.indices if self.kind == "extend" else self.indices[:0]
        return np.concatenate([np.flatnonzero(sent), repeated])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RateMatchPattern)
            and self.kind == other.kind
            and np.array_equal(self.indices, other.indices)
        )


@dataclass
class CodeSpec:
    """Complete description of one code instance.

    ``frozen_mask[i]`` is True when source position ``i`` carries a frozen
    zero.  ``tx_len`` is the transmitted length after rate matching.
    ``tx_positions`` is derived from the pattern: the mother position of
    each transmitted symbol, in transmit order (see
    :meth:`RateMatchPattern.tx_positions`), so ``tx_len`` is its size.  The
    arrays are marked read-only so a spec can be shared across workers.
    """

    mother_len: int
    payload_len: int
    tx_len: int
    frozen_mask: np.ndarray
    pattern: RateMatchPattern
    design_snr_db: float = 0.0
    construction_method: str = "GA_uniform"
    g_mode: str = "sum"
    tx_positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        N = _check_power_of_two(self.mother_len)
        K = _integer(self.payload_len, "payload length")
        M = _integer(self.tx_len, "tx length")
        mask = np.asarray(self.frozen_mask)
        if mask.shape != (N,) or not np.all((mask == 0) | (mask == 1)):
            raise ConstructionError("frozen mask must hold N entries, each 0 or 1")
        mask = mask.astype(bool)
        if not 0 <= K <= M:
            raise ConstructionError(f"payload length {K} outside [0, {M}]")
        if int(np.count_nonzero(~mask)) != K:
            raise ConstructionError("frozen mask must leave exactly K information positions")
        if self.construction_method not in CONSTRUCTION_METHODS:
            raise ConstructionError(f"unknown construction method {self.construction_method!r}")
        if self.g_mode not in G_MODES:
            raise ConstructionError(f"unknown g_mode {self.g_mode!r}")
        if not isinstance(self.pattern, RateMatchPattern):
            raise ConstructionError(f"pattern must be a RateMatchPattern, got {type(self.pattern).__name__}")
        tx = self.pattern.tx_positions(N)
        if M != tx.size:
            raise ConstructionError(f"tx length {M} must equal the {tx.size} transmitted positions")
        if self.pattern.kind == "shorten":
            if not N // 2 < M < N:
                raise ConstructionError("shortened length must satisfy N/2 < M < N")
            # Codeword bit j sums the source bits whose index covers j's bits:
            # it is zero for every message only when all of them are frozen.
            covered = _butterfly(~mask, lambda a, b: (np.maximum(a, b), b))
            if np.any(covered[self.pattern.indices]):
                raise ConstructionError("every source position covering a shortened position must be frozen")
        mask.setflags(write=False)
        tx.setflags(write=False)
        self.mother_len, self.payload_len, self.tx_len = N, K, M
        self.frozen_mask = mask
        self.tx_positions = tx
        self.design_snr_db = _real(self.design_snr_db, "design_snr_db")

    @property
    def info_positions(self) -> np.ndarray:
        return np.flatnonzero(~self.frozen_mask)

    def __eq__(self, other) -> bool:
        return isinstance(other, CodeSpec) and self.to_json() == other.to_json()

    def to_json(self, indent: int | None = None) -> str:
        """Serialize the init fields, in field order, as JSON: the mask as
        0/1 and the pattern as ``{"kind", "indices"}`` with 1-based positions."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        doc["frozen_mask"] = self.frozen_mask.astype(int).tolist()
        doc["pattern"] = {"kind": self.pattern.kind, "indices": (self.pattern.indices + 1).tolist()}
        return json.dumps(doc, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CodeSpec":
        """Inverse of :meth:`to_json`; rejects missing and unknown keys."""
        doc = _exact_keys(json.loads(text), cls)
        pattern = _exact_keys(doc["pattern"], RateMatchPattern)
        doc["pattern"] = RateMatchPattern(pattern["kind"], _whole(pattern["indices"], "pattern indices") - 1)
        return cls(**doc)


def _exact_keys(doc, cls) -> dict:
    # ``doc`` once its keys are exactly the init fields of dataclass ``cls``.
    names = {f.name for f in fields(cls) if f.init}
    keys = set(doc) if isinstance(doc, dict) else set()
    if keys != names:
        raise ConstructionError(f"{cls.__name__} document: missing keys {sorted(names - keys)}, "
                                f"unknown keys {sorted(keys - names)}")
    return doc


def _butterfly(v, pair, hold=None):
    # The polarization butterfly, in place on C-contiguous v, positions on
    # axis 0 (reshapes are sized, so an empty batch fits).  Stage s pairs
    # the positions that differ in bit s (distance 2^s, smallest first), and
    # pair(a, b) returns their new (minus, plus) values, lower index first.
    # A pair with a member in the 1-D boolean mask `hold` keeps its values,
    # so the held set is the same at every stage.  Codec's XOR pair makes the
    # Kronecker power of [[1,0],[1,1]], no bit reversal, self-inverse mod 2.
    d = 1
    while d < len(v):
        lo, hi = v.reshape((len(v) // (2 * d), 2, d) + v.shape[1:]).swapaxes(0, 1)
        if hold is None:
            lo[...], hi[...] = pair(lo, hi)
        else:
            live = ~hold.reshape(-1, 2, d).any(axis=1)
            lo[live], hi[live] = pair(lo[live], hi[live])
        d *= 2
    return v


def evolve_reliabilities(stage0, g_mode: str = "sum"):
    """Run the polarization butterfly over a stage-0 reliability vector.

    Stage ``s`` pairs positions that differ in bit ``s`` (distance 2^s,
    smallest first); the check-node output lands on the lower index of each
    pair and the variable-node output on the upper.  The stage-0 zeros are
    the dead (shortened) positions: a pair with a dead member passes
    through unchanged, so they stay dead and at 0.  Every other pair gets
    the plain two-mean update :func:`~nupolar.numerics.nupga_pair`, even
    where a live mean has evolved to 0.  On a pattern closed upward this is
    GA of the channel the decoder sees, with shortened bits known.
    Returns the fully evolved vector.  After its first ``s`` stages the
    vector is the evolutions of its aligned blocks of ``2^s`` positions,
    concatenated: those stages pair positions inside a block, and whether
    a pair passes through depends on its own positions only.
    """
    v = np.array(stage0, dtype=np.float64)
    if v.ndim != 1:
        raise ConstructionError("reliability vector must be one-dimensional")
    _check_power_of_two(v.size)
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ConstructionError("reliabilities must be finite and non-negative")
    return _butterfly(v, lambda a, b: nupga_pair(a, b, g_mode), hold=v == 0.0)


def evolve_bec(stage0):
    """Exact BEC erasure evolution through the same butterfly schedule."""
    v = np.array(stage0, dtype=np.float64)
    if v.ndim != 1:
        raise ConstructionError("erasure vector must be one-dimensional")
    _check_power_of_two(v.size)
    if not np.all((v >= 0) & (v <= 1)):
        raise ConstructionError("erasure probabilities must lie in [0, 1]")
    return _butterfly(v, bec_pair)


def select_information_set(rel, K: int) -> np.ndarray:
    """Frozen mask unfreezing the K most reliable positions.

    Ties break toward the lower index.  Raises :class:`ConstructionError`
    when ``rel`` is not one-dimensional, K is negative or fewer than K
    positions have strictly positive reliability.
    """
    rel = np.asarray(rel, dtype=np.float64)
    if rel.ndim != 1:
        raise ConstructionError("reliability vector must be one-dimensional")
    K = _integer(K, "payload length")
    if K < 0:
        raise ConstructionError(f"payload length {K} is negative")
    usable = int(np.count_nonzero(rel > 0))
    if K > usable:
        raise ConstructionError(
            f"need {K} information channels but only {usable} are usable (deficit {K - usable})"
        )
    order = np.argsort(-rel, kind="stable")
    mask = np.ones(rel.size, dtype=bool)
    mask[order[:K]] = False
    return mask


def design_snr_to_llr_mean(design_snr_db: float) -> float:
    """Stage-0 LLR mean 4*S for a design point of S = 10^(dB/10); raises
    :class:`ConstructionError` unless the mean is finite."""
    try:
        mean = 4.0 * 10.0 ** (design_snr_db / 10.0)
    except OverflowError:
        mean = math.inf
    if not math.isfinite(mean):
        raise ConstructionError(f"design SNR {design_snr_db} dB gives a non-finite LLR mean")
    return mean


def _build_code(N, K, pattern, design_snr_db, g_mode, method) -> CodeSpec:
    # The tail every builder shares.  BEC_oracle evolves the uniform erasure
    # probability exp(-S) exactly.  The re-polarized methods evolve the
    # design-point mean times each position's observation count; GA_uniform
    # evolves the uniform vector and skips the pattern afterwards.
    K = _integer(K, "payload length")
    tx = pattern.tx_positions(N)
    if not 0 < K <= min(N, tx.size):
        raise ConstructionError(f"payload length {K} outside (0, {min(N, tx.size)}]")
    base = design_snr_to_llr_mean(design_snr_db)
    if method == "BEC_oracle":
        frozen = bec_construct(np.full(N, np.exp(-base / 4)), K)
    elif method == "GA_uniform":
        rel = evolve_reliabilities(np.full(N, base), g_mode)
        rel[pattern.indices] = 0.0
        frozen = select_information_set(rel, K)
    else:
        frozen = select_information_set(evolve_reliabilities(base * np.bincount(tx, minlength=N), g_mode), K)
    return CodeSpec(
        mother_len=N,
        payload_len=K,
        tx_len=tx.size,
        frozen_mask=frozen,
        pattern=pattern,
        design_snr_db=design_snr_db,
        construction_method=method,
        g_mode=g_mode,
    )


def build_mother_code(N: int, K: int, design_snr_db: float = 0.0, g_mode: str = "sum") -> CodeSpec:
    """Length-N power-of-two code with K information bits (uniform GA)."""
    N = _check_power_of_two(N)
    return _build_code(N, K, RateMatchPattern(), design_snr_db, g_mode, "GA_uniform")


def shortening_pattern(method: str, N: int, M: int) -> RateMatchPattern:
    """Codeword positions to remove for one of the baseline schemes.

    ``NAT_PD``: the last N - M positions in natural order (valid because
    the natural-order generator is lower triangular).  ``RQUP``: the N - M
    positions whose bit-reversed indices are largest.  ``CW``: iterative
    weight-1 column reduction of the generator matrix; when several columns
    reach weight 1, the one with the smallest original column weight goes
    first (lowest index second), staying true to the column-weight
    criterion the method is named for (Wang & Liu, IEEE Comm. Lett.
    18(12), 2014).  That order is the order of original column weight, so
    the pattern is read off the index bits without building the matrix.
    """
    N = _check_power_of_two(N)
    M = _integer(M, "shortened length")
    if not N // 2 < M < N:
        raise ConstructionError(f"shortened length must satisfy N/2 < M < N, got M={M}, N={N}")
    r = N - M
    n = N.bit_length() - 1
    if method == "NAT_PD":
        idx = np.arange(M, N)
    elif method == "RQUP":
        rev = bit_reverse(np.arange(N), n)
        idx = np.flatnonzero(rev >= M)
    elif method == "CW":
        # G[i, j] = 1 exactly when j & i == j, so column j has weight
        # 2^(n - popcount j).  The removed set stays closed upward: a
        # weight-1 column is a remaining one whose strict supersets are all
        # gone, it leaves with its own row, and the lightest remaining
        # column is always one of them.  So the reduction removes columns
        # by original weight, lowest index first.
        pos = np.arange(N)
        weight = 1 << (n - sum((pos >> b) & 1 for b in range(n)))
        idx = np.sort(np.argsort(weight, kind="stable")[:r])
    else:
        raise ConstructionError(f"unknown shortening method {method!r}")
    return RateMatchPattern("shorten", idx)


def build_shortened_code(
    N: int,
    M: int,
    K: int,
    pattern,
    design_snr_db: float = 0.0,
    g_mode: str = "sum",
    repolarize: bool = True,
) -> CodeSpec:
    """Shortened code of transmitted length M from a length-N mother code.

    ``pattern`` names the removed positions, one of ``PATTERN_METHODS``
    (see :func:`shortening_pattern`); M = N gives the mother code.  With
    ``repolarize`` (the default) the stage-0 reliabilities of the
    inputs matched to shortened positions are zeroed and the whole vector
    is re-evolved before selecting the information set (the NUPGA scheme).
    With ``repolarize=False`` the information set keeps the mother code's
    reliability order, merely skipping the pattern positions (the behaviour
    of the CW / RQUP / PD baselines).
    """
    N = _check_power_of_two(N)
    if not (isinstance(pattern, str) and pattern in PATTERN_METHODS):
        raise ConstructionError(f"unknown shortening method {pattern!r}")
    if _integer(M, "shortened length") == N:
        return build_mother_code(N, K, design_snr_db, g_mode)
    method = "NUPGA_shortened" if repolarize else "GA_uniform"
    return _build_code(N, K, shortening_pattern(pattern, N, M), design_snr_db, g_mode, method)


def build_extended_code(
    N: int,
    delta_M: int,
    K: int,
    design_snr_db: float = 0.0,
    g_mode: str = "sum",
    repeat="tail",
) -> CodeSpec:
    """Extended code of length N + delta_M by repeating codeword positions.

    Each repeated position is observed twice at the receiver, so its
    stage-0 LLR mean doubles (8*S instead of 4*S); the vector is then
    evolved and the information set re-selected.  ``repeat`` chooses the
    repeated positions, one of ``REPEAT_RULES``: ``"tail"`` (default)
    repeats the last ``delta_M`` positions, ``"weak_info"`` the positions
    of the mother code's least reliable information bits.
    """
    N = _check_power_of_two(N)
    delta_M = _integer(delta_M, "extension length")
    K = _integer(K, "payload length")
    if not 0 < delta_M < N // 2:
        raise ConstructionError(f"extension length must satisfy 0 < delta_M < N/2, got {delta_M}")
    if not 0 < K <= N:
        raise ConstructionError(f"payload length {K} outside (0, {N}]")
    if not (isinstance(repeat, str) and repeat in REPEAT_RULES):
        raise ConstructionError(f"unknown repeat rule {repeat!r}")
    if repeat == "tail":
        positions = np.arange(N - delta_M, N)
    else:
        rel = evolve_reliabilities(np.full(N, design_snr_to_llr_mean(design_snr_db)), g_mode)
        info = np.flatnonzero(~select_information_set(rel, K))
        if delta_M > info.size:
            raise ConstructionError("weak_info extension needs delta_M <= K")
        positions = np.sort(info[np.argsort(rel[info], kind="stable")[:delta_M]])
    return _build_code(N, K, RateMatchPattern("extend", positions), design_snr_db, g_mode, "NUPGA_extended")


def build_bec_code(N: int, K: int, design_snr_db: float = 0.0, g_mode: str = "sum") -> CodeSpec:
    """Length-N code with K information bits from exact BEC evolution (see :func:`bec_construct`).

    Every position has the erasure probability ``exp(-S)``, the
    Bhattacharyya parameter of the design point ``S = 10^(design_snr_db / 10)``.
    """
    N = _check_power_of_two(N)
    return _build_code(N, K, RateMatchPattern(), design_snr_db, g_mode, "BEC_oracle")


def bec_construct(erasures, K: int) -> np.ndarray:
    """Frozen mask from exact BEC evolution of a per-position erasure vector.

    The K positions with the smallest evolved erasure probability are
    unfrozen; ties break toward the lower index.
    """
    final = evolve_bec(erasures)
    K = _integer(K, "payload length")
    if not 0 <= K <= final.size:
        raise ConstructionError(f"payload length {K} outside [0, {final.size}]")
    order = np.argsort(final, kind="stable")
    mask = np.ones(final.size, dtype=bool)
    mask[order[:K]] = False
    return mask
