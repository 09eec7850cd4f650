"""Build shortened and extended codes and inspect their rate-match patterns.

Shortening drops codeword positions that are structurally zero (the
matched inputs are frozen), letting a length-N mother code transmit only
M < N bits.  Extension repeats selected positions so the receiver sees two
noisy copies, stretching the code to M > N.
"""

import numpy as np

import nupolar as npl

N, M, K = 64, 48, 24

print("shortening patterns for N=64 -> M=48 (0-based positions):")
for method in ("NAT_PD", "RQUP", "CW"):
    pat = npl.shortening_pattern(method, N, M)
    print(f"  {method:7s}: {pat.indices.tolist()}")

# Re-polarized (NUPGA) vs mother-order baseline selection ------------------

nupga = npl.build_shortened_code(N, M, K, "NAT_PD")
base = npl.build_shortened_code(N, M, K, "NAT_PD", repolarize=False)
moved = int((nupga.frozen_mask != base.frozen_mask).sum())
print(f"\nre-polarization moved {moved} mask positions at (N={N}, M={M}, K={K})")
print("NUPGA info positions:", nupga.info_positions.tolist())

# Every shortened position is guaranteed zero for every message:
msgs = np.random.default_rng(0).integers(0, 2, (200, K), dtype=np.uint8)
cws = npl.encode(nupga, msgs)
print("shortened positions all zero:", not cws[:, nupga.pattern.indices].any())
tx = npl.tx_frame(nupga, cws)
print("transmitted shape:", tx.shape)

# Extension ------------------------------------------------------------------

ext = npl.build_extended_code(N, 8, K)
print(f"\nextended code: mother {ext.mother_len} -> tx {ext.tx_len}")
print("repeated positions (tail rule):", ext.pattern.indices.tolist())
weak = npl.build_extended_code(N, 8, K, repeat="weak_info")
print("repeated positions (weak_info):", weak.pattern.indices.tolist())

# Specs serialize to JSON (1-based positions on the wire):
print("\nJSON document for the shortened code:")
print(nupga.to_json(indent=2)[:400], "...")
