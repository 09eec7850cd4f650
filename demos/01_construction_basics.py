"""Walk through the construction numerics on a size-4 code.

The construction tracks one number per codeword position: the mean of the
channel LLR under the all-zero codeword.  A polarization stage turns a
pair of means into a worse (check) and a better (variable) mean; evolving
all log2(N) stages and keeping the K best positions gives the frozen mask.
"""

import numpy as np

import nupolar as npl

# The transfer function and its inverse ------------------------------------

print("phi(4.0)       =", npl.phi(4.0))
print("phi(0.0)       =", npl.phi(0.0), "(clamped so inversion is well posed)")
print("phi_inv(0.4071)=", npl.phi_inv(0.4071))

# One polarization step on a shared mean m=4 (a 0 dB design point) is the
# pair update with equal inputs:
minus, plus = npl.nupga_pair(4.0, 4.0)
print(f"pair update of m=4: worse {minus:.4f}, better {plus:.4f}")

# The update takes two independent means, so it can evolve a *non-uniform*
# profile:
print("nupga_pair(4, 2) =", npl.nupga_pair(4.0, 2.0))
# A stage-0 mean of 0 marks a dead (shortened) position; the butterfly
# passes a pair with a dead member through unchanged:
print("evolve_reliabilities([4, 0]) =", npl.evolve_reliabilities([4.0, 0.0]))

# Evolving a whole vector ---------------------------------------------------

uniform = npl.evolve_reliabilities([4.0, 4.0, 4.0, 4.0])
print("\nevolved uniform profile :", np.round(uniform, 4))
spec = npl.build_mother_code(4, 2)
print("mother info mask (1=data):", (~spec.frozen_mask).astype(int))

# Zeroing the last entry models a shortened position; re-evolving moves the
# information set:
penalized = npl.evolve_reliabilities([4.0, 4.0, 4.0, 0.0])
print("evolved penalized profile:", np.round(penalized, 4))
short = npl.build_shortened_code(4, 3, 2, [1, 1, 1, 0])
print("shortened info mask      :", (~short.frozen_mask).astype(int))

# The erasure-channel oracle ------------------------------------------------

# For the BEC the same butterfly is exact, which makes it a good test
# oracle: capacity is conserved at every stage.  Stage s pairs positions
# inside aligned blocks of 2^s, so it is the evolutions of those blocks:
eps = np.full(8, 0.5)
print(f"stage 0: capacity sum = {np.sum(1 - eps):.12f}")
for s in range(1, 4):
    stage = np.concatenate([npl.evolve_bec(block) for block in eps.reshape(-1, 1 << s)])
    print(f"stage {s}: capacity sum = {np.sum(1 - stage):.12f}")
print("final erasures:", np.round(npl.evolve_bec(eps), 4))
print("BEC mask (K=4):", (~npl.bec_construct(eps, 4)).astype(int))
