"""Encode, transmit over BPSK/AWGN, and compare the three decoders.

SC decodes bit by bit; SCL keeps a list of candidate paths; CA-SCL picks
the best list entry that passes a CRC-24.  All decoders run on whole
batches of frames at once; one frame's results are its row of each output.
"""

import numpy as np

import nupolar as npl

spec = npl.build_mother_code(128, 64)
ebno_db = 2.0
chan = npl.ChannelConfig(ebno_db=ebno_db, rate=spec.payload_len / spec.tx_len, seed=1)

# frames 0..399 of the seed's streams, as the Monte-Carlo harness draws them:
# each frame's payload bits, then its noise
frames = 400
payload, noise = npl.frame_draws(chan, 0, frames, 64 - 24, spec.tx_len)
msgs = npl.crc_append(payload)
cw = npl.encode(spec, msgs)
llr = npl.llr_demod(npl.bpsk_modulate(cw) + noise, chan)

sc_msgs, _ = npl.sc_decode_batch(spec, llr)
scl_msgs, scl_metrics = npl.scl_decode_batch(spec, llr, L=8)
ca_msgs, _, crc_ok, ca_rank = npl.ca_scl_decode_batch(spec, llr, L=8)

for name, got in (("SC", sc_msgs), ("SCL L=8", scl_msgs[:, 0, :]), ("CA-SCL L=8", ca_msgs)):
    fer = np.mean((got[:, : payload.shape[1]] != payload).any(axis=1))
    print(f"{name:11s} FER at {ebno_db} dB: {fer:.3f}")
print(f"CRC caught {int((~crc_ok).sum())} undecodable frames out of {frames}")

# A closer look at one frame's list --------------------------------------

print("\nlist for frame 0 (best metric first):")
for rank in range(4):
    print(f"  rank {rank}: metric {scl_metrics[0, rank]:8.3f}  first bits {scl_msgs[0, rank, :8].tolist()}")
print("CA-SCL pick: rank", ca_rank[0], "crc_ok", crc_ok[0])
