"""Check stream consistency by comparing truncated one-way digests.

Publishing r digest bits instead of the stream itself reveals nothing useful
about the bits, yet catches a mismatch with probability 1 - 2**-r: the
avalanche property makes unequal streams produce unrelated digests.
"""

import numpy as np

from skece import protocol, validation

for gamma in (0.5, 0.9, 0.98, 0.999):
    print(f"target confidence {gamma:>6}: checking length r = "
          f"{validation.checking_length(gamma)} bits")

rng = np.random.default_rng(3)
stream = rng.integers(0, 2, 300, dtype=np.uint8)
twin = stream.copy()
twin[150] ^= 1

r = validation.checking_length(0.98)
tag = validation.make_tag(stream, r)
frame = protocol.encode(
    protocol.ProtocolMessage(protocol.MsgType.TAGS, protocol.encode_tags([tag.tag], r))
)
print(f"\n6-bit tag of a 300-bit stream: {tag.tag.hex()} "
      f"(wire cost {len(frame)} bytes as a one-tag TAGS frame)")
print("identical stream validates:", validation.validate(tag, stream, r))
print("one flipped bit validates: ", validation.validate(tag, twin, r))

trials = 20_000
missed = sum(
    validation.validate(
        validation.make_tag(a := rng.integers(0, 2, 300, dtype=np.uint8), r),
        np.bitwise_xor(a, np.eye(1, 300, rng.integers(0, 300), dtype=np.uint8)[0]),
        r,
    )
    for _ in range(trials)
)
print(f"\nfalse matches over {trials} single-bit-flip pairs: {missed} "
      f"({missed / trials:.4f}, expected about {2 ** -r:.4f})")
