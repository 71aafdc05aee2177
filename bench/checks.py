"""Reference computations the benchmark checks the library against.

Everything here is written from the published formulas, not from the
library's code: quantization from ``mu ± alpha·sigma``, tags from stdlib
``hashlib``, edit distance from the textbook dynamic programme, wire
payloads parsed byte by byte, and the four NIST SP 800-22 statistics with
their p-values from closed forms of the incomplete gamma function.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np


class CheckFailed(Exception):
    """An output of the library disagrees with the reference computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- quantization and tags ---------------------------------------------------


def quantize(amplitudes: np.ndarray, alpha: float):
    """Per stream: the bit each kept sample maps to, or -1 inside the band."""
    out = np.empty(amplitudes.shape, dtype=np.int8)
    for i, row in enumerate(amplitudes):
        mu = row.mean()
        sigma = math.sqrt(float(((row - mu) ** 2).mean()))
        q_plus = float(mu) + alpha * sigma
        q_minus = float(mu) - alpha * sigma
        out[i] = np.where(row >= q_plus, 1, np.where(row <= q_minus, 0, -1))
    return out


def party_streams(sym_a: np.ndarray, sym_b: np.ndarray, key_length: int | None = None):
    """Both parties' bits over the samples neither dropped, optionally capped."""
    streams_a, streams_b = [], []
    for ra, rb in zip(sym_a, sym_b):
        kept = (ra >= 0) & (rb >= 0)
        a = ra[kept].astype(np.uint8)
        b = rb[kept].astype(np.uint8)
        if key_length is not None:
            a, b = a[:key_length], b[:key_length]
        streams_a.append(a)
        streams_b.append(b)
    return streams_a, streams_b


def tag(bits, r: int) -> bytes:
    """First r bits of SHA-1 over (8-byte big-endian bit count, bits MSB-first)."""
    bits = [int(b) for b in bits]
    pad = (-len(bits)) % 8
    value = int("".join(map(str, bits)) or "0", 2) << pad
    body = value.to_bytes((len(bits) + pad) // 8, "big")
    digest = hashlib.sha1(struct.pack(">Q", len(bits)) + body).digest()
    head = int.from_bytes(digest[: (r + 7) // 8], "big")
    spare = 8 * ((r + 7) // 8) - r
    return ((head >> spare) << spare).to_bytes((r + 7) // 8, "big")


def checking_length(gamma: float) -> int:
    """Smallest r with 1 - 2**-r >= gamma."""
    r = 1
    while 1.0 - 0.5**r < gamma:
        r += 1
    return r


# -- wire payloads -----------------------------------------------------------


def parse_tags(payload: bytes):
    """TAGS payload: r (1 byte), count (2 bytes BE), then count tags."""
    r = payload[0]
    count = int.from_bytes(payload[1:3], "big")
    width = (r + 7) // 8
    require(len(payload) == 3 + count * width, "TAGS payload has the wrong size")
    return r, [payload[3 + k * width : 3 + (k + 1) * width] for k in range(count)]


def parse_diff_vector(payload: bytes):
    """DIFF_VECTOR payload: theta, m, m residues, 8-byte bit count, X packed."""
    theta = payload[0]
    m = int.from_bytes(payload[1:3], "big")
    residues = list(payload[3 : 3 + m])
    nbits = int.from_bytes(payload[3 + m : 11 + m], "big")
    packed = payload[11 + m :]
    require(len(packed) == (nbits + 7) // 8, "DIFF_VECTOR X block has the wrong size")
    x = [(packed[k // 8] >> (7 - k % 8)) & 1 for k in range(nbits)]
    return theta, residues, x


# -- edit distance -----------------------------------------------------------


def levenshtein(a, b) -> int:
    """Wagner-Fischer with unit costs, one row at a time, in plain Python."""
    a = [int(v) for v in a]
    b = [int(v) for v in b]
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        left = i
        for j, cb in enumerate(b, 1):
            left = min(prev[j] + 1, left + 1, prev[j - 1] + (ca != cb))
            cur.append(left)
        prev = cur
    return prev[-1]


# -- NIST SP 800-22 ----------------------------------------------------------


def upper_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for integer or half-integer a.

    Integer a:      Q(n, x)     = e^-x * sum_{k<n} x^k / k!
    Half-integer a: Q(n+1/2, x) = erfc(sqrt x) + e^-x * sum_{k=1..n} x^(k-1/2) / Gamma(k+1/2)
    """
    if x <= 0:
        return 1.0
    if float(a).is_integer():
        n = int(a)
        term, total = 1.0, 0.0
        for k in range(n):
            if k:
                term *= x / k
            total += term
        return math.exp(-x) * total
    n = int(a - 0.5)
    require(abs(a - (n + 0.5)) < 1e-12, f"Q(a, x) needs integer or half-integer a, got {a}")
    total = math.erfc(math.sqrt(x))
    term = math.sqrt(x) / math.gamma(1.5)
    for k in range(1, n + 1):
        if k > 1:
            term *= x / (k - 0.5)
        total += math.exp(-x) * term
    return total


def frequency_p(bits) -> float:
    n = len(bits)
    s = 2 * int(np.sum(bits)) - n
    return math.erfc(abs(s) / math.sqrt(2.0 * n))


# (n at least, block length M, K, class probabilities, run length of class 0)
LONGEST_RUN_CLASSES = [
    (750000, 10000, 6, (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727), 10),
    (6272, 128, 5, (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124), 4),
    (128, 8, 3, (0.2148, 0.3672, 0.2305, 0.1875), 1),
]


def longest_run_p(bits) -> float:
    n = len(bits)
    for min_n, block, k, probs, first in LONGEST_RUN_CLASSES:
        if n >= min_n:
            break
    text = "".join("1" if b else "0" for b in bits)
    counts = [0] * (k + 1)
    for j in range(n // block):
        longest = max(len(run) for run in text[j * block : (j + 1) * block].split("0"))
        counts[min(max(longest - first, 0), k)] += 1
    blocks = n // block
    chi2 = sum((c - blocks * p) ** 2 / (blocks * p) for c, p in zip(counts, probs))
    return upper_gamma_q(k / 2.0, chi2 / 2.0)


def spectral_p(bits) -> float:
    n = len(bits)
    x = 2.0 * np.asarray(bits, dtype=np.float64) - 1.0
    moduli = np.abs(np.fft.rfft(x))[: n // 2]
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    d = (np.count_nonzero(moduli < threshold) - 0.95 * n / 2.0) / math.sqrt(
        n * 0.95 * 0.05 / 4.0
    )
    return math.erfc(abs(d) / math.sqrt(2.0))


def approx_entropy_p(bits, m: int = 2) -> float:
    n = len(bits)
    text = "".join("1" if b else "0" for b in bits)

    def phi(width: int) -> float:
        wrapped = text + text[: width - 1]
        counts: dict[str, int] = {}
        for i in range(n):
            word = wrapped[i : i + width]
            counts[word] = counts.get(word, 0) + 1
        return sum(c / n * math.log(c / n) for c in counts.values())

    apen = phi(m) - phi(m + 1)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    return upper_gamma_q(2 ** (m - 1), max(chi2, 0.0) / 2.0)


NIST_REFERENCES = {
    "frequency": frequency_p,
    "longest_run": longest_run_p,
    "fft": spectral_p,
    "approx_entropy": approx_entropy_p,
}
