"""Host-speed calibration for the timed metrics.

The benchmark runs on shared hosts whose speed for pure-Python code
drifts by tens of percent between runs a few minutes apart: other
tenants compete for caches and memory bandwidth, and the process keeps
its CPU the whole time, so CPU time drifts with wall time. Every timed
run therefore also times :func:`kernel`, a fixed piece of pure Python
that uses none of the program's code, and scales its seconds by
``REFERENCE_S / median kernel time``: the seconds the run would have
taken on a host as fast as the reference one.

The kernel mixes what the program's hot loops do, so that it slows
down under the same kinds of contention: 32-bit word rounds over
64-octet blocks with list building (the hash loops), a walk over a
256 KiB buffer in 16-octet blocks that allocates a bytes object per
block (the cipher loops), big-integer modular exponentiation (key
generation) and a heap of tuples with dict lookups (the event kernel).
Nothing in this file may change once baselines have been recorded
against it; a later change to the program cannot move it.
"""

import gc
import heapq
import statistics
import struct
import time
from typing import List

_MASK = 0xFFFFFFFF
_BLOCK = bytes(range(64))
_ROUNDS = 250
_BUFFER = bytes(range(256)) * 1024
#: The Mersenne prime 2**521 - 1, a key-sized modulus.
_MODULUS = (1 << 521) - 1
_POWERS = 12
_EVENTS = 3000

#: Kernel time that defines the reference host: a reported second is a
#: second on a host that runs :func:`kernel` in this long (a 2-vCPU
#: Python 3.11 host ran it in 0.056-0.066 s).
REFERENCE_S = 0.06


def _mix(state, block):
    words = list(struct.unpack(">16L", block))
    append = words.append
    for t in range(16, 80):
        x = words[t - 3] ^ words[t - 8] ^ words[t - 14] ^ words[t - 16]
        append(((x << 1) | (x >> 31)) & _MASK)
    a, b, c, d, e = state
    for t in range(80):
        temp = ((((a << 5) | (a >> 27)) & _MASK)
                + ((b & c) | (~b & d)) + e + words[t]) & _MASK
        a, b, c, d, e = temp, a, ((b << 30) | (b >> 2)) & _MASK, c, d
    return ((state[0] + a) & _MASK, (state[1] + b) & _MASK,
            (state[2] + c) & _MASK, (state[3] + d) & _MASK,
            (state[4] + e) & _MASK)


def kernel() -> int:
    """One calibration sample's work; returns a checksum."""
    state = (1, 2, 3, 4, 5)
    for _ in range(_ROUNDS):
        state = _mix(state, _BLOCK)
    key = int.from_bytes(_BLOCK[:16], "big")
    blocks = []
    for offset in range(0, len(_BUFFER), 16):
        value = int.from_bytes(_BUFFER[offset:offset + 16], "big") ^ key
        blocks.append(value.to_bytes(16, "big"))
        key = value
    blob = b"".join(blocks)
    power = 0
    for exponent in range(_POWERS):
        power ^= pow(3, _MODULUS - 2 - exponent, _MODULUS)
    heap = []
    seen = {}
    for index in range(_EVENTS):
        heapq.heappush(heap, ((index * 7919) % 1009, index, "e%d" % index))
        if len(heap) > 64:
            at, seq, name = heapq.heappop(heap)
            seen[name] = seen.get(name, 0) + at
    return len(blob) + len(seen) + state[0] + power % 7


class Calibration:
    """Kernel samples taken through a run, and the scale they give."""

    def __init__(self) -> None:
        self.samples = []

    def sample(self, count: int = 2) -> List[float]:
        """Time ``count`` kernels; returns their seconds."""
        taken = []
        # The cyclic collector would walk the program's live heap when
        # the kernel's allocations trigger it; keep that out of the time.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                kernel()
                taken.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples.extend(taken)
        return taken

    @property
    def scale(self) -> float:
        """Factor from this host's seconds to reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
