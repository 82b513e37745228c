"""SHA-1 (FIPS 180) on the standard library's native implementation.

OMA DRM 2 mandates SHA-1 as its hash function (DCF integrity hashes, the
HMAC-SHA1 Rights-Object MAC, KDF2 and the EMSA-PSS signature encoding all
build on it). :class:`SHA1` wraps ``hashlib.sha1``, so digests are
computed natively. What the model charges for a hash comes from the
metered trace (:mod:`repro.core.meter`), never from how the host
computes it.

The class keeps the ``hashlib`` streaming interface (``update`` /
``digest`` / ``hexdigest`` / ``copy``) and accepts only bytes-like input.
"""

import hashlib

#: Digest size in octets (160 bits).
DIGEST_SIZE = 20

#: Internal block size in octets (512 bits) — needed by HMAC.
BLOCK_SIZE = 64


class SHA1:
    """Streaming SHA-1 hash object (FIPS 180)."""

    digest_size = DIGEST_SIZE
    block_size = BLOCK_SIZE
    name = "sha1"

    def __init__(self, data: bytes = b"") -> None:
        self._hash = hashlib.sha1()
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb ``data`` into the hash state."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("SHA1.update expects bytes-like input")
        self._hash.update(data)

    def digest(self) -> bytes:
        """Return the 20-octet digest of the data absorbed so far."""
        return self._hash.digest()

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self.digest().hex()

    def copy(self) -> "SHA1":
        """Return an independent copy of the current hash state."""
        clone = SHA1.__new__(SHA1)
        clone._hash = self._hash.copy()
        return clone


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 of ``data``."""
    return SHA1(data).digest()


def sha1_hex(data: bytes) -> str:
    """One-shot SHA-1 of ``data`` as a hex string."""
    return SHA1(data).hexdigest()
