"""HMAC-SHA1 (RFC 2104 / FIPS 198) on the standard library's ``hmac``.

OMA DRM 2 uses HMAC-SHA1 as the MAC algorithm that protects Rights-Object
integrity and authenticity (the ``<mac>`` element of a protected RO).
:class:`HMACSHA1` wraps ``hmac.new(key, None, hashlib.sha1)``; keys
longer than the 64-octet block are hashed first, as RFC 2104 §2 says.
"""

import hashlib
import hmac

from .encoding import constant_time_equal
from .sha1 import DIGEST_SIZE


class HMACSHA1:
    """Streaming HMAC-SHA1 object with the ``hashlib``-style interface."""

    digest_size = DIGEST_SIZE
    name = "hmac-sha1"

    def __init__(self, key: bytes, data: bytes = b"") -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError("HMAC key must be bytes")
        self._mac = hmac.new(key, None, hashlib.sha1)
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb ``data`` into the MAC state."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("HMACSHA1.update expects bytes-like input")
        self._mac.update(data)

    def digest(self) -> bytes:
        """Return the 20-octet MAC of the data absorbed so far."""
        return self._mac.digest()

    def hexdigest(self) -> str:
        """Return the MAC as a lowercase hex string."""
        return self.digest().hex()

    def copy(self) -> "HMACSHA1":
        """Return an independent copy of the current MAC state."""
        clone = HMACSHA1.__new__(HMACSHA1)
        clone._mac = self._mac.copy()
        return clone


def hmac_sha1(key: bytes, message: bytes) -> bytes:
    """One-shot HMAC-SHA1 of ``message`` under ``key``."""
    return HMACSHA1(key, message).digest()


def verify_hmac_sha1(key: bytes, message: bytes, tag: bytes) -> bool:
    """Verify an HMAC-SHA1 tag in constant time."""
    return constant_time_equal(hmac_sha1(key, message), tag)
