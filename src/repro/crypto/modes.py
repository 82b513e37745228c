"""Block cipher modes of operation.

OMA DRM 2 mandates 128-bit AES in CBC mode for content encryption
(``AES_128_CBC`` in the DCF's encryption-method box). We implement CBC with
PKCS#7 padding plus a raw (unpadded) variant used by tests and by callers
that manage padding themselves.

Encryption chains block by block through :meth:`AES.encrypt_block`.
Decryption has no chain to wait for (``P_i = D(C_i) xor C_{i-1}``), so it
runs slice by slice through the block-parallel
:meth:`AES.decrypt_blocks`.
"""

from .aes import AES, BLOCK_SIZE, PARALLEL_BLOCKS
from .encoding import xor_bytes
from .errors import InvalidBlockError
from .padding import pad, unpad


def _check_iv(iv: bytes) -> None:
    if len(iv) != BLOCK_SIZE:
        raise InvalidBlockError("CBC IV must be 16 octets, got %d" % len(iv))


def cbc_encrypt_raw(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """AES-CBC encrypt without padding; input must be block-aligned."""
    _check_iv(iv)
    if len(plaintext) % BLOCK_SIZE != 0:
        raise InvalidBlockError("raw CBC input must be a block multiple")
    cipher = AES(key)
    blocks = []
    previous = iv
    for offset in range(0, len(plaintext), BLOCK_SIZE):
        block = xor_bytes(plaintext[offset:offset + BLOCK_SIZE], previous)
        previous = cipher.encrypt_block(block)
        blocks.append(previous)
    return b"".join(blocks)


def cbc_decrypt_raw(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """AES-CBC decrypt without padding; input must be block-aligned.

    Works in slices of :data:`~repro.crypto.aes.PARALLEL_BLOCKS` blocks,
    so the working memory does not grow with the content size.
    """
    _check_iv(iv)
    if len(ciphertext) % BLOCK_SIZE != 0:
        raise InvalidBlockError("raw CBC input must be a block multiple")
    cipher = AES(key)
    step = PARALLEL_BLOCKS * BLOCK_SIZE
    slices = []
    previous = iv
    for offset in range(0, len(ciphertext), step):
        chunk = ciphertext[offset:offset + step]
        chained = b"".join((previous, chunk[:-BLOCK_SIZE]))
        slices.append(xor_bytes(cipher.decrypt_blocks(chunk), chained))
        previous = chunk[-BLOCK_SIZE:]
    return b"".join(slices)


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """AES-CBC encrypt with PKCS#7 padding (the DCF content transform)."""
    return cbc_encrypt_raw(key, iv, pad(plaintext, BLOCK_SIZE))


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """AES-CBC decrypt and strip PKCS#7 padding."""
    return unpad(cbc_decrypt_raw(key, iv, ciphertext), BLOCK_SIZE)
