"""Erasure-coding substrate: GF(2^8) arithmetic and Reed-Solomon codes.

This subpackage replaces the Jerasure C library used by the paper.  It
implements:

- :mod:`repro.erasure.gf256` — the finite field GF(2^8) with log/antilog
  tables and three matrix kernels (the compiled native kernel, or numpy
  table gathers without it; no Python loops on the data path);
- :mod:`repro.erasure.matrix` — matrix algebra over GF(2^8), including
  Gauss-Jordan inversion and Vandermonde/Cauchy generator constructions;
- :mod:`repro.erasure.reedsolomon` — systematic Reed-Solomon ``RS(k, m)``
  encode, arbitrary-erasure decode, delta-based parity update, batched
  multi-stripe encode/decode, and single-row shard reconstruction;
- :mod:`repro.erasure.batch` — deferred coding batches that let the data
  path fuse many stripes into one kernel pass.
"""

from repro.erasure.batch import CodingBatch, PendingEncode
from repro.erasure.gf256 import GF256
from repro.erasure.matrix import GFMatrix, vandermonde_rs_matrix, cauchy_rs_matrix
from repro.erasure.reedsolomon import RSCode, StripeCodec

__all__ = [
    "GF256",
    "GFMatrix",
    "vandermonde_rs_matrix",
    "cauchy_rs_matrix",
    "RSCode",
    "StripeCodec",
    "CodingBatch",
    "PendingEncode",
]
