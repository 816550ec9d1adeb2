"""Shared low-level utilities, imported from their modules.

* :mod:`repro.utils.bitmath` — tree geometry (powers of two, heights).
* :mod:`repro.utils.encoding` — varint and length-prefixed byte codec.
* :mod:`repro.utils.prf` — the keyed PRF helpers.
"""
