"""Byte codec of result-cache entries: a stored zip of ``.npy`` members.

A :class:`~repro.sim.plan.ResultCache` entry is a ``.npz`` file — a zip
archive of ``.npy`` members — so numpy and other tools open it.  Every
entry this program ever wrote is small and uses a handful of fixed
``.npy`` headers, so this module encodes and decodes those bytes
directly instead of going through ``np.savez``/``np.load`` (whose
header parser runs ``ast.literal_eval`` on every member).

:func:`encode_entry` writes one stored (uncompressed) member,
``entry.npy``: a 0-d structured record whose fields are the entry's
fields.  :func:`decode_entry` reads every layout this program has
written:

* the one-record files of :func:`encode_entry`;
* the one-record ``np.savez`` files of 1.15–1.19 (their local headers
  carry zip64 extra fields);
* the one-member-per-field ``np.savez`` files of 1.14 and earlier.

It checks the end-of-central-directory record at the exact end of the
file, walks the central directory to each stored member, checks the
member's CRC-32, and matches its ``.npy`` header against
:data:`_LAYOUTS`, the table of headers this program writes.  Anything
else — a truncated or damaged file, a compressed member, an array this
program never writes — raises :class:`CorruptEntry`.
"""

from __future__ import annotations

import struct
import zlib

__all__ = ["CorruptEntry", "decode_entry", "encode_entry"]


class CorruptEntry(ValueError):
    """An entry file that is truncated, damaged or not written here."""


#: Field layout of each entry kind's record, in write order, as numpy
#: type strings.  The kind's own length fixes its ``<U`` width.
_RECORDS = {
    "estimate": (
        ("kind", "<U8"), ("mean", "<f8"), ("std", "<f8"), ("stderr", "<f8"),
        ("ci_low", "<f8"), ("ci_high", "<f8"), ("n_runs", "<i8"),
    ),
    "value": (("kind", "<U5"), ("value", "<f8")),
}

#: struct code of each numpy type string an entry field uses.
_CODES = {"<U5": "20s", "<U8": "32s", "<f8": "d", "<i8": "q"}

_NPY_MAGIC = b"\x93NUMPY\x01\x00"  # format version 1.0
_NPY_ALIGN = 64  # numpy pads magic + length + header to this multiple


def _header_text(descr) -> bytes:
    """The header dict ``np.save`` writes for a 0-d array of ``descr``."""
    return f"{{'descr': {descr!r}, 'fortran_order': False, 'shape': (), }}".encode()


class _Layout:
    """One known ``.npy`` header: field names (``None``: a bare scalar)
    and the struct that packs the payload."""

    __slots__ = ("names", "types", "packer")

    def __init__(self, names, types):
        self.names = names
        self.types = types
        self.packer = struct.Struct("<" + "".join(_CODES[t] for t in types))

    def unpack(self, payload) -> tuple:
        return tuple(
            value.decode("utf-32-le").rstrip("\x00") if kind[1] == "U" else value
            for value, kind in zip(self.packer.unpack(payload), self.types)
        )


#: kind -> (header dict text, layout) of its one-record member.
_RECORD_LAYOUTS = {
    kind: (
        _header_text(list(fields)),
        _Layout(tuple(name for name, _ in fields), tuple(t for _, t in fields)),
    )
    for kind, fields in _RECORDS.items()
}

#: Header dict text (padding stripped) -> layout: the two records of
#: the one-record layout, and the four scalars of the per-field layout
#: of 1.14 and earlier.
_LAYOUTS = dict(_RECORD_LAYOUTS.values())
_LAYOUTS.update((_header_text(t), _Layout(None, (t,))) for t in _CODES)

# Zip records (little-endian; signature first).
_LOCAL = struct.Struct("<4sHHHHHIIIHH")  # 30 bytes
_CENTRAL = struct.Struct("<4sHHHHHHIIIHHHHHII")  # 46 bytes
_END = struct.Struct("<4sHHHHIIH")  # 22 bytes
_LOCAL_SIG, _CENTRAL_SIG, _END_SIG = b"PK\x03\x04", b"PK\x01\x02", b"PK\x05\x06"

#: What the writer stamps into every zip record: version 2.0 (stored
#: members need nothing newer), made on Unix, ``rw-------`` permissions
#: and the fixed DOS timestamp 1980-01-01 00:00 that numpy writes too
#: (no clock reading, so equal entries are equal bytes).
_VERSION = 20
_MADE_BY = (3 << 8) | _VERSION
_DOS_TIME, _DOS_DATE = 0, (0 << 9) | (1 << 5) | 1
_MODE = 0o600 << 16
_MEMBER = b"entry.npy"


def _npy_header(text: bytes) -> bytes:
    pad = -(len(_NPY_MAGIC) + 2 + len(text) + 1) % _NPY_ALIGN
    text += b" " * pad + b"\n"
    return _NPY_MAGIC + struct.pack("<H", len(text)) + text


#: kind -> (full ``.npy`` header, layout) that :func:`encode_entry` writes.
_WRITERS = {
    kind: (_npy_header(text), layout) for kind, (text, layout) in _RECORD_LAYOUTS.items()
}


def encode_entry(fields: dict) -> bytes:
    """The ``.npz`` bytes of one entry: ``fields`` as a one-record member.

    ``fields`` must name exactly its kind's record fields, in order
    (``kind`` first).
    """
    header, layout = _WRITERS[fields["kind"]]
    if tuple(fields) != layout.names:
        raise ValueError(
            f"a {fields['kind']!r} entry has fields {layout.names}, got {tuple(fields)}"
        )
    member = header + layout.packer.pack(
        *(v.encode("utf-32-le") if isinstance(v, str) else v for v in fields.values())
    )
    crc, size = zlib.crc32(member), len(member)
    local = _LOCAL.pack(
        _LOCAL_SIG, _VERSION, 0, 0, _DOS_TIME, _DOS_DATE, crc, size, size,
        len(_MEMBER), 0,
    )
    central = _CENTRAL.pack(
        _CENTRAL_SIG, _MADE_BY, _VERSION, 0, 0, _DOS_TIME, _DOS_DATE, crc, size,
        size, len(_MEMBER), 0, 0, 0, 0, _MODE, 0,
    )
    directory = central + _MEMBER
    end = _END.pack(
        _END_SIG, 0, 0, 1, 1, len(directory), len(local) + len(_MEMBER) + size, 0
    )
    return b"".join((local, _MEMBER, member, directory, end))


def _unpack(record: struct.Struct, data: bytes, at: int, limit: int) -> tuple:
    if at < 0 or at + record.size > limit:
        raise CorruptEntry(f"zip record at byte {at} runs past byte {limit}")
    return record.unpack_from(data, at)


def _decode_member(label: str, member: bytes, out: dict) -> None:
    """Add the field(s) of the ``.npy`` member named ``label`` to ``out``."""
    if not label.endswith(".npy") or member[:8] != _NPY_MAGIC or len(member) < 10:
        raise CorruptEntry(f"member {label!r} is not a version 1.0 .npy array")
    (length,) = struct.unpack_from("<H", member, 8)
    layout = _LAYOUTS.get(member[10 : 10 + length].rstrip(b" \n"))
    if layout is None:
        raise CorruptEntry(
            f"member {label!r} holds an array this program never writes (foreign file)"
        )
    payload = member[10 + length :]
    if len(payload) != layout.packer.size:
        raise CorruptEntry(
            f"member {label!r} has {len(payload)} payload bytes, "
            f"expected {layout.packer.size}"
        )
    try:
        values = layout.unpack(payload)
    except UnicodeDecodeError:
        raise CorruptEntry(f"member {label!r} holds a malformed string") from None
    if layout.names is None:
        out[label[:-4]] = values[0]
    else:
        out.update(zip(layout.names, values))


def decode_entry(data: bytes) -> dict:
    """Every field of one entry file's bytes (see the module docstring).

    Raises :class:`CorruptEntry` unless ``data`` is a complete zip of
    stored, CRC-checked members with known ``.npy`` headers.
    """
    end_at = len(data) - _END.size
    sig, disk, cd_disk, n_here, n, cd_size, cd_at, comment = _unpack(
        _END, data, end_at, len(data)
    )
    if sig != _END_SIG or comment or disk or cd_disk or n_here != n:
        raise CorruptEntry("no end-of-central-directory record at the end of the file")
    if cd_at + cd_size != end_at:
        raise CorruptEntry("the central directory does not end at the end record")
    out: dict = {}
    at = cd_at
    for _ in range(n):
        (sig, _, _, flags, method, _, _, crc, csize, usize, name_len, extra_len,
         comment_len, _, _, _, offset) = _unpack(_CENTRAL, data, at, end_at)
        at += _CENTRAL.size
        name = data[at : at + name_len]
        at += name_len + extra_len + comment_len
        if sig != _CENTRAL_SIG or at > end_at:
            raise CorruptEntry("damaged central directory")
        label = name.decode("latin1")
        if method != 0 or flags & 1 or csize != usize:
            raise CorruptEntry(f"member {label!r} is not stored uncompressed")
        lsig, *_, lname_len, lextra_len = _unpack(_LOCAL, data, offset, cd_at)
        start = offset + _LOCAL.size
        if lsig != _LOCAL_SIG or data[start : start + lname_len] != name:
            raise CorruptEntry(f"no local header for member {label!r}")
        start += lname_len + lextra_len
        if start + csize > cd_at:
            raise CorruptEntry(f"member {label!r} runs into the central directory")
        member = data[start : start + csize]
        if zlib.crc32(member) != crc:
            raise CorruptEntry(f"CRC-32 mismatch in member {label!r}")
        _decode_member(label, member, out)
    if at != end_at:
        raise CorruptEntry("trailing bytes in the central directory")
    return out
