"""Length-prefixed binary framing over a stream socket.

Every message on a transport connection is one *frame*: an 8-byte
big-endian unsigned payload length followed by the payload bytes.  Frames
make TCP's byte stream message-oriented without any external dependency,
and the explicit length lets the receiver stream a gradient shard straight
into a preallocated buffer slice (:func:`recv_frame_into`) instead of
materializing an intermediate bytes object.

Robustness rules, enforced on both ends:

* a frame longer than ``max_bytes`` is rejected *before* any payload is
  read (:class:`OversizedFrameError`) — a malicious or corrupted length
  prefix cannot make the receiver allocate unbounded memory;
* a connection that closes mid-frame raises
  :class:`TruncatedFrameError` — a half-received message is never handed
  to the caller as if it were complete.

Both are :class:`FrameError`\\ s; after either, the connection is dead and
must be closed (the stream position is no longer trustworthy).
"""

from __future__ import annotations

import socket
import struct

#: 8-byte big-endian unsigned frame-length prefix.
_LENGTH_PREFIX = struct.Struct("!Q")

#: Default ceiling on a single frame's payload (256 MiB) — comfortably
#: above any state-dict broadcast or gradient shard this repo produces,
#: far below what a hostile length prefix could request.
DEFAULT_MAX_FRAME_BYTES = 256 * 1024 * 1024


class FrameError(ConnectionError):
    """A frame could not be read or violates the framing rules."""


class TruncatedFrameError(FrameError):
    """The peer closed the connection in the middle of a frame."""


class OversizedFrameError(FrameError):
    """A frame's declared length exceeds the receiver's ceiling."""


#: Below this payload size the prefix and chunks are joined into a single
#: ``sendall`` — one syscall and one TCP segment for control messages
#: (the copy is cheap).  Larger payloads (gradient shards, state dicts)
#: are sent without the extra copy; TCP_NODELAY on both ends keeps the
#: separate prefix write from stalling behind delayed ACKs.
_COALESCE_LIMIT = 1024 * 1024


def send_frame(sock: socket.socket, *chunks: bytes | memoryview) -> int:
    """Send one frame whose payload is the concatenation of ``chunks``.

    Returns the total number of bytes put on the wire (prefix included).
    """
    payload_len = sum(len(chunk) for chunk in chunks)
    prefix = _LENGTH_PREFIX.pack(payload_len)
    if payload_len <= _COALESCE_LIMIT:
        sock.sendall(b"".join([prefix, *chunks]))
    else:
        sock.sendall(prefix)
        for chunk in chunks:
            if chunk:
                sock.sendall(chunk)
    return _LENGTH_PREFIX.size + payload_len


def _recv_exact_into(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` completely from ``sock`` or raise on EOF."""
    received = 0
    while received < len(view):
        count = sock.recv_into(view[received:])
        if count == 0:
            raise TruncatedFrameError(
                f"connection closed mid-frame ({received}/{len(view)} bytes)"
            )
        received += count


def _recv_length(sock: socket.socket, max_bytes: int) -> int:
    prefix = bytearray(_LENGTH_PREFIX.size)
    _recv_exact_into(sock, memoryview(prefix))
    (length,) = _LENGTH_PREFIX.unpack(prefix)
    if length > max_bytes:
        raise OversizedFrameError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte ceiling"
        )
    return length


def recv_frame(
    sock: socket.socket, *, max_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes:
    """Receive one complete frame payload.

    Raises :class:`TruncatedFrameError` if the peer closes mid-frame and
    :class:`OversizedFrameError` if the declared length exceeds
    ``max_bytes``.  A clean close *between* frames raises
    :class:`TruncatedFrameError` as well — distinguishing the two is the
    caller's protocol-level concern (send an explicit goodbye message).
    """
    length = _recv_length(sock, max_bytes)
    payload = bytearray(length)
    _recv_exact_into(sock, memoryview(payload))
    return bytes(payload)


def recv_frame_into(
    sock: socket.socket,
    view: memoryview,
    *,
    max_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> int:
    """Receive one frame directly into ``view`` (exact-size required).

    This is the zero-copy path for gradient shards: the caller hands the
    target slice of its preallocated round buffer and the payload is
    written in place.  A frame whose length differs from ``len(view)`` is
    a protocol violation and raises :class:`FrameError` (after which the
    connection is unusable, since the payload was not consumed).
    """
    length = _recv_length(sock, max_bytes)
    if length != len(view):
        raise FrameError(
            f"expected a {len(view)}-byte frame, peer announced {length} bytes"
        )
    _recv_exact_into(sock, view)
    return _LENGTH_PREFIX.size + length
