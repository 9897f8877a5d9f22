"""Message codec for the distributed-collect transport.

Every frame payload is one *message*: a 1-byte type tag, a 4-byte
big-endian JSON-header length, the UTF-8 JSON header, and an opaque binary
body.  The header carries small structured fields (row ids, dtypes,
counters); the body carries bulk data — a :func:`encoded state dict
<encode_state_dict>` on the way out, nothing on most control messages.

State dicts travel as :func:`repro.utils.serialization.arrays_to_blob`
blobs (a JSON manifest plus raw C-order array bytes): decoding is
pickle-free, so a worker can parse a broadcast from an untrusted caller,
and the per-round cost is a straight memcpy per parameter.

Gradient shards travel as raw frames encoded by a **gradient wire
codec** — a :class:`GradientCodec` negotiated in the handshake (the
HELLO header's ``wire_codec`` field) and applied symmetrically: the
worker encodes its ``(rows, dim)`` shard, the caller decodes the frame
into its round buffer.  The registered codecs:

``raw``
    Today's behaviour and the default: the shard's bytes verbatim, one
    memcpy on each side, bit-exact for any payload (NaN/inf included).
    The caller still receives the frame straight into its round-buffer
    slice (:func:`~repro.fl.transport.framing.recv_frame_into`) — zero
    copies, byte-identical wire traffic to the pre-codec protocol.
``sign1bit``
    One packed sign bit per element plus one float32 scale per row
    (``mean(|g|)``), the natural wire format for the paper's
    sign-statistics defense — ~64x smaller than raw float64.
``int8`` / ``fp16``
    Linear 8-bit quantization (per-row scale ``max(|g|)/127``) and a
    float16 downcast — 8x / 4x smaller than raw float64.

Every codec is a pure function of its shard: nothing carries over from
one round (or one client) to the next, so a re-dispatched or resumed
client needs no codec state shipped with it.

Lossy codecs refuse non-finite payloads with :class:`CodecError` rather
than silently corrupting them (``raw`` round-trips them bit-exactly);
every codec round-trips empty and zero-row shards and accepts
non-C-contiguous or read-only input.

Protocol-version bump rules
---------------------------

``repro.fl.transport.protocol.PROTOCOL_VERSION`` must be bumped whenever
an already-released peer would *mis-parse* the conversation — not for
purely additive fields a peer can ignore.  Concretely:

* bump when a message's envelope, framing, or body layout changes, when
  a codec's wire payload layout changes, or when the meaning of an
  existing header field changes;
* bump when the handshake itself changes shape (v1 → v2 added the
  ``wire_codec`` negotiation: a v1 worker would silently serve raw
  frames to a caller expecting sign1bit payloads);
* do **not** bump for a *new* codec name — negotiation already refuses
  names a worker does not support, with a clear error naming both sides'
  expectations.

:func:`model_signature` digests a model's architecture — the sorted
``(name, dtype, shape)`` table of its parameters and buffers — into a
short hex string.  A worker checks the model replica a ``SETUP`` ships
against the signature its caller announced in ``HELLO``, so a caller
can never broadcast state dicts into a differently-shaped model.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Any, Dict, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.nn.module import Module
from repro.utils.registry import Registry
from repro.utils.serialization import arrays_to_blob, blob_to_arrays

#: Array type used across the transport signatures.  The element dtype is
#: whatever the caller's round buffer carries (float32 or float64), so the
#: alias is deliberately dtype-generic.
Array = npt.NDArray[Any]

# -- message type tags -------------------------------------------------------

MSG_HELLO = 1  #: caller → worker: protocol version + model signature.
MSG_WELCOME = 2  #: worker → caller: handshake accepted (+ negotiated codec).
MSG_ERROR = 3  #: either side: refusal with a human-readable reason.
MSG_SETUP = 4  #: caller → worker: pickled population shard + model replica.
MSG_READY = 5  #: worker → caller: shard installed and signature-verified.
MSG_ROUND = 6  #: caller → worker: per-round state dict + row slice.
MSG_SHARD = 7  #: worker → caller: gradient-shard announcement (raw frame next).
MSG_TRAILER = 8  #: worker → caller: losses, batch stats, RNG states, timing.
MSG_BYE = 11  #: caller → worker: clean disconnect (worker drops its shard).

MESSAGE_NAMES = {
    MSG_HELLO: "HELLO",
    MSG_WELCOME: "WELCOME",
    MSG_ERROR: "ERROR",
    MSG_SETUP: "SETUP",
    MSG_READY: "READY",
    MSG_ROUND: "ROUND",
    MSG_SHARD: "SHARD",
    MSG_TRAILER: "TRAILER",
    MSG_BYE: "BYE",
}

_ENVELOPE = struct.Struct("!BI")


class CodecError(ValueError):
    """A message payload does not parse under the envelope format."""


def pack_message(
    msg_type: int, header: Optional[Dict[str, Any]] = None, body: bytes = b""
) -> bytes:
    """Assemble one message payload (ready to be sent as a frame)."""
    header_bytes = json.dumps(header or {}).encode("utf-8")
    return b"".join([_ENVELOPE.pack(msg_type, len(header_bytes)), header_bytes, body])


def unpack_message(payload: bytes) -> Tuple[int, Dict[str, Any], bytes]:
    """Split a frame payload into ``(msg_type, header, body)``."""
    if len(payload) < _ENVELOPE.size:
        raise CodecError("message shorter than its envelope")
    msg_type, header_len = _ENVELOPE.unpack_from(payload)
    offset = _ENVELOPE.size
    if len(payload) < offset + header_len:
        raise CodecError("message truncated inside its header")
    try:
        header = json.loads(payload[offset : offset + header_len])
    except json.JSONDecodeError as exc:
        raise CodecError(f"message header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CodecError("message header must be a JSON object")
    return msg_type, header, payload[offset + header_len :]


# -- state-dict broadcast ----------------------------------------------------


def encode_state_dict(state: Dict[str, Array]) -> bytes:
    """Binary-encode a ``Module.state_dict()`` for broadcast (no pickle)."""
    return arrays_to_blob(state)


def decode_state_dict(blob: bytes) -> Dict[str, Array]:
    """Decode a broadcast back into a ``{name: array}`` state dict.

    The arrays are read-only views into ``blob``;
    ``Module.load_state_dict`` copies them into the live parameters, so no
    extra copy is needed here.
    """
    return blob_to_arrays(blob)


# -- model signature ---------------------------------------------------------


def model_signature(model: Module) -> str:
    """Short architecture digest of ``model`` for the transport handshake.

    Two models share a signature exactly when their named parameters and
    buffers agree on name, dtype, and shape — the condition under which a
    state-dict broadcast from one loads into the other.  Parameter
    *values* are deliberately excluded: they change every round.
    """
    table = sorted(
        (name, param.data.dtype.str, param.data.shape)
        for name, param in model.named_parameters()
    ) + sorted(
        (name, buffer.dtype.str, buffer.shape)
        for name, buffer in model.named_buffers()
    )
    digest = hashlib.sha256(repr(table).encode("utf-8"))
    return digest.hexdigest()[:16]


# -- gradient wire codecs ----------------------------------------------------

#: Registered gradient wire codecs (``TrainingConfig(wire_codec=...)``).
GRADIENT_CODECS = Registry("wire codec")


def wire_codec_names() -> Tuple[str, ...]:
    """All registered wire-codec names, sorted (for errors and validation)."""
    return tuple(GRADIENT_CODECS.names())


def build_codec(name: str) -> "GradientCodec":
    """Instantiate the wire codec registered under ``name``.

    Raises ``ValueError`` (not ``KeyError``) on an unknown name so config
    validation surfaces it uniformly with the other registry checks.
    """
    try:
        codec = GRADIENT_CODECS.create(name)
    except KeyError:
        raise ValueError(
            f"unknown wire codec {name!r}; registered: "
            f"{', '.join(wire_codec_names())}"
        ) from None
    if not isinstance(codec, GradientCodec):
        raise TypeError(
            f"wire codec {name!r} built a {type(codec).__name__}, "
            "not a GradientCodec"
        )
    return codec


def _as_shard(shard: Array) -> Array:
    """Validate and normalize an encoder input to a C-contiguous 2-D array.

    Non-C-contiguous (e.g. transposed or strided views) and read-only
    inputs are accepted — ``np.ascontiguousarray`` copies them; anything
    that is not a 2-D float array is a caller bug and raises
    :class:`CodecError` rather than serializing garbage.
    """
    # repro-lint: disable=dtype-discipline -- deliberately dtype-preserving:
    # the shard keeps the caller's float32/float64 dtype end to end.
    array = np.asarray(shard)
    if array.ndim != 2:
        raise CodecError(
            f"gradient shard must be 2-D (rows, dim), got shape {array.shape}"
        )
    if array.dtype.kind != "f":
        raise CodecError(
            f"gradient shard must be a float array, got dtype {array.dtype}"
        )
    return np.ascontiguousarray(array)


def _require_finite(shard: Array, codec: str) -> None:
    """Lossy codecs refuse NaN/inf instead of silently corrupting them."""
    if shard.size and not np.all(np.isfinite(shard)):
        raise CodecError(
            f"wire codec {codec!r} cannot represent non-finite gradients "
            "(NaN/inf found in the shard); use wire_codec='raw' to ship "
            "them bit-exactly"
        )


def _check_out(out: Array, rows: int, dim: int, codec: str) -> Array:
    # repro-lint: disable=dtype-discipline -- view of the caller's round
    # buffer; decoding must write in whatever dtype that buffer carries.
    out = np.asarray(out)
    if out.ndim != 2 or out.shape != (rows, dim):
        raise CodecError(
            f"wire codec {codec!r} decoded a ({rows}, {dim}) shard but the "
            f"output buffer has shape {out.shape}"
        )
    return out


class GradientCodec:
    """One gradient wire format: ``(rows, dim)`` float shard ↔ bytes.

    The worker calls :meth:`encode` on the shard it computed; the caller
    calls :meth:`decode` on the received frame, writing into its round
    buffer.  ``decode(encode(x))`` is bit-exact for lossless codecs
    (:attr:`lossless`) and a documented, bounded approximation otherwise.
    """

    #: Registry name, also the value negotiated in the handshake.
    name: str = ""
    #: True when decode(encode(x)) is bit-exact for every accepted input.
    lossless: bool = False

    def encode(self, shard: Array) -> bytes:
        """Encode a ``(rows, dim)`` shard."""
        raise NotImplementedError

    def decode(self, payload: bytes, out: Array) -> None:
        """Decode ``payload`` into the preallocated ``(rows, dim)`` buffer
        ``out``; raises :class:`CodecError` on any shape/size mismatch."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


@GRADIENT_CODECS.register("raw")
class RawCodec(GradientCodec):
    """The identity codec: the shard's C-order bytes, verbatim.

    Bit-exact for any payload including NaN/inf, and byte-identical to
    the pre-codec wire format — the transport keeps its zero-copy receive
    path (:meth:`~repro.fl.transport.protocol.Channel.recv_raw_into`
    straight into the round buffer) when this codec is negotiated.
    """

    name = "raw"
    lossless = True

    def encode(self, shard: Array) -> bytes:
        return _as_shard(shard).tobytes()

    def decode(self, payload: bytes, out: Array) -> None:
        # repro-lint: disable=dtype-discipline -- dtype-preserving view;
        # the raw codec ships whatever dtype the round buffer negotiated.
        out = np.asarray(out)
        rows, dim = out.shape
        expected = rows * dim * out.dtype.itemsize
        if len(payload) != expected:
            raise CodecError(
                f"raw payload is {len(payload)} bytes; buffer expects {expected}"
            )
        out[...] = np.frombuffer(payload, dtype=out.dtype).reshape(rows, dim)


_SIGN1BIT_HEADER = struct.Struct("!II")  # rows, dim


@GRADIENT_CODECS.register("sign1bit")
class Sign1BitCodec(GradientCodec):
    """Packed sign bits plus one float32 scale per row.

    ``encode`` ships ``sign(g)`` as one bit per element (``g >= 0`` maps
    to +1) and reconstructs ``±scale`` where ``scale = mean(|g|)`` per
    row — the magnitude that makes signSGD's update unbiased in
    expectation.  ~64x smaller than raw float64 (~32x vs float32).
    """

    name = "sign1bit"

    def encode(self, shard: Array) -> bytes:
        shard = _as_shard(shard)
        _require_finite(shard, self.name)
        rows, dim = shard.shape
        scales = (
            np.mean(np.abs(shard), axis=1, dtype=np.float64)
            if dim
            else np.zeros(rows, dtype=np.float64)
        ).astype(np.float32)
        bits = np.packbits(shard >= 0.0)
        return b"".join(
            [_SIGN1BIT_HEADER.pack(rows, dim), scales.tobytes(), bits.tobytes()]
        )

    def decode(self, payload: bytes, out: Array) -> None:
        if len(payload) < _SIGN1BIT_HEADER.size:
            raise CodecError("sign1bit payload shorter than its header")
        rows, dim = _SIGN1BIT_HEADER.unpack_from(payload)
        out = _check_out(out, rows, dim, self.name)
        offset = _SIGN1BIT_HEADER.size
        expected = offset + rows * 4 + -(-rows * dim // 8)
        if len(payload) != expected:
            raise CodecError(
                f"sign1bit payload is {len(payload)} bytes, expected {expected}"
            )
        scales = np.frombuffer(payload, dtype=np.float32, count=rows, offset=offset)
        bits = np.frombuffer(payload, dtype=np.uint8, offset=offset + rows * 4)
        signs = np.unpackbits(bits, count=rows * dim).reshape(rows, dim)
        signs = signs.astype(out.dtype) * 2.0 - 1.0
        out[...] = signs * scales[:, None].astype(out.dtype)


_INT8_HEADER = struct.Struct("!II")  # rows, dim


@GRADIENT_CODECS.register("int8")
class Int8Codec(GradientCodec):
    """Per-row linear quantization to int8 (scale ``max(|g|)/127``).

    Reconstruction error is at most ``max(|g|)/254`` per element — half a
    quantization step.  8x smaller than raw float64 (4x vs float32).
    """

    name = "int8"

    def encode(self, shard: Array) -> bytes:
        shard = _as_shard(shard)
        _require_finite(shard, self.name)
        rows, dim = shard.shape
        peaks = (
            np.max(np.abs(shard), axis=1)
            if dim
            else np.zeros(rows, dtype=np.float64)
        )
        scales = (peaks / 127.0).astype(np.float32)
        with np.errstate(divide="ignore", invalid="ignore"):
            quantized = np.where(
                scales[:, None] > 0.0,
                shard / scales[:, None].astype(shard.dtype),
                0.0,
            )
        quantized = np.clip(np.round(quantized), -127, 127).astype(np.int8)
        return b"".join(
            [_INT8_HEADER.pack(rows, dim), scales.tobytes(), quantized.tobytes()]
        )

    def decode(self, payload: bytes, out: Array) -> None:
        if len(payload) < _INT8_HEADER.size:
            raise CodecError("int8 payload shorter than its header")
        rows, dim = _INT8_HEADER.unpack_from(payload)
        out = _check_out(out, rows, dim, self.name)
        offset = _INT8_HEADER.size
        expected = offset + rows * 4 + rows * dim
        if len(payload) != expected:
            raise CodecError(
                f"int8 payload is {len(payload)} bytes, expected {expected}"
            )
        scales = np.frombuffer(payload, dtype=np.float32, count=rows, offset=offset)
        quantized = np.frombuffer(
            payload, dtype=np.int8, offset=offset + rows * 4
        ).reshape(rows, dim)
        out[...] = quantized.astype(out.dtype) * scales[:, None].astype(out.dtype)


_FP16_HEADER = struct.Struct("!II")  # rows, dim


@GRADIENT_CODECS.register("fp16")
class Fp16Codec(GradientCodec):
    """Float16 downcast: 4x smaller than raw float64 (2x vs float32).

    Round-trips bit-exactly for values exactly representable in float16
    (including every value a previous fp16 round produced); values whose
    magnitude overflows float16 (> 65504) raise :class:`CodecError`
    instead of silently becoming inf.  Subnormal underflow to zero is
    accepted — it is a rounding, not a corruption.
    """

    name = "fp16"

    def encode(self, shard: Array) -> bytes:
        shard = _as_shard(shard)
        _require_finite(shard, self.name)
        rows, dim = shard.shape
        with np.errstate(over="ignore"):  # overflow is detected and refused
            half = shard.astype(np.float16)
        if half.size and not np.all(np.isfinite(half)):
            peak = float(np.max(np.abs(shard)))
            raise CodecError(
                f"wire codec 'fp16' overflows on |g| up to {peak:.4g} "
                "(float16 max is 65504); use int8 or raw for this payload"
            )
        return _FP16_HEADER.pack(rows, dim) + half.tobytes()

    def decode(self, payload: bytes, out: Array) -> None:
        if len(payload) < _FP16_HEADER.size:
            raise CodecError("fp16 payload shorter than its header")
        rows, dim = _FP16_HEADER.unpack_from(payload)
        out = _check_out(out, rows, dim, self.name)
        offset = _FP16_HEADER.size
        expected = offset + rows * dim * 2
        if len(payload) != expected:
            raise CodecError(
                f"fp16 payload is {len(payload)} bytes, expected {expected}"
            )
        half = np.frombuffer(payload, dtype=np.float16, offset=offset)
        out[...] = half.reshape(rows, dim).astype(out.dtype)
