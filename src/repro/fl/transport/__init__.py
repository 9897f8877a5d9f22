"""Socket/RPC transport for multi-host federations.

This package takes the :class:`~repro.fl.collector.GradientCollector`
contract across the network: length-prefixed binary framing over TCP
(:mod:`~repro.fl.transport.framing`), a pickle-free codec for
``Module.state_dict()`` broadcasts plus pluggable gradient wire codecs
for the shard replies — ``raw``, ``sign1bit``, ``int8``, ``fp16``
(:mod:`~repro.fl.transport.codec`), a versioned handshake with a
model signature check and codec negotiation
(:mod:`~repro.fl.transport.protocol`),
the ``repro-worker`` server (:mod:`~repro.fl.transport.worker`), and the
:class:`DistributedCollector` backend that drives a fleet of workers
(``TrainingConfig(collect_backend="distributed", workers=[...])``) —
also over a localhost fleet it owns, as :class:`LocalFleetCollector`
(the ``"thread"`` and ``"process"`` backends).

A healthy localhost fleet is bit-identical to the sequential backend at
any worker count; a worker that dies or times out mid-round degrades to
:class:`~repro.fl.participation.RoundPlan` dropouts instead of aborting
the run.
"""

from repro.fl.transport.client import WorkerConnection, parse_address
from repro.fl.transport.codec import (
    GRADIENT_CODECS,
    CodecError,
    Fp16Codec,
    GradientCodec,
    Int8Codec,
    RawCodec,
    Sign1BitCodec,
    build_codec,
    model_signature,
    wire_codec_names,
)
from repro.fl.transport.collector import DistributedCollector, LocalFleetCollector
from repro.fl.transport.fleet import (
    LocalFleet,
    ThreadFleet,
    spawn_local_fleet,
    spawn_worker_process,
    start_thread_fleet,
)
from repro.fl.transport.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameError,
    OversizedFrameError,
    TruncatedFrameError,
)
from repro.fl.transport.protocol import (
    PROTOCOL_VERSION,
    HandshakeError,
    RemoteWorkerError,
    TransportError,
)
from repro.fl.transport.worker import WorkerServer

__all__ = [
    "DistributedCollector",
    "LocalFleetCollector",
    "WorkerConnection",
    "WorkerServer",
    "LocalFleet",
    "ThreadFleet",
    "spawn_local_fleet",
    "spawn_worker_process",
    "start_thread_fleet",
    "parse_address",
    "model_signature",
    "GradientCodec",
    "RawCodec",
    "Sign1BitCodec",
    "Int8Codec",
    "Fp16Codec",
    "CodecError",
    "build_codec",
    "wire_codec_names",
    "GRADIENT_CODECS",
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameError",
    "TruncatedFrameError",
    "OversizedFrameError",
    "TransportError",
    "HandshakeError",
    "RemoteWorkerError",
    "PROTOCOL_VERSION",
]
