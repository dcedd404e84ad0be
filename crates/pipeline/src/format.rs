//! The binary trace format: durable capture of a profiling event stream.
//!
//! A trace decouples *capture* from *processing*: a benchmark's event stream
//! is recorded once and can then be replayed deterministically through any
//! profiler configuration, any number of shards, or a throughput bench —
//! the same shape as production profiling backends that ship pprof-style
//! payloads between a collector and its consumers.
//!
//! ## Layout
//!
//! ```text
//! header   := magic[8] = "MHPTRC\r\n"  version:u16le  kind:u8  flags:u8  reserved:u32le
//! chunk    := payload_len:u32le  record_count:u32le  crc32:u32le  payload[payload_len]
//! payload  := record*            (exactly record_count records)
//! record   := varint(zigzag(pc - prev_pc))  varint(value)
//! end      := 12 zero bytes      (a chunk header with payload_len = record_count = crc = 0)
//! ```
//!
//! * All integers are little-endian; varints are LEB128 over `u64`.
//! * PCs are delta-encoded against the previous record **within the same
//!   chunk** (`prev_pc` starts at 0 per chunk), zig-zag mapped so nearby
//!   PCs — the common case in instruction streams — cost one byte.
//! * Each chunk carries a CRC32 (IEEE, reflected) over its payload, so
//!   corruption is localized to a chunk and detected before any record of
//!   that chunk is surfaced.
//! * The explicit all-zero end marker distinguishes a complete trace from
//!   one whose tail was lost: a reader that hits EOF before the marker
//!   reports [`Error::Truncated`] even if the loss fell exactly on a chunk
//!   boundary. EOF *inside* a chunk (a torn write, a connection cut
//!   mid-transfer) is the distinct [`Error::UnexpectedEof`], so recovery
//!   logic can tell "tail missing" from "stream died mid-record".

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use mhp_core::Tuple;
use mhp_trace::StreamKind;

use crate::error::Error;

/// First eight bytes of every trace. The `\r\n` tail catches ASCII-mode
/// transfer mangling, like PNG's magic does.
pub const MAGIC: [u8; 8] = *b"MHPTRC\r\n";

/// Current (and only) format version.
pub const FORMAT_VERSION: u16 = 1;

/// Default number of events buffered into one chunk.
pub const DEFAULT_CHUNK_EVENTS: usize = 1 << 16;

/// Largest chunk payload a reader will accept, in bytes (64 MiB).
///
/// A record costs at most 20 payload bytes (two maximal varints), so this
/// admits chunks of ~3.3M worst-case events — far beyond any real writer —
/// while bounding the allocation an adversarial or corrupted header can
/// demand. Headers declaring more fail with [`Error::ChunkTooLarge`]
/// *before* any buffer is allocated.
pub const MAX_CHUNK_BYTES: usize = 1 << 26;

/// Bytes in a chunk header: `payload_len:u32 record_count:u32 crc32:u32`.
pub const CHUNK_HEADER_BYTES: usize = 12;

/// What the recorded tuples mean. Profilers do not care, but tooling uses
/// this to label output and pick sensible defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// `<load PC, value>` events.
    Value,
    /// `<branch PC, target PC>` events.
    Edge,
    /// Tuples with no declared interpretation.
    Raw,
}

impl TraceKind {
    /// The kind's lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Value => "value",
            TraceKind::Edge => "edge",
            TraceKind::Raw => "raw",
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            TraceKind::Value => 0,
            TraceKind::Edge => 1,
            TraceKind::Raw => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, Error> {
        match b {
            0 => Ok(TraceKind::Value),
            1 => Ok(TraceKind::Edge),
            2 => Ok(TraceKind::Raw),
            other => Err(Error::UnknownKind(other)),
        }
    }
}

impl From<StreamKind> for TraceKind {
    fn from(kind: StreamKind) -> Self {
        match kind {
            StreamKind::Value => TraceKind::Value,
            StreamKind::Edge => TraceKind::Edge,
        }
    }
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// CRC-32 (IEEE, reflected) of a chunk payload: the one implementation in
/// `mhp-core`, shared with profiler snapshot envelopes.
pub use mhp_core::state::crc32;

// --- varint / zigzag -----------------------------------------------------

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from `payload` starting at `*pos`; `None` on
/// malformed or exhausted input.
fn read_varint(payload: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = payload.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow u64
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// --- chunk-level encode/decode -------------------------------------------
//
// One chunk is the unit shared between the on-disk trace format and the
// `mhp-server` ingest wire protocol: a client frames each batch of events as
// exactly one chunk, so the CRC and the delta compression travel over TCP
// unchanged.

/// Appends one record (PC delta against `prev_pc`, then the value) to
/// `payload` and returns the new previous PC.
#[inline]
fn push_record(payload: &mut Vec<u8>, prev_pc: u64, tuple: Tuple) -> u64 {
    let pc = tuple.pc().as_u64();
    let delta = pc.wrapping_sub(prev_pc) as i64;
    push_varint(payload, zigzag(delta));
    push_varint(payload, tuple.value().as_u64());
    pc
}

/// The 12-byte chunk header for a finished payload.
fn chunk_header(payload: &[u8], record_count: u32) -> [u8; CHUNK_HEADER_BYTES] {
    let mut header = [0u8; CHUNK_HEADER_BYTES];
    header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..8].copy_from_slice(&record_count.to_le_bytes());
    header[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Validates a chunk header's declared sizes before anything is allocated.
///
/// Rejects payloads over [`MAX_CHUNK_BYTES`] and record counts that cannot
/// fit in the declared payload (every record costs at least 2 bytes), so a
/// hostile header bounded by `u32` fields can demand at most
/// [`MAX_CHUNK_BYTES`] of memory.
fn validate_chunk_header(payload_len: u64, record_count: u32, chunk: u64) -> Result<(), Error> {
    if payload_len > MAX_CHUNK_BYTES as u64 {
        return Err(Error::ChunkTooLarge {
            chunk,
            declared: payload_len,
        });
    }
    if u64::from(record_count) * 2 > payload_len {
        return Err(Error::ChunkDecode { chunk });
    }
    Ok(())
}

/// Decodes `record_count` records from a CRC-verified payload, appending
/// them to `events` (cleared first). Taking the output buffer lets the
/// ingest hot paths (trace replay, server chunk ingest) reuse one
/// allocation across chunks.
fn decode_chunk_payload_into(
    payload: &[u8],
    record_count: u32,
    chunk: u64,
    events: &mut Vec<Tuple>,
) -> Result<(), Error> {
    events.clear();
    events.reserve(record_count as usize);
    let mut pos = 0usize;
    let mut prev_pc = 0u64;
    for _ in 0..record_count {
        let (delta, value) = match (
            read_varint(payload, &mut pos),
            read_varint(payload, &mut pos),
        ) {
            (Some(d), Some(v)) => (d, v),
            _ => return Err(Error::ChunkDecode { chunk }),
        };
        let pc = prev_pc.wrapping_add(unzigzag(delta) as u64);
        prev_pc = pc;
        events.push(Tuple::new(pc, value));
    }
    if pos != payload.len() {
        // Extra undecoded bytes: count and payload disagree.
        return Err(Error::ChunkDecode { chunk });
    }
    Ok(())
}

/// Encodes `events` as one self-contained chunk (header + payload), exactly
/// as [`TraceWriter`] would flush it.
///
/// This is the unit the `mhp-server` wire protocol ships per ingest request:
/// the delta encoding restarts at PC 0 and the CRC covers the payload, so a
/// chunk is independently decodable and corruption-checked wherever it
/// lands.
///
/// # Examples
///
/// ```
/// use mhp_core::Tuple;
/// use mhp_pipeline::format::{decode_chunk, encode_chunk};
///
/// let events = vec![Tuple::new(0x400100, 7), Tuple::new(0x400108, 9)];
/// let bytes = encode_chunk(&events);
/// let (decoded, consumed) = decode_chunk(&bytes).unwrap();
/// assert_eq!(decoded, events);
/// assert_eq!(consumed, bytes.len());
/// ```
pub fn encode_chunk(events: &[Tuple]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(events.len() * 3);
    let mut prev_pc = 0u64;
    for &tuple in events {
        prev_pc = push_record(&mut payload, prev_pc, tuple);
    }
    let header = chunk_header(&payload, events.len() as u32);
    let mut chunk = Vec::with_capacity(CHUNK_HEADER_BYTES + payload.len());
    chunk.extend_from_slice(&header);
    chunk.extend_from_slice(&payload);
    chunk
}

/// Decodes one chunk from the front of `bytes`, returning its events and the
/// number of bytes consumed.
///
/// Applies the full adversarial-input gauntlet before touching the payload:
/// an empty input yields [`Error::Truncated`], a partial header or payload
/// yields [`Error::UnexpectedEof`] (the chunk is torn), implausible
/// declared sizes yield [`Error::ChunkTooLarge`] or [`Error::ChunkDecode`]
/// without allocating, and payload corruption yields [`Error::CrcMismatch`].
/// An all-zero header (the trace end marker) decodes as a zero-record chunk.
pub fn decode_chunk(bytes: &[u8]) -> Result<(Vec<Tuple>, usize), Error> {
    let mut events = Vec::new();
    let consumed = decode_chunk_into(bytes, &mut events)?;
    Ok((events, consumed))
}

/// [`decode_chunk`], but decoding into a caller-owned buffer (cleared
/// first) and returning only the bytes consumed.
///
/// This is the allocation-free form the server's ingest loop uses: one
/// `Vec<Tuple>` lives for the whole connection and every chunk decodes into
/// it, instead of allocating a fresh vector per request.
///
/// # Errors
///
/// Exactly as [`decode_chunk`]. On error the buffer contents are
/// unspecified (but always safe to reuse for the next call).
pub fn decode_chunk_into(bytes: &[u8], events: &mut Vec<Tuple>) -> Result<usize, Error> {
    if bytes.len() < CHUNK_HEADER_BYTES {
        // No bytes at all is a clean boundary; a partial header is a torn
        // chunk — the distinction callers use to tell "stream ended" from
        // "stream died mid-chunk".
        return Err(if bytes.is_empty() {
            Error::Truncated {
                context: "chunk header",
            }
        } else {
            Error::UnexpectedEof {
                context: "chunk header",
            }
        });
    }
    let payload_len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as u64;
    let record_count = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let expected_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    validate_chunk_header(payload_len, record_count, 0)?;
    let payload_len = payload_len as usize;
    let rest = &bytes[CHUNK_HEADER_BYTES..];
    if rest.len() < payload_len {
        return Err(Error::UnexpectedEof {
            context: "chunk payload",
        });
    }
    let payload = &rest[..payload_len];
    let actual_crc = crc32(payload);
    if actual_crc != expected_crc {
        return Err(Error::CrcMismatch {
            chunk: 0,
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    decode_chunk_payload_into(payload, record_count, 0, events)?;
    Ok(CHUNK_HEADER_BYTES + payload_len)
}

/// Total bytes (header plus declared payload) the chunk at the front of
/// `bytes` occupies — what decoding it would return as consumed — computed
/// from the header alone, without touching the payload (no CRC, no record
/// decode).
///
/// This is the cheap pre-check for callers that require a buffer to hold
/// exactly one chunk: comparing the result against the buffer length
/// rejects trailing garbage *before* any record reaches a profiler, so the
/// resulting protocol error cannot leave state half-mutated behind a
/// request the client will retry.
///
/// # Errors
///
/// The header subset of [`decode_chunk_into`]'s gauntlet:
/// [`Error::Truncated`] / [`Error::UnexpectedEof`] for a missing or partial
/// header, [`Error::ChunkTooLarge`] / [`Error::ChunkDecode`] for
/// implausible declared sizes. Payload-level damage (a short payload, a CRC
/// mismatch) is *not* detected here — [`ChunkDecoder::open`] catches it,
/// still before any record is decoded.
pub fn declared_chunk_len(bytes: &[u8]) -> Result<usize, Error> {
    if bytes.len() < CHUNK_HEADER_BYTES {
        return Err(if bytes.is_empty() {
            Error::Truncated {
                context: "chunk header",
            }
        } else {
            Error::UnexpectedEof {
                context: "chunk header",
            }
        });
    }
    let payload_len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as u64;
    let record_count = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    validate_chunk_header(payload_len, record_count, 0)?;
    Ok(CHUNK_HEADER_BYTES + payload_len as usize)
}

/// A resumable decoder over one chunk: the caller pulls records a sub-run
/// at a time instead of receiving the whole chunk as one `Vec<Tuple>`.
///
/// This is what lets the sharded engine *partition while decoding*: each
/// sub-run is routed straight into per-shard batches (sized to the batch
/// cap and clipped at interval boundaries), so the chunk is never
/// materialized in one flat buffer and then re-scanned.
///
/// [`open`](Self::open) runs the same adversarial-input gauntlet as
/// [`decode_chunk_into`] — header validation and the payload CRC are
/// checked *before* any record is decoded, so a corrupt chunk is rejected
/// up front rather than half-ingested. A record-level inconsistency
/// (varint damage the CRC-guarded payload cannot express in practice) can
/// still surface mid-stream from [`decode_some`](Self::decode_some).
///
/// # Examples
///
/// ```
/// use mhp_core::Tuple;
/// use mhp_pipeline::format::{encode_chunk, ChunkDecoder};
///
/// let events = vec![Tuple::new(0x400100, 7), Tuple::new(0x400108, 9)];
/// let bytes = encode_chunk(&events);
/// let mut decoder = ChunkDecoder::open(&bytes).unwrap();
/// let mut got = Vec::new();
/// while decoder.remaining() > 0 {
///     decoder.decode_some(1, |t| got.push(t)).unwrap();
/// }
/// decoder.finish().unwrap();
/// assert_eq!(got, events);
/// assert_eq!(decoder.consumed(), bytes.len());
/// ```
#[derive(Debug)]
pub struct ChunkDecoder<'a> {
    payload: &'a [u8],
    pos: usize,
    remaining: usize,
    prev_pc: u64,
}

impl<'a> ChunkDecoder<'a> {
    /// Validates the chunk header and payload CRC at the front of `bytes`
    /// and returns a decoder positioned at the first record.
    ///
    /// # Errors
    ///
    /// Exactly as [`decode_chunk_into`]: [`Error::Truncated`] /
    /// [`Error::UnexpectedEof`] for torn input, [`Error::ChunkTooLarge`] /
    /// [`Error::ChunkDecode`] for implausible declared sizes and
    /// [`Error::CrcMismatch`] for payload corruption.
    pub fn open(bytes: &'a [u8]) -> Result<Self, Error> {
        if bytes.len() < CHUNK_HEADER_BYTES {
            return Err(if bytes.is_empty() {
                Error::Truncated {
                    context: "chunk header",
                }
            } else {
                Error::UnexpectedEof {
                    context: "chunk header",
                }
            });
        }
        let payload_len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as u64;
        let record_count = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        let expected_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        validate_chunk_header(payload_len, record_count, 0)?;
        let payload_len = payload_len as usize;
        let rest = &bytes[CHUNK_HEADER_BYTES..];
        if rest.len() < payload_len {
            return Err(Error::UnexpectedEof {
                context: "chunk payload",
            });
        }
        let payload = &rest[..payload_len];
        let actual_crc = crc32(payload);
        if actual_crc != expected_crc {
            return Err(Error::CrcMismatch {
                chunk: 0,
                expected: expected_crc,
                actual: actual_crc,
            });
        }
        Ok(ChunkDecoder {
            payload,
            pos: 0,
            remaining: record_count as usize,
            prev_pc: 0,
        })
    }

    /// Records not yet decoded.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Total bytes this chunk occupies at the front of the input (header
    /// plus payload) — what [`decode_chunk_into`] returns as consumed.
    pub fn consumed(&self) -> usize {
        CHUNK_HEADER_BYTES + self.payload.len()
    }

    /// Decodes up to `max` records, feeding each tuple to `sink` in stream
    /// order, and returns how many were decoded
    /// (`min(max, self.remaining())`).
    ///
    /// # Errors
    ///
    /// [`Error::ChunkDecode`] if the payload runs out mid-record.
    pub fn decode_some(&mut self, max: usize, mut sink: impl FnMut(Tuple)) -> Result<usize, Error> {
        let take = max.min(self.remaining);
        for _ in 0..take {
            let (delta, value) = match (
                read_varint(self.payload, &mut self.pos),
                read_varint(self.payload, &mut self.pos),
            ) {
                (Some(d), Some(v)) => (d, v),
                _ => return Err(Error::ChunkDecode { chunk: 0 }),
            };
            let pc = self.prev_pc.wrapping_add(unzigzag(delta) as u64);
            self.prev_pc = pc;
            sink(Tuple::new(pc, value));
        }
        self.remaining -= take;
        Ok(take)
    }

    /// Verifies the payload was fully consumed once every record is
    /// decoded — the "trailing undecoded bytes" check
    /// `decode_chunk_payload_into` performs at the end.
    ///
    /// # Errors
    ///
    /// [`Error::ChunkDecode`] if records remain or payload bytes are left
    /// over.
    pub fn finish(&self) -> Result<(), Error> {
        if self.remaining != 0 || self.pos != self.payload.len() {
            return Err(Error::ChunkDecode { chunk: 0 });
        }
        Ok(())
    }
}

/// Decodes one chunk directly into per-shard sub-batches: record `t` lands
/// in `outs[shard_of(t, outs.len())]`, in stream order within each shard.
/// Every output buffer is cleared first; returns the bytes consumed.
///
/// Concatenating the sub-batches in shard order yields a permutation of
/// [`decode_chunk_into`]'s output, and tuple-stable partitioning means no
/// tuple ever appears in two sub-batches. This is the standalone form of
/// the engine's partition-while-decoding ingest
/// ([`EngineSession::ingest_chunk`](crate::EngineSession::ingest_chunk)),
/// kept separate so the property is testable without spinning up workers.
///
/// # Errors
///
/// Exactly as [`decode_chunk_into`].
///
/// # Panics
///
/// Panics if `outs` is empty — there is no shard to route to.
pub fn decode_chunk_partitioned(bytes: &[u8], outs: &mut [Vec<Tuple>]) -> Result<usize, Error> {
    assert!(
        !outs.is_empty(),
        "decode_chunk_partitioned needs at least one shard buffer"
    );
    let shards = outs.len();
    for out in outs.iter_mut() {
        out.clear();
    }
    let mut decoder = ChunkDecoder::open(bytes)?;
    let remaining = decoder.remaining();
    decoder.decode_some(remaining, |tuple| {
        outs[crate::engine::shard_of(tuple, shards)].push(tuple);
    })?;
    decoder.finish()?;
    Ok(decoder.consumed())
}

// --- writer --------------------------------------------------------------

/// Streams tuples into the binary trace format.
///
/// Events are buffered into chunks of [`chunk_events`](Self::chunk_events)
/// records; each full chunk is varint-encoded, checksummed and flushed.
/// **Call [`finish`](Self::finish)** — it writes the trailing partial chunk
/// and the end-of-trace marker; a dropped writer leaves a trace that
/// readers will (correctly) reject as truncated.
///
/// # Examples
///
/// ```
/// use mhp_core::Tuple;
/// use mhp_pipeline::{TraceKind, TraceReader, TraceWriter};
///
/// let mut writer = TraceWriter::new(Vec::new(), TraceKind::Value);
/// writer.write_event(Tuple::new(0x400100, 7)).unwrap();
/// writer.write_event(Tuple::new(0x400108, 9)).unwrap();
/// let bytes = writer.finish().unwrap();
///
/// let reader = TraceReader::new(bytes.as_slice()).unwrap();
/// let events: Vec<Tuple> = reader.collect::<Result<_, _>>().unwrap();
/// assert_eq!(events, vec![Tuple::new(0x400100, 7), Tuple::new(0x400108, 9)]);
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    kind: TraceKind,
    chunk_events: usize,
    payload: Vec<u8>,
    chunk_records: u32,
    prev_pc: u64,
    events: u64,
    chunks: u64,
    header_written: bool,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates a trace file at `path` (buffered).
    pub fn create(path: impl AsRef<Path>, kind: TraceKind) -> Result<Self, Error> {
        Ok(TraceWriter::new(BufWriter::new(File::create(path)?), kind))
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `sink` in a trace writer; the header is written lazily with
    /// the first chunk (or by [`finish`](Self::finish) for empty traces).
    pub fn new(sink: W, kind: TraceKind) -> Self {
        TraceWriter {
            sink,
            kind,
            chunk_events: DEFAULT_CHUNK_EVENTS,
            payload: Vec::new(),
            chunk_records: 0,
            prev_pc: 0,
            events: 0,
            chunks: 0,
            header_written: false,
        }
    }

    /// Sets the number of events per chunk (min 1). Smaller chunks localize
    /// corruption and bound replay memory; larger chunks compress deltas
    /// better and amortize the 12-byte chunk header further.
    pub fn with_chunk_events(mut self, chunk_events: usize) -> Self {
        self.chunk_events = chunk_events.max(1);
        self
    }

    /// Events per chunk.
    pub fn chunk_events(&self) -> usize {
        self.chunk_events
    }

    /// Events written so far.
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Chunks flushed so far (not counting the buffered partial chunk).
    pub fn chunks_written(&self) -> u64 {
        self.chunks
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors when a full chunk is flushed.
    pub fn write_event(&mut self, tuple: Tuple) -> Result<(), Error> {
        self.prev_pc = push_record(&mut self.payload, self.prev_pc, tuple);
        self.chunk_records += 1;
        self.events += 1;
        if self.chunk_records as usize >= self.chunk_events {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends every event from an iterator.
    pub fn write_all(&mut self, events: impl IntoIterator<Item = Tuple>) -> Result<(), Error> {
        for tuple in events {
            self.write_event(tuple)?;
        }
        Ok(())
    }

    /// Flushes the trailing chunk, writes the end-of-trace marker and
    /// returns the sink.
    pub fn finish(mut self) -> Result<W, Error> {
        self.write_header_if_needed()?;
        if self.chunk_records > 0 {
            self.flush_chunk()?;
        }
        self.sink.write_all(&[0u8; CHUNK_HEADER_BYTES])?;
        self.sink.flush()?;
        Ok(self.sink)
    }

    fn write_header_if_needed(&mut self) -> Result<(), io::Error> {
        if self.header_written {
            return Ok(());
        }
        self.sink.write_all(&MAGIC)?;
        self.sink.write_all(&FORMAT_VERSION.to_le_bytes())?;
        self.sink.write_all(&[self.kind.to_byte(), 0])?;
        self.sink.write_all(&0u32.to_le_bytes())?;
        self.header_written = true;
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), Error> {
        self.write_header_if_needed()?;
        self.sink
            .write_all(&chunk_header(&self.payload, self.chunk_records))?;
        self.sink.write_all(&self.payload)?;
        self.payload.clear();
        self.chunk_records = 0;
        self.prev_pc = 0;
        self.chunks += 1;
        Ok(())
    }
}

// --- reader --------------------------------------------------------------

/// Decodes a binary trace back into its event stream.
///
/// Iterates `Result<Tuple, Error>`: decoding is streaming and chunk-at-a-
/// time, so a multi-gigabyte trace replays in constant memory, and a CRC or
/// structure error surfaces at the first affected chunk. After any error
/// the iterator fuses (yields `None`).
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
    kind: TraceKind,
    version: u16,
    /// Decoded events of the current chunk, in reverse (pop order). Drained
    /// by iteration and refilled in place, so one allocation serves the
    /// whole trace.
    pending: Vec<Tuple>,
    /// Reused raw-payload buffer, resized (not reallocated, once warm) to
    /// each chunk's payload length.
    payload_buf: Vec<u8>,
    chunks_read: u64,
    events_read: u64,
    finished: bool,
    failed: bool,
}

impl TraceReader<BufReader<File>> {
    /// Opens a trace file (buffered).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Error> {
        TraceReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the trace header.
    ///
    /// # Errors
    ///
    /// [`Error::BadMagic`], [`Error::UnsupportedVersion`],
    /// [`Error::UnknownKind`], [`Error::Truncated`] or I/O errors.
    pub fn new(mut source: R) -> Result<Self, Error> {
        let mut header = [0u8; 16];
        read_exact_classified(&mut source, &mut header, "header", false)?;
        if header[..8] != MAGIC {
            return Err(Error::BadMagic);
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != FORMAT_VERSION {
            return Err(Error::UnsupportedVersion(version));
        }
        let kind = TraceKind::from_byte(header[10])?;
        Ok(TraceReader {
            source,
            kind,
            version,
            pending: Vec::new(),
            payload_buf: Vec::new(),
            chunks_read: 0,
            events_read: 0,
            finished: false,
            failed: false,
        })
    }

    /// The event kind recorded in the header.
    pub fn kind(&self) -> TraceKind {
        self.kind
    }

    /// The trace's format version.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Chunks fully decoded so far.
    pub fn chunks_read(&self) -> u64 {
        self.chunks_read
    }

    /// Events yielded so far.
    pub fn events_read(&self) -> u64 {
        self.events_read
    }

    /// Decodes the remaining events into a vector.
    pub fn read_all(self) -> Result<Vec<Tuple>, Error> {
        self.collect()
    }

    /// Loads the next chunk into `pending`. Returns `false` at the (valid)
    /// end of the trace.
    fn load_chunk(&mut self) -> Result<bool, Error> {
        loop {
            let mut chunk_header = [0u8; CHUNK_HEADER_BYTES];
            read_exact_classified(&mut self.source, &mut chunk_header, "chunk header", false)?;
            if chunk_header == [0u8; CHUNK_HEADER_BYTES] {
                // End-of-trace marker; anything after it is an error.
                let mut probe = [0u8; 1];
                match self.source.read(&mut probe)? {
                    0 => return Ok(false),
                    _ => return Err(Error::TrailingData),
                }
            }
            let payload_len = u64::from(u32::from_le_bytes(
                chunk_header[0..4].try_into().expect("4 bytes"),
            ));
            let record_count = u32::from_le_bytes(chunk_header[4..8].try_into().expect("4 bytes"));
            let expected_crc = u32::from_le_bytes(chunk_header[8..12].try_into().expect("4 bytes"));
            validate_chunk_header(payload_len, record_count, self.chunks_read)?;

            self.payload_buf.resize(payload_len as usize, 0);
            // The chunk header promised this payload: running out anywhere
            // inside it — even at byte zero — is a tear, not a boundary.
            read_exact_classified(
                &mut self.source,
                &mut self.payload_buf,
                "chunk payload",
                true,
            )?;
            let actual_crc = crc32(&self.payload_buf);
            if actual_crc != expected_crc {
                return Err(Error::CrcMismatch {
                    chunk: self.chunks_read,
                    expected: expected_crc,
                    actual: actual_crc,
                });
            }

            decode_chunk_payload_into(
                &self.payload_buf,
                record_count,
                self.chunks_read,
                &mut self.pending,
            )?;
            self.chunks_read += 1;
            if self.pending.is_empty() {
                // A legal but pointless empty chunk; keep scanning.
                continue;
            }
            self.pending.reverse();
            return Ok(true);
        }
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<Tuple, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(tuple) = self.pending.pop() {
            self.events_read += 1;
            return Some(Ok(tuple));
        }
        if self.finished || self.failed {
            return None;
        }
        match self.load_chunk() {
            Ok(true) => {
                let tuple = self.pending.pop().expect("loaded chunk is non-empty");
                self.events_read += 1;
                Some(Ok(tuple))
            }
            Ok(false) => {
                self.finished = true;
                None
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Reads exactly `buf.len()` bytes, classifying how the input ran out:
/// EOF *before the first byte* of the structure means the stream stopped
/// cleanly between structures ([`Error::Truncated`] — e.g. only the
/// end-of-trace marker is missing), while EOF *after* the structure had
/// begun means it tore mid-write ([`Error::UnexpectedEof`]). Set
/// `torn_from_start` for structures whose presence is already promised by
/// an earlier header (a chunk's payload): for those even a zero-byte read
/// is a tear, never a clean boundary.
fn read_exact_classified(
    source: &mut impl Read,
    buf: &mut [u8],
    context: &'static str,
    torn_from_start: bool,
) -> Result<(), Error> {
    let mut filled = 0;
    while filled < buf.len() {
        match source.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 && !torn_from_start {
                    Error::Truncated { context }
                } else {
                    Error::UnexpectedEof { context }
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(Error::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(events: &[Tuple], chunk_events: usize) -> Vec<Tuple> {
        let mut writer =
            TraceWriter::new(Vec::new(), TraceKind::Raw).with_chunk_events(chunk_events);
        writer.write_all(events.iter().copied()).unwrap();
        let bytes = writer.finish().unwrap();
        TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_all()
            .unwrap()
    }

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        assert_eq!(round_trip(&[], 4), Vec::<Tuple>::new());
    }

    #[test]
    fn events_round_trip_across_chunk_sizes() {
        let events: Vec<Tuple> = (0..1000u64)
            .map(|i| Tuple::new(0x40_0000 + (i % 37) * 4, i * 31 % 257))
            .collect();
        for chunk_events in [1, 7, 256, 1000, 5000] {
            assert_eq!(
                round_trip(&events, chunk_events),
                events,
                "chunk {chunk_events}"
            );
        }
    }

    #[test]
    fn extreme_pc_jumps_round_trip() {
        let events = vec![
            Tuple::new(u64::MAX, u64::MAX),
            Tuple::new(0, 0),
            Tuple::new(1 << 63, 42),
            Tuple::new(3, 1),
        ];
        assert_eq!(round_trip(&events, 2), events);
    }

    #[test]
    fn header_records_kind_and_version() {
        let bytes = TraceWriter::new(Vec::new(), TraceKind::Edge)
            .finish()
            .unwrap();
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.kind(), TraceKind::Edge);
        assert_eq!(reader.version(), FORMAT_VERSION);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = TraceWriter::new(Vec::new(), TraceKind::Raw)
            .finish()
            .unwrap();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            TraceReader::new(bytes.as_slice()),
            Err(Error::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = TraceWriter::new(Vec::new(), TraceKind::Raw)
            .finish()
            .unwrap();
        bytes[8] = 0xFE;
        assert!(matches!(
            TraceReader::new(bytes.as_slice()),
            Err(Error::UnsupportedVersion(0xFE))
        ));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut bytes = TraceWriter::new(Vec::new(), TraceKind::Raw)
            .finish()
            .unwrap();
        bytes[10] = 99;
        assert!(matches!(
            TraceReader::new(bytes.as_slice()),
            Err(Error::UnknownKind(99))
        ));
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let mut writer = TraceWriter::new(Vec::new(), TraceKind::Raw);
        writer
            .write_all((0..100u64).map(|i| Tuple::new(i, i)))
            .unwrap();
        let mut bytes = writer.finish().unwrap();
        // Flip a bit inside the (single) chunk payload.
        let payload_start = 16 + CHUNK_HEADER_BYTES;
        bytes[payload_start + 10] ^= 0x04;
        let result: Result<Vec<Tuple>, Error> =
            TraceReader::new(bytes.as_slice()).unwrap().collect();
        assert!(matches!(result, Err(Error::CrcMismatch { chunk: 0, .. })));
    }

    #[test]
    fn truncation_is_detected_mid_chunk_and_at_boundary() {
        let mut writer = TraceWriter::new(Vec::new(), TraceKind::Raw).with_chunk_events(10);
        writer
            .write_all((0..40u64).map(|i| Tuple::new(i, i)))
            .unwrap();
        let bytes = writer.finish().unwrap();
        // A cut mid-way through the stream lands inside a chunk: torn.
        let mid: Result<Vec<Tuple>, Error> = TraceReader::new(&bytes[..bytes.len() / 2])
            .unwrap()
            .collect();
        assert!(matches!(mid, Err(Error::UnexpectedEof { .. })));
        // A cut exactly at the end-of-trace marker (drop the marker only)
        // ends on a chunk boundary: clean truncation, but still an error —
        // the marker proves the tail was not silently lost.
        let no_marker: Result<Vec<Tuple>, Error> =
            TraceReader::new(&bytes[..bytes.len() - CHUNK_HEADER_BYTES])
                .unwrap()
                .collect();
        assert!(matches!(no_marker, Err(Error::Truncated { .. })));
    }

    #[test]
    fn torn_and_clean_truncation_are_distinguished_at_every_cut() {
        // Sweep every possible truncation point of a small trace: the reader
        // must fail typed at each one, reporting Truncated exactly when the
        // cut falls on a structure boundary and UnexpectedEof when it falls
        // inside one (and never panic, whatever the cut).
        let mut writer = TraceWriter::new(Vec::new(), TraceKind::Raw).with_chunk_events(4);
        writer
            .write_all((0..12u64).map(|i| Tuple::new(i * 8, i)))
            .unwrap();
        let bytes = writer.finish().unwrap();
        // Structure boundaries: after the 16-byte trace header and after
        // each complete chunk (header + payload).
        let mut boundaries = vec![16usize];
        let mut pos = 16;
        while pos < bytes.len() - CHUNK_HEADER_BYTES {
            let payload_len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += CHUNK_HEADER_BYTES + payload_len;
            boundaries.push(pos);
        }
        for cut in 16..bytes.len() - 1 {
            let result: Result<Vec<Tuple>, Error> =
                TraceReader::new(&bytes[..cut]).unwrap().collect();
            let err = result.unwrap_err();
            if boundaries.contains(&cut) {
                assert!(
                    matches!(err, Error::Truncated { .. }),
                    "cut {cut}: boundary cut must be clean truncation, got {err}"
                );
            } else {
                assert!(
                    matches!(err, Error::UnexpectedEof { .. }),
                    "cut {cut}: mid-structure cut must be a tear, got {err}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_after_marker_are_rejected() {
        let mut writer = TraceWriter::new(Vec::new(), TraceKind::Raw);
        writer.write_event(Tuple::new(1, 1)).unwrap();
        let mut bytes = writer.finish().unwrap();
        bytes.push(0xAB);
        let result: Result<Vec<Tuple>, Error> =
            TraceReader::new(bytes.as_slice()).unwrap().collect();
        assert!(matches!(result, Err(Error::TrailingData)));
    }

    /// Builds a full trace whose single chunk has an arbitrary (possibly
    /// lying) header: `header ++ payload`, wrapped in trace header + marker.
    fn trace_with_raw_chunk(payload_len: u32, record_count: u32, payload: &[u8]) -> Vec<u8> {
        let mut bytes = TraceWriter::new(Vec::new(), TraceKind::Raw)
            .finish()
            .unwrap();
        bytes.truncate(16); // keep the trace header, drop the end marker
        bytes.extend_from_slice(&payload_len.to_le_bytes());
        bytes.extend_from_slice(&record_count.to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&[0u8; CHUNK_HEADER_BYTES]); // end marker
        bytes
    }

    #[test]
    fn zero_record_empty_chunk_is_indistinguishable_from_the_end_marker() {
        // crc32(&[]) == 0, so a 0-payload / 0-record chunk header is
        // all-zero — exactly the end-of-trace marker. The reader treats it
        // as such and must then reject the *real* marker as trailing data.
        let bytes = trace_with_raw_chunk(0, 0, &[]);
        let events: Result<Vec<Tuple>, Error> =
            TraceReader::new(bytes.as_slice()).unwrap().collect();
        assert!(matches!(events, Err(Error::TrailingData)));
    }

    #[test]
    fn reader_rejects_zero_record_chunk_with_nonempty_payload() {
        // Declares bytes but no records: the payload can never be consumed.
        let bytes = trace_with_raw_chunk(3, 0, &[1, 2, 3]);
        let events: Result<Vec<Tuple>, Error> =
            TraceReader::new(bytes.as_slice()).unwrap().collect();
        assert!(matches!(events, Err(Error::ChunkDecode { chunk: 0 })));
    }

    #[test]
    fn reader_rejects_overlong_declared_chunk_without_allocating() {
        // Declares a ~4 GiB payload. Must fail fast on the header alone —
        // before any buffer of that size is allocated or read.
        let bytes = trace_with_raw_chunk(u32::MAX, 1, &[]);
        let events: Result<Vec<Tuple>, Error> =
            TraceReader::new(bytes.as_slice()).unwrap().collect();
        assert!(matches!(
            events,
            Err(Error::ChunkTooLarge { chunk: 0, declared }) if declared == u64::from(u32::MAX)
        ));
    }

    #[test]
    fn reader_rejects_record_count_exceeding_payload_capacity() {
        // u32::MAX records cannot fit in an 8-byte payload (records are
        // >= 2 bytes each); reject from the header, never decode.
        let payload = [0x02u8; 8];
        let bytes = trace_with_raw_chunk(8, u32::MAX, &payload);
        let events: Result<Vec<Tuple>, Error> =
            TraceReader::new(bytes.as_slice()).unwrap().collect();
        assert!(matches!(events, Err(Error::ChunkDecode { chunk: 0 })));
    }

    #[test]
    fn reader_fuses_after_error() {
        let mut writer = TraceWriter::new(Vec::new(), TraceKind::Raw).with_chunk_events(4);
        writer
            .write_all((0..8u64).map(|i| Tuple::new(i, i)))
            .unwrap();
        let bytes = writer.finish().unwrap();
        let mut reader = TraceReader::new(&bytes[..bytes.len() - 20]).unwrap();
        let mut saw_error = false;
        for item in reader.by_ref() {
            if item.is_err() {
                saw_error = true;
            }
        }
        assert!(saw_error);
        assert!(reader.next().is_none());
    }

    #[test]
    fn delta_encoding_is_compact_for_clustered_pcs() {
        let mut writer = TraceWriter::new(Vec::new(), TraceKind::Raw);
        // 10K events over a 64-entry PC cluster with tiny values: ~2 bytes
        // per record once deltas stay small.
        writer
            .write_all((0..10_000u64).map(|i| Tuple::new(0x40_0000 + (i % 64) * 4, i % 4)))
            .unwrap();
        let bytes = writer.finish().unwrap();
        assert!(
            bytes.len() < 10_000 * 4,
            "10K clustered events took {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn standalone_chunks_round_trip() {
        let events: Vec<Tuple> = (0..500u64)
            .map(|i| Tuple::new(0x40_0000 + (i % 13) * 4, i % 7))
            .collect();
        let bytes = encode_chunk(&events);
        let (decoded, consumed) = decode_chunk(&bytes).unwrap();
        assert_eq!(decoded, events);
        assert_eq!(consumed, bytes.len());
        // Trailing bytes after the chunk are not consumed.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[1, 2, 3]);
        let (decoded, consumed) = decode_chunk(&padded).unwrap();
        assert_eq!(decoded, events);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn standalone_chunk_matches_writer_bytes() {
        let events: Vec<Tuple> = (0..100u64).map(|i| Tuple::new(i * 8, i)).collect();
        let mut writer =
            TraceWriter::new(Vec::new(), TraceKind::Raw).with_chunk_events(events.len());
        writer.write_all(events.iter().copied()).unwrap();
        let trace = writer.finish().unwrap();
        // The writer's (only) chunk sits between the 16-byte trace header and
        // the 12-byte end marker, byte-identical to the standalone encoding.
        let chunk = &trace[16..trace.len() - CHUNK_HEADER_BYTES];
        assert_eq!(chunk, encode_chunk(&events).as_slice());
    }

    #[test]
    fn standalone_chunk_decode_rejects_corruption_and_truncation() {
        let events: Vec<Tuple> = (0..50u64).map(|i| Tuple::new(i, i)).collect();
        let bytes = encode_chunk(&events);
        assert!(matches!(
            decode_chunk(&[]),
            Err(Error::Truncated {
                context: "chunk header"
            })
        ));
        assert!(matches!(
            decode_chunk(&bytes[..8]),
            Err(Error::UnexpectedEof {
                context: "chunk header"
            })
        ));
        assert!(matches!(
            decode_chunk(&bytes[..bytes.len() - 1]),
            Err(Error::UnexpectedEof {
                context: "chunk payload"
            })
        ));
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(matches!(
            decode_chunk(&corrupt),
            Err(Error::CrcMismatch { .. })
        ));
    }

    #[test]
    fn decode_chunk_into_reuses_the_buffer_across_chunks() {
        let first: Vec<Tuple> = (0..300u64).map(|i| Tuple::new(i * 4, i)).collect();
        let second: Vec<Tuple> = (0..7u64).map(|i| Tuple::new(i, 9)).collect();
        let mut events = Vec::new();
        let bytes = encode_chunk(&first);
        assert_eq!(decode_chunk_into(&bytes, &mut events).unwrap(), bytes.len());
        assert_eq!(events, first);
        let warm_capacity = events.capacity();
        // Decoding a smaller chunk into the same buffer replaces the
        // contents without growing (or shrinking) the allocation.
        let bytes = encode_chunk(&second);
        assert_eq!(decode_chunk_into(&bytes, &mut events).unwrap(), bytes.len());
        assert_eq!(events, second);
        assert_eq!(events.capacity(), warm_capacity);
        // Errors leave the buffer reusable.
        assert!(decode_chunk_into(&bytes[..4], &mut events).is_err());
        let bytes = encode_chunk(&first);
        assert_eq!(decode_chunk_into(&bytes, &mut events).unwrap(), bytes.len());
        assert_eq!(events, first);
    }

    #[test]
    fn empty_chunk_is_the_end_marker_encoding() {
        let bytes = encode_chunk(&[]);
        assert_eq!(bytes, vec![0u8; CHUNK_HEADER_BYTES]);
        let (decoded, consumed) = decode_chunk(&bytes).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(consumed, CHUNK_HEADER_BYTES);
    }

    #[test]
    fn oversized_declared_payload_is_rejected_without_allocation() {
        let mut bytes = vec![0u8; CHUNK_HEADER_BYTES];
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes()); // ~4 GiB declared
        assert!(matches!(
            decode_chunk(&bytes),
            Err(Error::ChunkTooLarge {
                chunk: 0,
                declared,
            }) if declared == u64::from(u32::MAX)
        ));
    }

    #[test]
    fn implausible_record_count_is_rejected_before_decoding() {
        // 4-byte payload cannot hold 3 records (>= 2 bytes each).
        let mut chunk = Vec::new();
        let payload = [0u8; 4];
        chunk.extend_from_slice(&4u32.to_le_bytes());
        chunk.extend_from_slice(&3u32.to_le_bytes());
        chunk.extend_from_slice(&crc32(&payload).to_le_bytes());
        chunk.extend_from_slice(&payload);
        assert!(matches!(
            decode_chunk(&chunk),
            Err(Error::ChunkDecode { chunk: 0 })
        ));
    }

    #[test]
    fn stream_kind_converts_to_trace_kind() {
        assert_eq!(TraceKind::from(StreamKind::Value), TraceKind::Value);
        assert_eq!(TraceKind::from(StreamKind::Edge), TraceKind::Edge);
    }

    #[test]
    fn chunk_decoder_matches_flat_decode_at_any_step_size() {
        let events: Vec<Tuple> = (0..537u64)
            .map(|i| Tuple::new(i.wrapping_mul(0x9E37), i % 13))
            .collect();
        let bytes = encode_chunk(&events);
        let mut flat = Vec::new();
        let consumed = decode_chunk_into(&bytes, &mut flat).unwrap();
        for step in [1usize, 7, 64, 537, 10_000] {
            let mut decoder = ChunkDecoder::open(&bytes).unwrap();
            assert_eq!(decoder.remaining(), events.len());
            let mut got = Vec::new();
            while decoder.remaining() > 0 {
                let n = decoder.decode_some(step, |t| got.push(t)).unwrap();
                assert_eq!(n, step.min(events.len() - (got.len() - n)));
            }
            decoder.finish().unwrap();
            assert_eq!(got, flat, "step {step}");
            assert_eq!(decoder.consumed(), consumed);
        }
    }

    #[test]
    fn chunk_decoder_runs_the_same_adversarial_gauntlet_as_flat_decode() {
        let events: Vec<Tuple> = (0..40u64).map(|i| Tuple::new(i * 8, i)).collect();
        let bytes = encode_chunk(&events);
        assert!(matches!(
            ChunkDecoder::open(&[]),
            Err(Error::Truncated { .. })
        ));
        assert!(matches!(
            ChunkDecoder::open(&bytes[..CHUNK_HEADER_BYTES - 1]),
            Err(Error::UnexpectedEof { .. })
        ));
        assert!(matches!(
            ChunkDecoder::open(&bytes[..bytes.len() - 1]),
            Err(Error::UnexpectedEof { .. })
        ));
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x08;
        assert!(matches!(
            ChunkDecoder::open(&corrupt),
            Err(Error::CrcMismatch { .. })
        ));
        // finish() before the payload is drained reports the inconsistency.
        let decoder = ChunkDecoder::open(&bytes).unwrap();
        assert!(matches!(decoder.finish(), Err(Error::ChunkDecode { .. })));
    }

    #[test]
    fn partitioned_decode_routes_by_shard_and_clears_buffers() {
        let events: Vec<Tuple> = (0..200u64).map(|i| Tuple::new(i * 16, i % 5)).collect();
        let bytes = encode_chunk(&events);
        let mut outs = vec![vec![Tuple::new(99, 99)]; 4];
        let consumed = decode_chunk_partitioned(&bytes, &mut outs).unwrap();
        assert_eq!(consumed, bytes.len());
        let mut total = 0;
        for (shard, out) in outs.iter().enumerate() {
            total += out.len();
            for &t in out {
                assert_eq!(crate::engine::shard_of(t, 4), shard);
            }
        }
        assert_eq!(total, events.len());
    }
}
