//! Property tests for the binary trace format: arbitrary event streams
//! round-trip byte-exactly, and every corruption mode is rejected with a
//! typed error rather than garbage data.

use mhp_core::Tuple;
use mhp_pipeline::{Error, TraceKind, TraceReader, TraceWriter};
use proptest::prelude::*;

fn encode(events: &[(u64, u64)], chunk_events: usize) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), TraceKind::Raw).with_chunk_events(chunk_events);
    writer
        .write_all(events.iter().map(|&(pc, value)| Tuple::new(pc, value)))
        .expect("writing to a Vec cannot fail");
    writer.finish().expect("finish on a Vec cannot fail")
}

fn decode(bytes: &[u8]) -> Result<Vec<Tuple>, Error> {
    TraceReader::new(bytes)?.read_all()
}

proptest! {
    #[test]
    fn round_trips_arbitrary_events(
        events in prop::collection::vec((any::<u64>(), any::<u64>()), 0..400),
        chunk_events in 1usize..64,
    ) {
        let bytes = encode(&events, chunk_events);
        let decoded = decode(&bytes).expect("well-formed trace must decode");
        let expected: Vec<Tuple> = events
            .iter()
            .map(|&(pc, value)| Tuple::new(pc, value))
            .collect();
        prop_assert_eq!(decoded, expected);
    }

    #[test]
    fn chunking_never_changes_the_stream(
        events in prop::collection::vec((0u64..1 << 20, 0u64..1 << 10), 1..200),
        chunk_a in 1usize..32,
        chunk_b in 32usize..300,
    ) {
        // Different chunk sizes produce different bytes but identical events.
        let a = decode(&encode(&events, chunk_a)).unwrap();
        let b = decode(&encode(&events, chunk_b)).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn any_truncation_is_rejected(
        events in prop::collection::vec((any::<u64>(), any::<u64>()), 1..100),
        chunk_events in 1usize..32,
        cut_fraction in 0u64..1000,
    ) {
        let bytes = encode(&events, chunk_events);
        // Cut anywhere strictly inside the trace (even mid-header). A cut on
        // a structure boundary is clean truncation; one inside a structure
        // is a torn stream — both must fail typed, never decode silently.
        let cut = 1 + (cut_fraction as usize * (bytes.len() - 2)) / 1000;
        let result = TraceReader::new(&bytes[..cut]).and_then(TraceReader::read_all);
        prop_assert!(
            matches!(
                result,
                Err(Error::Truncated { .. })
                    | Err(Error::UnexpectedEof { .. })
                    | Err(Error::ChunkDecode { .. })
            ),
            "cut at {} of {} gave {:?}",
            cut,
            bytes.len(),
            result
        );
    }

    #[test]
    fn payload_bitflips_are_rejected(
        events in prop::collection::vec((any::<u64>(), any::<u64>()), 8..100),
        byte_fraction in 0u64..1000,
        bit in 0u32..8,
    ) {
        // One chunk holds everything, so any flip past the 28 header bytes
        // (file header + chunk header) lands in CRC-protected payload.
        let mut bytes = encode(&events, 1 << 16);
        let payload_end = bytes.len() - 12; // end-of-trace marker
        let target = 28 + (byte_fraction as usize * (payload_end - 28 - 1)) / 1000;
        bytes[target] ^= 1 << bit;
        let result = TraceReader::new(bytes.as_slice()).and_then(TraceReader::read_all);
        prop_assert!(
            matches!(result, Err(Error::CrcMismatch { .. })),
            "flip at byte {} bit {} gave {:?}",
            target,
            bit,
            result
        );
    }
}

#[test]
fn corrupting_the_recorded_crc_itself_is_detected() {
    let mut bytes = encode(&[(1, 2), (3, 4)], 16);
    // Bytes 24..28 are the chunk's recorded CRC (16 file header + 8 into the
    // chunk header).
    bytes[24] ^= 0xFF;
    assert!(matches!(
        decode(&bytes),
        Err(Error::CrcMismatch { chunk: 0, .. })
    ));
}

#[test]
fn record_count_mismatch_is_a_decode_error() {
    let mut bytes = encode(&[(1, 1), (2, 2), (3, 3)], 16);
    // Bytes 20..24 are the chunk's record count; claim one extra record but
    // recompute nothing else — the CRC only covers the payload.
    let count = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    bytes[20..24].copy_from_slice(&(count + 1).to_le_bytes());
    assert!(matches!(
        decode(&bytes),
        Err(Error::ChunkDecode { chunk: 0 })
    ));
}

/// A 48-event `gcc:value:7` trace in chunks of 20 events, as an earlier
/// build recorded it. Every chunk CRC must still validate, and re-encoding
/// the decoded events must reproduce the file byte for byte, so the
/// checksum can never drift from traces already on disk or on the wire.
const PINNED_TRACE: &str = "\
    4d48505452430d0a01000000000000008e000000140000005f10cdceb082e41081808080\
    08bff3e30cedac02bf0e95e702c080aa0ce88508df80298280808008aff4800c89e603a0\
    f9800c8380808008ff84810cf19a02e0e7800c8480808008ffdc800cebc30240d8a107a0\
    fdff0b8580808008bf88800cf19a0280df8f0c8680808008bfd88f0c88c702b089b40cd3\
    8708ef8eb40cebf805e00190f1037fe86b80ba810c87808080089a000000140000002aad\
    513480bef3108880808008cfbcf30cc3ac01e0c7810c8980808008d0dd0c8a80808008df\
    a58e0ce4f801f0efc60c8b80808008bf9e468d8608afd1800ce4f80140fc14e0d3c20c8c\
    80808008efd4c20c95e702b0c6860c8d80808008e0b2098e80808008ffb6048f80808008\
    ff9c099080808008bfa5820cf19a02a0b4880c91808080088fe107928080800880bf0493\
    80808008d0c40294808080083900000008000000a2418c18f088800483ca039003f8e803\
    e0d0850c9580808008c0ba099680808008bfed0997808080088fa8850ce444d003f89501\
    c0d5870c9880808008000000000000000000000000";

#[test]
fn pinned_trace_validates_and_re_encodes_identically() {
    let pinned: Vec<u8> = (0..PINNED_TRACE.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&PINNED_TRACE[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(pinned.len(), 417);

    let reader = TraceReader::new(pinned.as_slice()).unwrap();
    assert_eq!(reader.kind(), TraceKind::Value);
    let events = reader.read_all().expect("every pinned chunk validates");
    assert_eq!(events.len(), 48);

    let mut writer = TraceWriter::new(Vec::new(), TraceKind::Value).with_chunk_events(20);
    writer.write_all(events.iter().copied()).unwrap();
    assert_eq!(writer.finish().unwrap(), pinned);
}
