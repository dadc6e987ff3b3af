//! Property tests: both trace codecs round-trip arbitrary records, the
//! two formats agree with each other, the mmap reader agrees with the
//! streaming reader, and malformed inputs always surface as typed
//! [`TraceError`]s — never panics or silent short reads.

use proptest::prelude::*;
use tlbsim_core::{AccessKind, MemoryAccess};
use tlbsim_trace::{
    BinaryTraceReader, BinaryTraceWriter, DecodePolicy, FaultKind, FaultPlan, MmapTrace,
    TextTraceReader, TextTraceWriter, TraceError, V2Trace, V2TraceWriter, HEADER_BYTES,
    RECORD_BYTES,
};

fn encode(records: &[MemoryAccess]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = BinaryTraceWriter::create(&mut buf).unwrap();
    for r in records {
        w.write(r).unwrap();
    }
    w.finish().unwrap();
    buf
}

/// Opens trace bytes through a real file so the proptests exercise the
/// actual mapping path (mmap on Linux, buffered elsewhere), not just
/// the in-memory wrapper.
fn open_via_file(bytes: &[u8], tag: &str) -> Result<MmapTrace, TraceError> {
    open_via_file_policy(bytes, tag, DecodePolicy::Strict)
}

fn open_via_file_policy(
    bytes: &[u8],
    tag: &str,
    policy: DecodePolicy,
) -> Result<MmapTrace, TraceError> {
    let path = std::env::temp_dir().join(format!(
        "tlbsim-proptest-{}-{tag}-{}.tlbt",
        std::process::id(),
        bytes.len()
    ));
    std::fs::write(&path, bytes).unwrap();
    let opened = MmapTrace::open_with_policy(&path, policy);
    std::fs::remove_file(&path).ok();
    opened
}

fn encode_v2(records: &[MemoryAccess], block_len: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = V2TraceWriter::create_with_block_len(&mut buf, block_len).unwrap();
    for r in records {
        w.write(r).unwrap();
    }
    w.finish().unwrap();
    buf
}

fn open_v2_via_file(bytes: &[u8], tag: &str, policy: DecodePolicy) -> Result<V2Trace, TraceError> {
    let path = std::env::temp_dir().join(format!(
        "tlbsim-proptest-{}-{tag}-{}.tlbt",
        std::process::id(),
        bytes.len()
    ));
    std::fs::write(&path, bytes).unwrap();
    let opened = V2Trace::open_with_policy(&path, policy);
    std::fs::remove_file(&path).ok();
    opened
}

fn arb_access() -> impl Strategy<Value = MemoryAccess> {
    (any::<u64>(), any::<u64>(), prop::bool::ANY).prop_map(|(pc, vaddr, write)| MemoryAccess {
        pc: pc.into(),
        vaddr: vaddr.into(),
        kind: if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
    })
}

proptest! {
    #[test]
    fn binary_roundtrip(records in prop::collection::vec(arb_access(), 0..200)) {
        let mut buf = Vec::new();
        let mut w = BinaryTraceWriter::create(&mut buf).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        let got: Vec<MemoryAccess> = BinaryTraceReader::open(buf.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        prop_assert_eq!(got, records);
    }

    #[test]
    fn text_roundtrip(records in prop::collection::vec(arb_access(), 0..200)) {
        let mut buf = Vec::new();
        let mut w = TextTraceWriter::create(&mut buf);
        for r in &records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        let got: Vec<MemoryAccess> = TextTraceReader::open(buf.as_slice())
            .map(|r| r.unwrap())
            .collect();
        prop_assert_eq!(got, records);
    }

    #[test]
    fn formats_agree(records in prop::collection::vec(arb_access(), 0..100)) {
        let mut bin = Vec::new();
        let mut bw = BinaryTraceWriter::create(&mut bin).unwrap();
        let mut txt = Vec::new();
        let mut tw = TextTraceWriter::create(&mut txt);
        for r in &records {
            bw.write(r).unwrap();
            tw.write(r).unwrap();
        }
        bw.finish().unwrap();
        tw.finish().unwrap();
        let from_bin: Vec<MemoryAccess> = BinaryTraceReader::open(bin.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let from_txt: Vec<MemoryAccess> = TextTraceReader::open(txt.as_slice())
            .map(|r| r.unwrap())
            .collect();
        prop_assert_eq!(from_bin, from_txt);
    }

    #[test]
    fn mmap_roundtrip_matches_written_records(
        records in prop::collection::vec(arb_access(), 0..200),
        batch_len in 1usize..64,
    ) {
        let bytes = encode(&records);
        let trace = open_via_file(&bytes, "roundtrip").unwrap();
        prop_assert_eq!(trace.record_count(), records.len() as u64);
        let mut got = Vec::new();
        let mut cursor = trace.cursor();
        let mut buf = vec![MemoryAccess::read(0, 0); batch_len];
        loop {
            let n = cursor.decode_batch(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        prop_assert_eq!(got, records);
    }

    #[test]
    fn mmap_and_streaming_readers_agree(
        records in prop::collection::vec(arb_access(), 0..150),
    ) {
        let bytes = encode(&records);
        let via_mmap: Vec<MemoryAccess> = open_via_file(&bytes, "agree")
            .unwrap()
            .cursor()
            .map(|r| r.unwrap())
            .collect();
        let via_reader: Vec<MemoryAccess> = BinaryTraceReader::open(bytes.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        prop_assert_eq!(via_mmap, via_reader);
    }

    #[test]
    fn truncated_files_yield_typed_errors_never_panics(
        records in prop::collection::vec(arb_access(), 1..50),
        cut in 1usize..100,
    ) {
        // Cut anywhere strictly inside the encoding: inside the header
        // it must read as TruncatedHeader, on a non-record boundary as
        // TruncatedRecord, and on a record boundary as a valid shorter
        // trace — never a panic, never a silent wrong length.
        let bytes = encode(&records);
        let cut = cut % bytes.len();
        let truncated = &bytes[..cut];
        match open_via_file(truncated, "truncated") {
            Err(TraceError::TruncatedHeader { len }) => {
                prop_assert!(cut < HEADER_BYTES);
                prop_assert_eq!(len, cut as u64);
            }
            Err(TraceError::TruncatedRecord) => {
                prop_assert!(cut >= HEADER_BYTES);
                prop_assert!(!(cut - HEADER_BYTES).is_multiple_of(RECORD_BYTES));
            }
            Ok(trace) => {
                prop_assert!(cut >= HEADER_BYTES);
                prop_assert_eq!((cut - HEADER_BYTES) % RECORD_BYTES, 0);
                prop_assert_eq!(
                    trace.record_count() as usize,
                    (cut - HEADER_BYTES) / RECORD_BYTES
                );
            }
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    #[test]
    fn corrupted_headers_yield_typed_errors(
        records in prop::collection::vec(arb_access(), 0..20),
        byte in 0usize..6,
        xor in 1u8..=255,
    ) {
        // Flip bits somewhere in magic or version: BadMagic for the
        // first four bytes, UnsupportedVersion for the version field.
        let mut bytes = encode(&records);
        bytes[byte] ^= xor;
        match open_via_file(&bytes, "header") {
            Err(TraceError::BadMagic { found }) => {
                prop_assert!(byte < 4);
                prop_assert_eq!(&found[..], &bytes[0..4]);
            }
            Err(TraceError::UnsupportedVersion { found }) => {
                prop_assert!((4..6).contains(&byte));
                prop_assert_ne!(found, 1);
            }
            other => prop_assert!(false, "corrupt header accepted: {:?}", other.is_ok()),
        }
    }

    #[test]
    fn corrupted_kind_bytes_are_typed_errors_from_validation(
        records in prop::collection::vec(arb_access(), 1..50),
        victim in 0usize..50,
        bad_kind in 2u8..=255,
    ) {
        let victim = victim % records.len();
        let mut bytes = encode(&records);
        bytes[HEADER_BYTES + victim * RECORD_BYTES + 16] = bad_kind;
        let trace = open_via_file(&bytes, "kind").unwrap();
        match trace.validate_records() {
            Err(TraceError::InvalidKind { found }) => prop_assert_eq!(found, bad_kind),
            other => prop_assert!(false, "corrupt kind accepted: {:?}", other.is_ok()),
        }
        // The iterator form also surfaces it as an Err, not a panic.
        let first_err = trace.cursor().find_map(|r| r.err());
        prop_assert!(matches!(first_err, Some(TraceError::InvalidKind { .. })));
    }

    #[test]
    fn strict_decode_is_total_over_arbitrary_body_byte_flips(
        records in prop::collection::vec(arb_access(), 1..80),
        pos in any::<usize>(),
        xor in 1u8..=255,
    ) {
        // Flip one arbitrary byte anywhere in the body. The only
        // per-record damage a decoder can detect is a kind byte >= 2;
        // every other flip must decode as a (different) valid record.
        // Either way: typed results only, never a panic, and the
        // cursor always terminates.
        let mut bytes = encode(&records);
        let body = pos % (bytes.len() - HEADER_BYTES);
        let flipped = bytes[HEADER_BYTES + body] ^ xor;
        bytes[HEADER_BYTES + body] = flipped;
        let victim = body / RECORD_BYTES;
        let kind_broken = body % RECORD_BYTES == 16 && flipped >= 2;

        let trace = open_via_file(&bytes, "flip-strict").unwrap();
        let results: Vec<Result<MemoryAccess, TraceError>> = trace.cursor().collect();
        prop_assert_eq!(results.len(), records.len());
        for (i, (got, want)) in results.iter().zip(&records).enumerate() {
            match got {
                Ok(r) if i != victim => prop_assert_eq!(r, want),
                Ok(_) => prop_assert!(!kind_broken),
                Err(TraceError::InvalidKind { found }) => {
                    prop_assert!(kind_broken && i == victim);
                    prop_assert_eq!(*found, flipped);
                }
                Err(other) => prop_assert!(false, "unexpected error {other}"),
            }
        }
        prop_assert_eq!(trace.validate_records().is_err(), kind_broken);
    }

    #[test]
    fn quarantine_decode_skips_and_counts_arbitrary_byte_flips(
        records in prop::collection::vec(arb_access(), 1..80),
        pos in any::<usize>(),
        xor in 1u8..=255,
    ) {
        // Same flip under an unbounded quarantine: the cursor yields
        // only good records, the broken one (if any) is skipped and
        // tallied in TraceHealth, and untouched records survive
        // bit-identical.
        let mut bytes = encode(&records);
        let body = pos % (bytes.len() - HEADER_BYTES);
        let flipped = bytes[HEADER_BYTES + body] ^ xor;
        bytes[HEADER_BYTES + body] = flipped;
        let victim = body / RECORD_BYTES;
        let kind_broken = body % RECORD_BYTES == 16 && flipped >= 2;

        let trace = open_via_file_policy(&bytes, "flip-salvage", DecodePolicy::lenient()).unwrap();
        let mut cursor = trace.cursor();
        let got: Vec<MemoryAccess> = cursor.by_ref().map(|r| r.unwrap()).collect();
        prop_assert_eq!(got.len(), records.len() - usize::from(kind_broken));
        let survivors = records
            .iter()
            .enumerate()
            .filter(|&(i, _)| !(kind_broken && i == victim));
        for (got, (i, want)) in got.iter().zip(survivors) {
            if i != victim {
                prop_assert_eq!(got, want);
            }
        }
        let health = cursor.health();
        prop_assert_eq!(health.records_bad, u64::from(kind_broken));
        prop_assert_eq!(health.records_ok, got.len() as u64);
        if kind_broken {
            prop_assert_eq!(health.first_bad_record, Some(victim as u64));
        } else {
            prop_assert!(health.is_clean());
        }
    }

    #[test]
    fn quarantine_accepts_arbitrary_tail_tears(
        records in prop::collection::vec(arb_access(), 1..50),
        cut in 1usize..RECORD_BYTES,
    ) {
        // Tear up to a record's worth of bytes off the tail: strict
        // rejects the file, quarantine replays the whole records before
        // the tear and reports the fragment length.
        let bytes = encode(&records);
        let torn = &bytes[..bytes.len() - cut];
        prop_assert!(matches!(
            open_via_file(torn, "tear-strict"),
            Err(TraceError::TruncatedRecord)
        ));
        let trace = open_via_file_policy(torn, "tear-salvage", DecodePolicy::quarantine(0)).unwrap();
        prop_assert_eq!(trace.record_count(), records.len() as u64 - 1);
        prop_assert_eq!(trace.torn_tail_bytes() as usize, RECORD_BYTES - cut);
        let got: Vec<MemoryAccess> = trace.cursor().map(|r| r.unwrap()).collect();
        prop_assert_eq!(&got[..], &records[..records.len() - 1]);
        let health = trace.scan_health().unwrap();
        prop_assert_eq!(health.records_ok, got.len() as u64);
        prop_assert_eq!(health.records_bad, 0);
        prop_assert!(!health.is_clean());
    }

    #[test]
    fn v2_roundtrip_across_arbitrary_block_lens(
        records in prop::collection::vec(arb_access(), 0..200),
        block_len in 1u32..300,
        batch_len in 1usize..64,
    ) {
        let bytes = encode_v2(&records, block_len);
        let trace = open_v2_via_file(&bytes, "v2-roundtrip", DecodePolicy::Strict).unwrap();
        prop_assert_eq!(trace.record_count(), records.len() as u64);
        prop_assert_eq!(trace.block_len(), u64::from(block_len));
        let mut got = Vec::new();
        let mut cursor = trace.cursor();
        let mut buf = vec![MemoryAccess::read(0, 0); batch_len];
        loop {
            let n = cursor.decode_batch(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        prop_assert_eq!(got, records);
    }

    #[test]
    fn v2_decode_agrees_with_v1_decode(
        records in prop::collection::vec(arb_access(), 0..150),
        block_len in 1u32..64,
    ) {
        let via_v1: Vec<MemoryAccess> = open_via_file(&encode(&records), "v1-agree")
            .unwrap()
            .cursor()
            .map(|r| r.unwrap())
            .collect();
        let via_v2: Vec<MemoryAccess> =
            open_v2_via_file(&encode_v2(&records, block_len), "v2-agree", DecodePolicy::Strict)
                .unwrap()
                .cursor()
                .map(|r| r.unwrap())
                .collect();
        prop_assert_eq!(via_v2, via_v1);
    }

    #[test]
    fn v2_truncation_anywhere_is_a_typed_error(
        records in prop::collection::vec(arb_access(), 1..60),
        block_len in 1u32..40,
        cut in any::<usize>(),
    ) {
        // The block index and footer live at the tail, so *any* strict
        // truncation destroys the layout: the open must fail with a
        // typed error under every policy — torn v2 metadata is never
        // quarantinable — and must never panic or return a shorter
        // trace that silently misreports its length.
        let bytes = encode_v2(&records, block_len);
        let cut = cut % bytes.len();
        let truncated = &bytes[..cut];
        for policy in [DecodePolicy::Strict, DecodePolicy::lenient()] {
            let opened = open_v2_via_file(truncated, "v2-cut", policy);
            prop_assert!(opened.is_err(), "cut at {} of {} accepted", cut, bytes.len());
        }
    }

    #[test]
    fn v2_quarantine_drops_exactly_the_damaged_block(
        records in prop::collection::vec(arb_access(), 1..200),
        block_len in 1u32..32,
        seed in any::<u64>(),
    ) {
        // Bake one kind corruption at a seeded position: it lands on
        // the restart record of some block, so quarantine must drop
        // that whole block (delta chains cannot resync mid-block) and
        // nothing else.
        let mut bytes = encode_v2(&records, block_len);
        FaultPlan::seeded(seed, records.len() as u64, &[(FaultKind::CorruptKind, 1)])
            .apply_to_bytes(&mut bytes);

        let strict = open_v2_via_file(&bytes, "v2-chaos-strict", DecodePolicy::Strict).unwrap();
        prop_assert!(matches!(
            strict.validate_records(),
            Err(TraceError::InvalidKind { .. })
        ));

        let trace = open_v2_via_file(&bytes, "v2-chaos", DecodePolicy::lenient()).unwrap();
        let health = trace.scan_health().unwrap();
        prop_assert_eq!(health.blocks_bad, 1);
        let first = health.first_bad_record.unwrap();
        prop_assert_eq!(first % u64::from(block_len), 0);
        let block_start = first as usize;
        let block_end = (block_start + block_len as usize).min(records.len());
        prop_assert_eq!(health.records_bad, (block_end - block_start) as u64);
        prop_assert_eq!(
            health.records_ok,
            (records.len() - (block_end - block_start)) as u64
        );
        let got: Vec<MemoryAccess> = trace.cursor().map(|r| r.unwrap()).collect();
        let want: Vec<MemoryAccess> = records[..block_start]
            .iter()
            .chain(&records[block_end..])
            .copied()
            .collect();
        prop_assert_eq!(got, want);
    }
}
