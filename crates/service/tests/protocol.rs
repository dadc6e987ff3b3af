//! Property tests over the wire protocol: every frame kind round-trips
//! bit-exactly through the codec, and decoding is *total* — arbitrary
//! garbage, truncated prefixes, and corrupted kind bytes all surface as
//! typed [`FrameError`]s, never panics and never silently-wrong values.

use proptest::prelude::*;
use tlbsim_core::PrefetcherConfig;
use tlbsim_service::{
    read_frame, resolve, ErrorCode, Frame, FrameError, JobSpec, WireError, PROTOCOL_VERSION,
};
use tlbsim_sim::{PerStreamStats, RunHealth, SimStats, StreamStats, SwitchPolicy, TablePolicy};
use tlbsim_trace::DecodePolicy;
use tlbsim_workloads::Scale;

fn arb_stats() -> impl Strategy<Value = SimStats> {
    (
        prop::collection::vec(any::<u64>(), 9),
        prop::collection::vec(prop::collection::vec(any::<u64>(), 6), 0..8),
    )
        .prop_map(|(counters, streams)| {
            let mut per_stream = PerStreamStats::default();
            if !streams.is_empty() {
                per_stream = PerStreamStats::with_streams(streams.len());
                for (index, s) in streams.iter().enumerate() {
                    per_stream.record(
                        index,
                        &StreamStats {
                            accesses: s[0],
                            misses: s[1],
                            prefetch_buffer_hits: s[2],
                            demand_walks: s[3],
                            prefetches_issued: s[4],
                            footprint_pages: s[5],
                        },
                    );
                }
            }
            SimStats {
                accesses: counters[0],
                misses: counters[1],
                prefetch_buffer_hits: counters[2],
                demand_walks: counters[3],
                prefetches_issued: counters[4],
                prefetches_filtered: counters[5],
                prefetches_evicted_unused: counters[6],
                maintenance_ops: counters[7],
                footprint_pages: counters[8],
                per_stream,
            }
        })
}

fn arb_health() -> impl Strategy<Value = RunHealth> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(retries, degraded, quarantined)| {
        RunHealth {
            retries,
            degraded_shards: degraded,
            quarantined_records: quarantined,
        }
    })
}

/// Schemes of assorted shapes, valid or not: the wire carries any
/// scheme and leaves validity to `resolve`. The text round trip itself
/// is `tlbsim-core`'s property to pin.
fn arb_scheme() -> impl Strategy<Value = PrefetcherConfig> {
    const SCHEMES: &str = "none|SP|RP;rows=0|ASP,64|MP,1024,4|DP,32,F;slots=6;pc=1;pair=1|\
                           TP,16|EP:|EP:EP+DP|C+DP,256,1;conf=3/0|\
                           C+EP:DP+ASP+MP;window=4|C+none;assoc=F";
    (0usize..12).prop_map(|i| {
        let text = SCHEMES.split('|').nth(i).expect("12 schemes");
        text.parse().expect("schemes in the grammar")
    })
}

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..60)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

fn arb_switch_policy() -> impl Strategy<Value = SwitchPolicy> {
    prop_oneof![
        Just(SwitchPolicy::None),
        Just(SwitchPolicy::FlushOnSwitch),
        (any::<u16>(), prop::bool::ANY).prop_map(|(contexts, partitioned)| SwitchPolicy::Asid {
            contexts: contexts as usize,
            tables: if partitioned {
                TablePolicy::Partitioned
            } else {
                TablePolicy::Shared
            },
        }),
    ]
}

fn arb_job() -> impl Strategy<Value = JobSpec> {
    (
        (
            arb_string(),
            0u8..3,
            prop::collection::vec(arb_string(), 1..5),
        ),
        arb_scheme(),
        (1u32..20, any::<u32>()),
        (0u8..2, any::<u64>()),
        (any::<u64>(), any::<u64>()),
        (1u64..100_000, arb_switch_policy()),
    )
        .prop_map(
            |(
                (name, source, members),
                scheme,
                (scale, shards),
                (policy, budget),
                (every, panics),
                (quantum, switch_policy),
            )| {
                let mut job = match source {
                    0 => JobSpec::trace(name),
                    1 => JobSpec::app(name),
                    _ => JobSpec::mix(members, quantum),
                };
                job.scheme = scheme;
                job.scale = Scale::new(scale);
                job.shards = shards;
                job.policy = if policy == 0 {
                    DecodePolicy::Strict
                } else {
                    DecodePolicy::quarantine(budget)
                };
                job.snapshot_every = every;
                job.fault_panics = panics;
                job.switch_policy = switch_policy;
                job
            },
        )
}

fn arb_code() -> impl Strategy<Value = ErrorCode> {
    (0u8..7).prop_map(|tag| ErrorCode::from_u8(tag).expect("assigned tag"))
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        any::<u16>().prop_map(|version| Frame::Hello { version }),
        (any::<u64>(), arb_job()).prop_map(|(job_id, job)| Frame::Submit { job_id, job }),
        (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(job_id, shards, stream_len)| {
            Frame::Accepted {
                job_id,
                shards,
                stream_len,
            }
        }),
        ((any::<u64>(), any::<u64>(), any::<u64>()), arb_stats()).prop_map(
            |((job_id, seq, accesses_done), stats)| Frame::Snapshot {
                job_id,
                seq,
                accesses_done,
                stats,
            }
        ),
        (any::<u64>(), arb_stats(), arb_health()).prop_map(|(job_id, stats, health)| {
            Frame::Done {
                job_id,
                stats,
                health,
            }
        }),
        (any::<u64>(), arb_code(), arb_string()).prop_map(|(job_id, code, message)| {
            Frame::JobError {
                job_id,
                code,
                message,
            }
        }),
        any::<u64>().prop_map(|job_id| Frame::Cancel { job_id }),
        prop::bool::ANY.prop_map(|drain| Frame::Shutdown { drain }),
        Just(Frame::ShuttingDown),
    ]
}

fn encode(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    frame.encode_into(&mut buf).expect("encodable test frame");
    buf
}

/// A scheme's text with one character overwritten by one of the
/// grammar's own characters or a stranger: it may or may not parse.
fn arb_scheme_text() -> impl Strategy<Value = String> {
    (arb_scheme(), any::<usize>(), any::<usize>()).prop_map(|(scheme, at, c)| {
        let chars = b"dpasmrtneCDF+,;:=/012489x ";
        let mut text: Vec<char> = scheme.to_string().chars().collect();
        let at = at % text.len();
        text[at] = char::from(chars[c % chars.len()]);
        text.into_iter().collect()
    })
}

/// A `Submit` payload for app `g` whose scheme field holds `scheme`
/// verbatim.
fn submit_with_scheme(scheme: &[u8]) -> Vec<u8> {
    let payload = encode(&Frame::Submit {
        job_id: 1,
        job: JobSpec::app("g"),
    })[4..]
        .to_vec();
    // frame kind + job id + source tag + name length + name "g".
    let at = 1 + 8 + 1 + 2 + 1;
    let old_len = usize::from(u16::from_le_bytes([payload[at], payload[at + 1]]));
    let mut out = payload[..at].to_vec();
    let len = u16::try_from(scheme.len()).expect("short test scheme");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(scheme);
    out.extend_from_slice(&payload[at + 2 + old_len..]);
    out
}

proptest! {
    #[test]
    fn every_frame_roundtrips_bit_exactly(frame in arb_frame()) {
        let buf = encode(&frame);
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        prop_assert_eq!(len, buf.len() - 4);
        prop_assert_eq!(Frame::decode(&buf[4..]), Ok(frame));
    }

    #[test]
    fn garbage_payloads_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        // Totality: any byte soup is either a frame or a typed error.
        let _ = Frame::decode(&bytes);
    }

    #[test]
    fn truncated_frames_are_typed_errors_never_values(frame in arb_frame()) {
        let buf = encode(&frame);
        let payload = &buf[4..];
        for cut in 0..payload.len() {
            prop_assert!(
                Frame::decode(&payload[..cut]).is_err(),
                "a strict prefix (len {cut}) must not decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(frame in arb_frame(), extra in 1usize..8) {
        let mut payload = encode(&frame)[4..].to_vec();
        payload.extend(std::iter::repeat_n(0xAB, extra));
        prop_assert!(Frame::decode(&payload).is_err());
    }

    #[test]
    fn corrupt_kind_bytes_never_yield_the_original(frame in arb_frame(), kind in any::<u8>()) {
        let mut payload = encode(&frame)[4..].to_vec();
        if payload[0] != kind {
            payload[0] = kind;
            // Another kind may parse the bytes, but never into the
            // original frame — kinds are not aliases.
            if let Ok(decoded) = Frame::decode(&payload) {
                prop_assert_ne!(decoded, frame);
            }
        }
    }

    #[test]
    fn scheme_strings_decode_exactly_when_they_parse(text in arb_scheme_text()) {
        let decoded = Frame::decode(&submit_with_scheme(text.as_bytes()));
        match text.parse::<PrefetcherConfig>() {
            Ok(scheme) => prop_assert!(
                matches!(&decoded, Ok(Frame::Submit { job, .. }) if job.scheme == scheme),
                "{text:?} parses but decoded to {decoded:?}"
            ),
            Err(_) => prop_assert_eq!(decoded, Err(FrameError::BadValue { field: "job.scheme" })),
        }
    }

    #[test]
    fn frame_streams_replay_in_order(frames in prop::collection::vec(arb_frame(), 0..12)) {
        let mut stream = Vec::new();
        let mut scratch = Vec::new();
        for frame in &frames {
            tlbsim_service::write_frame(&mut stream, frame, &mut scratch)
                .expect("in-memory write");
        }
        let mut reader = stream.as_slice();
        let mut payload = Vec::new();
        for frame in &frames {
            let got = read_frame(&mut reader, &mut payload).expect("stream replays");
            prop_assert_eq!(&got, frame);
        }
        prop_assert!(matches!(
            read_frame(&mut reader, &mut payload),
            Err(WireError::Disconnected)
        ));
    }
}

#[test]
fn handshake_version_is_stable() {
    // The version constant participates in every handshake; changing it
    // is a protocol revision and must be deliberate (update
    // docs/PROTOCOL.md alongside).
    assert_eq!(PROTOCOL_VERSION, 4);
}

#[test]
fn unparsable_schemes_are_typed_decode_errors() {
    // v3 carried a kind tag, so these were unknown tags or non-canonical
    // component lists; v4 carries text, and text outside the grammar is
    // one out-of-domain value.
    for text in "|XP|dp:dp+asp|EP:DP+|C+|DP,256,D;rows=1|TP;conf=1/1".split('|') {
        let decoded = Frame::decode(&submit_with_scheme(text.as_bytes()));
        let want = FrameError::BadValue {
            field: "job.scheme",
        };
        assert_eq!(decoded, Err(want), "{text:?}");
    }
    let decoded = Frame::decode(&submit_with_scheme(&[0xC3, 0x28]));
    assert_eq!(
        decoded,
        Err(FrameError::BadUtf8 {
            field: "job.scheme"
        })
    );
}

#[test]
fn schemes_that_parse_but_are_invalid_decode_and_then_fail_resolve() {
    // v3 rejected the empty and nested ensembles at decode; v4 leaves
    // every validity check to resolve, as it always did for geometry.
    for text in ["EP:", "EP:EP", "TP,99", "MP,10,4"] {
        let decoded = Frame::decode(&submit_with_scheme(text.as_bytes()));
        let Ok(Frame::Submit { job, .. }) = decoded else {
            panic!("{text:?} decodes, got {decoded:?}");
        };
        let code = resolve(&job).err().map(|(code, _)| code);
        assert_eq!(code, Some(ErrorCode::Sim), "{text:?}");
    }
}
