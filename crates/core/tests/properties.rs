//! Property-based tests for the prediction-table machinery and the
//! prefetching mechanisms' global invariants.

use proptest::prelude::*;
use std::num::NonZeroUsize;

use tlbsim_core::{
    Asid, Associativity, CandidateBuf, ConfidenceConfig, Distance, MissContext, Pc,
    PredictionTable, PrefetcherConfig, PrefetcherKind, SlotList, TaggedLru, VirtPage,
};

/// Strategy for valid (rows, associativity) geometries.
fn geometry() -> impl Strategy<Value = (usize, Associativity)> {
    prop_oneof![
        (1usize..=512).prop_map(|r| (r, Associativity::Full)),
        (1usize..=512).prop_map(|r| (r, Associativity::Direct)),
        (1usize..=128).prop_map(|half| (half * 2, Associativity::ways_of(2))),
        (1usize..=64).prop_map(|q| (q * 4, Associativity::ways_of(4))),
    ]
}

fn any_kind() -> impl Strategy<Value = PrefetcherKind> {
    prop_oneof![
        Just(PrefetcherKind::Sequential),
        Just(PrefetcherKind::Stride),
        Just(PrefetcherKind::Markov),
        Just(PrefetcherKind::Recency),
        Just(PrefetcherKind::Distance),
    ]
}

proptest! {
    /// The table never exceeds its configured capacity and lookups after
    /// insert observe the inserted value.
    #[test]
    fn table_capacity_and_lookup((rows, assoc) in geometry(), keys in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut table: PredictionTable<VirtPage, u64> = PredictionTable::new(rows, assoc).unwrap();
        for (i, k) in keys.iter().enumerate() {
            table.insert(VirtPage::new(*k), i as u64);
            prop_assert!(table.len() <= table.capacity());
            // The just-inserted key must be resident with its value.
            prop_assert_eq!(table.get(VirtPage::new(*k)), Some(&(i as u64)));
        }
    }

    /// Insertions into a direct-mapped table agree with a naive modulo
    /// model: a lookup hit implies the key was the last insert into its
    /// set.
    #[test]
    fn direct_mapped_matches_reference_model(keys in prop::collection::vec(0u64..1_000, 1..300)) {
        let rows = 16usize;
        let mut table: PredictionTable<VirtPage, usize> =
            PredictionTable::new(rows, Associativity::Direct).unwrap();
        let mut model: std::collections::HashMap<u64, (u64, usize)> = Default::default();
        for (i, k) in keys.iter().enumerate() {
            table.insert(VirtPage::new(*k), i);
            model.insert(k % rows as u64, (*k, i));
        }
        for set in 0..rows as u64 {
            if let Some((k, v)) = model.get(&set) {
                prop_assert_eq!(table.get(VirtPage::new(*k)), Some(v));
            }
        }
    }

    /// Slot lists preserve the most recent `capacity` distinct items.
    #[test]
    fn slot_list_keeps_recent_items(cap in 1usize..6, items in prop::collection::vec(0u32..20, 1..100)) {
        let mut slots = SlotList::new(cap);
        for x in &items {
            slots.insert(*x);
        }
        // Walk the history backwards collecting distinct items.
        let mut expected = Vec::new();
        for x in items.iter().rev() {
            if !expected.contains(x) {
                expected.push(*x);
            }
            if expected.len() == cap {
                break;
            }
        }
        let got: Vec<u32> = slots.iter().copied().collect();
        prop_assert_eq!(got, expected);
    }

    /// No mechanism ever prefetches the page that just missed, and the
    /// decision size respects the mechanism's own declared bound.
    #[test]
    fn decisions_respect_declared_bounds(
        kind in any_kind(),
        pages in prop::collection::vec(0u64..2_000, 1..300),
        pcs in prop::collection::vec(0u64..64, 1..300),
    ) {
        let mut p = PrefetcherConfig::new(kind).build().unwrap();
        let (_, max) = p.profile().max_prefetches;
        for (i, page) in pages.iter().enumerate() {
            let pc = Pc::new(pcs[i % pcs.len()] * 4);
            let ctx = MissContext {
                page: VirtPage::new(*page),
                pc,
                prefetch_buffer_hit: i % 3 == 0,
                evicted_tlb_entry: if i % 2 == 0 { Some(VirtPage::new(*page / 2)) } else { None },
            };
            let mut d = CandidateBuf::new();
            p.on_miss(&ctx, &mut d);
            prop_assert!(d.pages().len() <= max as usize,
                "{} returned {} pages (max {})", p.name(), d.pages().len(), max);
            if kind != PrefetcherKind::Recency {
                // RP may legitimately prefetch a stack neighbour equal to
                // another page; but no scheme may prefetch the missed page.
                prop_assert!(!d.pages().contains(&VirtPage::new(*page)));
            }
        }
    }

    /// A long-lived sink reused across every miss (the engines' shape)
    /// observes exactly what a fresh sink per miss observes.
    #[test]
    fn reused_sink_matches_fresh_decisions(
        kind in any_kind(),
        pages in prop::collection::vec(0u64..500, 1..150),
    ) {
        let mut via_sink = PrefetcherConfig::new(kind).build().unwrap();
        let mut via_fresh = PrefetcherConfig::new(kind).build().unwrap();
        let mut sink = CandidateBuf::new();
        for (i, page) in pages.iter().enumerate() {
            let ctx = MissContext {
                page: VirtPage::new(*page),
                pc: Pc::new(page % 16 * 4),
                prefetch_buffer_hit: i % 3 == 0,
                evicted_tlb_entry: if i % 2 == 0 { Some(VirtPage::new(page / 2)) } else { None },
            };
            sink.clear();
            via_sink.on_miss(&ctx, &mut sink);
            let mut d = CandidateBuf::new();
            via_fresh.on_miss(&ctx, &mut d);
            prop_assert_eq!(sink.pages(), d.pages());
            prop_assert_eq!(sink.maintenance_ops(), d.maintenance_ops());
        }
    }

    /// Mechanisms are deterministic: replaying the same miss stream on a
    /// fresh instance produces identical decisions.
    #[test]
    fn mechanisms_are_deterministic(
        kind in any_kind(),
        pages in prop::collection::vec(0u64..500, 1..150),
    ) {
        let mut a = PrefetcherConfig::new(kind).build().unwrap();
        let mut b = PrefetcherConfig::new(kind).build().unwrap();
        for page in &pages {
            let ctx = MissContext::demand(VirtPage::new(*page), Pc::new(page % 16 * 4));
            let (mut da, mut db) = (CandidateBuf::new(), CandidateBuf::new());
            a.on_miss(&ctx, &mut da);
            b.on_miss(&ctx, &mut db);
            prop_assert_eq!(da, db);
        }
    }

    /// Flushing returns a mechanism to its initial observable behaviour.
    #[test]
    fn flush_resets_behaviour(
        kind in any_kind(),
        warmup in prop::collection::vec(0u64..500, 1..100),
        probe in prop::collection::vec(0u64..500, 1..50),
    ) {
        let mut warmed = PrefetcherConfig::new(kind).build().unwrap();
        let mut sink = CandidateBuf::new();
        for page in &warmup {
            sink.clear();
            warmed.on_miss(&MissContext::demand(VirtPage::new(*page), Pc::new(0)), &mut sink);
        }
        warmed.flush();
        let mut fresh = PrefetcherConfig::new(kind).build().unwrap();
        for page in &probe {
            let ctx = MissContext::demand(VirtPage::new(*page), Pc::new(0));
            let (mut dw, mut df) = (CandidateBuf::new(), CandidateBuf::new());
            warmed.on_miss(&ctx, &mut dw);
            fresh.on_miss(&ctx, &mut df);
            prop_assert_eq!(dw, df);
        }
    }

    /// Distance round-trip: page.offset(q.distance_from(p)) == q for all
    /// page pairs in a sane address range.
    #[test]
    fn distance_offset_roundtrip(a in 0u64..1u64 << 52, b in 0u64..1u64 << 52) {
        let (pa, pb) = (VirtPage::new(a), VirtPage::new(b));
        prop_assert_eq!(pa.offset(pb.distance_from(pa)), Some(pb));
    }

    /// Distance table keys never collide for distinct small distances.
    #[test]
    fn distance_keys_are_injective_in_range(d1 in -512i64..512, d2 in -512i64..512) {
        prop_assume!(d1 != d2);
        let mut table: PredictionTable<Distance, i64> =
            PredictionTable::new(2048, Associativity::Full).unwrap();
        table.insert(Distance::new(d1), d1);
        table.insert(Distance::new(d2), d2);
        prop_assert_eq!(table.get(Distance::new(d1)), Some(&d1));
        prop_assert_eq!(table.get(Distance::new(d2)), Some(&d2));
    }
}

/// Every kind, the ensemble included, so component lists can nest.
fn every_kind() -> impl Strategy<Value = PrefetcherKind> {
    prop_oneof![
        Just(PrefetcherKind::None),
        any_kind(),
        Just(PrefetcherKind::TrendStride),
        Just(PrefetcherKind::Ensemble),
    ]
}

/// Small values, zero and the whole `usize` range (most draws exceed
/// `u32::MAX`).
fn any_count() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), 0usize..64, any::<usize>()]
}

fn any_assoc() -> impl Strategy<Value = Associativity> {
    prop_oneof![
        Just(Associativity::Direct),
        Just(Associativity::Full),
        any_count()
            .prop_map(|n| Associativity::SetAssociative(NonZeroUsize::MIN.saturating_add(n))),
    ]
}

fn any_confidence() -> impl Strategy<Value = Option<ConfidenceConfig>> {
    prop_oneof![
        Just(None),
        Just(Some(ConfidenceConfig::adaptive())),
        (any::<u8>(), any::<u32>()).prop_map(|(threshold, max_degree)| Some(ConfidenceConfig {
            threshold,
            max_degree,
        })),
    ]
}

proptest! {
    #[test]
    fn every_config_parses_back_from_its_text(
        kind in every_kind(),
        (rows, slots, window) in (any_count(), any_count(), any_count()),
        assoc in any_assoc(),
        (pc, pair) in (any::<bool>(), any::<bool>()),
        confidence in any_confidence(),
        components in prop::collection::vec(every_kind(), 0..8),
    ) {
        let mut cfg = if kind == PrefetcherKind::Ensemble {
            PrefetcherConfig::ensemble_of(&components)
        } else {
            PrefetcherConfig::new(kind)
        };
        cfg.rows(rows).slots(slots).assoc(assoc).window(window).pc_qualified(pc).pair_indexed(pair);
        if let Some(confidence) = confidence {
            cfg.confidence(confidence);
        }
        let text = cfg.to_string();
        prop_assert_eq!(text.parse::<PrefetcherConfig>(), Ok(cfg.clone()), "{}", text);
        prop_assert_eq!(text.to_lowercase().parse::<PrefetcherConfig>(), Ok(cfg));
    }
}

/// Every `--scheme` spelling the command line took before the grammar
/// existed still means the same scheme, with or without `c+`.
#[test]
fn every_older_cli_spelling_parses_to_the_same_config() {
    use PrefetcherKind::{Distance as D, Markov as M, Recency as R, Sequential as S, Stride as A};
    type C = PrefetcherConfig;
    let mut tp4 = C::trend_stride();
    tp4.window(4);
    let table = [
        (&["none"][..], C::none()),
        (&["sp", "sequential", "SP"], C::sequential()),
        (&["asp", "stride"], C::stride()),
        (&["mp", "markov"], C::markov()),
        (&["rp", "recency"], C::recency()),
        (&["dp", "distance", "Distance"], C::distance()),
        (&["tp", "trend", "tp,8"], C::trend_stride()),
        (&["tp,4", "TP,4"], tp4),
        (
            &["ep", "ep:dp+asp", "ep:distance+stride"],
            C::ensemble_of(&[D, A]),
        ),
        (&["ep:dp+asp+mp"], C::ensemble_of(&[D, A, M])),
        (
            &["ep:sp+rp", "EP:sequential+recency"],
            C::ensemble_of(&[S, R]),
        ),
    ];
    for (spellings, mut want) in table {
        for text in spellings {
            assert_eq!(text.parse::<C>(), Ok(want.clone()), "{text}");
        }
        want.confidence(ConfidenceConfig::adaptive());
        for text in spellings {
            for throttled in [format!("c+{text}"), format!("C+c+{text}")] {
                assert_eq!(throttled.parse::<C>(), Ok(want.clone()), "{throttled}");
            }
        }
    }
}

/// Geometries for the table-versus-map differential: sets wider than
/// four ways (the table delegates to `TaggedLru`), plus narrow and wide
/// tables whose set count is not a power of two (set choice by `%`).
fn differential_geometry() -> impl Strategy<Value = (usize, Associativity)> {
    prop_oneof![
        (5usize..=256).prop_map(|r| (r, Associativity::Full)),
        (1usize..=16).prop_map(|k| (k * 8, Associativity::ways_of(8))),
        (1usize..=8).prop_map(|k| (k * 16, Associativity::ways_of(16))),
        Just((24, Associativity::Direct)),
        Just((12, Associativity::ways_of(2))),
        Just((12, Associativity::ways_of(4))),
        Just((48, Associativity::ways_of(8))),
    ]
}

#[derive(Debug, Clone, Copy)]
enum TableOp {
    Insert(u64, u64),
    GetMut(u64),
    Get(u64),
    GetOrInsert(u64, u64),
    SetAsid(u16),
    EvictAsid(u16),
    Clear,
}

/// Contexts the differential switches among.
const TABLE_ASIDS: u16 = 3;

/// Fills dominate so wide sets fill and evict; `evict_asid` is rare and
/// `clear` rarer still.
fn table_op() -> impl Strategy<Value = TableOp> {
    let key = || any::<u64>();
    prop_oneof![
        (key(), any::<u64>()).prop_map(|(k, v)| TableOp::Insert(k, v)),
        (key(), any::<u64>()).prop_map(|(k, v)| TableOp::Insert(k, v)),
        (key(), any::<u64>()).prop_map(|(k, v)| TableOp::GetOrInsert(k, v)),
        (key(), any::<u64>()).prop_map(|(k, v)| TableOp::GetOrInsert(k, v)),
        key().prop_map(TableOp::GetMut),
        key().prop_map(TableOp::Get),
        (0u16..64).prop_map(|x| match x {
            0 => TableOp::Clear,
            1..=3 => TableOp::EvictAsid(x - 1),
            _ => TableOp::SetAsid(x % TABLE_ASIDS),
        }),
    ]
}

fn multiset<'a>(pairs: impl Iterator<Item = (&'a VirtPage, &'a u64)>) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = pairs.map(|(k, v)| (k.number(), *v)).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A `PredictionTable` and a `TaggedLru` of one geometry agree on
    /// every return value, `len`, `evictions` and the resident multiset
    /// through `get_or_insert_with`, `iter`, `clear` and `evict_asid`.
    #[test]
    fn table_matches_tagged_lru_of_the_same_geometry(
        (rows, assoc) in differential_geometry(),
        sequence in prop::collection::vec(table_op(), 1..1200),
    ) {
        let key_space = rows as u64 + rows as u64 / 2 + 2;
        let page = |k: u64| VirtPage::new(k % key_space);
        let mut table: PredictionTable<VirtPage, u64> = PredictionTable::new(rows, assoc).unwrap();
        let mut map: TaggedLru<VirtPage, u64> = TaggedLru::new(rows, assoc).unwrap();
        for (i, &op) in sequence.iter().enumerate() {
            let ctx = format!("op {i} {op:?} on {rows} x {assoc}");
            match op {
                TableOp::Insert(k, v) => {
                    let want = map.insert(page(k), v).map(|d| (d.key, d.value));
                    prop_assert_eq!(table.insert(page(k), v), want, "{}", ctx);
                }
                TableOp::GetMut(k) => {
                    let want = map.touch(page(k)).copied();
                    prop_assert_eq!(table.get_mut(page(k)).copied(), want, "{}", ctx);
                }
                TableOp::Get(k) => {
                    prop_assert_eq!(table.get(page(k)), map.peek(page(k)), "{}", ctx);
                    prop_assert_eq!(table.contains(page(k)), map.contains(page(k)), "{}", ctx);
                }
                TableOp::GetOrInsert(k, v) => {
                    let want = map.get_or_insert_with(page(k), || v);
                    let got = table.get_or_insert_with(page(k), || v);
                    prop_assert_eq!(*got, *want, "{}", ctx);
                    // The returned row is the resident one: a write lands.
                    *got ^= 1;
                    *want ^= 1;
                }
                TableOp::SetAsid(a) => {
                    table.set_asid(Asid::new(a));
                    map.set_asid(Asid::new(a));
                    prop_assert_eq!(table.asid(), Asid::new(a));
                }
                TableOp::EvictAsid(a) => {
                    table.evict_asid(Asid::new(a));
                    map.evict_asid(Asid::new(a));
                }
                TableOp::Clear => {
                    table.clear();
                    map.flush();
                }
            }
            prop_assert_eq!(table.len(), map.len(), "len {}", ctx);
            prop_assert_eq!(table.is_empty(), map.is_empty(), "empty {}", ctx);
            prop_assert_eq!(table.evictions(), map.evictions(), "evictions {}", ctx);
            prop_assert!(table.len() <= table.capacity(), "capacity {}", ctx);
            if i % 8 == 0 || i + 1 == sequence.len() {
                prop_assert_eq!(multiset(table.iter()), multiset(map.iter()), "residents {}", ctx);
            }
        }
        // Every context's view, key by key: the multiset cannot tell
        // which context a row belongs to.
        for a in 0..TABLE_ASIDS {
            table.set_asid(Asid::new(a));
            map.set_asid(Asid::new(a));
            for k in 0..key_space {
                prop_assert_eq!(table.get(page(k)), map.peek(page(k)), "asid {} key {}", a, k);
            }
        }
    }
}
