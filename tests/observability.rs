//! The observability layer's contract: tracing and histograms must be
//! pure observers. The headline tests prove the simulation is
//! bit-identical with tracing enabled vs disabled on every hierarchy
//! preset, that the bounded event ring never perturbs what it observes,
//! and that both export formats (JSONL and Chrome `trace_event`) are
//! well-formed.

use rampage_core::experiments::ablations::Knob;
use rampage_core::experiments::{run_config, run_config_traced, Workload};
use rampage_core::obs::{chrome_trace, to_jsonl, EventKind};
use rampage_core::{DramKind, Engine, IssueRate, SystemConfig};
use rampage_json::{Json, ToJson};
use rampage_trace::corpus::fnv1a;

/// Every hierarchy preset the simulator models, at the quick workload.
fn presets() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("baseline", SystemConfig::baseline(IssueRate::GHZ1, 512)),
        ("two_way", SystemConfig::two_way(IssueRate::GHZ1, 512)),
        ("rampage", SystemConfig::rampage(IssueRate::GHZ1, 4096)),
        (
            "rampage_switching",
            SystemConfig::rampage_switching(IssueRate::GHZ1, 4096),
        ),
    ]
}

/// The headline guarantee: enabling tracing changes NOTHING about the
/// simulation — not the time breakdown, not a single counter, not the
/// derived cell — on any hierarchy preset.
#[test]
fn tracing_is_bit_identical_to_untraced_on_every_preset() {
    let w = Workload::quick();
    for (name, cfg) in presets() {
        let plain = run_config(&cfg, &w);
        let (traced_cell, out) = run_config_traced(&cfg, &w, 1 << 20);
        assert_eq!(
            plain, traced_cell,
            "{name}: tracing perturbed the derived cell"
        );
        // Cross-check against a second untraced engine run at the
        // metrics level: TimeBreakdown and Counters bit-identical.
        let untraced = Engine::new(&cfg, w.sources()).run();
        assert_eq!(
            untraced.metrics.time, out.metrics.time,
            "{name}: tracing perturbed the time breakdown"
        );
        assert_eq!(
            untraced.metrics.counts, out.metrics.counts,
            "{name}: tracing perturbed the counters"
        );
        assert_eq!(untraced.elapsed, out.elapsed, "{name}: elapsed differs");
        assert!(
            untraced.events.is_empty(),
            "{name}: untraced run has events"
        );
        assert!(!out.events.is_empty(), "{name}: traced run saw no events");
        assert_eq!(out.events_dropped, 0, "{name}: large ring dropped events");
    }
}

/// The bounded ring drops oldest-first and never loses count: a tiny
/// ring sees the same total number of events as an unbounded one.
#[test]
fn bounded_ring_keeps_the_newest_events_and_the_full_count() {
    let w = Workload::quick();
    let cfg = SystemConfig::rampage_switching(IssueRate::GHZ1, 4096);
    let (_, full) = run_config_traced(&cfg, &w, 1 << 20);
    assert_eq!(full.events_dropped, 0);
    let total = full.events.len() as u64;
    assert!(total > 64, "workload too small to exercise the ring");

    let cap = 64usize;
    let (small_cell, small) = run_config_traced(&cfg, &w, cap);
    assert!(small.events.len() <= cap, "ring exceeded its capacity");
    assert_eq!(
        small.events.len() as u64 + small.events_dropped,
        total,
        "events were lost, not just evicted"
    );
    // The survivors are exactly the newest events, in order.
    assert_eq!(
        small.events,
        full.events[full.events.len() - small.events.len()..],
        "ring did not keep the newest suffix"
    );
    // And the tiny ring still didn't perturb the simulation.
    assert_eq!(small_cell, run_config(&cfg, &w));
}

/// The traced RAMpage run produces every event family the hierarchy
/// can emit, and the conventional hierarchy produces its own set.
#[test]
fn expected_event_kinds_appear() {
    let w = Workload::quick();
    let has = |events: &[rampage_core::Event], k: EventKind| events.iter().any(|e| e.kind == k);

    let (_, rp) = run_config_traced(
        &SystemConfig::rampage_switching(IssueRate::GHZ1, 4096),
        &w,
        1 << 20,
    );
    for kind in [
        EventKind::L1iMiss,
        EventKind::TlbMiss,
        EventKind::PageFault,
        EventKind::DramTransfer,
        EventKind::ContextSwitch,
    ] {
        assert!(has(&rp.events, kind), "rampage trace lacks {kind:?}");
    }

    let (_, dm) = run_config_traced(&SystemConfig::baseline(IssueRate::GHZ1, 512), &w, 1 << 20);
    for kind in [
        EventKind::L1iMiss,
        EventKind::L2Miss,
        EventKind::DramTransfer,
    ] {
        assert!(has(&dm.events, kind), "conventional trace lacks {kind:?}");
    }
    assert!(
        !has(&dm.events, EventKind::PageFault),
        "conventional hierarchy must not page-fault"
    );
}

/// Every JSONL line is a standalone JSON object following the schema:
/// `at_ps`, `dur_ps`, `kind`, `asid` (null for system-wide events),
/// `arg`.
#[test]
fn jsonl_lines_parse_and_follow_the_schema() {
    let w = Workload::quick();
    let (_, out) = run_config_traced(
        &SystemConfig::rampage_switching(IssueRate::GHZ1, 4096),
        &w,
        1 << 20,
    );
    let jsonl = to_jsonl(&out.events);
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), out.events.len());
    for line in &lines {
        let doc = Json::parse(line).expect("line parses");
        for key in ["at_ps", "dur_ps", "kind", "asid", "arg"] {
            assert!(doc.get(key).is_some(), "missing {key} in {line}");
        }
        assert!(doc.get("at_ps").unwrap().as_u64().is_some());
        assert!(doc.get("kind").unwrap().as_str().is_some());
    }
    // Lines round-trip the events they came from.
    let first = Json::parse(lines[0]).unwrap();
    assert_eq!(
        first.get("at_ps").unwrap().as_u64().unwrap(),
        out.events[0].at.0
    );
    assert_eq!(
        first.get("kind").unwrap().as_str().unwrap(),
        out.events[0].kind.name()
    );
}

/// The Chrome `trace_event` document has the shape chrome://tracing
/// and Perfetto expect: complete events (`ph: "X"`) with microsecond
/// timestamps, plus the caller's metadata.
#[test]
fn chrome_trace_document_has_the_expected_shape() {
    let w = Workload::quick();
    let cfg = SystemConfig::rampage(IssueRate::GHZ1, 4096);
    let (_, out) = run_config_traced(&cfg, &w, 1 << 20);
    let doc = chrome_trace(
        &out.events,
        vec![("config".to_string(), cfg.label().to_json())],
    );
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
    assert_eq!(
        doc.get("metadata")
            .and_then(|m| m.get("config"))
            .and_then(Json::as_str),
        Some(cfg.label().as_str())
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), out.events.len());
    for (e, src) in events.iter().zip(&out.events) {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(e.get("pid").and_then(Json::as_u64), Some(0));
        assert!(e.get("tid").and_then(Json::as_u64).is_some());
        assert_eq!(e.get("name").and_then(Json::as_str), Some(src.kind.name()));
        let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
        assert!((ts - src.at.0 as f64 / 1e6).abs() < 1e-9);
        assert!(e.get("dur").and_then(Json::as_f64).is_some());
    }
    // The document itself survives a print/parse round trip.
    assert!(Json::parse(&doc.pretty()).is_ok());
}

/// The latency histograms (always on — they are pure counters) must
/// reconcile exactly with the event counters on every preset.
#[test]
fn histograms_reconcile_with_counters_on_every_preset() {
    let w = Workload::quick();
    for (name, cfg) in presets() {
        let out = Engine::new(&cfg, w.sources()).run();
        let (h, c) = (&out.metrics.hist, &out.metrics.counts);
        assert_eq!(
            h.tlb.count(),
            c.tlb.misses,
            "{name}: one TLB-walk sample per TLB miss"
        );
        assert_eq!(
            h.fault.count(),
            c.page_faults + c.soft_faults,
            "{name}: one fault-service sample per fault"
        );
        assert_eq!(
            h.dram.count(),
            c.page_faults + c.dram_block_fetches + c.dram_writebacks + c.prefetches,
            "{name}: one DRAM-service sample per transfer"
        );
        for hist in [&h.tlb, &h.fault, &h.dram] {
            assert_eq!(hist.bucket_sum(), hist.count(), "{name}: bucket sums");
        }
    }
}

/// Every preset under every ablation knob, at both DRAM fidelities, plus
/// the 3C classifier on both conventional presets: the configurations
/// whose whole simulation [`DIGESTS`] pins.
fn digest_configs() -> Vec<(String, SystemConfig)> {
    let mut cells = Vec::new();
    for (name, preset) in presets() {
        for knob in Knob::ALL {
            let flat = knob.apply(preset);
            let banked = SystemConfig {
                dram: DramKind::banked(),
                ..flat
            };
            cells.push((format!("{name}/{knob:?}/flat"), flat));
            cells.push((format!("{name}/{knob:?}/banked"), banked));
        }
    }
    for (name, preset) in presets().into_iter().take(2) {
        let classified = SystemConfig {
            classify_l2: true,
            ..preset
        };
        cells.push((format!("{name}/classify_l2"), classified));
    }
    cells
}

/// FNV-1a of the JSONL event trace and of the `Metrics` `Debug` rendering
/// (time, counters and every histogram sample), per configuration, over
/// [`Workload::quick`]. Cells only pin derived figures; these pin event
/// order, event timing and histogram samples too, so any refactor of the
/// memory systems that moves one of them fails here.
const DIGESTS: &[(&str, u64, u64)] = &[
    ("baseline/Base/flat", 0x469b14265003b719, 0xaf94fce14eb8e580),
    (
        "baseline/Base/banked",
        0xc1ca7b8e5ea03ffc,
        0x5476f9a87a847af1,
    ),
    (
        "baseline/LargeTlb/flat",
        0x8d9f551a0086b26e,
        0xda2b6e36a593c8c1,
    ),
    (
        "baseline/LargeTlb/banked",
        0xdc6f65b13b70c5e1,
        0xab4872e6e6277b1b,
    ),
    (
        "baseline/AggressiveL1/flat",
        0x818105b6b5736254,
        0xfa249543d4fbe2e6,
    ),
    (
        "baseline/AggressiveL1/banked",
        0x924633af87bc7069,
        0x8ffbf2bb76d3bed6,
    ),
    (
        "baseline/PipelinedRambus/flat",
        0x469b14265003b719,
        0xaf94fce14eb8e580,
    ),
    (
        "baseline/PipelinedRambus/banked",
        0xc1ca7b8e5ea03ffc,
        0x5476f9a87a847af1,
    ),
    (
        "baseline/StandbyList/flat",
        0x469b14265003b719,
        0xaf94fce14eb8e580,
    ),
    (
        "baseline/StandbyList/banked",
        0xc1ca7b8e5ea03ffc,
        0x5476f9a87a847af1,
    ),
    (
        "baseline/SdramDevice/flat",
        0x469b14265003b719,
        0xaf94fce14eb8e580,
    ),
    (
        "baseline/SdramDevice/banked",
        0xc1ca7b8e5ea03ffc,
        0x5476f9a87a847af1,
    ),
    (
        "baseline/VictimCache16/flat",
        0xc83bdb247fc0a7ef,
        0x0fe9ec18b62eb0dc,
    ),
    (
        "baseline/VictimCache16/banked",
        0x8ef5de59920c230b,
        0x5f499a02bb934462,
    ),
    (
        "baseline/FiniteWriteBuffer8/flat",
        0x9751ef0064ed35e0,
        0x6610a992b73017d7,
    ),
    (
        "baseline/FiniteWriteBuffer8/banked",
        0x890a9b7f14159695,
        0x005ab62e6dc02002,
    ),
    (
        "baseline/DualChannel/flat",
        0x469b14265003b719,
        0xaf94fce14eb8e580,
    ),
    (
        "baseline/DualChannel/banked",
        0x90ce3831722a0dc2,
        0x3408fc564aabd4a1,
    ),
    (
        "baseline/PrefetchNext/flat",
        0x469b14265003b719,
        0xaf94fce14eb8e580,
    ),
    (
        "baseline/PrefetchNext/banked",
        0xc1ca7b8e5ea03ffc,
        0x5476f9a87a847af1,
    ),
    ("two_way/Base/flat", 0x502916963662e67c, 0xcc59fa248a44df2d),
    (
        "two_way/Base/banked",
        0xfc3a2c60713fabd0,
        0x5150b3d6322dcde3,
    ),
    (
        "two_way/LargeTlb/flat",
        0x37c20f6105facf67,
        0x1766802ad552ff53,
    ),
    (
        "two_way/LargeTlb/banked",
        0x22ce4a3501ce01f3,
        0xa069d659c70d858f,
    ),
    (
        "two_way/AggressiveL1/flat",
        0x2c169c5b7e55efad,
        0x90b8b2808a91a18a,
    ),
    (
        "two_way/AggressiveL1/banked",
        0xc3bbd34c2049b409,
        0xa83afb51ac056518,
    ),
    (
        "two_way/PipelinedRambus/flat",
        0x502916963662e67c,
        0xcc59fa248a44df2d,
    ),
    (
        "two_way/PipelinedRambus/banked",
        0xfc3a2c60713fabd0,
        0x5150b3d6322dcde3,
    ),
    (
        "two_way/StandbyList/flat",
        0x502916963662e67c,
        0xcc59fa248a44df2d,
    ),
    (
        "two_way/StandbyList/banked",
        0xfc3a2c60713fabd0,
        0x5150b3d6322dcde3,
    ),
    (
        "two_way/SdramDevice/flat",
        0x502916963662e67c,
        0xcc59fa248a44df2d,
    ),
    (
        "two_way/SdramDevice/banked",
        0xfc3a2c60713fabd0,
        0x5150b3d6322dcde3,
    ),
    (
        "two_way/VictimCache16/flat",
        0x9e3ef5690629a60d,
        0xda0141ffca7f9fe3,
    ),
    (
        "two_way/VictimCache16/banked",
        0xac9412b113a36a44,
        0x5fc884058bc992c5,
    ),
    (
        "two_way/FiniteWriteBuffer8/flat",
        0x729de6e8b7cc9818,
        0x94fc57ea52345db0,
    ),
    (
        "two_way/FiniteWriteBuffer8/banked",
        0x32d74e78871dd969,
        0xf7f7fd4340936ad2,
    ),
    (
        "two_way/DualChannel/flat",
        0x502916963662e67c,
        0xcc59fa248a44df2d,
    ),
    (
        "two_way/DualChannel/banked",
        0x69598af8a3622f89,
        0xb54f743f2e22c73c,
    ),
    (
        "two_way/PrefetchNext/flat",
        0x502916963662e67c,
        0xcc59fa248a44df2d,
    ),
    (
        "two_way/PrefetchNext/banked",
        0xfc3a2c60713fabd0,
        0x5150b3d6322dcde3,
    ),
    ("rampage/Base/flat", 0xcf5b2280871dc640, 0x19b11393d6be8d90),
    (
        "rampage/Base/banked",
        0xb888a9490150cb5a,
        0x22f21b0074ae2416,
    ),
    (
        "rampage/LargeTlb/flat",
        0xa1b33092cc87d27d,
        0x3e4cf231434372d8,
    ),
    (
        "rampage/LargeTlb/banked",
        0x069d523c9a570d0f,
        0xc6a66881c7bd5faa,
    ),
    (
        "rampage/AggressiveL1/flat",
        0x1bb333557d9d8f5e,
        0xab6ce00b425f19c0,
    ),
    (
        "rampage/AggressiveL1/banked",
        0x6e887749a8df14ad,
        0xc172501a35db21fc,
    ),
    (
        "rampage/PipelinedRambus/flat",
        0xcf5b2280871dc640,
        0x19b11393d6be8d90,
    ),
    (
        "rampage/PipelinedRambus/banked",
        0xb888a9490150cb5a,
        0x22f21b0074ae2416,
    ),
    (
        "rampage/StandbyList/flat",
        0xcf5b2280871dc640,
        0x19b11393d6be8d90,
    ),
    (
        "rampage/StandbyList/banked",
        0xb888a9490150cb5a,
        0x22f21b0074ae2416,
    ),
    (
        "rampage/SdramDevice/flat",
        0xcf5b2280871dc640,
        0x19b11393d6be8d90,
    ),
    (
        "rampage/SdramDevice/banked",
        0xb888a9490150cb5a,
        0x22f21b0074ae2416,
    ),
    (
        "rampage/VictimCache16/flat",
        0xcf5b2280871dc640,
        0x19b11393d6be8d90,
    ),
    (
        "rampage/VictimCache16/banked",
        0xb888a9490150cb5a,
        0x22f21b0074ae2416,
    ),
    (
        "rampage/FiniteWriteBuffer8/flat",
        0x9cb49bc1343c1728,
        0xe65af24135b1cef3,
    ),
    (
        "rampage/FiniteWriteBuffer8/banked",
        0x6b97d35b19a56ae4,
        0xe90ffee49f4f94a1,
    ),
    (
        "rampage/DualChannel/flat",
        0xcf5b2280871dc640,
        0x19b11393d6be8d90,
    ),
    (
        "rampage/DualChannel/banked",
        0xb888a9490150cb5a,
        0x22f21b0074ae2416,
    ),
    (
        "rampage/PrefetchNext/flat",
        0xf268033d4ff56874,
        0x3b4ff4ac760e3cfa,
    ),
    (
        "rampage/PrefetchNext/banked",
        0xa9ef9bf80abdffbe,
        0xa282a4531d1cdce6,
    ),
    (
        "rampage_switching/Base/flat",
        0xb3876c0aa8a88958,
        0xa54e38a3ed09e58f,
    ),
    (
        "rampage_switching/Base/banked",
        0x8244607873a29242,
        0x2e4d16ed67b5ee47,
    ),
    (
        "rampage_switching/LargeTlb/flat",
        0x4cabbfc59060ec9d,
        0x3b64395b80bf0d97,
    ),
    (
        "rampage_switching/LargeTlb/banked",
        0x53f20485769f3843,
        0xbf30ceb480d717fa,
    ),
    (
        "rampage_switching/AggressiveL1/flat",
        0xac6ca712e4df90eb,
        0x76619b62b7865c7c,
    ),
    (
        "rampage_switching/AggressiveL1/banked",
        0x9e056da7ebad5368,
        0x8b575ed01dc48b2a,
    ),
    (
        "rampage_switching/PipelinedRambus/flat",
        0xb3876c0aa8a88958,
        0xa54e38a3ed09e58f,
    ),
    (
        "rampage_switching/PipelinedRambus/banked",
        0x8244607873a29242,
        0x2e4d16ed67b5ee47,
    ),
    (
        "rampage_switching/StandbyList/flat",
        0xb3876c0aa8a88958,
        0xa54e38a3ed09e58f,
    ),
    (
        "rampage_switching/StandbyList/banked",
        0x8244607873a29242,
        0x2e4d16ed67b5ee47,
    ),
    (
        "rampage_switching/SdramDevice/flat",
        0xb3876c0aa8a88958,
        0xa54e38a3ed09e58f,
    ),
    (
        "rampage_switching/SdramDevice/banked",
        0x8244607873a29242,
        0x2e4d16ed67b5ee47,
    ),
    (
        "rampage_switching/VictimCache16/flat",
        0xb3876c0aa8a88958,
        0xa54e38a3ed09e58f,
    ),
    (
        "rampage_switching/VictimCache16/banked",
        0x8244607873a29242,
        0x2e4d16ed67b5ee47,
    ),
    (
        "rampage_switching/FiniteWriteBuffer8/flat",
        0x7705d1e9856f6a2f,
        0x08aee0ae11d52f40,
    ),
    (
        "rampage_switching/FiniteWriteBuffer8/banked",
        0x0d0d717e03d2f546,
        0xe6bd1e1d3e070dff,
    ),
    (
        "rampage_switching/DualChannel/flat",
        0xb8f54d36093bd8fe,
        0x051b23256914d204,
    ),
    (
        "rampage_switching/DualChannel/banked",
        0x99322715f92baf1e,
        0x6bd4832a0feae100,
    ),
    (
        "rampage_switching/PrefetchNext/flat",
        0xda1aef1d038e877c,
        0xa5fb7cc45cdfb93b,
    ),
    (
        "rampage_switching/PrefetchNext/banked",
        0x73dde185e98e4442,
        0x7729fee38fd0d939,
    ),
    (
        "baseline/classify_l2",
        0x469b14265003b719,
        0x8dc8146be8eb194a,
    ),
    (
        "two_way/classify_l2",
        0x502916963662e67c,
        0x3e23112c65bcdcc0,
    ),
];

#[test]
fn event_and_metrics_digests_are_pinned_on_every_knob() {
    let w = Workload::quick();
    let got: Vec<(String, u64, u64)> = digest_configs()
        .into_iter()
        .map(|(label, cfg)| {
            let (_, out) = run_config_traced(&cfg, &w, 1 << 20);
            assert_eq!(out.events_dropped, 0, "{label}: the ring dropped events");
            let events = fnv1a(to_jsonl(&out.events).as_bytes());
            let metrics = fnv1a(format!("{:?}", out.metrics).as_bytes());
            (label, events, metrics)
        })
        .collect();
    let moved: Vec<&str> = got
        .iter()
        .filter(|(label, e, m)| !DIGESTS.contains(&(label.as_str(), *e, *m)))
        .map(|(label, ..)| label.as_str())
        .collect();
    let table: String = got
        .iter()
        .map(|(label, e, m)| format!("    (\"{label}\", {e:#018x}, {m:#018x}),\n"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == DIGESTS.len(),
        "simulation digests moved for {moved:?}; the current table is:\n{table}"
    );
}
