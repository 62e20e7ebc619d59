//! Golden-file test for the Chrome trace-event exporter.
//!
//! The trace is consumed by external viewers (`chrome://tracing`,
//! Perfetto), so its *shape* is a compatibility contract: field names,
//! event phases, counter series names and the metadata envelope must not
//! drift by accident. This test feeds a hand-built, fully deterministic
//! PMU through [`chrome_trace`] and compares the exact output against
//! `tests/golden/chrome_trace.json`.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p p5-pmu --test chrome_trace_golden
//! ```

use p5_isa::ThreadId;
use p5_pmu::{chrome_trace, CpiComponent, CycleRecord, Pmu, PmuConfig, PmuEventKind};

/// Builds a small deterministic PMU history: two sampling intervals of
/// four cycles, mixed attributions, memory traffic, a priority switch, a
/// timer interrupt and an injected fault.
fn deterministic_pmu() -> Pmu {
    let mut pmu = Pmu::new(PmuConfig::sampling(4));
    let mem = pmu.mem_counters();

    let attrs = [
        [CpiComponent::Base, CpiComponent::DecodeStarved],
        [CpiComponent::GctFull, CpiComponent::Base],
        [CpiComponent::CacheMiss, CpiComponent::DecodeStarved],
        [CpiComponent::Base, CpiComponent::Idle],
        [CpiComponent::Base, CpiComponent::Base],
        [CpiComponent::BranchStall, CpiComponent::QueueFull],
        [CpiComponent::Balancer, CpiComponent::Base],
        [CpiComponent::Base, CpiComponent::DecodeStarved],
    ];
    for (i, attr) in attrs.iter().enumerate() {
        let cycle = i as u64 + 1;
        // Steady trickle of memory traffic so the mem counter series is
        // non-trivial: one access per cycle, every third missing the L2.
        {
            let mut m = mem.lock().expect("mem counter cell poisoned");
            m.accesses[0] += 1;
            m.served_by[if cycle.is_multiple_of(3) { 2 } else { 0 }][0] += 1;
            if cycle.is_multiple_of(4) {
                m.tlb_misses[0] += 1;
            }
        }
        if cycle == 3 {
            pmu.record_instant(
                Some(ThreadId::T0),
                PmuEventKind::PriorityChanged { level: 6 },
            );
        }
        if cycle == 5 {
            pmu.record_instant(None, PmuEventKind::TimerInterrupt);
        }
        if cycle == 6 {
            pmu.record_instant(
                Some(ThreadId::T1),
                PmuEventKind::FaultInjected {
                    what: "decode stall",
                },
            );
        }
        pmu.on_cycle(
            cycle,
            &CycleRecord {
                attr: *attr,
                granted: Some(if cycle.is_multiple_of(2) {
                    ThreadId::T1
                } else {
                    ThreadId::T0
                }),
                used: attr[0] == CpiComponent::Base || attr[1] == CpiComponent::Base,
                stolen: cycle == 5,
                gct_occupancy: (cycle % 4) as u32,
                lmq_occupancy: (cycle % 2) as u32,
                committed: [cycle * 3, cycle],
                priorities: [if cycle >= 3 { 6 } else { 4 }, 4],
            },
        );
    }
    pmu.reconcile().expect("attributions are total");
    pmu
}

#[test]
fn chrome_trace_matches_golden_file() {
    let pmu = deterministic_pmu();
    let trace = chrome_trace(&pmu, "golden");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chrome_trace.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &trace).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        trace, golden,
        "Chrome trace output drifted from tests/golden/chrome_trace.json; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn chrome_trace_is_loadable_shape() {
    // Structural spot-checks a trace viewer relies on, independent of
    // the golden bytes: the envelope keys, both phases, and every
    // counter series the exporter promises.
    let trace = chrome_trace(&deterministic_pmu(), "golden");
    assert!(trace.starts_with(r#"{"traceEvents":["#));
    for needle in [
        r#""ph":"M""#, // metadata (process/thread names)
        r#""ph":"C""#, // counter samples
        r#""ph":"i""#, // instant events
        r#""name":"T0 CPI""#,
        r#""name":"T1 IPC""#,
        r#""name":"T0 priority""#,
        r#""name":"GCT occupancy""#,
        r#""name":"LMQ occupancy""#,
        r#""name":"priority -> 6""#,
        r#""name":"timer interrupt""#,
        r#""name":"fault: decode stall""#,
        r#""displayTimeUnit":"ms""#,
        r#""schema_version":1"#,
    ] {
        assert!(trace.contains(needle), "missing {needle} in {trace}");
    }
}
