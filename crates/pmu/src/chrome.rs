//! Chrome `trace_event` exporter.
//!
//! Renders a [`Pmu`]'s interval samples and discrete events in the
//! Chrome trace-event JSON object format, loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev). One
//! simulated cycle maps to one microsecond of trace time, so the
//! timeline ruler reads directly in cycles.
//!
//! Per sample the exporter emits counter tracks (`ph: "C"`) for each
//! thread's CPI-component breakdown and IPC, the shared GCT and LMQ
//! mean occupancies, and the per-thread L2-miss/memory-access/TLB-miss
//! deltas. Discrete events (priority changes, timer interrupts, fault
//! injections) become instant events (`ph: "i"`), so priority-switch
//! transients line up visually with the IPC and CPI tracks around them.

use crate::json::{JsonObject, JsonValue};
use crate::{CpiComponent, Pmu, PmuEventKind, Sample};
use p5_isa::ThreadId;

/// Trace-format schema version stamped into `otherData`.
pub const CHROME_TRACE_SCHEMA_VERSION: u64 = 1;

const PID: u64 = 1;
/// tid used for core-wide (not thread-scoped) tracks and events.
const CORE_TID: u64 = 2;

fn event_base(name: &str, ph: &str, tid: u64, ts: u64) -> JsonObject {
    JsonObject::new()
        .field("name", name)
        .field("ph", ph)
        .field("pid", PID)
        .field("tid", tid)
        .field("ts", ts)
}

fn metadata(name: &str, tid: u64, value: &str) -> JsonValue {
    JsonObject::new()
        .field("name", name)
        .field("ph", "M")
        .field("pid", PID)
        .field("tid", tid)
        .field("args", JsonObject::new().field("name", value).build())
        .build()
}

fn counter(name: &str, tid: u64, ts: u64, args: JsonValue) -> JsonValue {
    event_base(name, "C", tid, ts).field("args", args).build()
}

fn sample_events(out: &mut Vec<JsonValue>, s: &Sample) {
    let ts = s.cycle;
    for t in ThreadId::ALL {
        let i = t.index();
        let mut cpi = JsonObject::new();
        for c in CpiComponent::ALL {
            cpi = cpi.field(c.name(), s.components[i].get(c));
        }
        out.push(counter(&format!("{t} CPI"), i as u64, ts, cpi.build()));
        out.push(counter(
            &format!("{t} IPC"),
            i as u64,
            ts,
            JsonObject::new().field("ipc", s.ipc(t)).build(),
        ));
        out.push(counter(
            &format!("{t} priority"),
            i as u64,
            ts,
            JsonObject::new()
                .field("priority", u64::from(s.priorities[i]))
                .build(),
        ));
        out.push(counter(
            &format!("{t} mem"),
            i as u64,
            ts,
            JsonObject::new()
                .field("l2_miss", s.l2_misses[i])
                .field("memory", s.memory_accesses[i])
                .field("tlb_miss", s.tlb_misses[i])
                .build(),
        ));
    }
    out.push(counter(
        "GCT occupancy",
        CORE_TID,
        ts,
        JsonObject::new().field("groups", s.gct_avg).build(),
    ));
    out.push(counter(
        "LMQ occupancy",
        CORE_TID,
        ts,
        JsonObject::new().field("entries", s.lmq_avg).build(),
    ));
}

fn instant_name(kind: PmuEventKind) -> String {
    match kind {
        PmuEventKind::PriorityChanged { level } => format!("priority -> {level}"),
        PmuEventKind::TimerInterrupt => "timer interrupt".to_string(),
        PmuEventKind::FaultInjected { what } => format!("fault: {what}"),
    }
}

/// Renders the PMU's samples and events as a Chrome trace-event JSON
/// document. `label` names the run in the trace metadata.
#[must_use]
pub fn chrome_trace(pmu: &Pmu, label: &str) -> String {
    let mut events: Vec<JsonValue> = Vec::new();
    events.push(metadata("process_name", 0, &format!("p5 core: {label}")));
    events.push(metadata("thread_name", 0, "T0 (primary)"));
    events.push(metadata("thread_name", 1, "T1 (secondary)"));
    events.push(metadata("thread_name", CORE_TID, "core shared"));

    for s in pmu.samples() {
        sample_events(&mut events, s);
    }
    for e in pmu.events() {
        let tid = e.thread.map_or(CORE_TID, |t| t.index() as u64);
        let scope = if e.thread.is_some() { "t" } else { "p" };
        events.push(
            event_base(&instant_name(e.kind), "i", tid, e.cycle)
                .field("s", scope)
                .build(),
        );
    }

    let doc = JsonObject::new()
        .field("traceEvents", events)
        .field("displayTimeUnit", "ms")
        .field(
            "otherData",
            JsonObject::new()
                .field("schema_version", CHROME_TRACE_SCHEMA_VERSION)
                .field("label", label)
                .field("cycles", pmu.cycles())
                .field("sample_interval", pmu.config().sample_interval)
                .field("samples", pmu.samples().len())
                .field("samples_dropped", pmu.samples_dropped())
                .field("events_dropped", pmu.events_dropped())
                .build(),
        )
        .build();
    doc.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CycleRecord, PmuConfig};

    #[test]
    fn trace_shape_is_an_object_with_trace_events() {
        let mut pmu = Pmu::new(PmuConfig::sampling(2));
        for c in 1..=4u64 {
            pmu.on_cycle(
                c,
                &CycleRecord {
                    attr: [CpiComponent::Base, CpiComponent::Idle],
                    granted: Some(ThreadId::T0),
                    used: true,
                    stolen: false,
                    gct_occupancy: 1,
                    lmq_occupancy: 0,
                    committed: [c, 0],
                    priorities: [4, 1],
                },
            );
        }
        pmu.record_instant(
            Some(ThreadId::T0),
            PmuEventKind::PriorityChanged { level: 6 },
        );
        let json = chrome_trace(&pmu, "unit");
        assert!(json.starts_with(r#"{"traceEvents":["#));
        assert!(json.contains(r#""name":"T0 CPI""#));
        assert!(json.contains(r#""name":"priority -> 6""#));
        assert!(json.contains(r#""schema_version":1"#));
        assert!(json.ends_with('}'));
    }
}
