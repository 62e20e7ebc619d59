//! Watch the priority mechanism cycle by cycle: a PMU that samples every
//! cycle of two threads under a (6,4) priority pair.
//!
//! Each one-cycle sample says what each context's decode slot did that
//! cycle: `base` (it decoded), `decode_starved` (the cycle was the
//! sibling's), or the stall that blocked a designated thread
//! (`gct_full`, `queue_full`, `balancer`, ...). Counting the cycles each
//! thread was designated makes the Equation-1 slot pattern directly
//! visible: seven T0 cycles for every T1 cycle.
//!
//! ```text
//! cargo run --release --example pipeline_trace
//! ```

use p5repro::core::{CoreConfig, SmtCore};
use p5repro::isa::{Priority, ThreadId};
use p5repro::microbench::MicroBenchmark;
use p5repro::pmu::{CpiComponent, PmuConfig, Sample};

const WINDOW: u64 = 40;

/// The component `thread`'s one cycle in `sample` was charged to.
fn component(sample: &Sample, thread: ThreadId) -> CpiComponent {
    let stack = &sample.components[thread.index()];
    CpiComponent::ALL
        .into_iter()
        .find(|&c| stack.get(c) == 1)
        .expect("a one-cycle sample charges exactly one component")
}

fn main() {
    let mut core = SmtCore::new(CoreConfig::power5_like());
    core.load_program(ThreadId::T0, MicroBenchmark::CpuInt.program());
    core.load_program(ThreadId::T1, MicroBenchmark::CpuInt.program());
    core.set_priority(ThreadId::T0, Priority::High); // (6,4): R = 8

    // Warm the pipeline, then sample a short window one cycle at a time.
    core.run_cycles(10_000);
    core.enable_pmu(PmuConfig::sampling(1));
    core.run_cycles(WINDOW);
    let pmu = core.take_pmu().expect("the PMU was enabled");

    println!("cycle-level trace, priorities (6,4), {WINDOW} cycles:\n");
    println!("{:>5}  {:<15} {:<15} committed", "cycle", "T0", "T1");
    let mut designated = [0u64; 2];
    for sample in pmu.samples() {
        let slots = ThreadId::ALL.map(|t| component(sample, t));
        for (count, slot) in designated.iter_mut().zip(slots) {
            // Slot stealing is off, so a thread that is not designated
            // is starved: every other component is a designated cycle.
            if slot != CpiComponent::DecodeStarved {
                *count += 1;
            }
        }
        println!(
            "{:>5}  {:<15} {:<15} {:?}",
            sample.cycle,
            slots[0].name(),
            slots[1].name(),
            sample.committed
        );
    }
    println!(
        "\ndesignated decode cycles: T0 {}, T1 {} of {WINDOW}. Equation 1 gives the\n\
         higher-priority thread 7 of every 8 decode cycles at a +2 difference.",
        designated[0], designated[1]
    );
}
