//! Property test for the result-journal loader (DESIGN.md §13).
//!
//! The journal's recovery contract is: after a crash at *any* byte of
//! the file, a resume loads exactly the records whose lines survived
//! complete — last write wins for duplicated keys, every surviving
//! record replays bit-identically, and at most the torn tail line is
//! discarded. This suite generates randomized write sequences (seeded,
//! so failures reproduce), truncates the journal file at random byte
//! offsets — including mid-line, the crash case fsync batching makes
//! likely — and checks the loader against a reference fold of the
//! surviving prefix.

use p5_core::SimError;
use p5_experiments::journal::{CellKey, ResultJournal};
use p5_experiments::{CellStatus, Measured};
use p5_fame::{FameReport, ThreadMeasurement};
use std::path::PathBuf;

/// Splitmix64 — self-contained so the test needs no dependencies and
/// every trial is reproducible from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// A random journable measurement: any recordable status, optional
/// error text, optional report with "awkward" floats (non-terminating
/// binary fractions) so bit-exactness is actually exercised.
fn random_measured(rng: &mut Rng) -> Measured {
    let status = match rng.below(3) {
        0 => CellStatus::Ok,
        1 => CellStatus::Recovered,
        _ => CellStatus::Degraded,
    };
    let error = rng.chance(2).then(|| SimError::Replayed {
        cause: format!("synthetic cause {}", rng.below(1_000)),
    });
    let thread = |rng: &mut Rng| {
        let ipc = rng.below(4_000) as f64 / 1_729.0;
        ThreadMeasurement {
            repetitions: usize::try_from(rng.below(500)).unwrap(),
            avg_repetition_cycles: rng.below(1_000_000) as f64 / 7.0,
            ipc,
            estimate: if rng.chance(2) {
                p5_fame::Estimate::exact(ipc)
            } else {
                p5_fame::Estimate {
                    value: ipc,
                    ci95: rng.below(1_000) as f64 / 31_337.0,
                    samples: u32::try_from(rng.below(64) + 1).unwrap(),
                }
            },
            converged: rng.chance(2),
        }
    };
    let report = (!rng.chance(4)).then(|| {
        let t0 = thread(rng);
        let t1 = rng.chance(2).then(|| thread(rng));
        FameReport {
            threads: [Some(t0), t1],
            measured_cycles: rng.below(10_000_000),
            warmup_cycles: rng.below(1_000_000),
        }
    });
    Measured {
        report,
        status,
        error,
    }
}

/// Replay equality, bit-exact: statuses structurally, error *text*
/// (errors travel as rendered causes — `SimError::Replayed` displays
/// them verbatim), floats by IEEE-754 bit pattern.
fn assert_replays_exactly(expected: &Measured, got: &Measured, what: &str) {
    assert_eq!(expected.status, got.status, "{what}: status");
    assert_eq!(
        expected.error.as_ref().map(ToString::to_string),
        got.error.as_ref().map(ToString::to_string),
        "{what}: error text"
    );
    match (&expected.report, &got.report) {
        (None, None) => {}
        (Some(e), Some(g)) => {
            assert_eq!(e.measured_cycles, g.measured_cycles, "{what}: cycles");
            assert_eq!(e.warmup_cycles, g.warmup_cycles, "{what}: warmup");
            for (i, (et, gt)) in e.threads.iter().zip(&g.threads).enumerate() {
                match (et, gt) {
                    (None, None) => {}
                    (Some(et), Some(gt)) => {
                        assert_eq!(et.repetitions, gt.repetitions, "{what}: t{i} reps");
                        assert_eq!(
                            et.avg_repetition_cycles.to_bits(),
                            gt.avg_repetition_cycles.to_bits(),
                            "{what}: t{i} avg cycles bits"
                        );
                        assert_eq!(et.ipc.to_bits(), gt.ipc.to_bits(), "{what}: t{i} ipc bits");
                        assert_eq!(
                            et.estimate.value.to_bits(),
                            gt.estimate.value.to_bits(),
                            "{what}: t{i} estimate value bits"
                        );
                        assert_eq!(
                            et.estimate.ci95.to_bits(),
                            gt.estimate.ci95.to_bits(),
                            "{what}: t{i} estimate ci95 bits"
                        );
                        assert_eq!(
                            et.estimate.samples, gt.estimate.samples,
                            "{what}: t{i} estimate samples"
                        );
                        assert_eq!(et.converged, gt.converged, "{what}: t{i} converged");
                    }
                    _ => panic!("{what}: thread {i} presence differs"),
                }
            }
        }
        _ => panic!("{what}: report presence differs"),
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p5-journal-props-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One randomized trial: write an interleaved, duplicate-heavy record
/// sequence, then resume from every sampled truncation of the file and
/// compare against the reference last-write-wins fold of the prefix.
fn run_trial(seed: u64) {
    let mut rng = Rng(seed);

    // A small key pool forces duplicate-key interleavings; the keys
    // themselves only need to be distinct.
    let keys: Vec<CellKey> = (0..6).map(|i| CellKey((seed << 8) | i)).collect();
    let writes: Vec<(CellKey, Measured)> = (0..20)
        .map(|_| {
            let key = keys[usize::try_from(rng.below(6)).unwrap()];
            (key, random_measured(&mut rng))
        })
        .collect();

    let write_dir = scratch_dir(&format!("w{seed}"));
    let journal = ResultJournal::create(&write_dir).expect("create journal");
    for (key, measured) in &writes {
        journal.record_cell(*key, measured);
    }
    journal.flush();
    let file = write_dir.join(ResultJournal::FILE_NAME);
    let bytes = std::fs::read(&file).expect("journal bytes");
    drop(journal);

    // Line i of the file is write i: `record_cell` appends exactly one
    // line per recordable measurement (all of ours are recordable).
    let line_ends: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
        .collect();
    assert_eq!(line_ends.len(), writes.len(), "one line per write");

    // Sample truncation points: clean EOF, empty file, every line
    // boundary, and random mid-line offsets (the torn-tail crash case).
    let mut cuts: Vec<usize> = vec![0, bytes.len()];
    cuts.extend(&line_ends);
    for _ in 0..8 {
        cuts.push(usize::try_from(rng.below(bytes.len() as u64 + 1)).unwrap());
    }

    for (case, &cut) in cuts.iter().enumerate() {
        // Reference semantics: a record survives when its *content* is
        // fully present — losing only the trailing `\n` loses nothing
        // (the loader parses the unterminated final line). The
        // survivors fold last-write-wins.
        let survived = line_ends.iter().filter(|&&end| cut + 1 >= end).count();
        let mut expected: std::collections::HashMap<CellKey, &Measured> =
            std::collections::HashMap::new();
        for (key, measured) in &writes[..survived] {
            expected.insert(*key, measured);
        }
        // Bytes beyond the last surviving record form a torn fragment
        // the loader must count as corrupt, not choke on.
        let covered = if survived > 0 {
            line_ends[survived - 1]
        } else {
            0
        };
        let torn_tail = cut > covered;

        let resume_dir = scratch_dir(&format!("r{seed}-{case}"));
        std::fs::create_dir_all(&resume_dir).expect("resume dir");
        std::fs::write(resume_dir.join(ResultJournal::FILE_NAME), &bytes[..cut])
            .expect("truncated journal");
        let (resumed, stats) = ResultJournal::resume(&resume_dir).expect("resume");

        let what = format!("seed {seed}, cut {cut}/{}", bytes.len());
        assert_eq!(
            stats.entries, survived,
            "{what}: every complete line loads (duplicates included)"
        );
        assert_eq!(
            resumed.cell_count(),
            expected.len(),
            "{what}: the index deduplicates last-write-wins"
        );
        assert_eq!(
            stats.corrupt,
            usize::from(torn_tail),
            "{what}: only the torn tail is discarded"
        );
        assert_eq!(stats.stale, 0, "{what}: same schema version throughout");
        for key in &keys {
            match expected.get(key) {
                Some(measured) => {
                    let got = resumed
                        .lookup_cell(*key)
                        .unwrap_or_else(|| panic!("{what}: key {key} lost"));
                    assert_replays_exactly(measured, &got, &what);
                }
                None => assert!(
                    resumed.lookup_cell(*key).is_none(),
                    "{what}: key {key} should not have survived"
                ),
            }
        }
        drop(resumed);
        let _ = std::fs::remove_dir_all(&resume_dir);
    }
    let _ = std::fs::remove_dir_all(&write_dir);
}

#[test]
fn loader_survives_random_truncation_with_last_write_wins() {
    for seed in 1..=10 {
        run_trial(seed);
    }
}
