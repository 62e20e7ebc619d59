//! Exit-code contract of the `repro` binary, as documented in its
//! `--help` text: 0 clean, 1 usage error, 2 completed-with-degradations,
//! 3 aborted early. CI scripts branch on these codes (the kill-and-
//! resume gate expects 3 from the interrupted leg), so they are pinned
//! here.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn help_exits_zero_and_documents_the_exit_codes() {
    let out = repro().arg("--help").output().expect("repro runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("help is UTF-8");
    assert!(text.contains("EXIT CODES"), "help documents the contract");
    for line in [
        "every requested section completed",
        "usage or I/O error",
        "some cells degraded or sections failed",
        "campaign aborted early",
    ] {
        assert!(text.contains(line), "help is missing {line:?}");
    }
}

#[test]
fn help_documents_the_plan_flag() {
    let out = repro().arg("--help").output().expect("repro runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("help is UTF-8");
    assert!(text.contains("--plan SPEC"), "help documents --plan");
    for line in p5_core::ExecutionPlan::GRAMMAR.lines() {
        assert!(text.contains(line), "help prints the grammar line {line:?}");
    }
}

#[test]
fn unknown_arguments_are_usage_errors() {
    // A flag `--help` does not list (`--fast-forward` is the pre-plan
    // spelling of `--plan detailed+ff`; `--chip-threads` is gone with the
    // threaded chip) and a typo must fail before anything runs, naming
    // the argument, instead of being ignored.
    for args in [
        &["--fast-forward"][..],
        &["--fast-froward"],
        &["--chip-threads", "2"],
    ] {
        let arg = args[0];
        let out = repro()
            .args(["--quick", "--only", "table1"])
            .args(args)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(1), "{arg} exits 1");
        let err = String::from_utf8(out.stderr).expect("stderr is UTF-8");
        assert!(err.contains(arg), "error names {arg}: {err}");
        let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        assert!(!text.contains("Table 1"), "nothing ran: {text}");
    }
    // A value flag with its value missing, last or before another
    // flag, fails the same way instead of running the defaults.
    for (args, flag) in [
        (&["--quick", "--only", "table1", "--plan"][..], "--plan"),
        (&["--quick", "--only", "table1", "--journal"], "--journal"),
        (&["--plan", "--quick", "--only", "table1"], "--plan"),
    ] {
        let out = repro().args(args).output().expect("repro runs");
        assert_eq!(out.status.code(), Some(1), "{args:?} exits 1");
        let err = String::from_utf8(out.stderr).expect("stderr is UTF-8");
        assert!(err.contains(flag), "error names {flag}: {err}");
        let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        assert!(!text.contains("Table 1"), "nothing ran: {text}");
    }
}

#[test]
fn invalid_plan_spec_is_a_usage_error() {
    // `+mt` named the threaded chip and `+reuse` the warm-state
    // checkpoints, which are gone: they are unknown plan flags now, not
    // ones silently ignored.
    for spec in ["warp-speed", "detailed+mt", "detailed+reuse"] {
        let out = repro()
            .args(["--quick", "--only", "table1", "--plan", spec])
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(1), "--plan {spec} exits 1");
        let err = String::from_utf8(out.stderr).expect("stderr is UTF-8");
        assert!(err.contains("--plan"), "error names the flag: {err}");
        let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        assert!(!text.contains("Table 1"), "nothing ran: {text}");
    }
}

#[test]
fn invalid_sampling_parameters_are_a_usage_error() {
    // A zero interval would divide by zero in the estimator; the plan
    // grammar rejects it at the flag boundary.
    let out = repro()
        .args(["--plan", "sampled:0,4096"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(1), "zero interval exits 1");
}

#[test]
fn resume_without_journal_is_a_usage_error() {
    let out = repro().arg("--resume").output().expect("repro runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(err.contains("--resume requires --journal"));
}

#[test]
fn unknown_only_section_is_a_usage_error() {
    // An unknown name used to match no section, run nothing and exit
    // 0. It must fail before anything runs, naming the bad entry.
    let out = repro()
        .args(["--quick", "--only", "table1,tabel3"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(1), "unknown section exits 1");
    let err = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(err.contains("\"tabel3\""), "error names the entry: {err}");
    let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(!text.contains("Table 1"), "nothing ran: {text}");
}

#[test]
fn only_without_a_list_is_a_usage_error() {
    let out = repro().arg("--only").output().expect("repro runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(err.contains("--only"), "error names the flag: {err}");
}

#[test]
fn clean_section_exits_zero() {
    // Table 1 is the static priority-encoding table: no campaign, no
    // cells to degrade, so this is the cheapest clean run there is.
    let out = repro()
        .args(["--quick", "--only", "table1"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(0), "clean run exits 0");
}

#[test]
fn degraded_run_exits_two() {
    // A zero cell deadline degrades every campaign cell without
    // simulating anything, so the run completes — partially — fast.
    let out = repro()
        .args([
            "--quick",
            "--only",
            "table3",
            "--jobs",
            "2",
            "--cell-deadline-ms",
            "0",
        ])
        .output()
        .expect("repro runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "completed-with-degradations exits 2"
    );
}

#[test]
fn aborted_run_exits_three() {
    // A zero time budget expires the campaign token before the first
    // cell is claimed: everything is skipped and the run reports an
    // early abort.
    let out = repro()
        .args([
            "--quick",
            "--only",
            "table3",
            "--jobs",
            "2",
            "--time-budget-ms",
            "0",
        ])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(3), "aborted run exits 3");
    let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(text.contains("campaign aborted early"));
}

#[test]
fn crashed_cell_is_counted_in_summary() {
    // Chaos-panic the last MPI cell (the smallest campaign section, 4
    // cells): the crash is isolated, the other three cells complete,
    // and the end-of-run summary names the crashed cell — previously
    // crashes were visible only via the exit code and the journal.
    let out = repro()
        .args([
            "--quick",
            "--only",
            "mpi",
            "--jobs",
            "1",
            "--chaos-panic",
            "3",
        ])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "crashed cell degrades the run");
    let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        text.contains("4 cells: 3 ok, 1 crashed"),
        "summary counts the crash: {text}"
    );
}

#[test]
fn skipped_cells_are_counted_in_summary() {
    // Abort the campaign when the last MPI cell is claimed: at
    // `--jobs 1` claims are sequential, so exactly cell 3 is skipped
    // and the summary says so.
    let out = repro()
        .args([
            "--quick",
            "--only",
            "mpi",
            "--jobs",
            "1",
            "--chaos-abort-after",
            "3",
        ])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(3), "abort exits 3");
    let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        text.contains("4 cells: 3 ok, 1 skipped"),
        "summary counts the skipped cell: {text}"
    );
}
