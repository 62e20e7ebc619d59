//! Usage errors of the `p5_client` binary: an argument `--help` does
//! not list, a flag missing its value, or a plan the grammar rejects
//! exits 1 naming the argument before anything connects.

use std::process::Command;

#[test]
fn unknown_arguments_are_usage_errors_before_connecting() {
    // No daemon listens here: an argument the client accepted would
    // fail on the connection instead, naming no flag.
    let socket = std::env::temp_dir().join(format!("p5_client_cli_{}.sock", std::process::id()));
    let socket = socket.to_str().expect("temp path is UTF-8");
    for (args, named) in [
        (&["--cell", "cpu_int", "--fidelty", "tiny"][..], "--fidelty"),
        (
            &["--cell", "cpu_int", "--chip-threads", "2"],
            "--chip-threads",
        ),
        (&["--cell", "cpu_int", "--cell"], "--cell"),
        // The threaded chip's `+mt` and the warm-state checkpoints'
        // `+reuse` are unknown plan flags.
        (&["--cell", "cpu_int", "--plan", "detailed+mt"], "--plan"),
        (&["--cell", "cpu_int", "--plan", "detailed+reuse"], "--plan"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_p5_client"))
            .args(["--unix", socket])
            .args(args)
            .output()
            .expect("p5_client runs");
        assert_eq!(out.status.code(), Some(1), "{args:?} exits 1");
        let err = String::from_utf8(out.stderr).expect("stderr is UTF-8");
        assert!(err.contains(named), "{args:?}: error names {named}: {err}");
    }
}

#[test]
fn help_prints_the_plan_grammar() {
    let out = Command::new(env!("CARGO_BIN_EXE_p5_client"))
        .arg("--help")
        .output()
        .expect("p5_client runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("help is UTF-8");
    for line in p5_core::ExecutionPlan::GRAMMAR.lines() {
        assert!(text.contains(line), "help prints the grammar line {line:?}");
    }
}
