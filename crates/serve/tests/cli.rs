//! Usage errors of the two binaries. For `p5_client`, an argument
//! `--help` does not list, a flag missing its value, or a plan the
//! grammar rejects exits 1 naming the argument before anything
//! connects; for `p5_serve`, an unlisted argument or a flag missing its
//! value exits 1 naming it before anything binds.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

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

#[test]
fn unknown_serve_arguments_are_usage_errors_before_binding() {
    for (i, (args, named)) in [
        (&["--jbos", "2"][..], "--jbos"),
        (&["--jobs", "2", "--cache-dir"], "--cache-dir"),
        (
            &["--jobs", "2", "--cache-max-entries"],
            "--cache-max-entries",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let socket =
            std::env::temp_dir().join(format!("p5_serve_cli_{}_{i}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let mut child = Command::new(env!("CARGO_BIN_EXE_p5_serve"))
            .arg("--unix")
            .arg(&socket)
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("p5_serve starts");
        // A daemon that took the arguments would serve until shut down:
        // past the deadline it is killed and the test fails instead of
        // hanging.
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().expect("p5_serve can be waited on") {
                break status;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&socket);
                panic!("{args:?}: p5_serve still ran after 10 s");
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut err = String::new();
        child
            .stderr
            .take()
            .expect("stderr is piped")
            .read_to_string(&mut err)
            .expect("stderr is UTF-8");
        assert_eq!(status.code(), Some(1), "{args:?} exits 1: {err}");
        assert!(err.contains(named), "{args:?}: error names {named}: {err}");
        assert!(!socket.exists(), "{args:?}: no socket file is left");
    }
}
