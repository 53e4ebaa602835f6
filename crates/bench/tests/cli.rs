//! The harness binary's usage errors: an unknown flag, an unparsable
//! value or an `--only` that names no experiment exits with code 2 and
//! an error on stderr, before any scenario runs or any header prints.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gradient-trix-experiments"))
        .args(args)
        .output()
        .expect("the harness binary runs")
}

#[test]
fn usage_errors_exit_with_code_2() {
    for (args, needle) in [
        (&["--sketch-rank", "4"][..], "--sketch-rank"),
        (&["--smoke", "--no-trace"], "--no-trace"),
        (&["--smoke", "--csv"], "--csv"),
        (&["--threads", "abc"], "--threads"),
        (&["--frobnicate"], "--frobnicate"),
        (
            &["--smoke", "--only", "no_such_experiment"],
            "no_such_experiment",
        ),
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: stderr {stderr:?}");
    }
}
