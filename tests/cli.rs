//! The `trix` binary's usage errors: an unknown command, an unknown
//! flag or an unparsable flag value exits with code 2 before any
//! simulation runs, and a well-formed run exits 0.

use std::process::{Command, Output};

fn trix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trix"))
        .args(args)
        .output()
        .expect("the trix binary runs")
}

#[test]
fn usage_errors_exit_with_code_2() {
    for args in [
        &["run", "--width", "abc"][..],
        &["run", "--wdth", "8"],
        &["run", "--width"],
        &["run", "--chart", "yes"],
        &["run", "--p-fail", "often"],
        &["run", "8"],
        &["stabilize", "--seed", "-1"],
        &["compare", "--layers", "4"],
        &["frobnicate"],
        &[],
    ] {
        let out = trix(args);
        assert_eq!(out.status.code(), Some(2), "trix {args:?}");
        assert!(out.stdout.is_empty(), "trix {args:?} ran before failing");
        assert!(!out.stderr.is_empty(), "trix {args:?} printed no error");
    }
}

#[test]
fn well_formed_commands_exit_0() {
    for args in [
        &[
            "run", "--width", "6", "--layers", "5", "--pulses", "1", "--chart",
        ][..],
        &["run", "--width", "8", "--pulses", "1", "--p-fail", "0.05"],
        &["compare", "--width", "6"],
    ] {
        let out = trix(args);
        assert_eq!(out.status.code(), Some(0), "trix {args:?}");
        assert!(!out.stdout.is_empty(), "trix {args:?} printed nothing");
    }
}
