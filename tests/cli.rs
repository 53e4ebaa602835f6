//! The `trix` binary's usage errors: an unknown command, an unknown
//! flag, an unparsable flag value or one out of range exits with code 2
//! before any simulation runs, and a well-formed run exits 0.

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
        &["run", "--pulses", "0"],
        &["run", "--width", "0"],
        &["run", "--width", "1"],
        &["stabilize", "--width", "0"],
        &["stabilize", "--width", "1"],
        &["compare", "--width", "0"],
        &["compare", "--width", "1"],
        &["run", "--layers", "0"],
        &["run", "--p-fail", "1.5"],
        &["run", "--p-fail", "-0.1"],
        &["run", "--p-fail", "nan"],
        &["run", "--layers", "1", "--faults", "1"],
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
        &["stabilize", "--width", "4"],
    ] {
        let out = trix(args);
        assert_eq!(out.status.code(), Some(0), "trix {args:?}");
        assert!(!out.stdout.is_empty(), "trix {args:?} printed nothing");
    }
}
