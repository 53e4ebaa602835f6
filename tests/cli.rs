//! The `trix` binary's usage errors: an unknown command, an unknown
//! flag, an unparsable flag value or one out of range exits with code 2
//! before any simulation runs, and a well-formed run exits 0. `trix
//! stabilize` says when its dead set leaves Theorem 1.6's fault model,
//! and a fault-free grid settles on every layer.

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

fn stabilize_stdout(args: &[&str]) -> String {
    let out = trix(&[&["stabilize"][..], args].concat());
    assert_eq!(out.status.code(), Some(0), "trix stabilize {args:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Dead nodes at columns 0 and 2 of layer 1 are adjacent, so the
/// placement is not 1-local; the command says the placement leaves the
/// fault model. Two dead nodes on layers 1 and 2 are 1-local, and it
/// says nothing.
#[test]
fn stabilize_says_when_the_dead_set_is_not_one_local() {
    const OUTSIDE: &str = "not 1-local";
    let stdout = stabilize_stdout(&["--width", "8", "--seed", "1", "--dead", "8"]);
    assert!(stdout.contains(OUTSIDE), "{stdout}");
    let stdout = stabilize_stdout(&["--width", "8", "--seed", "1", "--dead", "2"]);
    assert!(!stdout.contains(OUTSIDE), "{stdout}");
}

/// A fault-free width-12 grid settles on every layer.
#[test]
fn stabilize_fault_free_wide_grid_settles_everywhere() {
    let stdout = stabilize_stdout(&["--width", "12", "--seed", "2"]);
    assert!(!stdout.contains("never"), "{stdout}");
    let settled = stdout.matches("stabilized by pulse").count();
    assert_eq!(settled, 11, "{stdout}");
}
