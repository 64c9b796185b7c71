//! `dws-cli --help` and `dws-cli <command> --help` print the usage and
//! exit 0; unknown options and commands still fail.

use std::process::Command;

fn dws_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dws-cli"))
        .args(args)
        .output()
        .expect("dws-cli runs")
}

#[test]
fn every_command_help_prints_usage_and_exits_zero() {
    let mut invocations = vec![vec!["--help"], vec!["-h"]];
    for cmd in ["list", "run", "compare", "lint", "asm", "opt", "fuzz"] {
        invocations.push(vec![cmd, "--help"]);
        invocations.push(vec![cmd, "-h"]);
    }
    for args in invocations {
        let out = dws_cli(&args);
        assert!(out.status.success(), "{args:?} exited {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage:"), "{args:?} printed {stdout:?}");
        assert!(
            stdout.contains("exit codes:"),
            "{args:?} printed {stdout:?}"
        );
    }
}

#[test]
fn unknown_options_and_commands_still_fail() {
    for args in [
        &["run", "--bogus"][..],
        &["lint", "--bogus"],
        &["fuzz", "--bogus"],
        &["frob", "--help"],
        &[],
    ] {
        let out = dws_cli(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}
