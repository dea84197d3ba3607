//! The `lnc` binary's command-line contract: `--help` is a successful
//! request answered on stdout, and a bad command line is one `error:` line
//! plus the usage on stderr with exit code 1, before any compile.

use std::process::{Command, Output};

fn lnc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lnc")).args(args).output().unwrap()
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = lnc(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with("usage: lnc "), "{flag}: {stdout}");
        assert!(stdout.contains("lnc serve"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag} wrote to stderr");
    }
}

#[test]
fn argument_errors_go_to_stderr_with_usage_and_exit_one() {
    for (args, flag) in [
        (&["serve", "--out", "d"][..], "--out"),
        (&["x.core_desc", "--core", "ORCA", "--jobs", "8"], "--jobs"),
        (&["--matrix", "--matrix"], "--matrix"),
        (&["--frobnicate"], "--frobnicate"),
    ] {
        let out = lnc(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let mut lines = stderr.lines();
        let first = lines.next().unwrap_or_default();
        assert!(first.starts_with("error: ") && first.contains(flag), "{args:?}: {stderr}");
        assert!(lines.next().unwrap_or_default().starts_with("usage: lnc "), "{stderr}");
    }
}
