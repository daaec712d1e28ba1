//! The `repro` binary's command-line contract, driven from outside.

use std::process::Command;

#[test]
fn a_misspelt_subcommand_is_rejected_not_silently_skipped() {
    // `repro nosuchthing` used to select no targets, print the flop-model
    // header and exit 0, so a typo'd ci.sh stage passed without running.
    for args in [&["nosuchthing"][..], &["analyse"], &["table1", "fig99"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        assert!(out.stdout.is_empty(), "{args:?} ran something first");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let bad = args.last().unwrap();
        assert!(
            stderr.starts_with(&format!("ERROR: repro {bad}: unknown subcommand"))
                && stderr.lines().count() == 1,
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn a_known_subcommand_still_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table3")
        .output()
        .expect("spawn repro");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("== Table III: problem settings =="));
}
