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

#[test]
fn trace_accepts_every_variant_name() {
    // `host_simd.sync` is a name `Variant::name` produces; the trace used
    // to panic on it with "unknown variant".
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .args(["trace", "--cgs", "2", "--steps", "2"])
        .args(["--variant", "host_simd.sync"])
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(dir
        .join("results/TRACE_16x16x512_host_simd.sync_2cg.perfetto.json")
        .exists());
}

#[test]
fn trace_rejects_unknown_names_with_one_error_line() {
    for (flag, bad) in [("--variant", "warp.sync"), ("--problem", "1x1x1")] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["trace", flag, bad])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(1), "{flag} {bad} must exit 1");
        assert!(out.stdout.is_empty(), "{flag} {bad} ran something first");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with("ERROR: repro trace: ")
                && stderr.contains(bad)
                && stderr.lines().count() == 1,
            "{flag} {bad}: {stderr}"
        );
    }
}

#[test]
fn bad_or_missing_flag_values_fail_with_one_error_line() {
    // `--jobs x` used to fall back to the auto-sized pool, `--seed x` to
    // panic with exit 101, and a value flag at the end of the line to run
    // with its default.
    for (args, flag, value) in [
        (&["table3", "--jobs", "x"][..], "--jobs", "`x`"),
        (&["table3", "--seed", "x"], "--seed", "`x`"),
        (&["torture", "--cases"], "--cases", "missing value"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        assert!(out.stdout.is_empty(), "{args:?} ran something first");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with(&format!("ERROR: repro {flag}: "))
                && stderr.contains(value)
                && stderr.lines().count() == 1,
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn trace_rejects_an_invalid_run_config_with_one_error_line() {
    // Each of these used to panic in `Simulation::new` (exit 101, a
    // backtrace); the constructor's typed error is now the failure line,
    // and it comes before any trace file is written.
    for (flag, value, needle) in [
        ("--cgs", "0", "n_ranks must be >= 1"),
        ("--steps", "0", "steps must be >= 1"),
        ("--cgs", "100000", "100000 ranks but only 128 patches"),
    ] {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("cli_trace_bad_{}_{value}", &flag[2..]));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .current_dir(&dir)
            .args(["trace", flag, value])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(1), "{flag} {value} must exit 1");
        assert!(out.stdout.is_empty(), "{flag} {value} ran something first");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with("ERROR: repro trace: ")
                && stderr.contains(needle)
                && stderr.lines().count() == 1,
            "{flag} {value}: {stderr}"
        );
        let written: Vec<_> = std::fs::read_dir(dir.join("results"))
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert!(written.is_empty(), "{flag} {value} wrote {written:?}");
    }
}
