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
fn a_stray_flag_is_rejected_before_anything_runs() {
    // `repro all --frobnicate` used to report the flag as an unknown
    // subcommand, and `repro table3 --quick` ran and ignored it. `scale`
    // has one sweep now, so its old axis switches are stray flags too.
    for args in [
        &["scale", "--quick"][..],
        &["scale", "--full"],
        &["all", "--frobnicate"],
        // `--serial` was a second spelling of `--jobs 1`.
        &["table3", "--serial"],
        &["serve", "--oracle-ppm", "5"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        assert!(out.stdout.is_empty(), "{args:?} ran something first");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(
            stderr,
            format!("ERROR: repro {}: unknown flag\n", args[1]),
            "{args:?}"
        );
    }
}

#[test]
fn a_flag_no_chosen_subcommand_reads_is_rejected() {
    // Each of these used to exit 0 with the flag ignored: `table3` reads
    // no `--cases`, `--out` (which swallowed `--quick` as its value) is
    // `serve`'s, and `check` reads neither `--seed` nor `--cgs`.
    for (args, flag) in [
        (&["table3", "--cases", "5"][..], "--cases"),
        (&["table3", "--out", "--quick"], "--out"),
        (&["check", "--seed", "3", "--cgs", "8"], "--seed"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        assert!(out.stdout.is_empty(), "{args:?} ran something first");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with(&format!("ERROR: repro {flag}: ")) && stderr.lines().count() == 1,
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn serve_streams_a_line_and_writes_a_trace_per_executed_job() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_serve_stream");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let traces = dir.join("perfetto");
    let json = dir.join("c.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .args(["serve", "--demo", "4", "--workers", "2", "--no-cache"])
        .args(["--stream", "1", "--perfetto"])
        .arg(&traces)
        .arg("--out")
        .arg(&json)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{stderr}");
    let artifact = std::fs::read_to_string(&json).expect("read the campaign JSON");
    let executed: usize = artifact
        .split("\"executed\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .expect("an executed count");
    assert!(executed > 0, "no job ran");
    let streamed = stderr
        .lines()
        .filter(|l| l.starts_with("campaign: "))
        .count();
    assert_eq!(streamed, executed, "{stderr}");
    let keys: Vec<&str> = artifact
        .split("\"key\": \"")
        .skip(1)
        .map(|rest| &rest[..32])
        .collect();
    let mut written: Vec<String> = std::fs::read_dir(&traces)
        .expect("the trace directory")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    let mut expected: Vec<String> = keys.iter().map(|k| format!("{k}.perfetto.json")).collect();
    expected.sort();
    assert_eq!(written, expected);
}

#[test]
fn serve_fails_when_a_trace_cannot_be_written() {
    // The trace directory sits under a regular file, so it cannot be
    // created; the drain used to drop the trace, write the campaign JSON
    // and exit 0.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_serve_bad_trace");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("file"), "").unwrap();
    let traces = dir.join("file").join("traces");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .args(["serve", "--demo", "4", "--workers", "2", "--no-cache"])
        .arg("--perfetto")
        .arg(&traces)
        .args(["--out", "c.json"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.starts_with("ERROR: repro serve: ")
            && stderr.contains(&traces.display().to_string())
            && stderr.lines().count() == 1,
        "{stderr}"
    );
    assert!(
        !dir.join("c.json").exists(),
        "the campaign JSON was written"
    );
}

#[test]
fn experiments_md_lists_every_experiment() {
    // EXPERIMENTS.md names the targets `repro` accepts; one missing from
    // its list is a table a reader cannot find.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("nosuchthing")
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let names = stderr
        .split("experiments: ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .unwrap_or_else(|| panic!("no experiment list in {stderr:?}"));
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"))
        .expect("read EXPERIMENTS.md");
    let targets = doc
        .split("targets:")
        .nth(1)
        .and_then(|rest| rest.split(';').next())
        .expect("a target list in EXPERIMENTS.md");
    for name in names.split(' ') {
        assert!(
            targets.contains(&format!("`{name}`")),
            "EXPERIMENTS.md's target list has no `{name}`"
        );
    }
}

#[test]
fn ci_sh_runs_every_campaign_and_the_paper() {
    // Each campaign writes an artifact under results/, and ci.sh gates the
    // artifacts by regenerating them: a campaign without a stage there
    // leaves its committed file unchecked.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("nosuchthing")
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let campaigns = stderr
        .split("campaigns: ")
        .nth(1)
        .and_then(|rest| rest.split(';').next())
        .unwrap_or_else(|| panic!("no campaign list in {stderr:?}"));
    let ci = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci.sh"))
        .expect("read ci.sh");
    let stages: Vec<&str> = ci
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("repro "))
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    for name in campaigns.split(' ').chain(["all"]) {
        assert!(stages.contains(&name), "ci.sh has no `repro {name}` stage");
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
        // A repeated value flag used to run with its first value.
        (
            &["table3", "--seed", "1", "--seed", "2"],
            "--seed",
            "more than once",
        ),
        (
            &["table3", "--jobs", "1", "--jobs", "2"],
            "--jobs",
            "more than once",
        ),
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

/// The campaign names from the `repro nosuchthing` line.
fn campaign_names() -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("nosuchthing")
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let names = stderr
        .split("campaigns: ")
        .nth(1)
        .and_then(|rest| rest.split(';').next())
        .unwrap_or_else(|| panic!("no campaign list in {stderr:?}"));
    names.split(' ').map(str::to_string).collect()
}

/// `repro args` in `dir`: its exit code, stdout and stderr.
fn repro_in(dir: &std::path::Path, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn repro");
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn an_unwritable_results_directory_fails_every_subcommand_before_it_runs() {
    // With `results` a regular file, `analyze`, `comm`, `faults`, `scale`
    // and `table3 --csv` used to panic (exit 101, some after their whole
    // sweep), and `trace` and `serve` to fail without naming the path.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_results_file");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("results"), "").unwrap();
    let mut cases: Vec<(Vec<String>, &str)> = campaign_names()
        .into_iter()
        .map(|name| (vec![name], "results"))
        .collect();
    let csv = ["table3", "--csv", "results/csv"].map(String::from);
    cases.push((csv.to_vec(), "results/csv"));
    for (args, path) in cases {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let (code, stdout, stderr) = repro_in(&dir, &args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran something first: {stdout}");
        assert!(
            stderr.starts_with("ERROR: repro ")
                && stderr.contains(&format!(": {path}: "))
                && !stderr.contains("panicked")
                && stderr.lines().count() == 1,
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn a_failed_artifact_write_is_one_error_line_naming_the_path() {
    // `repro analyze` used to panic with exit 101 when its artifact could
    // not be written.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_artifact_dir");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("results/ANALYZE.json")).unwrap();
    let (code, _, stderr) = repro_in(&dir, &["analyze"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.starts_with("ERROR: repro analyze: results/ANALYZE.json: ")
            && stderr.lines().count() == 1,
        "{stderr}"
    );
}
