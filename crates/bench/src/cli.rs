//! Shared CLI conventions for the `repro` binary.
//!
//! Every `repro` subcommand hands its result back as an [`Output`]: titled
//! sections, the files it produced and its violations. `repro` alone emits
//! it, on one path: it prints the sections, writes each file (one function
//! writes every file `repro` produces, and prints `wrote <path>` after the
//! write succeeded), then gates on the violations. A subcommand never
//! prints its report, writes its own artifact or exits by itself.
//!
//! Every failure is reported the same way: one `ERROR: repro <subcommand>:
//! <detail>` line on stderr and a non-zero exit, a failed write or
//! directory naming its path. ci.sh keys off both — the exit code for
//! control flow, the stderr line for log triage — so no subcommand is
//! allowed to invent its own failure dialect or to exit non-zero silently.

use std::path::PathBuf;

use crate::experiments::Section;

/// What one `repro` subcommand produced, for `repro` to emit.
#[derive(Default)]
pub struct Output {
    /// Titled sections for stdout, in order.
    pub sections: Vec<Section>,
    /// Lines for stderr: warnings, and failure details that a one-line
    /// violation leaves out.
    pub notes: Vec<String>,
    /// The files to write, in order, as (path, contents).
    pub files: Vec<(PathBuf, String)>,
    /// Every broken invariant, one line each; any fails the subcommand.
    pub violations: Vec<String>,
}

/// Print the uniform failure line and exit 1.
pub fn fail(subcmd: &str, detail: &str) -> ! {
    eprintln!("ERROR: repro {subcmd}: {detail}");
    std::process::exit(1);
}

/// [`fail`] naming every violation of a campaign's `violations()`; returns
/// when there are none.
pub fn gate(subcmd: &str, violations: &[String]) {
    if !violations.is_empty() {
        fail(subcmd, &violations.join("; "));
    }
}

/// Test support for the campaigns' negative tests: `corrupt` one field of a
/// passing outcome and assert that its `violations` name it. Returns the
/// corrupted outcome so the caller can also check the rendered artifact.
#[cfg(test)]
pub(crate) fn assert_names<T>(
    mut outcome: T,
    corrupt: &dyn Fn(&mut T),
    violations: impl Fn(&T) -> Vec<String>,
    needle: &str,
) -> T {
    corrupt(&mut outcome);
    let v = violations(&outcome);
    assert!(
        v.iter().any(|line| line.contains(needle)),
        "no violation names `{needle}`: {v:?}"
    );
    outcome
}
