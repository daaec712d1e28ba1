//! Shared CLI conventions for the `repro` binary.
//!
//! Every `repro` subcommand that can partially fail reports it the same
//! way: one `ERROR: repro <subcommand>: <detail>` line on stderr and a
//! non-zero exit. ci.sh keys off both — the exit code for control flow, the
//! stderr line for log triage — so no subcommand is allowed to invent its
//! own failure dialect or to exit non-zero silently.

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
