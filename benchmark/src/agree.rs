//! `swbench agree <setA-dir> <setB-dir>`: do two sets of runs agree?
//!
//! A set is a directory holding the result files of several runs (any
//! depth of sub-directories, one per run). For every (workload, end-to-end
//! metric) the medians of the two sets are compared against the metric's
//! bound in `BENCHMARK.json`. A pair whose within-set quartile spread
//! exceeds the bound is *unresolved*, not unchanged: the sets cannot tell.
//! Values the seed fixes exactly (the virtual clock, operation counts) must
//! be bit-equal wherever both sets ran the same seed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::stats::quartiles;

/// One parsed result file.
struct RunFile {
    workload: String,
    seed: u64,
    trace: bool,
    /// Metric name -> value.
    values: BTreeMap<String, f64>,
}

fn load(path: &Path) -> Option<RunFile> {
    let doc = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    if doc.get("kind")?.as_str()? != "swbench-result" {
        return None;
    }
    let values = doc
        .get("metrics")?
        .as_obj()?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some(RunFile {
        workload: doc.get("workload")?.as_str()?.to_string(),
        seed: doc.get("seed")?.as_f64()? as u64,
        trace: doc.get("trace")? == &Json::Bool(true),
        values,
    })
}

/// Every result file under `dir`, sub-directories included.
fn load_set(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        for p in paths {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "json") {
                files.extend(load(&p));
            }
        }
    }
    if files.is_empty() {
        return Err(format!("{}: no swbench result files", dir.display()));
    }
    Ok(files)
}

/// An end-to-end or per-layer entry of `BENCHMARK.json`.
struct ManifestMetric {
    name: String,
    better_lower: bool,
    bound: Option<f64>,
}

fn manifest_metrics(doc: &Json, section: &str) -> Result<Vec<ManifestMetric>, String> {
    doc.get(section)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json: no `{section}` array"))?
        .iter()
        .map(|m| {
            Some(ManifestMetric {
                name: m.get("name")?.as_str()?.to_string(),
                better_lower: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect::<Option<_>>()
        .ok_or(format!("BENCHMARK.json: malformed `{section}` entry"))
}

/// Entry point of the subcommand; `Ok(true)` when the sets agree.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (mut dirs, mut manifest) = (Vec::new(), PathBuf::from("BENCHMARK.json"));
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--manifest" {
            manifest = PathBuf::from(it.next().ok_or("--manifest needs a path")?);
        } else {
            dirs.push(PathBuf::from(a));
        }
    }
    let [dir_a, dir_b] = dirs.as_slice() else {
        return Err("agree takes exactly two set directories".to_string());
    };
    let text =
        std::fs::read_to_string(&manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let end_to_end = manifest_metrics(&doc, "end_to_end")?;
    let (a, b) = (load_set(dir_a)?, load_set(dir_b)?);
    let (verdicts, table) = compare(&end_to_end, &a, &b);
    print!("{table}");
    let exact = exact_mismatches(&a, &b);
    for line in &exact {
        println!("EXACT MISMATCH {line}");
    }
    let bad = verdicts.iter().filter(|v| **v != Verdict::Agree).count() + exact.len();
    println!(
        "{} (metric, workload) pairs compared, {} not in agreement, {} exact mismatches",
        verdicts.len(),
        bad - exact.len(),
        exact.len()
    );
    Ok(bad == 0)
}

/// Outcome for one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Agree,
    Disagree,
    Unresolved,
    Missing,
}

fn values_of(set: &[RunFile], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|f| !f.trace && f.workload == workload)
        .filter_map(|f| f.values.get(metric).copied())
        .collect()
}

fn compare(metrics: &[ManifestMetric], a: &[RunFile], b: &[RunFile]) -> (Vec<Verdict>, String) {
    use std::fmt::Write as _;
    let mut workloads: Vec<&str> = a
        .iter()
        .chain(b)
        .filter(|f| !f.trace)
        .map(|f| f.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut table = format!(
        "{:<20} {:<12} {:>3} {:>12} {:>7} {:>3} {:>12} {:>7} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "nA",
        "median A",
        "IQR/med",
        "nB",
        "median B",
        "IQR/med",
        "B worse",
        "bound"
    );
    let mut verdicts = Vec::new();
    for w in workloads {
        for m in metrics {
            let bound = m.bound.unwrap_or(0.0);
            let (va, vb) = (values_of(a, w, &m.name), values_of(b, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(table, "{w:<20} {:<12} missing from a set", m.name);
                verdicts.push(Verdict::Missing);
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            // How much worse B's median is than A's, as a share of A's.
            let sign = if m.better_lower { 1.0 } else { -1.0 };
            let worse = sign * (qb.median - qa.median) / qa.median;
            let verdict = if qa.spread() > bound || qb.spread() > bound {
                Verdict::Unresolved
            } else if worse.abs() > bound {
                Verdict::Disagree
            } else {
                Verdict::Agree
            };
            let _ = writeln!(
                table,
                "{w:<20} {:<12} {:>3} {:>12.6} {:>7.4} {:>3} {:>12.6} {:>7.4} {:>+8.4} {:>6.2}  {}",
                m.name,
                qa.n,
                qa.median,
                qa.spread(),
                qb.n,
                qb.median,
                qb.spread(),
                worse,
                bound,
                match verdict {
                    Verdict::Agree => "agree",
                    Verdict::Disagree => "DISAGREE",
                    Verdict::Unresolved => "UNRESOLVED (spread above bound)",
                    Verdict::Missing => "missing",
                }
            );
            verdicts.push(verdict);
        }
    }
    (verdicts, table)
}

/// Exact metrics that differ between two runs of one (workload, seed,
/// mode), one description per mismatch.
fn exact_mismatches(a: &[RunFile], b: &[RunFile]) -> Vec<String> {
    let mut out = Vec::new();
    for fa in a {
        for fb in b {
            if (fa.workload.as_str(), fa.seed, fa.trace)
                != (fb.workload.as_str(), fb.seed, fb.trace)
            {
                continue;
            }
            for (name, va) in &fa.values {
                let exact = crate::ledger::metric(name).is_some_and(|d| d.exact);
                if let (true, Some(vb)) = (exact, fb.values.get(name)) {
                    if va.to_bits() != vb.to_bits() {
                        out.push(format!(
                            "{} seed {} {name}: {va:?} vs {vb:?}",
                            fa.workload, fa.seed
                        ));
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, wall: f64, virt: f64) -> RunFile {
        RunFile {
            workload: workload.to_string(),
            seed,
            trace: false,
            values: [
                ("wall_s".to_string(), wall),
                ("virt_step_s".to_string(), virt),
            ]
            .into_iter()
            .collect(),
        }
    }

    fn wall_metric() -> Vec<ManifestMetric> {
        vec![ManifestMetric {
            name: "wall_s".to_string(),
            better_lower: true,
            bound: Some(0.10),
        }]
    }

    #[test]
    fn close_sets_agree_and_far_sets_do_not() {
        let a: Vec<_> = (0..5)
            .map(|i| run("w", i, 2.50 + 0.01 * i as f64, 1.0))
            .collect();
        let near: Vec<_> = (0..5)
            .map(|i| run("w", i, 2.56 + 0.01 * i as f64, 1.0))
            .collect();
        let far: Vec<_> = (0..5)
            .map(|i| run("w", i, 2.90 + 0.01 * i as f64, 1.0))
            .collect();
        assert_eq!(compare(&wall_metric(), &a, &near).0, vec![Verdict::Agree]);
        assert_eq!(compare(&wall_metric(), &a, &far).0, vec![Verdict::Disagree]);
        assert_eq!(compare(&wall_metric(), &far, &a).0, vec![Verdict::Disagree]);
    }

    #[test]
    fn a_noisy_set_is_unresolved_not_unchanged() {
        let a: Vec<_> = (0..5).map(|i| run("w", i, 2.50, 1.0)).collect();
        let noisy: Vec<_> = (0..5)
            .map(|i| run("w", i, 2.0 + 0.3 * i as f64, 1.0))
            .collect();
        assert_eq!(
            compare(&wall_metric(), &a, &noisy).0,
            vec![Verdict::Unresolved]
        );
    }

    #[test]
    fn exact_values_must_be_bit_equal_for_a_shared_seed() {
        let a = vec![run("w", 1, 2.5, 1.25), run("w", 2, 2.5, 1.5)];
        let same = vec![run("w", 1, 2.6, 1.25), run("w", 3, 2.6, 9.0)];
        let off = vec![run("w", 2, 2.6, 1.5000000001)];
        assert!(exact_mismatches(&a, &same).is_empty());
        assert_eq!(exact_mismatches(&a, &off).len(), 1);
    }
}
