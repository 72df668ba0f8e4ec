//! `benchmark compare <setA> <setB>`: judges set B against set A on every
//! workload x end-to-end metric, with the bounds `BENCHMARK.json` fixes.
//!
//! A set is a directory with one subdirectory per workload, holding one
//! file per run whose last non-empty line is that run's result line (the
//! benchmark's standard output, redirected).

use crate::stats::quartiles;
use nextdoor_bench::jsonv::{parse, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric's contract.
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// Runs of one set: workload -> runs -> metric -> value.
type Set = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

/// The verdict on one metric and B's share of pairwise wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// `better`, `within bound`, `worse` or `unresolved`.
    pub label: &'static str,
    /// Share of all (a, b) pairs in which b reads better; ties count for
    /// neither side.
    pub win_share: f64,
}

/// Judges B against A. A set whose quartile spread exceeds the bound (as
/// a share of its median) leaves the metric unresolved unless every run
/// of B reads better than every run of A. Otherwise B is better when it
/// wins at least nine tenths of the pairs and the medians differ by more
/// than A's quartile spread, worse when its median is worse than A's by
/// more than the bound, and within bound otherwise.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let pairs = (a.len() * b.len()).max(1) as f64;
    let wins = a
        .iter()
        .flat_map(|&x| b.iter().map(move |&y| (x, y)))
        .filter(|&(x, y)| better(y, x))
        .count();
    let win_share = wins as f64 / pairs;
    let (qa1, ma, qa3) = quartiles(a);
    let (qb1, mb, qb3) = quartiles(b);
    let spread = |q1: f64, q3: f64, m: f64| (q3 - q1) / m.abs().max(f64::MIN_POSITIVE);
    let label = if spread(qa1, qa3, ma) > bound || spread(qb1, qb3, mb) > bound {
        if win_share == 1.0 {
            "better"
        } else {
            "unresolved"
        }
    } else if win_share >= 0.9 && better(mb, ma) && (mb - ma).abs() > qa3 - qa1 {
        "better"
    } else if better(ma, mb) && (mb - ma).abs() > bound * ma.abs() {
        "worse"
    } else {
        "within bound"
    };
    Verdict { label, win_share }
}

fn bounds(bench: &Json) -> Result<(Vec<String>, Vec<Bound>), String> {
    let list = |k: &str| {
        bench
            .get(k)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json lacks {k}"))
    };
    let workloads = list("workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let mut out = Vec::new();
    for m in list("end_to_end")? {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a metric without a name")?;
        let better = m
            .get("better")
            .and_then(Json::as_str)
            .ok_or("a metric without a direction")?;
        let Some(Json::Num(bound)) = m.get("bound") else {
            return Err(format!("{name} has no bound"));
        };
        out.push(Bound {
            name: name.to_string(),
            higher_is_better: better == "higher",
            bound: *bound,
        });
    }
    Ok((workloads, out))
}

fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for wl in entries.flatten().filter(|e| e.path().is_dir()) {
        let mut files: Vec<_> = std::fs::read_dir(wl.path())
            .map_err(|e| format!("{}: {e}", wl.path().display()))?
            .flatten()
            .map(|e| e.path())
            .collect();
        files.sort();
        let mut runs = Vec::new();
        for f in files {
            let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            let line = text
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .unwrap_or("");
            let v = parse(line).map_err(|e| format!("{}: {e}", f.display()))?;
            if v.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("{}: the run is not marked correct", f.display()));
            }
            let Some(Json::Obj(metrics)) = v.get("metrics") else {
                return Err(format!("{}: no metrics", f.display()));
            };
            let run = metrics
                .iter()
                .filter_map(|(k, m)| match m.get("value") {
                    Some(Json::Num(x)) => Some((k.clone(), *x)),
                    _ => None,
                })
                .collect();
            runs.push(run);
        }
        set.insert(wl.file_name().to_string_lossy().into_owned(), runs);
    }
    Ok(set)
}

/// Prints the comparison table. Exit status 0 when no metric is worse or
/// unresolved, 1 otherwise, 2 on bad input.
pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: benchmark compare <setA> <setB>   (run from the repository root)");
        return 2;
    };
    let loaded = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| parse(&t).map_err(|e| e.to_string()))
        .and_then(|j| bounds(&j))
        .and_then(|bw| Ok((bw, load_set(Path::new(a))?, load_set(Path::new(b))?)));
    let ((workloads, metrics), set_a, set_b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let mut clean = true;
    for w in &workloads {
        let (Some(ra), Some(rb)) = (set_a.get(w), set_b.get(w)) else {
            continue;
        };
        println!("\n== {w}: A {} runs, B {} runs ==", ra.len(), rb.len());
        println!(
            "{:<18} {:>30} {:>30} {:>8} {:>6}  verdict",
            "metric", "A median [q1, q3]", "B median [q1, q3]", "wins", "bound"
        );
        for m in &metrics {
            let va: Vec<f64> = ra.iter().filter_map(|r| r.get(&m.name).copied()).collect();
            let vb: Vec<f64> = rb.iter().filter_map(|r| r.get(&m.name).copied()).collect();
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, m.higher_is_better, m.bound);
            clean &= matches!(v.label, "better" | "within bound");
            let cell = |x: &[f64]| {
                let (q1, q2, q3) = quartiles(x);
                format!("{q2:.6e} [{q1:.4e}, {q3:.4e}]")
            };
            println!(
                "{:<18} {:>30} {:>30} {:>8.2} {:>6}  {}",
                m.name,
                cell(&va),
                cell(&vb),
                v.win_share,
                m.bound,
                v.label
            );
        }
    }
    i32::from(!clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rules() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same distribution: within bound, about half the pairs won.
        let v = verdict(&a, &a, true, 0.05);
        assert_eq!(v.label, "within bound");
        // Uniformly higher by 10%: better.
        let b: Vec<f64> = a.iter().map(|x| x * 1.1).collect();
        assert_eq!(verdict(&a, &b, true, 0.05).label, "better");
        // The same move on a lower-is-better metric: worse.
        assert_eq!(verdict(&a, &b, false, 0.05).label, "worse");
        // A spread wider than the bound: unresolved unless B wins every pair.
        let noisy = [50.0, 100.0, 150.0, 90.0, 120.0];
        assert_eq!(verdict(&noisy, &a, true, 0.05).label, "unresolved");
        assert_eq!(verdict(&noisy, &[200.0, 210.0], true, 0.05).label, "better");
    }
}
