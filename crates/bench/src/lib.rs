//! Shared harness for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index). They share the configuration,
//! dataset preparation and formatting helpers defined here.
//!
//! All binaries accept:
//!
//! * `--scale <f>`   — dataset scale factor relative to Table 3 (default 0.01)
//! * `--samples <n>` — samples per application run (default 2048)
//! * `--sms <n>`     — SMs of the simulated GPU (default 16, a 1/5 V100)
//! * `--seed <n>`    — RNG seed (default 42)
//! * `--threads <n>` — host worker threads for the simulator's launch pool
//!   and the CPU baselines (default: available parallelism)
//! * `--profile`     — export per-kernel JSON + chrome-trace files to
//!   `results/` (see [`BenchConfig::export_profile`])

use nextdoor_core::initial_samples_random;
use nextdoor_gpu::{Gpu, GpuSpec};
use nextdoor_graph::{Csr, Dataset, VertexId};
use std::path::{Path, PathBuf};

pub mod jsonv;

/// Configuration shared by all bench binaries.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Dataset scale factor relative to Table 3.
    pub scale: f64,
    /// Samples per run.
    pub samples: usize,
    /// Simulated GPU.
    pub gpu: GpuSpec,
    /// RNG seed.
    pub seed: u64,
    /// CPU threads for the CPU baselines.
    pub threads: usize,
    /// Whether to export per-kernel profile artifacts to `results/`.
    pub profile: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        let mut gpu = GpuSpec::v100();
        // A 1/20-scale V100 with launch overhead scaled by the same
        // factor. The paper's runs use millions of samples per step on 80
        // SMs; the benches use tens of thousands, so the machine is scaled
        // to keep the workload-to-machine ratio (and hence the
        // fixed-cost-to-work ratio every figure depends on) near the
        // paper's (DESIGN.md).
        gpu.num_sms = 4;
        gpu.cost.launch_overhead = 150.0;
        BenchConfig {
            scale: 0.005,
            samples: 16384,
            gpu,
            seed: 42,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            profile: false,
        }
    }
}

impl BenchConfig {
    /// Parses the common CLI flags; unknown flags abort with usage help.
    pub fn from_args() -> Self {
        let mut cfg = BenchConfig::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
                    .clone()
            };
            match flag.as_str() {
                "--scale" => cfg.scale = value("--scale").parse().expect("numeric --scale"),
                "--samples" => cfg.samples = value("--samples").parse().expect("integer --samples"),
                "--sms" => cfg.gpu.num_sms = value("--sms").parse().expect("integer --sms"),
                "--seed" => cfg.seed = value("--seed").parse().expect("integer --seed"),
                "--threads" => {
                    let n: usize = value("--threads").parse().expect("integer --threads");
                    assert!(n > 0, "--threads must be positive");
                    cfg.threads = n;
                    cfg.gpu.host_threads = n;
                }
                "--profile" => cfg.profile = true,
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale <f> --samples <n> --sms <n> --seed <n> --threads <n> \
                         --profile (see DESIGN.md)"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        cfg
    }

    /// Generates the weighted, scaled stand-in for `dataset`.
    pub fn graph(&self, dataset: Dataset) -> Csr {
        dataset
            .generate(self.scale, self.seed)
            .with_random_weights(1.0, 5.0, self.seed ^ 0x77)
    }

    /// Root sets for walk-style applications: one random vertex per sample.
    ///
    /// DeepWalk-style training walks from *every* vertex, so the walker
    /// count is at least the vertex count — this is also what gives
    /// transit-parallelism its sharing (hubs attract many walkers).
    pub fn walk_init(&self, graph: &Csr) -> Vec<Vec<VertexId>> {
        let n = self.samples.max(graph.num_vertices());
        initial_samples_random(graph, n, 1, self.seed ^ 0x1001).expect("bench graphs are non-empty")
    }

    /// Root sets for multi-dimensional walks (100 roots per sample, as in
    /// the paper, scaled down alongside the sample budget).
    pub fn multirw_init(&self, graph: &Csr) -> Vec<Vec<VertexId>> {
        let per = 100usize;
        initial_samples_random(graph, (self.samples / 8).max(32), per, self.seed ^ 0x1002)
            .expect("bench graphs are non-empty")
    }

    /// Batches for importance sampling (batch size 64, as in the paper).
    pub fn batch_init(&self, graph: &Csr) -> Vec<Vec<VertexId>> {
        initial_samples_random(graph, (self.samples / 8).max(32), 64, self.seed ^ 0x1003)
            .expect("bench graphs are non-empty")
    }

    /// Directory the bench binaries drop artifacts into (created on
    /// demand).
    pub fn results_dir(&self) -> PathBuf {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir).expect("can create results/");
        dir
    }

    /// Exports the device's profile as `results/profile_<label>.json` (the
    /// per-kernel Table 4 view) and `results/profile_<label>.trace.json`
    /// (a `chrome://tracing` / Perfetto file laid out by SM). No-op unless
    /// `--profile` was passed.
    pub fn export_profile(&self, label: &str, gpu: &Gpu) {
        if !self.profile {
            return;
        }
        let dir = self.results_dir();
        let report = dir.join(format!("profile_{label}.json"));
        let trace = dir.join(format!("profile_{label}.trace.json"));
        nextdoor_gpu::write_kernel_report(&report, gpu.spec(), gpu.profile())
            .expect("can write profile report");
        nextdoor_gpu::write_chrome_trace(&trace, gpu.spec(), &[(label, gpu.profile())])
            .expect("can write chrome trace");
        eprintln!(
            "profile: wrote {} and {}",
            report.display(),
            trace.display()
        );
    }

    /// Exports a serving tier's observability artifacts:
    /// `results/fleet_<label>.trace.json` (the chrome://tracing fleet
    /// timeline with one track per replica plus batcher/queue tracks, flow
    /// arrows into each device's per-SM lanes) and
    /// `results/metrics_<label>.json` (the deterministic metrics
    /// snapshot). `devices[r]` is replica `r`'s label and kernel profile —
    /// a single-session batcher passes its one device. No-op unless
    /// `--profile` was passed.
    pub fn export_fleet_obs(
        &self,
        label: &str,
        spec: &GpuSpec,
        tracer: &nextdoor_serve::Tracer,
        metrics: &nextdoor_serve::ServeMetrics,
        devices: &[(&str, &nextdoor_gpu::Profile)],
    ) {
        if !self.profile {
            return;
        }
        let dir = self.results_dir();
        let trace = dir.join(format!("fleet_{label}.trace.json"));
        let report = dir.join(format!("metrics_{label}.json"));
        nextdoor_serve::write_fleet_trace(&trace, spec, tracer, devices)
            .expect("can write fleet trace");
        metrics
            .write_json(&report, label)
            .expect("can write metrics report");
        eprintln!(
            "profile: wrote {} and {}",
            trace.display(),
            report.display()
        );
    }
}

/// Writes `section` (a JSON value) as the top-level member `key` of the
/// JSON object in the file at `path`, replacing an existing `key` in place
/// or appending it; a missing, unreadable or empty file becomes a one-key
/// object.
///
/// # Errors
///
/// A failed write, and [`std::io::ErrorKind::InvalidData`] when the file
/// holds something other than one JSON object.
pub fn write_section(path: impl AsRef<Path>, key: &str, section: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    let doc = std::fs::read_to_string(path).unwrap_or_default();
    let spliced = splice_section(&doc, key, section)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(path, spliced)?;
    println!("wrote {key} section into {}", path.display());
    Ok(())
}

fn splice_section(doc: &str, key: &str, section: &str) -> Result<String, jsonv::ParseError> {
    let doc = if doc.trim().is_empty() { "{}" } else { doc };
    let members = jsonv::object_members(doc)?;
    // `jsonv::parse` keeps the last of duplicate keys, so replace that one.
    if let Some((_, r)) = members.iter().rev().find(|(k, _)| k == key) {
        return Ok(format!("{}{section}{}", &doc[..r.start], &doc[r.end..]));
    }
    // Append before the `}` that ends a well-formed object.
    let body = doc[..doc.trim_end().len() - 1].trim_end();
    let sep = if members.is_empty() { "" } else { "," };
    Ok(format!("{body}{sep}\n  \"{key}\": {section}\n}}\n"))
}

/// How an application's initial samples are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppInit {
    /// One random root per sample (walks, k-hop).
    Walk,
    /// One random root per sample with a capped sample count (layer
    /// sampling's combined neighbourhoods are ~`m × avg_degree` vertices
    /// per sample, so its batches are far smaller in practice).
    LayerRoots,
    /// 100 random roots per sample (multi-dimensional walks).
    MultiRw,
    /// 64-vertex batches (importance sampling, MVS).
    Batch,
    /// Unions of clusters (ClusterGCN).
    Cluster,
}

impl BenchConfig {
    /// Builds initial samples of the given shape.
    pub fn init_for(&self, graph: &Csr, kind: AppInit) -> Vec<Vec<VertexId>> {
        match kind {
            AppInit::Walk => self.walk_init(graph),
            AppInit::LayerRoots => {
                initial_samples_random(graph, (self.samples / 4).max(64), 1, self.seed ^ 0x1001)
                    .expect("bench graphs are non-empty")
            }
            AppInit::MultiRw => self.multirw_init(graph),
            AppInit::Batch => self.batch_init(graph),
            AppInit::Cluster => {
                let clustering = nextdoor_graph::cluster_vertices(
                    graph,
                    (graph.num_vertices() / 64).max(8),
                    self.seed ^ 0x1004,
                )
                .expect("bench graphs have more vertices than clusters");
                nextdoor_apps::cluster_gcn_samples(
                    graph,
                    &clustering,
                    4,
                    (self.samples / 16).max(16),
                    self.seed ^ 0x1005,
                )
            }
        }
    }
}

/// The ten benchmark applications paired with their initial-sample shapes,
/// using the paper's parameters (§8 "Benchmarks") except where scale
/// dictates smaller collective budgets (documented in DESIGN.md).
pub fn benchmark_suite() -> Vec<(Box<dyn nextdoor_core::SamplingApp + Send>, AppInit)> {
    use nextdoor_apps as apps;
    vec![
        (Box::new(apps::DeepWalk::new(100)) as _, AppInit::Walk),
        (Box::new(apps::Ppr::new(0.01)) as _, AppInit::Walk),
        (
            Box::new(apps::Node2Vec::new(100, 2.0, 0.5)) as _,
            AppInit::Walk,
        ),
        (Box::new(apps::MultiRw::new(100)) as _, AppInit::MultiRw),
        (Box::new(apps::KHop::graphsage()) as _, AppInit::Walk),
        (Box::new(apps::Mvs::default()) as _, AppInit::Batch),
        (
            Box::new(apps::Layer::new(250, 500)) as _,
            AppInit::LayerRoots,
        ),
        (Box::new(apps::FastGcn::new(2, 64)) as _, AppInit::Batch),
        (Box::new(apps::Ladies::new(2, 64)) as _, AppInit::Batch),
        (Box::new(apps::ClusterGcn::new(64)) as _, AppInit::Cluster),
    ]
}

/// Prints a table header followed by an underline.
pub fn header(title: &str, columns: &[&str]) {
    println!("\n== {title} ==");
    let row = columns
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{row}");
    println!("{}", "-".repeat(row.len()));
}

/// Prints one row: a left-aligned label plus right-aligned cells.
pub fn row(label: &str, cells: &[String]) {
    let cells = cells
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{label:>14} {cells}");
}

/// Formats a speedup factor.
pub fn speedup(base_ms: f64, new_ms: f64) -> String {
    if new_ms <= 0.0 {
        "n/a".into()
    } else {
        format!("{:.2}x", base_ms / new_ms)
    }
}

/// Formats milliseconds.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}ms")
    } else {
        format!("{v:.2}ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = BenchConfig::default();
        assert!(cfg.scale > 0.0);
        assert!(cfg.samples > 0);
        assert!(cfg.gpu.num_sms > 0);
        assert!(cfg.threads > 0);
    }

    #[test]
    fn graph_and_inits_respect_config() {
        let cfg = BenchConfig {
            samples: 128,
            ..BenchConfig::default()
        };
        let g = cfg.graph(Dataset::Ppi);
        assert!(g.is_weighted());
        let init = cfg.walk_init(&g);
        assert_eq!(init.len(), 128.max(g.num_vertices()));
        assert!(init.iter().all(|s| s.len() == 1));
        let mrw = cfg.multirw_init(&g);
        assert!(mrw.iter().all(|s| s.len() == 100));
        let b = cfg.batch_init(&g);
        assert!(b.iter().all(|s| s.len() == 64));
    }

    #[test]
    fn splicing_a_section_twice_keeps_one_copy() {
        let doc = "{\n  \"a\": 1\n}\n";
        let once = splice_section(doc, "x", "{\"v\": 1}").unwrap();
        let twice = splice_section(&once, "x", "{\"v\": 2}").unwrap();
        assert_eq!(twice.matches("\"x\"").count(), 1);
        let parsed = jsonv::parse(&twice).unwrap();
        assert_eq!(parsed.get("a"), Some(&jsonv::Json::Num(1.0)));
        assert_eq!(
            parsed.get("x").and_then(|x| x.get("v")),
            Some(&jsonv::Json::Num(2.0))
        );
        assert_eq!(twice, "{\n  \"a\": 1,\n  \"x\": {\"v\": 2}\n}\n");
    }

    #[test]
    fn splicing_into_a_missing_or_empty_file_gives_one_key() {
        let path = std::env::temp_dir().join(format!("splice-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        for _ in 0..2 {
            // First pass: no file. Second pass: an empty file.
            write_section(&path, "x", "[1]").unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            let members = jsonv::object_members(&text).unwrap();
            assert_eq!(members.len(), 1);
            assert_eq!(&text[members[0].1.clone()], "[1]");
            std::fs::write(&path, "").unwrap();
        }
        std::fs::remove_file(&path).unwrap();
        assert!(splice_section("{\"a\": 1", "x", "1").is_err());
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(speedup(10.0, 2.0), "5.00x");
        assert_eq!(speedup(10.0, 0.0), "n/a");
    }
}
