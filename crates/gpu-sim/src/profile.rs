//! Per-kernel profiling and trace export.
//!
//! The paper argues every claim through per-kernel `nvprof` hardware
//! counters (Table 4, Figures 6-10): load/store transactions of *this*
//! kernel, multiprocessor activity of *this* launch. The global
//! [`Counters`] accumulator cannot attribute cost that way, so the device
//! additionally keeps a bounded [`Profile`] buffer: every [`crate::Gpu::launch`]
//! appends a [`KernelRecord`] (launch geometry, simulated interval, counter
//! deltas, occupancy, per-SM busy time, shared-memory footprint) and every
//! host↔device transfer appends a [`TransferRecord`].
//!
//! Two exporters turn a profile into artifacts:
//!
//! * [`write_kernel_report`] — a per-kernel JSON report (the Table 4 view);
//! * [`write_chrome_trace`] — a `chrome://tracing` / Perfetto event file
//!   laid out by SM, with transfers on a dedicated PCIe track.
//!
//! # Conservation
//!
//! The buffer is bounded: past [`Profile::capacity`] events the oldest
//! records are folded into an *evicted* aggregate instead of being dropped,
//! so [`Profile::total_counters`] always reproduces the device's global
//! [`Counters`] **exactly** (bit-identical `f64` sums, because events are
//! folded in the same chronological order the global accumulator saw them).
//! Tests assert this conservation property for every engine.

use std::collections::VecDeque;
use std::io::{self, Write as _};
use std::ops::Range;
use std::path::Path;

use crate::counters::Counters;
use crate::spec::GpuSpec;

/// Default bound on buffered profile events.
pub const DEFAULT_PROFILE_CAPACITY: usize = 1 << 16;

/// One kernel launch, as recorded by [`crate::Gpu::launch`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelRecord {
    /// Name the kernel was launched under.
    pub name: String,
    /// Monotonic launch index on the device.
    pub launch_idx: u64,
    /// Number of thread blocks.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Device-global cycle count when the launch started.
    pub start_cycles: f64,
    /// Simulated makespan of the launch in cycles.
    pub cycles: f64,
    /// Counter deltas attributable to this launch.
    pub counters: Counters,
    /// Achieved occupancy: resident warps over the SM's warp capacity,
    /// in `[0, 1]`.
    pub occupancy: f64,
    /// Busy cycles of each SM during this launch.
    pub per_sm_busy: Vec<f64>,
    /// Peak shared memory used by any block, in bytes.
    pub shared_mem_bytes: usize,
}

impl KernelRecord {
    /// Busy fraction of the SMs over this launch's makespan, as a
    /// percentage (the per-launch `multiprocessor_activity`).
    pub fn activity(&self) -> f64 {
        self.counters.multiprocessor_activity()
    }
}

/// Direction of a host↔device transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDir {
    /// Host to device.
    HtoD,
    /// Device to host.
    DtoH,
}

/// One host↔device transfer, as recorded by the `charge_*` paths.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRecord {
    /// Direction of the transfer.
    pub dir: TransferDir,
    /// Bytes moved.
    pub bytes: u64,
    /// Device-global cycle count when the transfer started.
    pub start_cycles: f64,
    /// Cycles charged (zero while transfer charging is disabled).
    pub cycles: f64,
}

impl TransferRecord {
    /// The counter deltas this transfer contributed to the global
    /// accumulator.
    pub fn as_counters(&self) -> Counters {
        let mut c = Counters {
            cycles: self.cycles,
            ..Counters::default()
        };
        match self.dir {
            TransferDir::HtoD => c.htod_bytes = self.bytes,
            TransferDir::DtoH => c.dtoh_bytes = self.bytes,
        }
        c
    }
}

/// A profile event: a kernel launch or a transfer, in chronological order.
// Kernel events dominate the ring (transfers happen a handful of times per
// run), so boxing the large variant would cost an allocation per event to
// shrink the rare one — not worth it.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileEvent {
    /// A kernel launch.
    Kernel(KernelRecord),
    /// A host↔device transfer.
    Transfer(TransferRecord),
}

impl ProfileEvent {
    fn kernel(&self) -> Option<&KernelRecord> {
        match self {
            ProfileEvent::Kernel(k) => Some(k),
            ProfileEvent::Transfer(_) => None,
        }
    }

    /// The counter deltas this event contributed to the global accumulator.
    pub fn counters(&self) -> Counters {
        match self {
            ProfileEvent::Kernel(k) => k.counters,
            ProfileEvent::Transfer(t) => t.as_counters(),
        }
    }
}

/// Bounded per-device profile buffer.
///
/// Events beyond [`Profile::capacity`] evict the oldest event into an
/// aggregate (see the module docs on conservation).
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    capacity: usize,
    events: VecDeque<ProfileEvent>,
    evicted: Counters,
    evicted_events: u64,
}

impl Default for Profile {
    fn default() -> Self {
        Profile::with_capacity(DEFAULT_PROFILE_CAPACITY)
    }
}

impl Profile {
    /// Creates a buffer bounded at `capacity` events (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Profile {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            evicted: Counters::default(),
            evicted_events: 0,
        }
    }

    /// The event bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ProfileEvent> {
        self.events.iter()
    }

    /// Buffered kernel launches, oldest first.
    pub fn kernels(&self) -> impl Iterator<Item = &KernelRecord> {
        self.events.iter().filter_map(ProfileEvent::kernel)
    }

    /// The kernel records of the launches in `launches`, oldest first, and
    /// how many of those launches the ring no longer holds.
    ///
    /// The device numbers its launches 0, 1, 2, … and records every one, so
    /// a range's records are one contiguous run of the ring, and eviction
    /// takes its oldest first. The walk starts at the newest event and stops
    /// at the first kernel older than the range, so it reads only the range
    /// and what came after it. The missing count is 0 exactly when every
    /// launch of the range is still buffered.
    pub fn kernels_in(&self, launches: Range<u64>) -> (impl Iterator<Item = &KernelRecord>, u64) {
        let start = self
            .events
            .iter()
            .rposition(|e| matches!(e, ProfileEvent::Kernel(k) if k.launch_idx < launches.start))
            .map_or(0, |i| i + 1);
        let mut kernels = self
            .events
            .range(start..)
            .filter_map(ProfileEvent::kernel)
            .take_while(move |k| k.launch_idx < launches.end)
            .peekable();
        let held_from = kernels.peek().map_or(launches.end, |k| k.launch_idx);
        (kernels, held_from.saturating_sub(launches.start))
    }

    /// Buffered transfers, oldest first.
    pub fn transfers(&self) -> impl Iterator<Item = &TransferRecord> {
        self.events.iter().filter_map(|e| match e {
            ProfileEvent::Transfer(t) => Some(t),
            ProfileEvent::Kernel(_) => None,
        })
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events folded into the evicted aggregate after the buffer filled.
    pub fn evicted_events(&self) -> u64 {
        self.evicted_events
    }

    /// Counter deltas of all evicted events.
    pub fn evicted_counters(&self) -> &Counters {
        &self.evicted
    }

    /// Sum of every event recorded since the last reset — evicted and
    /// buffered, in chronological order. Equals the device's global
    /// [`Counters`] exactly.
    pub fn total_counters(&self) -> Counters {
        let mut total = self.evicted;
        for e in &self.events {
            total.merge(&e.counters());
        }
        total
    }

    pub(crate) fn push(&mut self, event: ProfileEvent) {
        if self.events.len() == self.capacity {
            if let Some(old) = self.events.pop_front() {
                self.evicted.merge(&old.counters());
                self.evicted_events += 1;
            }
        }
        self.events.push_back(event);
    }

    pub(crate) fn clear(&mut self) {
        self.events.clear();
        self.evicted = Counters::default();
        self.evicted_events = 0;
    }
}

/// Whole-profile aggregate for one kernel name, as reported by
/// [`write_kernel_report`] (the per-kernel Table 4 view).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelSummary {
    /// Kernel name.
    pub name: String,
    /// Launches under this name.
    pub launches: u64,
    /// Total simulated cycles across those launches.
    pub cycles: f64,
    /// Summed counter deltas.
    pub counters: Counters,
    /// Launch-averaged achieved occupancy, in `[0, 1]`.
    pub avg_occupancy: f64,
    /// Peak shared memory of any launch, in bytes.
    pub max_shared_mem_bytes: usize,
}

/// Aggregates kernel records (e.g. [`Profile::kernels`]) by name, ordered
/// by total cycles (descending). Deterministic: ties keep first-launch
/// order.
pub fn summarize_kernels<'a>(
    kernels: impl IntoIterator<Item = &'a KernelRecord>,
) -> Vec<KernelSummary> {
    let mut order: Vec<KernelSummary> = Vec::new();
    for k in kernels {
        let idx = match order.iter().position(|s| s.name == k.name) {
            Some(i) => i,
            None => {
                order.push(KernelSummary {
                    name: k.name.clone(),
                    ..KernelSummary::default()
                });
                order.len() - 1
            }
        };
        let entry = &mut order[idx];
        entry.launches += 1;
        entry.cycles += k.cycles;
        entry.counters.merge(&k.counters);
        entry.avg_occupancy += k.occupancy;
        entry.max_shared_mem_bytes = entry.max_shared_mem_bytes.max(k.shared_mem_bytes);
    }
    for s in &mut order {
        if s.launches > 0 {
            s.avg_occupancy /= s.launches as f64;
        }
    }
    order.sort_by(|a, b| b.cycles.total_cmp(&a.cycles));
    order
}

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes, control characters). Exposed so higher layers emitting
/// hand-written JSON (the serving tier's exporters) escape identically.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn counters_json(c: &Counters) -> String {
    format!(
        "{{\"gld_requests\":{},\"gld_transactions\":{},\"gst_requests\":{},\
         \"gst_transactions\":{},\"gld_efficiency\":{:.2},\"gst_efficiency\":{:.2},\
         \"atomics\":{},\"shared_loads\":{},\"shared_stores\":{},\"shuffles\":{},\
         \"compute_ops\":{},\"rand_draws\":{},\"divergent_branches\":{},\"barriers\":{},\
         \"launches\":{},\"htod_bytes\":{},\"dtoh_bytes\":{},\"cycles\":{:.3},\
         \"multiprocessor_activity\":{:.2}}}",
        c.gld_requests,
        c.gld_transactions,
        c.gst_requests,
        c.gst_transactions,
        c.gld_efficiency(),
        c.gst_efficiency(),
        c.atomics,
        c.shared_loads,
        c.shared_stores,
        c.shuffles,
        c.compute_ops,
        c.rand_draws,
        c.divergent_branches,
        c.barriers,
        c.launches,
        c.htod_bytes,
        c.dtoh_bytes,
        c.cycles,
        c.multiprocessor_activity(),
    )
}

/// Writes the per-kernel JSON report: one entry per kernel name with its
/// launch count, simulated time, counter deltas and derived nvprof-style
/// metrics, plus transfer totals, the evicted aggregate and the exact
/// whole-run totals.
pub fn write_kernel_report(path: &Path, spec: &GpuSpec, profile: &Profile) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{")?;
    writeln!(
        f,
        "  \"device\": {{\"num_sms\": {}, \"clock_ghz\": {}}},",
        spec.num_sms, spec.clock_ghz
    )?;
    writeln!(f, "  \"kernels\": [")?;
    let summaries = summarize_kernels(profile.kernels());
    for (i, s) in summaries.iter().enumerate() {
        let comma = if i + 1 < summaries.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"name\":\"{}\",\"launches\":{},\"cycles\":{:.3},\"ms\":{:.6},\
             \"avg_occupancy\":{:.4},\"max_shared_mem_bytes\":{},\"counters\":{}}}{comma}",
            json_escape(&s.name),
            s.launches,
            s.cycles,
            spec.cycles_to_ms(s.cycles),
            s.avg_occupancy,
            s.max_shared_mem_bytes,
            counters_json(&s.counters),
        )?;
    }
    writeln!(f, "  ],")?;
    let (mut htod, mut dtoh, mut tcycles, mut tcount) = (0u64, 0u64, 0.0f64, 0u64);
    for t in profile.transfers() {
        match t.dir {
            TransferDir::HtoD => htod += t.bytes,
            TransferDir::DtoH => dtoh += t.bytes,
        }
        tcycles += t.cycles;
        tcount += 1;
    }
    writeln!(
        f,
        "  \"transfers\": {{\"count\":{tcount},\"htod_bytes\":{htod},\"dtoh_bytes\":{dtoh},\
         \"cycles\":{tcycles:.3}}},"
    )?;
    writeln!(
        f,
        "  \"evicted\": {{\"events\":{},\"counters\":{}}},",
        profile.evicted_events(),
        counters_json(profile.evicted_counters()),
    )?;
    writeln!(
        f,
        "  \"totals\": {}",
        counters_json(&profile.total_counters())
    )?;
    writeln!(f, "}}")?;
    f.flush()
}

/// Incremental writer for `chrome://tracing` / Perfetto event files.
///
/// [`write_chrome_trace`] lays down one process per device with an SM lane
/// per thread; higher layers — the serving tier's fleet timeline — reuse
/// the same writer to add their own tracks (batcher, scheduler, replicas)
/// in the *same* file and emit flow events linking a serving-tier span to
/// the kernel slice it launched, addressed by launch index via
/// [`kernel_anchor`]. Events may be appended in any order; trace viewers
/// sort by timestamp.
pub struct ChromeTraceWriter {
    f: io::BufWriter<std::fs::File>,
    first: bool,
}

impl ChromeTraceWriter {
    /// Opens `path` and writes the trace header.
    pub fn create(path: &Path) -> io::Result<Self> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        Ok(ChromeTraceWriter { f, first: true })
    }

    /// Appends one raw JSON event object (no trailing comma); the writer
    /// handles separators. Escape hatch for event shapes without a typed
    /// helper below.
    pub fn raw_event(&mut self, json: &str) -> io::Result<()> {
        if !self.first {
            writeln!(self.f, ",")?;
        }
        self.first = false;
        write!(self.f, "{json}")
    }

    /// Names the process (track group) `pid`.
    pub fn process_name(&mut self, pid: usize, name: &str) -> io::Result<()> {
        self.raw_event(&format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ))
    }

    /// Names thread lane `tid` of process `pid`.
    pub fn thread_name(&mut self, pid: usize, tid: usize, name: &str) -> io::Result<()> {
        self.raw_event(&format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ))
    }

    /// A complete (`"ph":"X"`) duration slice. `args_json` must be a full
    /// JSON object (pass `"{}"` for none).
    pub fn complete(
        &mut self,
        pid: usize,
        tid: usize,
        ts_us: f64,
        dur_us: f64,
        name: &str,
        args_json: &str,
    ) -> io::Result<()> {
        self.raw_event(&format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us:.3},\
             \"dur\":{dur_us:.3},\"name\":\"{}\",\"args\":{args_json}}}",
            json_escape(name)
        ))
    }

    /// A thread-scoped instant (`"ph":"i"`) marker.
    pub fn instant(
        &mut self,
        pid: usize,
        tid: usize,
        ts_us: f64,
        name: &str,
        args_json: &str,
    ) -> io::Result<()> {
        self.raw_event(&format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us:.3},\
             \"name\":\"{}\",\"args\":{args_json}}}",
            json_escape(name)
        ))
    }

    /// A counter (`"ph":"C"`) sample: renders `series` as a stacked area
    /// chart named `name` under process `pid`.
    pub fn counter(
        &mut self,
        pid: usize,
        ts_us: f64,
        name: &str,
        series: &str,
        value: f64,
    ) -> io::Result<()> {
        self.raw_event(&format!(
            "{{\"ph\":\"C\",\"pid\":{pid},\"ts\":{ts_us:.3},\"name\":\"{}\",\
             \"args\":{{\"{}\":{value:.3}}}}}",
            json_escape(name),
            json_escape(series)
        ))
    }

    /// Starts a flow arrow (`"ph":"s"`) with identity `id` at the given
    /// slice. Pair with [`ChromeTraceWriter::flow_finish`] under the same
    /// `id` to draw the link.
    pub fn flow_start(&mut self, id: u64, pid: usize, tid: usize, ts_us: f64) -> io::Result<()> {
        self.raw_event(&format!(
            "{{\"ph\":\"s\",\"cat\":\"link\",\"name\":\"launch-link\",\"id\":{id},\
             \"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us:.3}}}"
        ))
    }

    /// Ends flow arrow `id` at the given slice (binds to the enclosing
    /// slice, `"bp":"e"`).
    pub fn flow_finish(&mut self, id: u64, pid: usize, tid: usize, ts_us: f64) -> io::Result<()> {
        self.raw_event(&format!(
            "{{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"link\",\"name\":\"launch-link\",\"id\":{id},\
             \"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us:.3}}}"
        ))
    }

    /// Lays out one device as process `pid`: an SM lane per thread carrying
    /// the kernel launches whose blocks kept it busy (duration = that SM's
    /// busy cycles), and a dedicated `PCIe` lane carrying the transfers.
    /// Timestamps are the device-global simulated time in microseconds.
    pub fn device(
        &mut self,
        pid: usize,
        label: &str,
        spec: &GpuSpec,
        profile: &Profile,
    ) -> io::Result<()> {
        let to_us = |cycles: f64| cycles / (spec.clock_ghz * 1e3);
        self.process_name(pid, label)?;
        for sm in 0..spec.num_sms {
            self.thread_name(pid, sm, &format!("SM {sm}"))?;
        }
        let pcie_tid = spec.num_sms;
        self.thread_name(pid, pcie_tid, "PCIe")?;
        for event in profile.events() {
            match event {
                ProfileEvent::Kernel(k) => {
                    for (sm, &busy) in k.per_sm_busy.iter().enumerate() {
                        if busy <= 0.0 {
                            continue;
                        }
                        self.complete(
                            pid,
                            sm,
                            to_us(k.start_cycles),
                            to_us(busy),
                            &k.name,
                            &format!(
                                "{{\"launch\":{},\"grid\":{},\"block\":{},\
                                 \"occupancy\":{:.3},\"gld_transactions\":{},\
                                 \"gst_transactions\":{},\"shared_mem_bytes\":{}}}",
                                k.launch_idx,
                                k.grid_dim,
                                k.block_dim,
                                k.occupancy,
                                k.counters.gld_transactions,
                                k.counters.gst_transactions,
                                k.shared_mem_bytes,
                            ),
                        )?;
                    }
                }
                ProfileEvent::Transfer(t) => {
                    let name = match t.dir {
                        TransferDir::HtoD => "HtoD",
                        TransferDir::DtoH => "DtoH",
                    };
                    self.complete(
                        pid,
                        pcie_tid,
                        to_us(t.start_cycles),
                        to_us(t.cycles),
                        name,
                        &format!("{{\"bytes\":{}}}", t.bytes),
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Writes the trace footer and flushes the file.
    pub fn finish(mut self) -> io::Result<()> {
        writeln!(self.f)?;
        writeln!(self.f, "]}}")?;
        self.f.flush()
    }
}

/// Locates the kernel slice a span-link flow should land on: the first
/// retained kernel record whose `launch_idx` falls in the half-open range
/// `[range.0, range.1)`, returned as `(launch_idx, sm_lane, start_cycles)`
/// where `sm_lane` is the first SM lane rendering a slice for it. `None`
/// when the range kept no kernel (all evicted from the bounded ring, or
/// the range is empty).
pub fn kernel_anchor(profile: &Profile, range: (u64, u64)) -> Option<(u64, usize, f64)> {
    let k = profile.kernels_in(range.0..range.1).0.next()?;
    let sm = k.per_sm_busy.iter().position(|&b| b > 0.0)?;
    Some((k.launch_idx, sm, k.start_cycles))
}

/// Writes a `chrome://tracing` / Perfetto event file.
///
/// Each device is a process; each SM is a thread lane carrying the
/// kernel launches whose blocks kept it busy (duration = that SM's busy
/// cycles), and a dedicated `PCIe` lane carries the transfers. Timestamps
/// are the device-global simulated time converted to microseconds.
pub fn write_chrome_trace(
    path: &Path,
    spec: &GpuSpec,
    devices: &[(&str, &Profile)],
) -> io::Result<()> {
    let mut w = ChromeTraceWriter::create(path)?;
    for (pid, (label, profile)) in devices.iter().enumerate() {
        w.device(pid, label, spec, profile)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(name: &str, idx: u64, cycles: f64, gld: u64) -> KernelRecord {
        KernelRecord {
            name: name.to_string(),
            launch_idx: idx,
            grid_dim: 2,
            block_dim: 64,
            start_cycles: idx as f64 * 100.0,
            cycles,
            counters: Counters {
                gld_transactions: gld,
                cycles,
                launches: 1,
                ..Counters::default()
            },
            occupancy: 0.5,
            per_sm_busy: vec![cycles, cycles / 2.0],
            shared_mem_bytes: 128,
        }
    }

    #[test]
    fn eviction_preserves_totals() {
        let mut p = Profile::with_capacity(2);
        for i in 0..5 {
            p.push(ProfileEvent::Kernel(kernel("k", i, 10.0, 3)));
        }
        assert_eq!(p.len(), 2);
        assert_eq!(p.evicted_events(), 3);
        let total = p.total_counters();
        assert_eq!(total.gld_transactions, 15);
        assert_eq!(total.launches, 5);
        assert!((total.cycles - 50.0).abs() < 1e-12);
    }

    #[test]
    fn kernels_in_reads_its_range_across_the_wrap() {
        let mut p = Profile::with_capacity(4);
        let held = |p: &Profile, launches: Range<u64>| {
            let (ks, missing) = p.kernels_in(launches);
            (ks.map(|k| k.launch_idx).collect::<Vec<_>>(), missing)
        };
        for i in 0..3 {
            p.push(ProfileEvent::Kernel(kernel("k", i, 10.0, 1)));
        }
        assert_eq!(held(&p, 0..3), (vec![0, 1, 2], 0));
        assert_eq!(held(&p, 1..2), (vec![1], 0));
        assert_eq!(held(&p, 3..3), (vec![], 0));
        // A transfer and three launches wrap the ring: [T, 3, 4, 5], with
        // launches 0, 1 and 2 evicted.
        p.push(ProfileEvent::Transfer(TransferRecord {
            dir: TransferDir::HtoD,
            bytes: 8,
            start_cycles: 0.0,
            cycles: 1.0,
        }));
        for i in 3..6 {
            p.push(ProfileEvent::Kernel(kernel("k", i, 10.0, 1)));
        }
        assert_eq!(held(&p, 0..6), (vec![3, 4, 5], 3));
        assert_eq!(held(&p, 2..5), (vec![3, 4], 1));
        assert_eq!(held(&p, 3..6), (vec![3, 4, 5], 0));
        assert_eq!(held(&p, 0..2), (vec![], 2), "the whole range was evicted");
        assert_eq!(held(&p, 6..6), (vec![], 0));
        // Evicting the transfer evicts no launch; evicting launch 3 does.
        p.push(ProfileEvent::Kernel(kernel("k", 6, 10.0, 1)));
        assert_eq!(held(&p, 3..7), (vec![3, 4, 5, 6], 0));
        p.push(ProfileEvent::Kernel(kernel("k", 7, 10.0, 1)));
        assert_eq!(held(&p, 3..8), (vec![4, 5, 6, 7], 1));
        assert_eq!(held(&p, 0..8), (vec![4, 5, 6, 7], 4));
        assert_eq!(p.total_counters().launches, 8);
        assert_eq!(kernel_anchor(&p, (2, 6)).map(|a| a.0), Some(4));
        assert_eq!(kernel_anchor(&p, (0, 4)), None, "the range was evicted");
        // Four transfers leave the ring without a kernel record.
        for _ in 0..4 {
            p.push(ProfileEvent::Transfer(TransferRecord {
                dir: TransferDir::DtoH,
                bytes: 8,
                start_cycles: 0.0,
                cycles: 1.0,
            }));
        }
        assert_eq!(held(&p, 6..8), (vec![], 2));
        assert_eq!(held(&p, 8..8), (vec![], 0));
    }

    #[test]
    fn summaries_group_by_name_and_sort_by_cycles() {
        let mut p = Profile::default();
        p.push(ProfileEvent::Kernel(kernel("small", 0, 5.0, 1)));
        p.push(ProfileEvent::Kernel(kernel("big", 1, 100.0, 7)));
        p.push(ProfileEvent::Kernel(kernel("small", 2, 5.0, 1)));
        let s = summarize_kernels(p.kernels());
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].name, "big");
        assert_eq!(s[1].launches, 2);
        assert_eq!(s[1].counters.gld_transactions, 2);
        assert!((s[1].avg_occupancy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transfer_counters_roundtrip() {
        let t = TransferRecord {
            dir: TransferDir::DtoH,
            bytes: 64,
            start_cycles: 0.0,
            cycles: 8.0,
        };
        let c = t.as_counters();
        assert_eq!(c.dtoh_bytes, 64);
        assert_eq!(c.htod_bytes, 0);
        assert!((c.cycles - 8.0).abs() < 1e-12);
    }

    #[test]
    fn report_and_trace_files_are_valid_json_shaped() {
        let mut p = Profile::default();
        p.push(ProfileEvent::Kernel(kernel("copy\"k", 0, 10.0, 3)));
        p.push(ProfileEvent::Transfer(TransferRecord {
            dir: TransferDir::HtoD,
            bytes: 1024,
            start_cycles: 10.0,
            cycles: 0.0,
        }));
        let dir = std::env::temp_dir();
        let report = dir.join("nextdoor_profile_test_report.json");
        let trace = dir.join("nextdoor_profile_test_trace.json");
        let spec = GpuSpec::small();
        write_kernel_report(&report, &spec, &p).unwrap();
        write_chrome_trace(&trace, &spec, &[("gpu0", &p)]).unwrap();
        let r = std::fs::read_to_string(&report).unwrap();
        assert!(r.contains("\"kernels\""));
        assert!(r.contains("copy\\\"k"));
        assert!(r.contains("\"totals\""));
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.contains("\"traceEvents\""));
        assert!(t.contains("\"PCIe\""));
        assert!(t.contains("\"SM 0\""));
        assert!(t.starts_with('{') && t.trim_end().ends_with('}'));
        std::fs::remove_file(report).ok();
        std::fs::remove_file(trace).ok();
    }
}
