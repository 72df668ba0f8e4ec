//! The straightforward accounting the simulator's fast paths must match
//! bit for bit: a sector set that stores every sector and scans it
//! linearly, an O(n²) atomic-conflict scan, and a trace replay that
//! rescans all 32 lanes once per op kind at every position. The property
//! tests below drive both implementations over random masks, element
//! sizes, address patterns and ragged traces and require equal counters
//! and bit-equal cycle sums.

use crate::lane::{LaneOp, LaneTrace};
use crate::spec::CostModel;
use crate::warp::{Mask, WarpCtx, WarpStats, WARP_SIZE};

/// A set of 32-byte sector ids, stored and scanned linearly.
struct SectorSet {
    sectors: Vec<u64>,
}

impl SectorSet {
    fn new() -> Self {
        SectorSet {
            sectors: Vec::with_capacity(WARP_SIZE),
        }
    }

    /// Inserts every sector overlapped by `[addr, addr + bytes)`.
    fn insert_range(&mut self, addr: u64, bytes: u64) {
        let first = addr / crate::warp::SECTOR_BYTES;
        let last = (addr + bytes.max(1) - 1) / crate::warp::SECTOR_BYTES;
        for s in first..=last {
            if !self.sectors.contains(&s) {
                self.sectors.push(s);
            }
        }
    }

    fn count(&self) -> u64 {
        self.sectors.len() as u64
    }
}

/// Charges one global memory op over the active lanes' element addresses,
/// as `ld_global` (`store == false`) or `st_global` does.
fn charge_global(warp: &mut WarpCtx<'_>, addrs: &[u64], elem: u64, store: bool) {
    if addrs.is_empty() {
        return;
    }
    let mut sectors = SectorSet::new();
    for &a in addrs {
        sectors.insert_range(a, elem);
    }
    let tx = sectors.count();
    let c = &mut warp.stats.counters;
    if store {
        c.gst_requests += 1;
        c.gst_transactions += tx;
        c.gst_bytes_requested += addrs.len() as u64 * elem;
    } else {
        c.gld_requests += 1;
        c.gld_transactions += tx;
        c.gld_bytes_requested += addrs.len() as u64 * elem;
    }
    warp.stats.mem_bw_cycles += tx as f64 * warp.cost.global_tx_cycles;
    warp.stats.mem_requests += 1;
}

/// Charges `atomic_add_global` over the active lanes' `u32` indices.
fn charge_atomic(warp: &mut WarpCtx<'_>, idxs: &[usize], addrs: &[u64]) {
    if idxs.is_empty() {
        return;
    }
    let mut sectors = SectorSet::new();
    let mut conflicts = 0u64;
    let mut seen: Vec<usize> = Vec::new();
    for (&i, &a) in idxs.iter().zip(addrs) {
        sectors.insert_range(a, 4);
        if seen.contains(&i) {
            conflicts += 1;
        } else {
            seen.push(i);
        }
    }
    let tx = sectors.count();
    let c = &mut warp.stats.counters;
    c.atomics += 1;
    c.gst_requests += 1;
    c.gst_transactions += tx;
    c.gst_bytes_requested += idxs.len() as u64 * 4;
    warp.stats.mem_bw_cycles += tx as f64 * warp.cost.global_tx_cycles;
    warp.stats.mem_requests += 1;
    warp.stats.pipeline_cycles += (1 + conflicts) as f64 * warp.cost.atomic_cycles;
}

/// Replays 32 lane traces in lock-step, rescanning the lanes once per op
/// kind at every position.
fn replay_traces(warp: &mut WarpCtx<'_>, traces: &[LaneTrace; WARP_SIZE], mask: u32) {
    let max_len = (0..WARP_SIZE)
        .filter(|l| mask & (1 << l) != 0)
        .map(|l| traces[l].len())
        .max()
        .unwrap_or(0);
    let mut lanes_alive_prev = mask.count_ones();
    for pos in 0..max_len {
        let mut kinds_present = [false; 7];
        let mut lanes_alive = 0u32;
        for l in 0..WARP_SIZE {
            if mask & (1 << l) != 0 && pos < traces[l].len() {
                kinds_present[traces[l].ops()[pos].kind() as usize] = true;
                lanes_alive += 1;
            }
        }
        if lanes_alive < lanes_alive_prev {
            warp.charge_divergence(2);
            lanes_alive_prev = lanes_alive;
        }
        let groups = kinds_present.iter().filter(|&&k| k).count() as u64;
        warp.charge_divergence(groups);
        for k in 0..7u8 {
            if !kinds_present[k as usize] {
                continue;
            }
            match k {
                0 | 1 => {
                    let mut sectors = SectorSet::new();
                    let mut active = 0u64;
                    let mut bytes_req = 0u64;
                    for (l, trace) in traces.iter().enumerate() {
                        if mask & (1 << l) == 0 || pos >= trace.len() {
                            continue;
                        }
                        match trace.ops()[pos] {
                            LaneOp::GlobalLoad { addr, bytes } if k == 0 => {
                                sectors.insert_range(addr, bytes as u64);
                                bytes_req += bytes as u64;
                                active += 1;
                            }
                            LaneOp::GlobalStore { addr, bytes } if k == 1 => {
                                sectors.insert_range(addr, bytes as u64);
                                bytes_req += bytes as u64;
                                active += 1;
                            }
                            _ => {}
                        }
                    }
                    if active == 0 {
                        continue;
                    }
                    let tx = sectors.count();
                    let c = &mut warp.stats.counters;
                    if k == 0 {
                        c.gld_requests += 1;
                        c.gld_transactions += tx;
                        c.gld_bytes_requested += bytes_req;
                    } else {
                        c.gst_requests += 1;
                        c.gst_transactions += tx;
                        c.gst_bytes_requested += bytes_req;
                    }
                    warp.stats.mem_bw_cycles += tx as f64 * warp.cost.global_tx_cycles;
                    warp.stats.mem_requests += 1;
                }
                2 => {
                    warp.stats.counters.shared_loads += 1;
                    warp.stats.pipeline_cycles += warp.cost.shared_cycles;
                }
                3 => {
                    warp.stats.counters.shared_stores += 1;
                    warp.stats.pipeline_cycles += warp.cost.shared_cycles;
                }
                4 => {
                    warp.stats.counters.shuffles += 1;
                    warp.stats.pipeline_cycles += warp.cost.shfl_cycles;
                }
                5 => {
                    let mut max_n = 0u16;
                    for (l, trace) in traces.iter().enumerate() {
                        if mask & (1 << l) != 0 && pos < trace.len() {
                            if let LaneOp::Compute(n) = trace.ops()[pos] {
                                max_n = max_n.max(n);
                            }
                        }
                    }
                    warp.charge_compute(max_n as u64);
                }
                6 => {
                    let mut draws = 0u64;
                    for (l, trace) in traces.iter().enumerate() {
                        if mask & (1 << l) != 0
                            && pos < trace.len()
                            && matches!(trace.ops()[pos], LaneOp::Rand)
                        {
                            draws += 1;
                        }
                    }
                    warp.stats.counters.rand_draws += draws;
                    warp.stats.pipeline_cycles += warp.cost.rand_cycles;
                }
                _ => unreachable!(),
            }
        }
    }
}

mod tests {
    use super::*;
    use crate::mem::{DeviceBuffer, MemTracker};
    use proptest::prelude::*;

    /// Costs with no exact binary form, so a reordered floating-point sum
    /// changes the low bits.
    fn cost() -> CostModel {
        CostModel {
            compute_cycles: 0.1,
            global_tx_cycles: 3.7,
            shared_cycles: 0.3,
            shfl_cycles: 0.7,
            atomic_cycles: 1.9,
            rand_cycles: 2.3,
            ..CostModel::default()
        }
    }

    /// Runs `f` on a fresh warp context; returns what it charged.
    fn charged(cost: &CostModel, f: impl FnOnce(&mut WarpCtx<'_>)) -> WarpStats {
        let mut shared = Vec::new();
        let mut stats = WarpStats::default();
        f(&mut WarpCtx {
            block_idx: 0,
            warp_in_block: 0,
            block_dim: WARP_SIZE,
            cost,
            shared: &mut shared,
            stats: &mut stats,
        });
        stats
    }

    /// Equal counters and requests, bit-equal cycle sums.
    fn same(a: &WarpStats, b: &WarpStats) -> Result<(), TestCaseError> {
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(a.pipeline_cycles.to_bits(), b.pipeline_cycles.to_bits());
        prop_assert_eq!(a.mem_bw_cycles.to_bits(), b.mem_bw_cycles.to_bits());
        prop_assert_eq!(a.mem_requests, b.mem_requests);
        Ok(())
    }

    /// A lane mask: full, empty, one lane, a prefix, or random bits.
    fn mask(rng: &mut TestRng) -> Mask {
        match rng.below(5) {
            0 => u32::MAX,
            1 => 0,
            2 => 1 << rng.below(32),
            3 => crate::warp::mask_first_n(rng.below(33) as usize),
            _ => rng.next_u64() as u32,
        }
    }

    /// 32 lane indices below `len`: ascending, descending, random,
    /// repeated (a few distinct values) or strided.
    fn indices(rng: &mut TestRng, len: usize) -> [usize; WARP_SIZE] {
        let base = rng.below(len as u64 - WARP_SIZE as u64 * 4) as usize;
        let pattern = rng.below(5);
        let few: [usize; 3] = std::array::from_fn(|_| rng.below(len as u64) as usize);
        std::array::from_fn(|l| match pattern {
            0 => base + l,
            1 => base + WARP_SIZE - 1 - l,
            2 => rng.below(len as u64) as usize,
            3 => few[l % few.len()],
            _ => base + l * (1 + rng.below(4) as usize),
        })
    }

    /// `ld_global` and `st_global` against the reference on elements of
    /// type `T`.
    fn global_ops_match<T: Copy + Default>(seed: u64) -> Result<(), TestCaseError> {
        let mut rng = TestRng::new(seed);
        let cost = cost();
        let buf = DeviceBuffer::<T>::new(4096, MemTracker::new(usize::MAX)).unwrap();
        let elem = std::mem::size_of::<T>() as u64;
        for _ in 0..8 {
            let (idxs, m) = (indices(&mut rng, buf.len()), mask(&mut rng));
            let addrs: Vec<u64> = (0..WARP_SIZE)
                .filter(|l| m & (1 << l) != 0)
                .map(|l| buf.addr_of(idxs[l]))
                .collect();
            let fast = charged(&cost, |w| {
                let v = w.ld_global(&buf, &idxs, m);
                w.st_global(&buf, &idxs, v, m);
            });
            let slow = charged(&cost, |w| {
                charge_global(w, &addrs, elem, false);
                charge_global(w, &addrs, elem, true);
            });
            same(&fast, &slow)?;
        }
        Ok(())
    }

    /// A random op for one lane, of `kind` if given; addresses are drawn
    /// around `base` so lanes of one position overlap, straddle sectors
    /// and arrive in any order, and some accesses are wider than 64 bytes.
    fn op(rng: &mut TestRng, base: u64, lane: u64, kind: Option<u64>) -> LaneOp {
        let addr = match rng.below(4) {
            0 => base + lane * 4,
            1 => base + (31 - lane) * 8,
            2 => base + rng.below(4096),
            _ => base + rng.below(3) * 32 + 28,
        };
        let bytes = match rng.below(6) {
            0 => 0,
            1 => 1,
            2 => 4,
            3 => 8,
            4 => 16,
            _ => 65 + rng.below(200) as u32,
        };
        match kind.unwrap_or_else(|| rng.below(7)) {
            0 => LaneOp::GlobalLoad { addr, bytes },
            1 => LaneOp::GlobalStore { addr, bytes },
            2 => LaneOp::SharedLoad,
            3 => LaneOp::SharedStore,
            4 => LaneOp::Shfl,
            5 => LaneOp::Compute(rng.below(40) as u16),
            _ => LaneOp::Rand,
        }
    }

    /// Ragged traces: each lane's length is random, and each position holds
    /// either one op kind on every lane or random kinds.
    fn traces(rng: &mut TestRng) -> [LaneTrace; WARP_SIZE] {
        let max_len = 1 + rng.below(12);
        let lens: [u64; WARP_SIZE] = std::array::from_fn(|_| rng.below(max_len + 1));
        let mut traces: [LaneTrace; WARP_SIZE] = std::array::from_fn(|_| LaneTrace::new());
        for pos in 0..max_len {
            let base = 0x1000 + rng.below(1 << 16);
            let kind = (rng.below(2) == 0).then(|| rng.below(7));
            for (l, t) in traces.iter_mut().enumerate() {
                if pos < lens[l] {
                    t.push(op(rng, base, l as u64, kind));
                }
            }
        }
        traces
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn global_ops_match_the_reference(seed in 0u64..u64::MAX) {
            global_ops_match::<u8>(seed)?;
            global_ops_match::<u32>(seed)?;
            global_ops_match::<u64>(seed)?;
            global_ops_match::<u128>(seed)?;
        }

        #[test]
        fn atomics_match_the_reference(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let cost = cost();
            let buf = DeviceBuffer::<u32>::new(4096, MemTracker::new(usize::MAX)).unwrap();
            for _ in 0..8 {
                let (idxs, m) = (indices(&mut rng, buf.len()), mask(&mut rng));
                let active: Vec<usize> = (0..WARP_SIZE).filter(|l| m & (1 << l) != 0).collect();
                let lane_idxs: Vec<usize> = active.iter().map(|&l| idxs[l]).collect();
                let addrs: Vec<u64> = lane_idxs.iter().map(|&i| buf.addr_of(i)).collect();
                let fast = charged(&cost, |w| {
                    w.atomic_add_global(&buf, &idxs, [1; WARP_SIZE], m);
                });
                let slow = charged(&cost, |w| charge_atomic(w, &lane_idxs, &addrs));
                same(&fast, &slow)?;
            }
        }

        #[test]
        fn replay_matches_the_reference(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let cost = cost();
            for _ in 0..4 {
                let (t, m) = (traces(&mut rng), mask(&mut rng));
                let fast = charged(&cost, |w| w.replay(&t, m));
                let slow = charged(&cost, |w| replay_traces(w, &t, m));
                same(&fast, &slow)?;
            }
        }
    }
}
