//! Per-lane traces for user-defined code.
//!
//! The engine cannot express a sampling application's user-defined `next`
//! function in warp-vectorised form — it is arbitrary per-lane code (e.g.
//! node2vec's rejection-sampling loop runs a data-dependent number of
//! iterations). Instead, each lane records the operations it performed as a
//! [`LaneTrace`]; `replay_traces` then aligns the traces of the 32 lanes
//! position by position, coalescing memory operations that line up and
//! charging divergence where they do not — which is precisely how lock-step
//! SIMT hardware behaves.

use std::cell::RefCell;

use crate::warp::{lanes, sector_span, SpanUnion, WarpCtx, WARP_SIZE};

/// One operation performed by a single lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaneOp {
    /// Global-memory read of `bytes` at virtual address `addr`.
    GlobalLoad {
        /// Virtual address.
        addr: u64,
        /// Access width in bytes.
        bytes: u32,
    },
    /// Global-memory write of `bytes` at virtual address `addr`.
    GlobalStore {
        /// Virtual address.
        addr: u64,
        /// Access width in bytes.
        bytes: u32,
    },
    /// Shared-memory read.
    SharedLoad,
    /// Shared-memory write.
    SharedStore,
    /// Register read via warp shuffle.
    Shfl,
    /// `n` ALU instructions.
    Compute(u16),
    /// One counter-based RNG draw.
    Rand,
}

impl LaneOp {
    /// Discriminant used for divergence grouping: lanes at the same trace
    /// position executing different kinds of operation must serialise.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            LaneOp::GlobalLoad { .. } => 0,
            LaneOp::GlobalStore { .. } => 1,
            LaneOp::SharedLoad => 2,
            LaneOp::SharedStore => 3,
            LaneOp::Shfl => 4,
            LaneOp::Compute(_) => 5,
            LaneOp::Rand => 6,
        }
    }
}

/// The sequence of operations one lane performed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneTrace {
    ops: Vec<LaneOp>,
}

impl LaneTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an operation.
    #[inline]
    pub fn push(&mut self, op: LaneOp) {
        self.ops.push(op);
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Clears the trace for reuse (keeps the allocation).
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// The recorded operations.
    pub fn ops(&self) -> &[LaneOp] {
        &self.ops
    }
}

thread_local! {
    /// One set of 32 lane traces per host thread. The launch pool's workers
    /// persist across launches, so after the first few warps every trace
    /// records into capacity it already owns.
    static LANE_TRACES: RefCell<[LaneTrace; WARP_SIZE]> =
        RefCell::new(std::array::from_fn(|_| LaneTrace::new()));
}

/// Runs `f` on 32 empty lane traces owned by the calling host thread, for
/// a kernel to record one warp's per-lane code into and pass to
/// [`WarpCtx::replay`]. The traces are cleared, not freed, between warps.
pub fn with_lane_traces<R>(f: impl FnOnce(&mut [LaneTrace; WARP_SIZE]) -> R) -> R {
    LANE_TRACES.with(|cell| {
        let mut traces = cell.borrow_mut();
        traces.iter_mut().for_each(LaneTrace::clear);
        f(&mut traces)
    })
}

/// Replays 32 lane traces in lock-step against `warp`, charging coalesced
/// memory transactions, compute cycles and divergence.
///
/// One pass per trace position visits each lane still running once,
/// gathering every op kind's charge together; the charges are then applied
/// in a fixed order (drop-off divergence, kind divergence, then kinds 0 to
/// 6), so the floating-point cycle sums do not depend on how lanes are
/// visited.
pub(crate) fn replay_traces(warp: &mut WarpCtx<'_>, traces: &[LaneTrace; WARP_SIZE], mask: u32) {
    let mut running = 0u32;
    for l in lanes(mask) {
        if !traces[l].is_empty() {
            running |= 1 << l;
        }
    }
    let mut lanes_alive_prev = mask.count_ones();
    // The position's load and store sector spans, kept for an exact recount
    // when they arrive out of order.
    let mut load_spans = [(0u64, 0u64); WARP_SIZE];
    let mut store_spans = [(0u64, 0u64); WARP_SIZE];
    let mut pos = 0;
    while running != 0 {
        let mut kinds = 0u8;
        let (mut loads, mut stores) = (SpanUnion::default(), SpanUnion::default());
        let (mut num_loads, mut num_stores) = (0, 0);
        let (mut load_bytes, mut store_bytes) = (0u64, 0u64);
        let (mut max_n, mut draws) = (0u16, 0u64);
        let alive = running;
        for l in lanes(alive) {
            let op = traces[l].ops[pos];
            kinds |= 1 << op.kind();
            match op {
                LaneOp::GlobalLoad { addr, bytes } => {
                    let span = sector_span(addr, bytes as u64);
                    loads.insert(span);
                    load_spans[num_loads] = span;
                    num_loads += 1;
                    load_bytes += bytes as u64;
                }
                LaneOp::GlobalStore { addr, bytes } => {
                    let span = sector_span(addr, bytes as u64);
                    stores.insert(span);
                    store_spans[num_stores] = span;
                    num_stores += 1;
                    store_bytes += bytes as u64;
                }
                LaneOp::Compute(n) => max_n = max_n.max(n),
                LaneOp::Rand => draws += 1,
                LaneOp::SharedLoad | LaneOp::SharedStore | LaneOp::Shfl => {}
            }
            if traces[l].len() == pos + 1 {
                running &= !(1 << l);
            }
        }
        // Lanes that ran out of ops while others continue: one divergence
        // event per drop-off point.
        let lanes_alive = alive.count_ones();
        if lanes_alive < lanes_alive_prev {
            warp.charge_divergence(2);
            lanes_alive_prev = lanes_alive;
        }
        warp.charge_divergence(kinds.count_ones() as u64);
        // Charge each serialised group; a global load/store group coalesces
        // across its lanes.
        if kinds & 1 != 0 {
            let tx = loads.count_or(|| load_spans[..num_loads].iter().copied());
            warp.charge_global(false, tx, load_bytes);
        }
        if kinds & 2 != 0 {
            let tx = stores.count_or(|| store_spans[..num_stores].iter().copied());
            warp.charge_global(true, tx, store_bytes);
        }
        if kinds & 4 != 0 {
            warp.stats.counters.shared_loads += 1;
            warp.stats.pipeline_cycles += warp.cost.shared_cycles;
        }
        if kinds & 8 != 0 {
            warp.stats.counters.shared_stores += 1;
            warp.stats.pipeline_cycles += warp.cost.shared_cycles;
        }
        if kinds & 16 != 0 {
            warp.stats.counters.shuffles += 1;
            warp.stats.pipeline_cycles += warp.cost.shfl_cycles;
        }
        if kinds & 32 != 0 {
            // Compute group: SIMT executes the widest lane's count.
            warp.charge_compute(max_n as u64);
        }
        if kinds & 64 != 0 {
            warp.stats.counters.rand_draws += draws;
            warp.stats.pipeline_cycles += warp.cost.rand_cycles;
        }
        pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_records_in_order() {
        let mut t = LaneTrace::new();
        assert!(t.is_empty());
        t.push(LaneOp::Compute(3));
        t.push(LaneOp::Rand);
        assert_eq!(t.len(), 2);
        assert_eq!(t.ops()[0], LaneOp::Compute(3));
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn kind_discriminants_are_distinct() {
        let ops = [
            LaneOp::GlobalLoad { addr: 0, bytes: 4 },
            LaneOp::GlobalStore { addr: 0, bytes: 4 },
            LaneOp::SharedLoad,
            LaneOp::SharedStore,
            LaneOp::Shfl,
            LaneOp::Compute(1),
            LaneOp::Rand,
        ];
        let mut kinds: Vec<u8> = ops.iter().map(|o| o.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), ops.len());
    }
}
