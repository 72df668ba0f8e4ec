//! The sharded serving tier: partition-aware routing over a
//! [`ShardedSampler`] fleet, with per-shard circuit breakers, shard-loss
//! degradation and shard-labelled observability.
//!
//! Where the replicated tier ([`ReplicaPool`](crate::ReplicaPool)) holds N
//! full copies of the graph and routes whole batches to any healthy
//! replica, the sharded tier holds ONE copy split across N devices and
//! routes each *query* to the shard owning its seed vertices, then runs
//! the walk as deterministic super-steps with cross-shard walker hand-off
//! (see [`nextdoor_core::sharded`] for the engine-level mechanics and the
//! bit-identity argument).
//!
//! **Admission** is partition-aware: a query whose home shard (the owner
//! of its first seed vertex) is permanently lost is shed with
//! [`ServeError::ShardLost`]; one whose home shard's circuit breaker is
//! open is shed with [`ServeError::Overloaded`]. Admitted queries fuse
//! into one batch dispatch across the whole fleet.
//!
//! **Degradation**: a shard's device loss does not fail the fleet — its
//! walkers terminate deterministically at the shard boundary (counted as
//! `walkers_lost`), its breaker goes [`Dead`](crate::BreakerState::Dead),
//! and subsequent queries homed there are shed as `ShardLost` while every
//! other query keeps being served by the survivors.
//!
//! **Observability**: each dispatch records a [`SpanKind::Dispatch`] span
//! plus per-super-step [`SpanKind::SuperStep`] spans (one per shard that
//! held walkers, on that shard's replica track) and instant
//! [`SpanKind::Handoff`] markers for every exchange edge; the metrics
//! registry gains `handoffs`, `super_steps` and `shard_shed` counters; and
//! [`ShardedPool::report`] emits the same [`FleetReport`] the chaos
//! harness golden-pins for the replicated tier, with the shard-specific
//! counters filled in.

use crate::error::ServeError;
use crate::health::{BreakerConfig, CircuitBreaker};
use crate::metrics::ServeMetrics;
use crate::replica::{FleetReport, ReplicaStats};
use crate::trace::{Obs, Span, SpanKind, Tracer};
use nextdoor_core::api::SamplingApp;
use nextdoor_core::session::SessionQuery;
use nextdoor_core::sharded::{ShardedFusedResult, ShardedSampler};
use nextdoor_core::{validate_run, FaultReport, NextDoorError, SampleStore};
use nextdoor_gpu::{FaultPlan, GpuSpec};
use nextdoor_graph::{Csr, PartitionStats};

/// Tuning knobs of a [`ShardedPool`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPoolConfig {
    /// Shards (devices) to split the graph across.
    pub num_shards: usize,
    /// Seed of the deterministic placement clustering.
    pub placement_seed: u64,
}

impl Default for ShardPoolConfig {
    fn default() -> Self {
        ShardPoolConfig {
            num_shards: 2,
            placement_seed: 0x5AD0,
        }
    }
}

/// One batch dispatch's outcome: per-query results in submission order
/// (shed queries carry their typed error) plus the batch-level sharding
/// telemetry.
#[derive(Debug)]
pub struct ShardDispatch {
    /// Per-query outcome, aligned with the submitted slice.
    pub results: Vec<Result<SampleStore, ServeError>>,
    /// The dispatch's batch sequence number in the trace.
    pub batch: u64,
    /// Fleet clock when the dispatch began.
    pub start_ms: f64,
    /// Fleet clock when the batch completed.
    pub end_ms: f64,
    /// Walkers handed between shards during the batch.
    pub handoffs: u64,
    /// Walkers terminated by shard loss during the batch.
    pub walkers_lost: u64,
}

/// Partition-aware serving over a graph sharded across N devices. See the
/// [module docs](self) for routing, degradation and observability
/// semantics.
pub struct ShardedPool {
    sampler: ShardedSampler,
    breakers: Vec<CircuitBreaker>,
    obs: Obs,
    batches: u64,
    requests: u64,
    shed: u64,
    handoffs: u64,
    handoff_bytes: u64,
    super_steps: u64,
    walkers_lost: u64,
    shard_dispatches: Vec<u64>,
    shard_failures: Vec<u64>,
    shard_faults: Vec<FaultReport>,
}

impl ShardedPool {
    /// Builds a sharded pool: partitions `graph` across
    /// `cfg.num_shards` devices of `spec` and arms one circuit breaker per
    /// shard, with the default [`BreakerConfig`].
    ///
    /// # Errors
    ///
    /// The construction errors of [`ShardedSampler::new`] (empty graph,
    /// zero shards, degenerate partition, unsupported app, upload OOM).
    pub fn new(
        spec: GpuSpec,
        graph: Csr,
        app: Box<dyn SamplingApp + Send>,
        cfg: ShardPoolConfig,
    ) -> Result<Self, NextDoorError> {
        let sampler = ShardedSampler::new(spec, graph, app, cfg.num_shards, cfg.placement_seed)?;
        let n = sampler.num_shards();
        Ok(ShardedPool {
            sampler,
            breakers: vec![CircuitBreaker::new(BreakerConfig::default()); n],
            obs: Obs::default(),
            batches: 0,
            requests: 0,
            shed: 0,
            handoffs: 0,
            handoff_bytes: 0,
            super_steps: 0,
            walkers_lost: 0,
            shard_dispatches: vec![0; n],
            shard_failures: vec![0; n],
            shard_faults: vec![FaultReport::default(); n],
        })
    }

    /// Shards in the fleet, dead ones included.
    pub fn num_shards(&self) -> usize {
        self.sampler.num_shards()
    }

    /// Shards whose breaker currently admits traffic.
    pub fn healthy_count(&self) -> usize {
        let now = self.fleet_ms();
        self.breakers.iter().filter(|b| b.available(now)).count()
    }

    /// The fleet clock in simulated milliseconds: super-step critical
    /// paths plus exchange costs, accumulated across all dispatches.
    pub fn fleet_ms(&self) -> f64 {
        self.sampler.clock_ms()
    }

    /// The underlying sharded sampler (placement, clocks, shard state).
    pub fn sampler(&self) -> &ShardedSampler {
        &self.sampler
    }

    /// Partition-quality statistics of the placement.
    pub fn partition_stats(&self) -> &PartitionStats {
        self.sampler.partition_stats()
    }

    /// Shard `s`'s circuit breaker.
    pub fn breaker(&self, s: usize) -> &CircuitBreaker {
        &self.breakers[s]
    }

    /// The fleet's span stream (dispatch, super-step and hand-off spans).
    pub fn trace(&self) -> &Tracer {
        &self.obs.trace
    }

    /// The fleet's deterministic metrics registry.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.obs.metrics
    }

    /// Schedules faults on shard `s` relative to its current traffic — the
    /// chaos-harness hook for killing or degrading one shard mid-stream.
    pub fn schedule_faults(&mut self, s: usize, plan: FaultPlan) {
        self.sampler.schedule_faults(s, plan);
    }

    /// Routes and runs one batch of queries.
    ///
    /// Each query is validated (invalid inputs → [`ServeError::Sampling`])
    /// and admitted against its home shard (the owner of its first seed
    /// vertex): dead shard → [`ServeError::ShardLost`], open breaker →
    /// [`ServeError::Overloaded`]. Admitted queries run as one
    /// fused sharded batch, bit-identical per query to standalone runs.
    ///
    /// # Errors
    ///
    /// A batch-level engine failure (validation, genuine OOM, retry
    /// exhaustion) fails the whole call; per-query sheds are typed inside
    /// [`ShardDispatch::results`].
    pub fn dispatch(&mut self, queries: &[SessionQuery]) -> Result<ShardDispatch, ServeError> {
        if queries.is_empty() {
            return Err(ServeError::Sampling(NextDoorError::EmptyInit));
        }
        let start_ms = self.fleet_ms();
        let batch = self.obs.trace.next_batch_id();
        let shards = self.num_shards();

        // Partition-aware admission.
        let mut results: Vec<Option<Result<SampleStore, ServeError>>> =
            (0..queries.len()).map(|_| None).collect();
        let mut admitted: Vec<usize> = Vec::with_capacity(queries.len());
        for (qi, q) in queries.iter().enumerate() {
            // Validate before routing: the home shard is looked up by seed
            // vertex, so an out-of-range seed must never reach it.
            let valid = validate_run(self.sampler.graph(), self.sampler.app(), &q.init);
            if let Err(e) = valid.and_then(|()| match q.init[0].len() {
                0 => Err(NextDoorError::EmptyInit),
                _ => Ok(()),
            }) {
                results[qi] = Some(Err(ServeError::Sampling(e)));
                continue;
            }
            let home = self.sampler.home_shard(&q.init[0]);
            if self.sampler.shard_lost(home) || self.breakers[home].is_dead() {
                self.breakers[home].kill();
                self.shed += 1;
                self.obs.metrics.sim.shard_shed += 1;
                self.obs.trace.push(
                    Span::instant(SpanKind::OverloadShed, start_ms)
                        .batch(batch)
                        .replica(home),
                );
                results[qi] = Some(Err(ServeError::ShardLost {
                    shard: home,
                    shards,
                }));
                continue;
            }
            if !self.breakers[home].available(start_ms) {
                self.shed += 1;
                self.obs.metrics.sim.overload_shed += 1;
                self.obs.trace.push(
                    Span::instant(SpanKind::OverloadShed, start_ms)
                        .batch(batch)
                        .replica(home),
                );
                results[qi] = Some(Err(ServeError::Overloaded {
                    healthy: self.healthy_count(),
                    replicas: shards,
                }));
                continue;
            }
            admitted.push(qi);
        }

        let mut handoffs = 0u64;
        let mut walkers_lost = 0u64;
        if !admitted.is_empty() {
            for &qi in &admitted {
                let home = self.sampler.home_shard(&queries[qi].init[0]);
                self.breakers[home].begin_dispatch(start_ms);
            }
            let batch_queries: Vec<SessionQuery> =
                admitted.iter().map(|&qi| queries[qi].clone()).collect();
            let before_dead: Vec<bool> = (0..shards).map(|s| self.sampler.shard_lost(s)).collect();
            let fused = self.fused_run(&batch_queries)?;
            handoffs = fused.handoffs;
            walkers_lost = fused.walkers_lost;
            self.record_batch(batch, start_ms, &fused, admitted.len());

            // Per-shard health: a shard that died during the batch goes
            // Dead; one that absorbed faults but survived records a
            // failure; a clean live shard records a success.
            let now = self.fleet_ms();
            for (s, was_dead) in before_dead.iter().enumerate() {
                self.shard_faults[s].merge(&fused.shard_reports[s]);
                if self.sampler.shard_lost(s) {
                    if !was_dead {
                        self.shard_failures[s] += 1;
                    }
                    self.breakers[s].kill();
                } else if !fused.shard_reports[s].is_clean() {
                    self.breakers[s].record_failure(now);
                } else {
                    self.breakers[s].record_success();
                }
            }
            for (slot, store) in admitted.iter().zip(fused.per_query) {
                results[*slot] = Some(Ok(store));
            }
        }

        let end_ms = self.fleet_ms();
        self.batches += 1;
        self.requests += queries.len() as u64;
        // Every slot was filled: shed/rejected at admission or by the fused
        // run over `admitted`.
        debug_assert!(results.iter().all(Option::is_some));
        Ok(ShardDispatch {
            results: results.into_iter().flatten().collect(),
            batch,
            start_ms,
            end_ms,
            handoffs,
            walkers_lost,
        })
    }

    /// Runs the admitted slice as one fused sharded batch and folds the
    /// per-shard fault reports into the pool's accounting.
    fn fused_run(&mut self, queries: &[SessionQuery]) -> Result<ShardedFusedResult, ServeError> {
        let fused = self.sampler.query_fused(queries)?;
        self.handoffs += fused.handoffs;
        self.handoff_bytes += fused.handoff_bytes;
        self.super_steps += fused.super_steps.len() as u64;
        self.walkers_lost += fused.walkers_lost;
        Ok(fused)
    }

    /// Records the dispatch, super-step and hand-off spans plus the metric
    /// observations of one completed batch.
    fn record_batch(
        &mut self,
        batch: u64,
        start_ms: f64,
        fused: &ShardedFusedResult,
        admitted: usize,
    ) {
        let end_ms = self.fleet_ms();
        let m = &mut self.obs.metrics.sim;
        m.batches += 1;
        m.class_launches += fused.launches as u64;
        m.handoffs += fused.handoffs;
        m.super_steps += fused.super_steps.len() as u64;
        m.completed += admitted as u64;
        m.batch_size.observe(admitted as f64);
        m.service_ms.observe(end_ms - start_ms);
        m.total_ms.observe(end_ms - start_ms);
        self.obs.trace.push(
            Span::new(SpanKind::Dispatch, start_ms, end_ms)
                .batch(batch)
                .batch_size(admitted)
                .ok(true),
        );
        // Super-step spans replay on the fleet timeline ending at the
        // clock's current value: the batch's steps (plus exchanges) are
        // laid back-to-back from the end, leaving the initial-frontier
        // upload between start_ms and the first step.
        let steps_span: f64 = fused
            .super_steps
            .iter()
            .map(|mark| mark.step_ms + mark.exchange_ms)
            .sum();
        let mut cursor = end_ms - steps_span;
        for mark in &fused.super_steps {
            for (s, &ms) in mark.shard_ms.iter().enumerate() {
                if mark.shard_pairs[s] == 0 && ms == 0.0 {
                    continue;
                }
                self.shard_dispatches[s] += 1;
                self.obs.trace.push(
                    Span::new(SpanKind::SuperStep, cursor, cursor + ms)
                        .batch(batch)
                        .replica(s)
                        .depth(mark.step)
                        .batch_size(mark.shard_pairs[s]),
                );
            }
            let exchange_at = cursor + mark.step_ms;
            for h in &mark.handoffs {
                self.obs.trace.push(
                    Span::instant(SpanKind::Handoff, exchange_at)
                        .batch(batch)
                        .replica(h.from)
                        .width(h.to)
                        .batch_size(h.walkers as usize),
                );
            }
            cursor += mark.step_ms + mark.exchange_ms;
        }
    }

    /// The fleet report: per-shard stats in [`ReplicaStats`] form plus the
    /// shard-specific counters, in the same shape the replicated tier's
    /// chaos harness golden-pins.
    pub fn report(&self) -> FleetReport {
        let now = self.fleet_ms();
        FleetReport {
            replicas: (0..self.num_shards())
                .map(|s| ReplicaStats {
                    dispatches: self.shard_dispatches[s],
                    failures: self.shard_failures[s],
                    trips: self.breakers[s].trips,
                    probes: self.breakers[s].probes,
                    recoveries: self.breakers[s].recoveries,
                    lost: self.sampler.shard_lost(s),
                    faults: self.shard_faults[s].clone(),
                })
                .collect(),
            batches: self.batches,
            requests: self.requests,
            retries: 0,
            shed: self.shed,
            cooldown_waits: 0,
            degraded_intervals: Vec::new(),
            handoffs: self.handoffs,
            handoff_bytes: self.handoff_bytes,
            super_steps: self.super_steps,
            walkers_lost: self.walkers_lost,
            fleet_ms: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nextdoor_core::api::{NextCtx, Steps};
    use nextdoor_core::run_nextdoor;
    use nextdoor_gpu::Gpu;
    use nextdoor_graph::gen::{rmat, RmatParams};

    struct Walk;
    impl SamplingApp for Walk {
        fn name(&self) -> &'static str {
            "walk"
        }
        fn steps(&self) -> Steps {
            Steps::Fixed(4)
        }
        fn sample_size(&self, _: usize) -> usize {
            1
        }
        fn next(&self, ctx: &mut NextCtx<'_>) -> Option<u32> {
            let d = ctx.num_edges();
            if d == 0 {
                return None;
            }
            let i = ctx.rand_range(d);
            Some(ctx.src_edge(i))
        }
    }

    fn pool(shards: usize) -> (ShardedPool, Csr) {
        let g = rmat(8, 2000, RmatParams::SKEWED, 3);
        let p = ShardedPool::new(
            GpuSpec::small(),
            g.clone(),
            Box::new(Walk),
            ShardPoolConfig {
                num_shards: shards,
                ..ShardPoolConfig::default()
            },
        )
        .unwrap();
        (p, g)
    }

    fn queries(n: usize) -> Vec<SessionQuery> {
        (0..n)
            .map(|i| SessionQuery {
                init: (0..8)
                    .map(|s| vec![(s * 13 + i as u32 * 7) % 256])
                    .collect(),
                seed: 40 + i as u64,
            })
            .collect()
    }

    #[test]
    fn dispatch_results_match_single_device_runs() {
        let (mut p, g) = pool(3);
        let qs = queries(3);
        let d = p.dispatch(&qs).unwrap();
        assert_eq!(d.results.len(), 3);
        for (q, r) in qs.iter().zip(&d.results) {
            let store = r.as_ref().unwrap();
            let mut gpu = Gpu::new(GpuSpec::small());
            let solo = run_nextdoor(&mut gpu, &g, &Walk, &q.init, q.seed).unwrap();
            assert_eq!(store.final_samples(), solo.store.final_samples());
        }
        assert!(d.end_ms > d.start_ms);
        assert!(p.metrics().sim.super_steps > 0);
        assert_eq!(p.metrics().sim.handoffs, d.handoffs);
        assert!(p.trace().count(SpanKind::SuperStep) > 0);
    }

    #[test]
    fn handoff_spans_conserve_walkers() {
        let (mut p, _g) = pool(4);
        let d = p.dispatch(&queries(4)).unwrap();
        let span_walkers: u64 = p
            .trace()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Handoff)
            .map(|s| s.batch_size.unwrap() as u64)
            .sum();
        assert_eq!(span_walkers, d.handoffs);
        assert_eq!(p.report().handoffs, d.handoffs);
        assert_eq!(
            p.report().handoff_bytes,
            d.handoffs * nextdoor_core::sharded::HANDOFF_BYTES_PER_WALKER
        );
    }

    #[test]
    fn dead_home_shard_sheds_with_shard_lost() {
        let (mut p, _g) = pool(3);
        // Kill shard 1 mid-walk, then find a query homed there.
        p.schedule_faults(1, FaultPlan::new().lose_device_at_launch(2));
        p.dispatch(&queries(2)).unwrap();
        assert!(p.sampler().shard_lost(1));
        let seed_on_dead: u32 = (0..256)
            .find(|&v| p.sampler().owner_of(v) == 1)
            .expect("shard 1 owns some vertex");
        let q = SessionQuery {
            init: vec![vec![seed_on_dead]; 4],
            seed: 99,
        };
        let d = p.dispatch(std::slice::from_ref(&q)).unwrap();
        assert!(matches!(
            d.results[0],
            Err(ServeError::ShardLost {
                shard: 1,
                shards: 3
            })
        ));
        assert_eq!(p.metrics().sim.shard_shed, 1);
        let rep = p.report();
        assert!(rep.replicas[1].lost);
        assert_eq!(rep.shed, 1);
        assert!(rep.walkers_lost > 0);
        // Queries homed on survivors keep flowing.
        let seed_alive: u32 = (0..256)
            .find(|&v| p.sampler().owner_of(v) != 1)
            .expect("survivors own vertices");
        let q2 = SessionQuery {
            init: vec![vec![seed_alive]; 4],
            seed: 100,
        };
        let d2 = p.dispatch(std::slice::from_ref(&q2)).unwrap();
        assert!(d2.results[0].is_ok());
    }

    #[test]
    fn report_shape_matches_fleet_report() {
        let (mut p, _g) = pool(2);
        p.dispatch(&queries(2)).unwrap();
        let rep = p.report();
        assert_eq!(rep.replicas.len(), 2);
        assert_eq!(rep.batches, 1);
        assert_eq!(rep.requests, 2);
        assert!(rep.fleet_ms > 0.0);
        assert!(rep.digest().contains("handoffs"));
        assert!(rep.super_steps > 0);
    }

    #[test]
    fn invalid_query_is_typed_while_batchmates_are_served() {
        // An out-of-range seed used to panic in home-shard routing.
        let (mut p, _g) = pool(2);
        let mut qs = queries(2);
        qs.insert(
            1,
            SessionQuery {
                init: vec![vec![u32::MAX]],
                seed: 7,
            },
        );
        let d = p.dispatch(&qs).unwrap();
        assert!(matches!(
            d.results[1],
            Err(ServeError::Sampling(NextDoorError::RootOutOfRange { .. }))
        ));
        assert!(d.results[0].is_ok() && d.results[2].is_ok());
    }

    #[test]
    fn empty_batch_is_rejected() {
        let (mut p, _g) = pool(2);
        assert!(matches!(
            p.dispatch(&[]),
            Err(ServeError::Sampling(NextDoorError::EmptyInit))
        ));
    }
}
