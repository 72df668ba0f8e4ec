//! Fault-tolerant replicated serving: the [`ReplicaPool`] backend and the
//! [`FleetBatcher`] over it.
//!
//! One [`SamplerSession`] is one device — one watchdog kill, one
//! out-of-memory storm or one device loss away from dropping every request
//! in flight. The replicated tier owns **N sessions over the same graph**
//! (independent simulated devices, possibly carrying independent
//! [`FaultPlan`]s) and composes three recovery
//! mechanisms around them:
//!
//! * **Routing**: every micro-batch goes to the least-loaded *healthy*
//!   replica (the same deterministic rule the multi-GPU shard layer uses
//!   for failover, [`least_loaded_alive`]). Replica choice never changes
//!   the samples — engines key all randomness through
//!   [`SampleKeys`](nextdoor_core::engine::SampleKeys), not device state.
//! * **Retry with backoff**: a failed dispatch is retried, up to a budget,
//!   with exponential backoff charged to the *fleet clock* (a
//!   deterministic simulated-ms timeline), never to wall time. Every
//!   attempt, retries included, is routed by the same rule, so a retry
//!   may land on the replica that just failed while its breaker is still
//!   closed.
//! * **Circuit breaking**: consecutive failures trip a per-replica
//!   [`CircuitBreaker`]; the replica cools down on the fleet clock, then a
//!   half-open probe either recovers it or re-trips it. Device loss kills
//!   the breaker permanently.
//!
//! These are the pool's [`Backend::dispatch`] policy. Admission, batch
//! formation and degraded-mode shedding belong to the one [`Batcher`] in
//! front of it: when healthy capacity drops below the pool size it shrinks
//! the fused batch cap and sheds excess pending requests **lowest priority
//! first** with a typed
//! [`ServeError::Overloaded`] rejection. Every decision — retries, trips,
//! probes, recoveries, sheds, degraded intervals — is surfaced in the
//! per-run [`FleetReport`], whose fleet-wide counters (batches, retries,
//! cool-down waits, sheds) are read from the [`ServeMetrics`] registry the
//! dispatches record into.
//!
//! Determinism: the pool runs on one scheduler thread; each replica's
//! device is internally deterministic at any host worker-thread count, and
//! every recovery decision keys off the fleet clock (derived from device
//! sim clocks) and the request stream alone. A chaos run therefore
//! produces bit-identical samples *and* a bit-identical `FleetReport` at
//! any `NEXTDOOR_SIM_THREADS`.

use crate::batcher::{record_class_launches, Backend, Batcher};
use crate::error::ServeError;
use crate::health::{BreakerConfig, CircuitBreaker};
use crate::metrics::ServeMetrics;
use crate::trace::{Obs, Span, SpanKind};
use nextdoor_core::api::SamplingApp;
use nextdoor_core::multi_gpu::least_loaded_alive;
use nextdoor_core::session::{FusedResult, SamplerSession, SessionQuery};
use nextdoor_core::{FaultReport, NextDoorError};
use nextdoor_gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor_graph::Csr;

/// Recovery knobs of a [`ReplicaPool`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolConfig {
    /// Re-dispatch attempts after a failed one (0 = fail on first error).
    pub max_retries: usize,
    /// Simulated-ms backoff before retry `k`: `backoff_base_ms * 2^k`,
    /// charged to the fleet clock.
    pub backoff_base_ms: f64,
    /// Per-replica circuit-breaker knobs.
    pub breaker: BreakerConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_retries: 3,
            backoff_base_ms: 0.05,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Per-replica slice of a [`FleetReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicaStats {
    /// Fused batches dispatched to this replica (probes included); for a
    /// shard, the super-steps it ran a slice of.
    pub dispatches: u64,
    /// Dispatches that returned a typed error (a shard fails once, when
    /// its device is lost).
    pub failures: u64,
    /// Breaker trips (consecutive-failure and failed-probe trips).
    pub trips: u64,
    /// Half-open probe dispatches.
    pub probes: u64,
    /// Probes that succeeded and closed the breaker.
    pub recoveries: u64,
    /// Whether the replica's device was permanently lost.
    pub lost: bool,
    /// Faults this replica's device observed during *successful*
    /// dispatches and recovered from internally (step retries etc.).
    pub faults: FaultReport,
}

/// Everything a chaos run observes of the fleet's recovery behaviour, in
/// one serializable report. Deterministic: a scripted run reproduces this
/// bit-for-bit at any host worker-thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetReport {
    /// Per-replica counters, indexed by replica id.
    pub replicas: Vec<ReplicaStats>,
    /// Fused batches the pool dispatched (first attempts only).
    pub batches: u64,
    /// Requests inside those batches.
    pub requests: u64,
    /// Serving-level re-dispatches after a failed attempt.
    pub retries: u64,
    /// Requests shed with [`ServeError::Overloaded`] under degraded
    /// capacity, or with [`ServeError::ShardLost`] by the sharded pool.
    pub shed: u64,
    /// Times the fleet clock was advanced to the earliest breaker reopen
    /// because no replica was routable.
    pub cooldown_waits: u64,
    /// Closed `[start_ms, end_ms)` fleet-clock intervals during which
    /// healthy capacity was below the full pool (an interval still open at
    /// report time is closed at the current fleet clock).
    pub degraded_intervals: Vec<(f64, f64)>,
    /// Walkers handed between shards (sharded pool only; zero for the
    /// replicated tier, whose replicas each hold the whole graph).
    pub handoffs: u64,
    /// Simulated bytes those hand-offs moved (sharded pool only).
    pub handoff_bytes: u64,
    /// Sharded super-steps executed (sharded pool only).
    pub super_steps: u64,
    /// Walkers terminated mid-run by shard loss (sharded pool only).
    pub walkers_lost: u64,
    /// Fleet clock at report time, simulated ms.
    pub fleet_ms: f64,
}

impl FleetReport {
    /// A canonical multi-line rendering of the report, suitable for golden
    /// comparisons (`f64` values print round-trip-exact).
    pub fn digest(&self) -> String {
        format!("{self:#?}\n")
    }
}

struct Replica {
    session: SamplerSession,
    breaker: CircuitBreaker,
    dispatches: u64,
    failures: u64,
    faults: FaultReport,
}

/// Whether a dispatch failure may be masked by retrying elsewhere (runtime
/// faults), as opposed to a request error no replica can serve.
fn retryable(e: &NextDoorError) -> bool {
    matches!(
        e,
        NextDoorError::KernelFault { .. }
            | NextDoorError::DeviceLost { .. }
            | NextDoorError::OutOfMemory(_)
    )
}

/// N [`SamplerSession`] replicas of the same graph behind one deterministic
/// router. See the [module docs](self) for the recovery mechanisms.
pub struct ReplicaPool {
    replicas: Vec<Replica>,
    cfg: PoolConfig,
    fleet_ms: f64,
    requests: u64,
}

impl ReplicaPool {
    /// Builds a pool from caller-configured devices (one per replica; this
    /// is where per-replica [`FaultPlan`]s are
    /// installed) and one sampling app instance per replica, all over the
    /// same `graph`.
    ///
    /// # Errors
    ///
    /// [`NextDoorError::NoGpus`] for an empty pool, and any session
    /// creation error ([`NextDoorError::EmptyGraph`], upload
    /// [`NextDoorError::OutOfMemory`], a device already lost).
    pub fn new(
        gpus: Vec<Gpu>,
        graph: &Csr,
        apps: Vec<Box<dyn SamplingApp + Send>>,
        cfg: PoolConfig,
    ) -> Result<Self, NextDoorError> {
        if gpus.is_empty() {
            return Err(NextDoorError::NoGpus);
        }
        assert_eq!(
            gpus.len(),
            apps.len(),
            "one sampling app instance per replica device"
        );
        let mut replicas = Vec::with_capacity(gpus.len());
        for (gpu, app) in gpus.into_iter().zip(apps) {
            replicas.push(Replica {
                session: SamplerSession::with_gpu(gpu, graph.clone(), app)?,
                breaker: CircuitBreaker::new(cfg.breaker),
                dispatches: 0,
                failures: 0,
                faults: FaultReport::default(),
            });
        }
        Ok(ReplicaPool {
            replicas,
            cfg,
            fleet_ms: 0.0,
            requests: 0,
        })
    }

    /// Convenience constructor: `n` fault-free replicas of identical
    /// `spec`, with `make_app` invoked once per replica.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReplicaPool::new`].
    pub fn replicate(
        spec: &GpuSpec,
        n: usize,
        graph: &Csr,
        make_app: impl Fn() -> Box<dyn SamplingApp + Send>,
        cfg: PoolConfig,
    ) -> Result<Self, NextDoorError> {
        let gpus = (0..n).map(|_| Gpu::new(spec.clone())).collect();
        let apps = (0..n).map(|_| make_app()).collect();
        Self::new(gpus, graph, apps, cfg)
    }

    /// Replicas in the pool (healthy or not).
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Replicas currently routable: breaker closed or half-open-eligible,
    /// device not lost.
    pub fn healthy_count(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.breaker.available(self.fleet_ms))
            .count()
    }

    /// The deterministic fleet clock, in simulated milliseconds: advanced
    /// by dispatched batches' device time, retry backoffs and cool-down
    /// waits — never by wall time.
    pub fn fleet_ms(&self) -> f64 {
        self.fleet_ms
    }

    /// Replica `i`'s session (e.g. to inspect its device counters).
    pub fn session(&self, i: usize) -> &SamplerSession {
        &self.replicas[i].session
    }

    /// Schedules faults on replica `i` relative to its current traffic
    /// (see [`SamplerSession::schedule_faults`]) — the chaos-harness hook
    /// for killing or degrading a specific replica mid-stream.
    pub fn schedule_faults(&mut self, i: usize, plan: FaultPlan) {
        self.replicas[i].session.schedule_faults(plan);
    }

    /// Per-replica breaker state, for tests and monitoring.
    pub fn breaker(&self, i: usize) -> &CircuitBreaker {
        &self.replicas[i].breaker
    }

    /// The pool-level slice of the [`FleetReport`], with the fleet counters
    /// read from `metrics`, the registry this pool's dispatches record into
    /// (the batcher in front adds the degraded intervals, see
    /// [`FleetBatcher::report`]).
    pub fn report(&self, metrics: &ServeMetrics) -> FleetReport {
        let m = &metrics.sim;
        FleetReport {
            replicas: self
                .replicas
                .iter()
                .map(|r| ReplicaStats {
                    dispatches: r.dispatches,
                    failures: r.failures,
                    trips: r.breaker.trips,
                    probes: r.breaker.probes,
                    recoveries: r.breaker.recoveries,
                    lost: r.breaker.is_dead(),
                    faults: r.faults.clone(),
                })
                .collect(),
            batches: m.batches,
            requests: self.requests,
            retries: m.retries,
            shed: m.overload_shed,
            cooldown_waits: m.cooldown_waits,
            fleet_ms: self.fleet_ms,
            ..FleetReport::default()
        }
    }

    /// The least-loaded routable replica (load = accumulated device sim
    /// time) — the shared failover rule of [`least_loaded_alive`].
    fn pick(&self) -> Option<usize> {
        let alive: Vec<bool> = self
            .replicas
            .iter()
            .map(|r| r.breaker.available(self.fleet_ms))
            .collect();
        let load: Vec<f64> = self.replicas.iter().map(|r| r.session.sim_ms()).collect();
        least_loaded_alive(&alive, &load)
    }

    /// Earliest fleet-clock instant at which some tripped (but live)
    /// breaker reopens.
    fn earliest_reopen(&self) -> Option<f64> {
        self.replicas
            .iter()
            .filter_map(|r| r.breaker.reopen_at())
            .min_by(f64::total_cmp)
    }

    /// Runs `queries` on replica `dev`, charging its device time to the
    /// fleet clock and updating its breaker and stats. Records one
    /// [`SpanKind::Attempt`] span per call and, on success, one
    /// [`SpanKind::ClassLaunch`] span per width class, mapped from the
    /// replica's device clock onto the fleet clock.
    fn attempt(
        &mut self,
        dev: usize,
        queries: &[SessionQuery],
        batch_seq: u64,
        obs: &mut Obs,
    ) -> Result<FusedResult, NextDoorError> {
        let fleet_t0 = self.fleet_ms;
        let r = &mut self.replicas[dev];
        r.breaker.begin_dispatch(self.fleet_ms);
        r.dispatches += 1;
        let t0 = r.session.sim_ms();
        let launch0 = r.session.gpu().launches_issued();
        let res = r.session.query_fused(queries);
        let launch1 = r.session.gpu().launches_issued();
        self.fleet_ms += r.session.sim_ms() - t0;
        obs.trace.push(
            Span::new(SpanKind::Attempt, fleet_t0, self.fleet_ms)
                .batch(batch_seq)
                .replica(dev)
                .batch_size(queries.len())
                .launches((launch0, launch1))
                .ok(res.is_ok()),
        );
        match res {
            Ok(fused) => {
                // This attempt ran the device from `t0`; its class launch
                // intervals shift onto the fleet timeline by the attempt's
                // fleet start.
                let spec = r.session.gpu().spec();
                record_class_launches(
                    obs,
                    batch_seq,
                    Some(dev),
                    &fused.class_marks,
                    spec,
                    fleet_t0 - t0,
                );
                r.breaker.record_success();
                r.faults.merge(&fused.report);
                Ok(fused)
            }
            Err(e) => {
                r.failures += 1;
                if matches!(e, NextDoorError::DeviceLost { .. }) || r.session.device_lost() {
                    r.breaker.kill();
                } else {
                    r.breaker.record_failure(self.fleet_ms);
                }
                Err(e)
            }
        }
    }

    /// Records a dispatch that gave up: its failed requests and the
    /// unsuccessful dispatch interval.
    fn record_failed(&self, obs: &mut Obs, batch_seq: u64, start_ms: f64, n: usize) {
        obs.metrics.sim.failed += n as u64;
        obs.trace.push(
            Span::new(SpanKind::Dispatch, start_ms, self.fleet_ms)
                .batch(batch_seq)
                .batch_size(n)
                .ok(false),
        );
    }
}

/// The replicated backend: its clock is the fleet clock, its units the
/// replicas whose breakers admit traffic.
impl Backend for ReplicaPool {
    fn clock_ms(&self) -> f64 {
        self.fleet_ms
    }

    /// Replica 0's copy of the shared graph.
    fn graph(&self) -> &Csr {
        self.replicas[0].session.graph()
    }

    /// Replica 0's instance of the served application.
    fn app(&self) -> &dyn SamplingApp {
        self.replicas[0].session.app()
    }

    fn health(&self) -> (usize, usize) {
        (self.healthy_count(), self.replicas.len())
    }

    /// Dispatches one fused batch to the fleet: routes every attempt to the
    /// least-loaded healthy replica, retries with fleet-clock backoff on
    /// runtime failures, and waits out breaker cool-downs when nobody is
    /// routable.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoHealthyReplica`] once every replica is permanently
    /// lost; [`ServeError::Sampling`] for request errors (immediately) and
    /// for runtime errors that survived the retry budget.
    fn dispatch(
        &mut self,
        queries: &[SessionQuery],
        batch_seq: u64,
        obs: &mut Obs,
    ) -> Result<FusedResult, ServeError> {
        self.requests += queries.len() as u64;
        obs.metrics.sim.batches += 1;
        obs.metrics.sim.batch_size.observe(queries.len() as f64);
        let start_ms = self.fleet_ms;
        let mut retries = 0usize;
        let (fused, replica) = loop {
            let Some(dev) = self.pick() else {
                // Nobody is routable right now. If some breaker merely
                // cools down, advance the fleet clock to its reopen
                // instant (a deterministic "wait"); otherwise the fleet
                // is gone.
                let Some(t) = self.earliest_reopen() else {
                    self.record_failed(obs, batch_seq, start_ms, queries.len());
                    return Err(ServeError::NoHealthyReplica {
                        replicas: self.replicas.len(),
                    });
                };
                let wait_from = self.fleet_ms;
                self.fleet_ms = self.fleet_ms.max(t);
                obs.metrics.sim.cooldown_waits += 1;
                obs.trace.push(
                    Span::new(SpanKind::CooldownWait, wait_from, self.fleet_ms).batch(batch_seq),
                );
                continue;
            };
            match self.attempt(dev, queries, batch_seq, obs) {
                Ok(fused) => break (fused, dev),
                Err(e) if !retryable(&e) || retries >= self.cfg.max_retries => {
                    self.record_failed(obs, batch_seq, start_ms, queries.len());
                    return Err(ServeError::Sampling(e));
                }
                Err(_) => {
                    // Exponential backoff on the fleet clock before the
                    // next attempt (which the router may send elsewhere).
                    // The exponent saturates at 63: `1u64 << 64` overflows.
                    let backoff_from = self.fleet_ms;
                    self.fleet_ms += self.cfg.backoff_base_ms * (1u64 << retries.min(63)) as f64;
                    retries += 1;
                    obs.metrics.sim.retries += 1;
                    obs.trace.push(
                        Span::new(SpanKind::Backoff, backoff_from, self.fleet_ms).batch(batch_seq),
                    );
                }
            }
        };
        obs.trace.push(
            Span::new(SpanKind::Dispatch, start_ms, self.fleet_ms)
                .batch(batch_seq)
                .replica(replica)
                .batch_size(fused.per_query.len())
                .ok(true),
        );
        Ok(fused)
    }
}

/// The batcher over a replica pool.
pub type FleetBatcher = Batcher<ReplicaPool>;

impl FleetBatcher {
    /// The underlying pool.
    pub fn pool(&self) -> &ReplicaPool {
        &self.backend
    }

    /// Mutable access to the pool (e.g. to schedule chaos mid-run).
    pub fn pool_mut(&mut self) -> &mut ReplicaPool {
        &mut self.backend
    }

    /// The full fleet report: the pool's dispatch/recovery counters plus
    /// the batcher's degraded-mode intervals (an interval still open is
    /// closed at the current fleet clock).
    pub fn report(&self) -> FleetReport {
        FleetReport {
            degraded_intervals: self.degraded_intervals(),
            ..self.backend.report(self.metrics())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{Priority, Request, RequestId, ServeConfig};
    use crate::health::BreakerState;
    use nextdoor_apps::KHop;
    use nextdoor_graph::gen::{rmat, RmatParams};

    fn graph() -> Csr {
        rmat(8, 1500, RmatParams::SKEWED, 11)
    }

    fn app() -> Box<dyn SamplingApp + Send> {
        Box::new(KHop::new(vec![2, 2]))
    }

    fn pool_with_plans(plans: Vec<FaultPlan>, cfg: PoolConfig) -> ReplicaPool {
        let g = graph();
        let gpus = plans
            .into_iter()
            .map(|p| {
                let mut gpu = Gpu::new(GpuSpec::small());
                if !p.is_empty() {
                    gpu.inject_faults(p);
                }
                gpu
            })
            .collect::<Vec<_>>();
        let apps = (0..gpus.len()).map(|_| app()).collect();
        ReplicaPool::new(gpus, &g, apps, cfg).unwrap()
    }

    fn req(seed: u64) -> Request {
        Request::new((0..4).map(|i| vec![i as u32]).collect(), seed)
    }

    /// Dispatches one single-query batch through the trait, recording
    /// into `obs`.
    fn dispatch(
        pool: &mut ReplicaPool,
        obs: &mut Obs,
        seed: u64,
    ) -> Result<FusedResult, ServeError> {
        let q = SessionQuery {
            init: req(seed).init,
            seed,
        };
        pool.dispatch(&[q], 0, obs)
    }

    #[test]
    fn routes_to_least_loaded_replica() {
        let mut pool = pool_with_plans(
            vec![FaultPlan::new(), FaultPlan::new()],
            PoolConfig::default(),
        );
        let mut obs = Obs::default();
        dispatch(&mut pool, &mut obs, 1).unwrap();
        dispatch(&mut pool, &mut obs, 2).unwrap();
        let rep = pool.report(&obs.metrics);
        assert_eq!(
            (rep.replicas[0].dispatches, rep.replicas[1].dispatches),
            (1, 1),
            "second batch goes to the idle replica"
        );
        assert_eq!(rep.batches, 2);
        assert_eq!(rep.requests, 2);
        assert_eq!(rep.retries, 0);
        assert!(rep.fleet_ms > 0.0);
    }

    #[test]
    fn device_loss_fails_over_with_identical_samples() {
        let mut clean = pool_with_plans(vec![FaultPlan::new()], PoolConfig::default());
        let want = dispatch(&mut clean, &mut Obs::default(), 7).unwrap();

        let mut pool = pool_with_plans(
            vec![FaultPlan::new().lose_device_at_launch(0), FaultPlan::new()],
            PoolConfig::default(),
        );
        let mut obs = Obs::default();
        let got = dispatch(&mut pool, &mut obs, 7).unwrap();
        assert_eq!(
            got.per_query[0].final_samples(),
            want.per_query[0].final_samples(),
            "replica choice never changes the samples"
        );
        let rep = pool.report(&obs.metrics);
        assert!(rep.replicas[0].lost);
        assert_eq!(rep.replicas[0].failures, 1);
        assert_eq!(rep.replicas[1].dispatches, 1, "survivor served the batch");
        assert_eq!(rep.retries, 1);
    }

    #[test]
    fn all_replicas_lost_is_typed() {
        let mut pool = pool_with_plans(
            vec![
                FaultPlan::new().lose_device_at_launch(0),
                FaultPlan::new().lose_device_at_launch(0),
            ],
            PoolConfig::default(),
        );
        assert_eq!(
            dispatch(&mut pool, &mut Obs::default(), 1).err(),
            Some(ServeError::NoHealthyReplica { replicas: 2 })
        );
        assert_eq!(pool.healthy_count(), 0);
    }

    #[test]
    fn transient_storm_trips_breaker_then_recovers_on_fleet_clock() {
        // A dense transient range makes every step attempt fault until the
        // launch counter escapes it, so single-replica dispatches fail with
        // KernelFault, trip the breaker, and probes eventually recover it.
        // (A clean fused query here is ~20 launches; a failed dispatch
        // burns ~40 across its internal step retries, so 200 storm
        // launches force several consecutive dispatch failures.)
        let storm = FaultPlan {
            transient_launches: (0..200).collect(),
            ..FaultPlan::new()
        };
        let cfg = PoolConfig {
            max_retries: 50,
            backoff_base_ms: 0.01,
            breaker: BreakerConfig {
                trip_after: 2,
                cooldown_ms: 0.5,
            },
        };
        let mut pool = pool_with_plans(vec![storm], cfg);
        let mut obs = Obs::default();
        let res = dispatch(&mut pool, &mut obs, 3).unwrap();
        let rep = pool.report(&obs.metrics);
        assert!(rep.retries > 0, "the storm forced serving-level retries");
        assert!(rep.replicas[0].trips >= 1, "breaker tripped");
        assert!(rep.replicas[0].probes >= 1, "half-open probes happened");
        assert_eq!(
            rep.replicas[0].recoveries, 1,
            "a probe finally closed the breaker"
        );
        assert!(rep.cooldown_waits >= 1, "the pool waited out a cool-down");
        assert!(matches!(
            pool.breaker(0).state(),
            BreakerState::Closed { .. }
        ));

        // The recovered samples equal a fault-free run's.
        let mut clean = pool_with_plans(vec![FaultPlan::new()], PoolConfig::default());
        let want = dispatch(&mut clean, &mut Obs::default(), 3).unwrap();
        assert_eq!(
            res.per_query[0].final_samples(),
            want.per_query[0].final_samples()
        );
    }

    /// Regression test: the 65th backoff shifted `1u64` by 64, which
    /// panics in a debug build and wraps to the base backoff in a release
    /// build. The exponent now saturates, so a dispatch that fails through
    /// 100 retries comes back as a typed error on a finite fleet clock.
    #[test]
    fn backoff_saturates_past_64_retries() {
        let storm = FaultPlan {
            transient_launches: (0..20_000).collect(),
            ..FaultPlan::new()
        };
        let cfg = PoolConfig {
            max_retries: 100,
            breaker: BreakerConfig {
                trip_after: 1_000_000,
                ..BreakerConfig::default()
            },
            ..PoolConfig::default()
        };
        let mut pool = pool_with_plans(vec![storm], cfg);
        let mut obs = Obs::default();
        assert!(matches!(
            dispatch(&mut pool, &mut obs, 3),
            Err(ServeError::Sampling(NextDoorError::KernelFault { .. }))
        ));
        let rep = pool.report(&obs.metrics);
        assert_eq!(rep.retries, 100);
        assert!(rep.fleet_ms.is_finite());
    }

    #[test]
    fn degraded_fleet_shrinks_batches_and_sheds_lowest_priority() {
        let serve_cfg = ServeConfig {
            max_batch: 4,
            max_queue: 8,
            default_deadline_ms: None,
        };
        let pool = pool_with_plans(
            vec![
                FaultPlan::new(),
                FaultPlan::new().lose_device_at_launch(0),
                FaultPlan::new().lose_device_at_launch(0),
            ],
            PoolConfig::default(),
        );
        let mut fb = FleetBatcher::new(pool, serve_cfg).unwrap();
        // Kill two of three replicas first: the opening batch lands on
        // replica 0 (all idle, lowest index wins), the second routes to
        // idle replica 1, dies, fails over through replica 2 (dies too)
        // and completes on replica 0.
        for s in [100, 101] {
            fb.submit(req(s)).unwrap();
            let probe = fb.drain();
            assert!(probe.iter().all(|(_, r)| r.is_ok()));
        }
        assert_eq!(fb.pool().healthy_count(), 1);

        // Fill the queue: 8 requests, one of them Low priority. The two
        // probe submissions took ids 0 and 1, so these are ids 2..=9.
        let mut ids = Vec::new();
        for s in 1..=8 {
            let mut r = req(s);
            if s == 5 {
                r = r.with_priority(Priority::Low);
            }
            ids.push(fb.submit(r).unwrap());
        }
        let low_id = ids[4];
        let served = fb.drain();
        // Capacity scaled to 8 * 1/3 = 2: six requests shed, Low first.
        let shed: Vec<RequestId> = served
            .iter()
            .filter(|(_, r)| matches!(r, Err(ServeError::Overloaded { .. })))
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(shed.len(), 6);
        assert_eq!(
            shed[0], low_id,
            "the Low-priority request is shed before any Normal one"
        );
        let ok: Vec<RequestId> = served
            .iter()
            .filter(|(_, r)| r.is_ok())
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(ok, vec![ids[0], ids[1]], "FIFO survivors");
        for (_, r) in served.iter().filter(|(_, r)| r.is_ok()) {
            assert!(
                r.as_ref().unwrap().latency.batch_size <= 1,
                "batch cap scaled 4 -> 1 with one of three replicas healthy"
            );
        }
        let rep = fb.report();
        assert_eq!(rep.shed, 6);
        assert_eq!(rep.degraded_intervals.len(), 1);
        assert!(rep.degraded_intervals[0].1 > rep.degraded_intervals[0].0);
    }
}
