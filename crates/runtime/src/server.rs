//! Multi-tenant session server: fair-share admission over the shared
//! runtime, with structured backpressure and noisy-neighbor quarantine.
//!
//! Everything below PR 7 drives a single [`Session`]; the paper's north
//! star — *"serving heavy lisp traffic from millions of users"* — needs
//! the multiplexing layer above the [`crate::scheduler::BatchScheduler`]:
//! many tenants, each with its **own** interpreter/environment/sync
//! state, sharing one host. [`SessionServer`] is that layer.
//!
//! # Fairness contract
//!
//! Admission is **deficit round-robin** over per-tenant FIFO command
//! queues. Each [`SessionServer::pump_round`] visits every tenant once in
//! rotation; a tenant with queued work earns [`ServerConfig::quantum`]
//! deficit credits, executes up to `min(deficit, queued, max_inflight)`
//! commands, and pays one credit per command **that actually reached the
//! runtime** — refusals (quarantine rejection, session-level failures)
//! never cost credit, so a backpressured tenant is not doubly penalized
//! for commands that never executed. A tenant whose queue goes idle
//! forfeits its accumulated deficit (classic DRR), so credit cannot be
//! hoarded. Consequences, asserted by the property suite:
//!
//! * **No starvation:** every tenant with queued work executes at least
//!   one command within one round.
//! * **Fair share:** over any window, a backlogged tenant's service is
//!   bounded by `quantum` per round regardless of how much it enqueues.
//! * **Per-tenant FIFO:** replies come back in submission order (the
//!   queue is FIFO and every dequeued command is replied to in order).
//! * **In-flight cap:** no more than [`ServerConfig::max_inflight`]
//!   commands of one tenant are ever dispatched into its session at
//!   once.
//!
//! # Backpressure contract
//!
//! Queues are bounded and refusals are **structured, never silent**: a
//! submit past the tenant's queue bound returns a
//! [`culi_core::ErrorCode::QueueFull`] reply, a submit past the server's
//! global bound returns [`culi_core::ErrorCode::Overloaded`], and a
//! quarantine-rejected command returns [`culi_core::ErrorCode::Overloaded`]
//! with a quarantine message. Refused commands are never executed (all
//! counters zero) and are counted per tenant in [`TenantStats`].
//!
//! # Quarantine contract (noisy-neighbor isolation)
//!
//! Per-tenant containment knobs — fuel budget, heap limit, watchdog
//! deadline — are fixed at admission ([`Session::tenant`]). On top, the
//! server keeps a per-tenant **failure score**: resource-class failures
//! (fuel, limits: +2; device/internal: +3) raise it, successes decay it
//! by 1. At [`ServerConfig::quarantine_threshold`] the tenant is demoted
//! to **degradation-only** service: commands still execute (sequential
//! reference route, never the shared pool) and otherwise-ok replies are
//! marked [`culi_core::ErrorCode::Degraded`]; sustained good behaviour
//! decays the score back below the threshold, but degraded successes
//! decay at **half rate** (one point per two ok replies) so a hostile
//! tenant interleaving cheap successes with runaways cannot oscillate
//! straight back out of quarantine. At
//! [`ServerConfig::reject_threshold`] the tenant is **rejected** outright
//! — commands are refused unexecuted and the score no longer decays, so
//! rejection is terminal for the session's lifetime.
//!
//! # Byte-identity guarantee
//!
//! A healthy tenant's replies are byte-identical — output, ok flag,
//! error code and [`CommandCounters`] — to the same command stream fed
//! through an isolated [`Session::tenant`] submit loop, regardless of
//! how the server routes it. The routes themselves carry the invariant:
//! the cold route is [`Session::submit_reference`] (pinned byte-identical
//! to the pooled path), the warm route is [`Session::submit_batch`]
//! (pinned identical to a submit loop), and quarantine only ever touches
//! the `Degraded` marker of an *offending* tenant. The differential
//! fault sweep asserts this under scripted hostile-tenant plans.
//!
//! # One worker fleet
//!
//! Forking a worker pool per tenant costs threads × an interpreter clone
//! — ruinous at hundreds of tenants, which is exactly the naive baseline
//! the `gate` bench binary measures (`multi_tenant_speedup`). Like the
//! paper's one persistent kernel (§III-D), the server owns one
//! [`WorkerPool`], forked by the first warm section, and lends it to the
//! tenant it serves: a switch resyncs each seat by snapshot, and the
//! tenant's sections chunk over [`TenantSessionConfig::threads`] seats.
//! **Cold** tenants (under [`ServerConfig::promote_after`] executed
//! commands) run on the sequential reference and never touch it.

use crate::cache::{CacheConfig, CacheStats, CommandCache};
use crate::phases::CommandCounters;
use crate::pool::WorkerPool;
use crate::reply::Reply;
use crate::session::{Session, TenantSessionConfig};
use culi_core::fault::{FaultKind, FaultSite};
use culi_core::ErrorCode;
use culi_gpu_sim::DeviceSpec;
use std::collections::VecDeque;

/// Handle to one admitted tenant (index into the server's tenant table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(usize);

impl TenantId {
    /// The tenant's index in [`ServerStats::tenants`].
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant {}", self.0)
    }
}

/// Server-wide tuning knobs. `Default` suits tests and moderate fleets;
/// the bench scales them with tenant count.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bound of each tenant's FIFO command queue; submits past it are
    /// refused with [`ErrorCode::QueueFull`].
    pub queue_capacity: usize,
    /// Bound of queued commands across all tenants; submits past it are
    /// refused with [`ErrorCode::Overloaded`].
    pub global_queue_capacity: usize,
    /// Deficit credits a tenant with queued work earns per round.
    pub quantum: usize,
    /// Most commands of one tenant dispatched into its session at once.
    pub max_inflight: usize,
    /// Executed commands before a tenant is promoted off the cold
    /// (sequential-reference) route onto the pooled route.
    pub promote_after: u64,
    /// Failure score at which service degrades (sequential-only, replies
    /// marked [`ErrorCode::Degraded`]).
    pub quarantine_threshold: u32,
    /// Failure score at which commands are refused outright (terminal).
    pub reject_threshold: u32,
    /// Reply cache for the fleet ([`crate::cache`]): each tenant gets a
    /// private reply tier ([`CommandCache::tenant_view`]). `None`
    /// disables caching. On by default — cache-served replies are
    /// bit-identical to uncached ones.
    pub cache: Option<CacheConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            global_queue_capacity: 4096,
            quantum: 8,
            max_inflight: WorkerPool::PIPELINE_DEPTH * WorkerPool::MAX_RUN_SECTIONS,
            promote_after: 32,
            quarantine_threshold: 8,
            reject_threshold: 16,
            cache: Some(CacheConfig::default()),
        }
    }
}

/// Per-tenant metering, aggregated from every reply the tenant received.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Commands accepted into the queue.
    pub enqueued: u64,
    /// Submits refused with [`ErrorCode::QueueFull`].
    pub shed_queue_full: u64,
    /// Submits refused with [`ErrorCode::Overloaded`] (global bound).
    pub shed_overloaded: u64,
    /// Dequeued commands refused unexecuted by quarantine rejection.
    pub shed_quarantined: u64,
    /// Commands actually executed (successes and user errors alike).
    pub executed: u64,
    /// Executed commands with `ok == true`.
    pub ok: u64,
    /// Executed commands with `ok == false`.
    pub failed: u64,
    /// Ok replies demoted to [`ErrorCode::Degraded`] under quarantine.
    pub degraded: u64,
    /// Times another tenant's section took the worker fleet over from
    /// this tenant.
    pub evictions: u64,
    /// Warm-route sections run inline on the tenant's master
    /// ([`crate::SectionRoutes::inline`]): they never borrow the fleet.
    pub inline_sections: u64,
    /// Warm-route sections staged on the fleet
    /// ([`crate::SectionRoutes::pooled`]).
    pub pooled_sections: u64,
    /// Largest single dispatch into the session (must stay within
    /// [`ServerConfig::max_inflight`]; the proptest suite asserts it).
    pub max_inflight_seen: usize,
    /// Paper-model charges summed over every executed command's
    /// [`CommandCounters`].
    pub counters: CommandCounters,
}

/// One tenant's row in a [`ServerStats`] snapshot.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// The aggregated meters.
    pub stats: TenantStats,
    /// Current failure score (0 = spotless).
    pub failure_score: u32,
    /// Commands currently queued.
    pub queued: usize,
}

/// Point-in-time server metering ([`SessionServer::server_stats`]).
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Pump rounds completed.
    pub rounds: u64,
    /// Commands queued across all tenants right now.
    pub queued: usize,
    /// Command-cache hit/miss/evict counters (all zero when the cache is
    /// disabled). Reply counters aggregate every tenant's private tier;
    /// the verdict and template counters stay zero (no runtime path
    /// probes either).
    pub cache: CacheStats,
    /// Per-tenant rows, indexed by [`TenantId::index`].
    pub tenants: Vec<TenantSnapshot>,
}

#[derive(Debug)]
struct Tenant {
    session: Session,
    cfg: TenantSessionConfig,
    queue: VecDeque<String>,
    deficit: u64,
    failure_score: u32,
    /// Consecutive [`ErrorCode::Degraded`] ok replies since the last
    /// score decay (degraded successes decay at half rate).
    degraded_ok_streak: u32,
    stats: TenantStats,
}

/// The multi-tenant session server. See the module docs for the
/// fairness, backpressure, quarantine and byte-identity contracts.
#[derive(Debug)]
pub struct SessionServer {
    spec: DeviceSpec,
    config: ServerConfig,
    tenants: Vec<Tenant>,
    rr_cursor: usize,
    round: u64,
    queued_total: usize,
    /// The worker pool warm tenants borrow (`None` until launched).
    fleet: Option<WorkerPool>,
    /// The fleet's shared command cache (`None` when disabled); tenants
    /// receive [`CommandCache::tenant_view`]s of it at admission.
    cache: Option<CommandCache>,
}

impl SessionServer {
    /// A server admitting tenants onto `spec`-class sessions.
    pub fn new(spec: DeviceSpec, config: ServerConfig) -> Self {
        let config = ServerConfig {
            quantum: config.quantum.max(1),
            max_inflight: config.max_inflight.max(1),
            queue_capacity: config.queue_capacity.max(1),
            global_queue_capacity: config.global_queue_capacity.max(1),
            ..config
        };
        let cache = config.cache.clone().map(CommandCache::new);
        Self {
            spec,
            config,
            tenants: Vec::new(),
            rr_cursor: 0,
            round: 0,
            queued_total: 0,
            fleet: None,
            cache,
        }
    }

    /// Admits a tenant: boots its isolated session with every containment
    /// knob from `cfg` fixed now ([`Session::tenant`]). When the server
    /// runs a command cache, the tenant receives its own
    /// [`CommandCache::tenant_view`] (a private reply tier) unless `cfg`
    /// already pinned one.
    pub fn admit(&mut self, mut cfg: TenantSessionConfig) -> TenantId {
        if cfg.cache.is_none() {
            cfg.cache = self.cache.as_ref().map(CommandCache::tenant_view);
        }
        let id = TenantId(self.tenants.len());
        let session = Session::tenant(self.spec, &cfg);
        self.tenants.push(Tenant {
            session,
            cfg,
            queue: VecDeque::new(),
            deficit: 0,
            failure_score: 0,
            degraded_ok_streak: 0,
            stats: TenantStats::default(),
        });
        id
    }

    /// Number of admitted tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Queues one command for `id`. Returns `None` when accepted, or the
    /// structured backpressure reply ([`ErrorCode::Overloaded`] /
    /// [`ErrorCode::QueueFull`]) when refused — the command is then *not*
    /// queued and will never execute. Never drops silently.
    pub fn enqueue(&mut self, id: TenantId, input: &str) -> Option<Reply> {
        let t = &mut self.tenants[id.0];
        if self.queued_total >= self.config.global_queue_capacity {
            t.stats.shed_overloaded += 1;
            return Some(Reply::refusal(
                ErrorCode::Overloaded,
                "server overloaded: global admission queue full",
            ));
        }
        if t.queue.len() >= self.config.queue_capacity {
            t.stats.shed_queue_full += 1;
            return Some(Reply::refusal(
                ErrorCode::QueueFull,
                "tenant command queue full",
            ));
        }
        t.queue.push_back(input.to_string());
        t.stats.enqueued += 1;
        self.queued_total += 1;
        None
    }

    /// One deficit-round-robin round: visits every tenant once, executes
    /// each backlogged tenant's share and returns the replies in
    /// dispatch order (per-tenant submission order is preserved).
    pub fn pump_round(&mut self) -> Vec<(TenantId, Reply)> {
        let n = self.tenants.len();
        let mut out = Vec::new();
        if n == 0 {
            return out;
        }
        self.round += 1;
        for k in 0..n {
            let idx = (self.rr_cursor + k) % n;
            if self.tenants[idx].queue.is_empty() {
                // Classic DRR: an idle queue forfeits its credit.
                self.tenants[idx].deficit = 0;
                continue;
            }
            self.tenants[idx].deficit += self.config.quantum as u64;
            let take = (self.tenants[idx].deficit.min(usize::MAX as u64) as usize)
                .min(self.tenants[idx].queue.len())
                .min(self.config.max_inflight);
            let (replies, executed) = self.execute_for(idx, take);
            // Deficit pays only for commands that reached the runtime:
            // refusals (quarantine rejection, session-level failure)
            // never executed, so they cost no credit.
            self.tenants[idx].deficit -= executed as u64;
            out.extend(replies.into_iter().map(|r| (TenantId(idx), r)));
        }
        self.rr_cursor = (self.rr_cursor + 1) % n;
        out
    }

    /// Pumps rounds until every queue is empty, returning all replies.
    pub fn drain(&mut self) -> Vec<(TenantId, Reply)> {
        let mut out = Vec::new();
        while self.queued_total > 0 {
            out.extend(self.pump_round());
        }
        out
    }

    /// Executes `take` queued commands of tenant `idx` through the route
    /// its state selects (rejected / degraded / cold / warm), returning
    /// one reply per command in submission order plus the count of
    /// commands that actually reached the runtime (the deficit charge).
    fn execute_for(&mut self, idx: usize, take: usize) -> (Vec<Reply>, usize) {
        let quarantine_threshold = self.config.quarantine_threshold;
        let reject_threshold = self.config.reject_threshold;
        let promote_after = self.config.promote_after;
        let t = &mut self.tenants[idx];
        t.stats.max_inflight_seen = t.stats.max_inflight_seen.max(take);

        let mut cmds = Vec::with_capacity(take);
        for _ in 0..take {
            let cmd = t.queue.pop_front().expect("take bounded by queue len");
            // Tenant-site fault injection. The plan lives in this
            // tenant's admission config only, so a trigger can never
            // leak into a healthy tenant's stream.
            let cmd = match t.cfg.fault_plan.poll(FaultSite::TenantCommand) {
                Some(kind) => hostile_command(kind).to_string(),
                None => cmd,
            };
            cmds.push(cmd);
        }
        self.queued_total -= take;

        let rejected = t.failure_score >= reject_threshold;
        let quarantined = t.failure_score >= quarantine_threshold;
        let warm_route = !quarantined && t.stats.executed >= promote_after;

        // Each reply is paired with whether the command actually reached
        // the runtime; refusals stay out of the deficit charge and the
        // executed/ok/failed meters.
        let mut switched_from = None;
        let mut replies: Vec<(Reply, bool)> = Vec::with_capacity(cmds.len());
        if rejected {
            // Terminal shedding: never executed, never silent.
            for _ in &cmds {
                t.stats.shed_quarantined += 1;
                replies.push((
                    Reply::refusal(
                        ErrorCode::Overloaded,
                        "tenant quarantined: repeated resource-limit offenses",
                    ),
                    false,
                ));
            }
        } else if warm_route {
            let refs: Vec<&str> = cmds.iter().map(String::as_str).collect();
            let last_owner = self.fleet.as_ref().and_then(WorkerPool::owner);
            let routes = t.session.section_routes();
            let batch = t.session.submit_batch_on(&mut self.fleet, idx, &refs);
            let now = t.session.section_routes();
            t.stats.inline_sections += now.inline - routes.inline;
            t.stats.pooled_sections += now.pooled - routes.pooled;
            // The fleet moved here only if this batch ran a section.
            if self.fleet.as_ref().and_then(WorkerPool::owner) != last_owner {
                switched_from = last_owner;
            }
            match batch {
                Ok(batch) => replies.extend(batch.into_iter().map(|r| (r, true))),
                // A session-level failure (device lost, closed): one
                // structured error reply per command keeps the tenant's
                // FIFO accounting intact instead of wedging the stream.
                Err(e) => {
                    let msg = e.to_string();
                    for _ in &cmds {
                        replies.push((Reply::refusal(e.code(), &msg), false));
                    }
                }
            }
        } else {
            for cmd in &cmds {
                match t.session.submit_reference(cmd) {
                    Ok(mut reply) => {
                        if quarantined && reply.ok {
                            // Degradation-only service: executed (output
                            // and counters intact), marked so clients see
                            // the quarantine structurally.
                            reply.code = ErrorCode::Degraded;
                            t.stats.degraded += 1;
                        }
                        replies.push((reply, true));
                    }
                    Err(e) => replies.push((Reply::refusal(e.code(), &e.to_string()), false)),
                }
            }
        }

        let mut executed = 0usize;
        for (reply, ran) in &replies {
            if !*ran {
                // A refusal never reached the runtime: no deficit charge,
                // no executed/ok/failed accounting. Session-level
                // failures still feed the failure score — a broken
                // session is exactly the noisy-neighbor signal.
                match reply.code {
                    ErrorCode::Device | ErrorCode::Internal | ErrorCode::Closed => {
                        t.failure_score += 3
                    }
                    _ => {}
                }
                continue;
            }
            executed += 1;
            t.stats.executed += 1;
            add_counters(&mut t.stats.counters, &reply.counters);
            if reply.ok {
                t.stats.ok += 1;
                if reply.code == ErrorCode::Degraded {
                    // Half-rate decay under quarantine: one score point
                    // per two degraded successes, so cheap interleaved
                    // successes cannot oscillate a hostile tenant back
                    // out of degradation-only service.
                    t.degraded_ok_streak += 1;
                    if t.degraded_ok_streak >= 2 {
                        t.degraded_ok_streak = 0;
                        t.failure_score = t.failure_score.saturating_sub(1);
                    }
                } else {
                    t.degraded_ok_streak = 0;
                    t.failure_score = t.failure_score.saturating_sub(1);
                }
            } else {
                t.stats.failed += 1;
                // Resource-class failures are the noisy-neighbor signal;
                // plain user/parse errors are not (a buggy-but-cheap
                // program is not an isolation threat).
                match reply.code {
                    ErrorCode::Fuel | ErrorCode::Limit => t.failure_score += 2,
                    ErrorCode::Device | ErrorCode::Internal | ErrorCode::Closed => {
                        t.failure_score += 3
                    }
                    _ => {}
                }
            }
        }
        if let Some(prev) = switched_from {
            self.tenants[prev].stats.evictions += 1;
        }
        (replies.into_iter().map(|(r, _)| r).collect(), executed)
    }

    /// Point-in-time metering snapshot across every tenant.
    pub fn server_stats(&self) -> ServerStats {
        let tenants: Vec<TenantSnapshot> = self
            .tenants
            .iter()
            .map(|t| TenantSnapshot {
                stats: t.stats,
                failure_score: t.failure_score,
                queued: t.queue.len(),
            })
            .collect();
        ServerStats {
            rounds: self.round,
            queued: self.queued_total,
            cache: self
                .cache
                .as_ref()
                .map(CommandCache::stats)
                .unwrap_or_default(),
            tenants,
        }
    }

    /// Shuts every tenant session and the worker fleet down (queued
    /// commands are discarded — callers wanting lossless teardown drain
    /// first).
    pub fn shutdown(&mut self) {
        self.fleet = None; // joins the fleet's workers
        for t in &mut self.tenants {
            t.session.shutdown();
            self.queued_total -= t.queue.len();
            t.queue.clear();
        }
    }
}

/// The misbehaving command substituted when a tenant-scoped fault fires.
/// Every shape is contained by the admission-time budgets: the runaways
/// exhaust fuel (or the heap/arena cap for the allocator), and a mid-run
/// "hang" is an unbounded loop the fuel ring converts into a bounded
/// [`ErrorCode::Fuel`] abort — worker-*site* hangs (a stuck thread, past
/// the watchdog deadline) are a different failure class exercised by
/// [`FaultSite::WorkerSection`] plans.
fn hostile_command(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::OversizedPayload => "(dotimes (k 100000000) (setq payload (cons k payload)))",
        FaultKind::Hang => "(while T 0)",
        // RunawayFuel, and any worker/device kind a hand-built plan
        // scripts at the tenant site, model a compute-bound runaway.
        _ => "(dotimes (k 100000000) (* k k))",
    }
}

fn add_counters(total: &mut CommandCounters, c: &CommandCounters) {
    total.parse.add(&c.parse);
    total.eval_master.add(&c.eval_master);
    total.jobs.add(&c.jobs);
    total.print.add(&c.print);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use culi_core::fault::FaultPlan;
    use culi_gpu_sim::device::intel_e5_2620;

    fn tenant_cfg() -> TenantSessionConfig {
        TenantSessionConfig {
            fuel_budget: 200_000,
            ..Default::default()
        }
    }

    fn small_server(config: ServerConfig) -> SessionServer {
        SessionServer::new(intel_e5_2620(), config)
    }

    /// Asserts `got` byte-identical (output, ok, code, counters) to
    /// `stream` submitted to an isolated session of `cfg`.
    fn assert_matches_isolated(got: &[Reply], stream: &[String], cfg: &TenantSessionConfig) {
        let mut isolated = Session::tenant(intel_e5_2620(), cfg);
        assert_eq!(got.len(), stream.len());
        for (got, cmd) in got.iter().zip(stream) {
            let want = isolated.submit(cmd).unwrap();
            assert_eq!(got.output, want.output, "{cmd}");
            assert_eq!(got.ok, want.ok, "{cmd}");
            assert_eq!(got.code, want.code, "{cmd}");
            assert_eq!(got.counters, want.counters, "{cmd}");
        }
        isolated.shutdown();
    }

    #[test]
    fn backpressure_is_structured_never_silent() {
        let mut srv = small_server(ServerConfig {
            queue_capacity: 2,
            global_queue_capacity: 3,
            ..Default::default()
        });
        let a = srv.admit(tenant_cfg());
        let b = srv.admit(tenant_cfg());
        assert!(srv.enqueue(a, "1").is_none());
        assert!(srv.enqueue(a, "2").is_none());
        // Per-tenant bound.
        let refused = srv.enqueue(a, "3").expect("queue full");
        assert!(!refused.ok);
        assert_eq!(refused.code, ErrorCode::QueueFull);
        assert!(refused.output.contains("queue full"));
        // Global bound.
        assert!(srv.enqueue(b, "1").is_none());
        let refused = srv.enqueue(b, "2").expect("overloaded");
        assert_eq!(refused.code, ErrorCode::Overloaded);
        let stats = srv.server_stats();
        assert_eq!(stats.tenants[a.index()].stats.shed_queue_full, 1);
        assert_eq!(stats.tenants[b.index()].stats.shed_overloaded, 1);
        assert_eq!(stats.queued, 3);
        // Accepted commands all execute and reply.
        let replies = srv.drain();
        assert_eq!(replies.len(), 3);
        assert!(replies.iter().all(|(_, r)| r.ok));
        srv.shutdown();
    }

    #[test]
    fn drr_round_serves_every_backlogged_tenant() {
        let mut srv = small_server(ServerConfig {
            quantum: 2,
            ..Default::default()
        });
        let a = srv.admit(tenant_cfg());
        let b = srv.admit(tenant_cfg());
        for k in 0..8 {
            assert!(srv.enqueue(a, &format!("(+ {k} 1)")).is_none());
        }
        assert!(srv.enqueue(b, "(* 2 3)").is_none());
        assert!(srv.enqueue(b, "(* 4 5)").is_none());
        let round = srv.pump_round();
        // The backlogged tenant cannot crowd out the small one: both get
        // exactly their quantum this round.
        let served_a = round.iter().filter(|(id, _)| *id == a).count();
        let served_b = round.iter().filter(|(id, _)| *id == b).count();
        assert_eq!(served_a, 2);
        assert_eq!(served_b, 2);
        // Per-tenant FIFO: replies in submission order.
        let a_outputs: Vec<&str> = round
            .iter()
            .filter(|(id, _)| *id == a)
            .map(|(_, r)| r.output.as_str())
            .collect();
        assert_eq!(a_outputs, ["1", "2"]);
        srv.drain();
        srv.shutdown();
    }

    #[test]
    fn tenant_containment_knobs_arm_at_admission() {
        let mut s = Session::tenant(
            intel_e5_2620(),
            &TenantSessionConfig {
                fuel_budget: 10_000,
                ..Default::default()
            },
        );
        let r = s.submit("(dotimes (k 100000000) (* k k))").unwrap();
        assert!(!r.ok);
        assert_eq!(r.code, ErrorCode::Fuel);
        // The session survives the abort.
        assert_eq!(s.submit("(+ 1 2)").unwrap().expect_ok(), "3");
        s.shutdown();
    }

    #[test]
    fn quarantine_escalates_from_degraded_to_rejected() {
        let mut srv = small_server(ServerConfig {
            quarantine_threshold: 4,
            reject_threshold: 8,
            ..Default::default()
        });
        let noisy = srv.admit(TenantSessionConfig {
            fuel_budget: 10_000,
            ..Default::default()
        });
        let healthy = srv.admit(tenant_cfg());
        let runaway = "(dotimes (k 100000000) (* k k))";
        // Two runaways (+2 each) reach the quarantine threshold.
        for _ in 0..2 {
            assert!(srv.enqueue(noisy, runaway).is_none());
        }
        assert!(srv.enqueue(healthy, "(+ 1 1)").is_none());
        let replies = srv.drain();
        for (id, r) in &replies {
            if *id == noisy {
                assert_eq!(r.code, ErrorCode::Fuel, "{}", r.output);
            } else {
                assert!(r.ok);
            }
        }
        assert_eq!(srv.server_stats().tenants[noisy.index()].failure_score, 4);
        // Quarantined-but-executing: an innocuous command still runs,
        // marked Degraded; output stays correct.
        assert!(srv.enqueue(noisy, "(+ 2 3)").is_none());
        let replies = srv.drain();
        let (_, r) = replies.iter().find(|(id, _)| *id == noisy).unwrap();
        assert!(r.ok);
        assert_eq!(r.code, ErrorCode::Degraded);
        assert_eq!(r.output, "5");
        // Two more runaways cross the reject threshold (3 + 2 + 2 = 7…
        // plus one more to be safe); rejected commands never execute.
        for _ in 0..3 {
            assert!(srv.enqueue(noisy, runaway).is_none());
        }
        srv.drain();
        assert!(srv.server_stats().tenants[noisy.index()].failure_score >= 8);
        assert!(srv.enqueue(noisy, "(+ 1 1)").is_none());
        let replies = srv.drain();
        let (_, r) = replies.iter().find(|(id, _)| *id == noisy).unwrap();
        assert!(!r.ok);
        assert_eq!(r.code, ErrorCode::Overloaded);
        assert!(r.output.contains("quarantined"));
        assert!(
            srv.server_stats().tenants[noisy.index()]
                .stats
                .shed_quarantined
                >= 1
        );
        // The healthy tenant is untouched throughout.
        assert!(srv.enqueue(healthy, "(* 6 7)").is_none());
        let replies = srv.drain();
        let (_, r) = replies.iter().find(|(id, _)| *id == healthy).unwrap();
        assert!(r.ok);
        assert_eq!(r.output, "42");
        assert_eq!(r.code, ErrorCode::Ok);
        srv.shutdown();
    }

    #[test]
    fn a_runaway_inside_a_job_is_quarantined_like_one_on_the_master() {
        // The same fuel-budgeted runaway, once on the master and once
        // inside `|||` jobs, on the cold (sequential reference) and warm
        // (fleet) routes: each abort answers `Fuel` and scores +2, so two
        // of them reach the quarantine threshold either way.
        for promote_after in [0, 1_000] {
            for runaway in ["(spin 1)", "(||| 2 spin (1 2))"] {
                let mut srv = small_server(ServerConfig {
                    quarantine_threshold: 4,
                    promote_after,
                    ..Default::default()
                });
                let noisy = srv.admit(TenantSessionConfig {
                    fuel_budget: 10_000,
                    ..Default::default()
                });
                let spin = "(defun spin (x) (dotimes (k 100000000) (* k x)))";
                assert!(srv.enqueue(noisy, spin).is_none());
                srv.drain();
                for _ in 0..2 {
                    assert!(srv.enqueue(noisy, runaway).is_none());
                }
                for (_, r) in srv.drain() {
                    assert_eq!(r.code, ErrorCode::Fuel, "{runaway}: {}", r.output);
                }
                let score = srv.server_stats().tenants[noisy.index()].failure_score;
                assert_eq!(score, 4, "{runaway}, promote_after {promote_after}");
                assert!(srv.enqueue(noisy, "(+ 2 3)").is_none());
                let (_, r) = srv.drain().pop().unwrap();
                assert_eq!(r.code, ErrorCode::Degraded, "{runaway}");
                srv.shutdown();
            }
        }
    }

    #[test]
    fn refusal_heavy_round_leaves_deficit_intact() {
        // Regression: the deficit used to be decremented by
        // `replies.len()` including refusals, so a quarantine-rejected
        // tenant paid quantum credit for commands that never executed.
        let mut srv = small_server(ServerConfig {
            quantum: 8,
            reject_threshold: 4,
            quarantine_threshold: 2,
            ..Default::default()
        });
        let a = srv.admit(tenant_cfg());
        srv.tenants[a.index()].failure_score = 16; // force terminal rejection
        for _ in 0..3 {
            assert!(srv.enqueue(a, "(+ 1 1)").is_none());
        }
        let replies = srv.pump_round();
        assert_eq!(replies.len(), 3);
        assert!(replies.iter().all(|(_, r)| r.code == ErrorCode::Overloaded));
        let stats = srv.server_stats();
        assert_eq!(stats.tenants[a.index()].stats.shed_quarantined, 3);
        assert_eq!(stats.tenants[a.index()].stats.executed, 0);
        // Nothing executed, so the full quantum credit is still there.
        assert_eq!(srv.tenants[a.index()].deficit, 8);
        srv.shutdown();
    }

    #[test]
    fn fleet_switches_between_tenants_without_forking() {
        // Each round serves every (warm) tenant in turn, so the fleet
        // switches tenant at every section. The erroring section's job
        // counters depend on how its jobs chunk over seats: the 2- and
        // 3-thread pair checks that each tenant keeps its own width.
        let stream = |t: usize| {
            [
                "(||| 2 + (1 2) (3 4))",
                "(setq v #)",
                "(defun f (x) (+ x v))",
                "(||| 3 f (10 20 30))",
                "(||| 6 / (6 6 6 6 6 6) (1 0 1 1 1 1))",
                "(setq v (* 2 #))",
                "(||| 3 f (10 20 30))",
            ]
            .map(|cmd| cmd.replace('#', &t.to_string()))
        };
        for threads in [vec![2; 16], vec![2, 3]] {
            let mut srv = small_server(ServerConfig {
                promote_after: 0,
                ..Default::default()
            });
            let cfgs: Vec<_> = threads
                .iter()
                .map(|&threads| TenantSessionConfig {
                    threads,
                    ..tenant_cfg()
                })
                .collect();
            let ids: Vec<_> = cfgs.iter().map(|cfg| srv.admit(cfg.clone())).collect();
            let (mut replies, mut served) = (vec![vec![]; ids.len()], vec![]);
            for k in 0..stream(0).len() {
                for &id in &ids {
                    assert!(srv.enqueue(id, &stream(id.index())[k]).is_none());
                }
                let pooled = |srv: &SessionServer, t: usize| {
                    srv.server_stats().tenants[t].stats.pooled_sections
                };
                let before: Vec<u64> = ids.iter().map(|id| pooled(&srv, id.index())).collect();
                let round = srv.pump_round();
                // Only sections staged on the fleet move it; a section
                // placed inline on its tenant's master leaves it alone.
                for (id, r) in round {
                    if pooled(&srv, id.index()) > before[id.index()] {
                        served.push(id.index());
                    }
                    replies[id.index()].push(r);
                }
                // The first round launched the fleet at its widest; no
                // switch since has cloned an interpreter.
                let clones: u64 = srv
                    .tenants
                    .iter_mut()
                    .map(|t| match &mut t.session {
                        Session::Cpu(r) => r.interp_mut().clone_count(),
                        Session::Gpu(_) => unreachable!("CPU server"),
                    })
                    .sum();
                assert_eq!(clones, *threads.iter().max().unwrap() as u64, "round {k}");
            }
            let stats = srv.server_stats();
            for (t, cfg) in cfgs.iter().enumerate() {
                assert_matches_isolated(&replies[t], &stream(t), cfg);
                // Each change of tenant between pooled sections is an
                // eviction.
                let evicted = served.windows(2).filter(|w| w[0] == t && w[1] != t);
                assert_eq!(stats.tenants[t].stats.evictions, evicted.count() as u64);
                // The repeated `f` section runs inline: its first run
                // measured it below the handoff. The others are unseen.
                assert_eq!(stats.tenants[t].stats.inline_sections, 1);
                assert_eq!(stats.tenants[t].stats.pooled_sections, 3);
            }
            srv.shutdown();
        }
    }

    #[test]
    fn metering_aggregates_reply_counters_exactly() {
        let mut srv = small_server(ServerConfig::default());
        let a = srv.admit(tenant_cfg());
        for cmd in ["(setq x 4)", "(* x x)", "(list x x x)"] {
            assert!(srv.enqueue(a, cmd).is_none());
        }
        let replies = srv.drain();
        let mut expect = CommandCounters::default();
        for (_, r) in &replies {
            add_counters(&mut expect, &r.counters);
        }
        let stats = srv.server_stats();
        assert_eq!(stats.tenants[a.index()].stats.counters, expect);
        assert_eq!(stats.tenants[a.index()].stats.executed, 3);
        assert_eq!(stats.tenants[a.index()].stats.ok, 3);
        assert_eq!(stats.rounds, 1);
        srv.shutdown();
    }

    #[test]
    fn healthy_tenants_stay_byte_identical_beside_a_scripted_hostile() {
        // The tenant-scoped fault plan substitutes hostile commands for
        // the noisy tenant only; the healthy tenant's replies must match
        // an isolated session byte-for-byte.
        let plan = FaultPlan::from_seed_tenant(7);
        let mut srv = small_server(ServerConfig::default());
        let noisy = srv.admit(TenantSessionConfig {
            fuel_budget: 50_000,
            fault_plan: plan.clone(),
            ..Default::default()
        });
        let healthy = srv.admit(tenant_cfg());
        let stream = ["(setq v 3)", "(+ v v)", "(||| 2 * (1 2) (3 4))", "(list v)"];
        for cmd in stream {
            assert!(srv.enqueue(noisy, cmd).is_none());
            assert!(srv.enqueue(healthy, cmd).is_none());
        }
        let replies = srv.drain();
        assert!(plan.injected_count() >= 1, "plan must have fired");
        let got: Vec<Reply> = replies
            .into_iter()
            .filter(|(id, _)| *id == healthy)
            .map(|(_, r)| r)
            .collect();
        assert_matches_isolated(&got, &stream.map(String::from), &tenant_cfg());
        srv.shutdown();
    }
}
