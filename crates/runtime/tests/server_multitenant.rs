//! Multi-tenant server properties over randomized tenant populations,
//! command streams and server tuning (quantum, in-flight cap, promotion
//! point):
//!
//! 1. **Per-tenant FIFO + byte-identity** — each tenant's reply stream
//!    (output, ok flag, code, counters) is identical to the same commands
//!    fed through an isolated [`Session::tenant`] submit loop, whatever
//!    route the server picked (cold reference or the shared worker
//!    fleet). With immediate promotion every tenant borrows the one
//!    fleet, which switches tenant between their own commands, so a
//!    tenant returning to the fleet must resume with identical env state
//!    and counters.
//! 2. **Fair share** — every tenant with queued work is served at least
//!    once per round, and never more than the in-flight cap per round.
//! 3. **In-flight cap** — `max_inflight_seen` never exceeds the
//!    configured cap.
//! 4. **Backpressure accounting** — with tiny queue bounds, every submit
//!    is either queued or refused with the right structured code, and
//!    accepted == executed (nothing lost, nothing silently dropped).
//!
//! Case count is modest by default; `CULI_SERVER_CASES` scales it up for
//! the deep CI sweep.

use culi_core::ErrorCode;
use culi_runtime::{ServerConfig, Session, SessionServer, TenantId, TenantSessionConfig};
use proptest::prelude::*;

fn cases(default: u32) -> u32 {
    std::env::var("CULI_SERVER_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One generated command. All shapes are deterministic and error-free so
/// healthy-tenant byte-identity is exact (resource errors are the
/// quarantine suite's domain, exercised in `server.rs` unit tests and the
/// differential fault sweep).
#[derive(Debug, Clone, Copy)]
enum Cmd {
    /// `(setq v k)` — barrier, mutates the tenant's env.
    Set(u8),
    /// `(+ v k)` — cheap pure read.
    Add(u8),
    /// `(||| 2 + (a b) (4 5))` — stageable parallel section (runs on the
    /// shared fleet on the warm route).
    Section(u8, u8),
    /// `(list v k)` — allocating read.
    List(u8),
}

fn cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        (0u8..20).prop_map(Cmd::Set),
        (0u8..20).prop_map(Cmd::Add),
        (0u8..9, 0u8..9).prop_map(|(a, b)| Cmd::Section(a, b)),
        (0u8..20).prop_map(Cmd::List),
    ]
}

fn render(c: Cmd) -> String {
    match c {
        Cmd::Set(k) => format!("(setq v {k})"),
        Cmd::Add(k) => format!("(+ v {k})"),
        Cmd::Section(a, b) => format!("(||| 2 + ({a} {b}) (4 5))"),
        Cmd::List(k) => format!("(list v {k})"),
    }
}

/// Tenant streams: 2–4 tenants, 3–7 commands each, each stream prefixed
/// with `(setq v 1)` so later reads are defined.
fn streams() -> impl Strategy<Value = Vec<Vec<String>>> {
    prop::collection::vec(prop::collection::vec(cmd(), 3..8), 2..5).prop_map(|tenants| {
        tenants
            .into_iter()
            .map(|cmds| {
                let mut stream = vec!["(setq v 1)".to_string()];
                stream.extend(cmds.into_iter().map(render));
                stream
            })
            .collect()
    })
}

fn tenant_cfg() -> TenantSessionConfig {
    TenantSessionConfig {
        fuel_budget: 500_000,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// Properties 1–3: drive `pump_round` by hand over random streams and
    /// tuning, asserting fairness bounds per round and byte-identity per
    /// tenant at the end.
    #[test]
    fn server_matches_isolated_sessions_under_fair_rounds(
        streams in streams(),
        quantum in 1usize..5,
        max_inflight in 1usize..4,
        promote_now in proptest::prelude::any::<bool>(),
    ) {
        let spec = culi_gpu_sim::device::intel_e5_2620();
        let config = ServerConfig {
            quantum,
            max_inflight,
            // `promote_now` puts every tenant on the warm route, where
            // the fleet switches tenant every round; otherwise every
            // tenant rides the cold reference route.
            promote_after: if promote_now { 0 } else { u64::MAX },
            // Scoring must never trip for healthy streams.
            quarantine_threshold: u32::MAX,
            reject_threshold: u32::MAX,
            ..Default::default()
        };
        let mut srv = SessionServer::new(spec, config);
        let ids: Vec<TenantId> = streams.iter().map(|_| srv.admit(tenant_cfg())).collect();
        for (t, stream) in streams.iter().enumerate() {
            for cmd in stream {
                prop_assert!(srv.enqueue(ids[t], cmd).is_none(), "refusal under default bounds");
            }
        }

        let mut replies: Vec<Vec<_>> = streams.iter().map(|_| Vec::new()).collect();
        loop {
            let backlogged: Vec<usize> = srv
                .server_stats()
                .tenants
                .iter()
                .enumerate()
                .filter(|(_, t)| t.queued > 0)
                .map(|(i, _)| i)
                .collect();
            if backlogged.is_empty() {
                break;
            }
            let round = srv.pump_round();
            let mut served = vec![0usize; streams.len()];
            for (id, r) in round {
                served[id.index()] += 1;
                replies[id.index()].push(r);
            }
            for &t in &backlogged {
                // Property 2: fair share every round, bounded above by
                // the in-flight cap.
                prop_assert!(served[t] >= 1, "tenant {t} starved this round");
                prop_assert!(served[t] <= max_inflight, "tenant {t} over-served");
            }
        }

        // Property 1: per-tenant FIFO byte-identity with an isolated
        // session, whatever mixture of cold and fleet service the tenant
        // saw.
        let stats = srv.server_stats();
        for (t, stream) in streams.iter().enumerate() {
            prop_assert_eq!(replies[t].len(), stream.len());
            let mut isolated = Session::tenant(spec, &tenant_cfg());
            for (k, cmd) in stream.iter().enumerate() {
                let want = isolated.submit(cmd).unwrap();
                let got = &replies[t][k];
                prop_assert_eq!(&got.output, &want.output, "tenant {} cmd {}", t, cmd);
                prop_assert_eq!(got.ok, want.ok, "tenant {} cmd {}", t, cmd);
                prop_assert_eq!(got.code, want.code, "tenant {} cmd {}", t, cmd);
                prop_assert_eq!(got.counters, want.counters, "tenant {} cmd {}", t, cmd);
            }
            isolated.shutdown();
            // Property 3 + metering: cap respected, meters consistent.
            let ts = &stats.tenants[t].stats;
            prop_assert!(ts.max_inflight_seen <= max_inflight);
            prop_assert_eq!(ts.executed, stream.len() as u64);
            prop_assert_eq!(ts.ok, stream.len() as u64);
            prop_assert_eq!(ts.enqueued, stream.len() as u64);
        }
        srv.shutdown();
    }
}

/// Regression (quarantine ladder): degraded successes decay the failure
/// score at half rate. Before the fix an `ErrorCode::Degraded` ok reply
/// decayed like a plain success, so a single cheap command popped a
/// hostile tenant straight back out of degradation-only service.
#[test]
fn degraded_successes_decay_failure_score_at_half_rate() {
    let spec = culi_gpu_sim::device::intel_e5_2620();
    let mut srv = SessionServer::new(
        spec,
        ServerConfig {
            quarantine_threshold: 4,
            reject_threshold: 100,
            ..Default::default()
        },
    );
    let noisy = srv.admit(TenantSessionConfig {
        fuel_budget: 10_000,
        ..Default::default()
    });
    let runaway = "(dotimes (k 100000000) (* k k))";
    // Two fuel runaways (+2 each) reach the quarantine threshold of 4.
    for _ in 0..2 {
        assert!(srv.enqueue(noisy, runaway).is_none());
    }
    let replies = srv.drain();
    assert!(replies.iter().all(|(_, r)| r.code == ErrorCode::Fuel));
    // First success under quarantine: degraded, and at half-rate decay
    // the score must still sit at the threshold...
    assert!(srv.enqueue(noisy, "(+ 1 1)").is_none());
    let replies = srv.drain();
    assert_eq!(replies[0].1.code, ErrorCode::Degraded);
    // ...so the second success is STILL degraded (score only now decays
    // to 3). Under the old full-rate decay this reply came back Ok.
    assert!(srv.enqueue(noisy, "(+ 2 2)").is_none());
    let replies = srv.drain();
    assert_eq!(replies[0].1.code, ErrorCode::Degraded);
    // Score dropped below the threshold after two degraded successes:
    // the third is served normally again.
    assert!(srv.enqueue(noisy, "(+ 3 3)").is_none());
    let replies = srv.drain();
    assert_eq!(replies[0].1.code, ErrorCode::Ok);
    assert!(replies[0].1.ok);
    srv.shutdown();
}

/// Regression (fleet switch): the server's one worker fleet serves each
/// tenant within its own arena capacity and heap limit. A's global fills
/// 58% of the default 32,768-node arena, B's 61% of its own 16,384-node
/// arena, C's half of its 12,000-node heap limit. A replica still holding
/// the previous tenant's values fails B's and C's small sections; one
/// sized to A's arena runs B's large section, which fails in isolation.
#[test]
fn fleet_switch_serves_each_tenant_within_its_own_arena_and_heap() {
    let spec = culi_gpu_sim::device::intel_e5_2620();
    let cfgs = [
        TenantSessionConfig::default(),
        TenantSessionConfig {
            arena_capacity: 1 << 14,
            ..Default::default()
        },
        TenantSessionConfig {
            heap_limit: 12_000,
            ..Default::default()
        },
    ];
    let streams = [1900, 1000, 600].map(|chunk| {
        let mut stream = vec![
            "(defun grow (n) (let ((acc nil)) (dotimes (k n) (setq acc (cons k acc))) (car acc)))"
                .to_string(),
            "(setq big nil)".to_string(),
        ];
        let fill = format!("(dotimes (k {chunk}) (setq big (cons k big)))");
        stream.extend(std::iter::repeat_n(fill, 10));
        let sections = ["(||| 2 grow (100 200))", "(||| 2 grow (3000 10))"];
        stream.extend([sections[0], sections[1], sections[0]].map(String::from));
        stream
    });
    let mut srv = SessionServer::new(
        spec,
        ServerConfig {
            promote_after: 0,
            ..Default::default()
        },
    );
    let ids = cfgs.clone().map(|cfg| srv.admit(cfg));
    // Round k serves command k of every tenant, so the fleet switches
    // tenant at every section.
    let mut replies = vec![vec![]; ids.len()];
    for k in 0..streams[0].len() {
        for (id, stream) in ids.iter().zip(&streams) {
            assert!(srv.enqueue(*id, &stream[k]).is_none());
        }
        for (id, r) in srv.pump_round() {
            replies[id.index()].push(r);
        }
    }
    srv.shutdown();
    for (t, (cfg, stream)) in cfgs.iter().zip(&streams).enumerate() {
        let mut isolated = Session::tenant(spec, cfg);
        for (got, cmd) in replies[t].iter().zip(stream) {
            let want = isolated.submit(cmd).unwrap();
            assert_eq!(got.output, want.output, "tenant {t} {cmd}");
            assert_eq!(got.ok, want.ok, "tenant {t} {cmd}");
            assert_eq!(got.code, want.code, "tenant {t} {cmd}");
            assert_eq!(got.counters, want.counters, "tenant {t} {cmd}");
        }
        isolated.shutdown();
    }
    let sections = |t: usize| replies[t][12..].iter().map(|r| r.ok).collect::<Vec<_>>();
    assert_eq!(sections(0), [true; 3]);
    assert_eq!(sections(1), [true, false, true]);
    assert!(
        replies[1][13].output.contains("16384"),
        "{}",
        replies[1][13].output
    );
    assert_eq!(sections(2), [true, false, true]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// Property 4: tiny queue bounds. Every submit either queues or is
    /// refused with the structured code matching the bound it hit, and
    /// every accepted command executes exactly once.
    #[test]
    fn backpressure_accounting_is_exact(
        submits in prop::collection::vec((0usize..3, 0u8..20), 1..40),
        queue_capacity in 1usize..4,
        global_capacity in 2usize..8,
    ) {
        let spec = culi_gpu_sim::device::intel_e5_2620();
        let mut srv = SessionServer::new(
            spec,
            ServerConfig {
                queue_capacity,
                global_queue_capacity: global_capacity,
                ..Default::default()
            },
        );
        let ids: Vec<TenantId> = (0..3).map(|_| srv.admit(tenant_cfg())).collect();
        let mut accepted = [0u64; 3];
        let mut refused = [0u64; 3];
        for &(t, k) in &submits {
            let queued_before = srv.server_stats().queued;
            let tenant_before = srv.server_stats().tenants[t].queued;
            match srv.enqueue(ids[t], &format!("(+ {k} 1)")) {
                None => {
                    accepted[t] += 1;
                    prop_assert!(tenant_before < queue_capacity);
                    prop_assert!(queued_before < global_capacity);
                }
                Some(r) => {
                    refused[t] += 1;
                    prop_assert!(!r.ok);
                    if queued_before >= global_capacity {
                        prop_assert_eq!(r.code, ErrorCode::Overloaded);
                    } else {
                        prop_assert_eq!(r.code, ErrorCode::QueueFull);
                        prop_assert!(tenant_before >= queue_capacity);
                    }
                    // Refusals never execute: all counters zero.
                    prop_assert_eq!(r.counters.combined().total(), 0);
                }
            }
        }
        let replies = srv.drain();
        let mut executed = [0u64; 3];
        for (id, r) in &replies {
            executed[id.index()] += 1;
            prop_assert!(r.ok);
        }
        let stats = srv.server_stats();
        for t in 0..3 {
            prop_assert_eq!(executed[t], accepted[t], "tenant {}", t);
            let ts = &stats.tenants[t].stats;
            prop_assert_eq!(ts.enqueued, accepted[t]);
            prop_assert_eq!(ts.executed, accepted[t]);
            prop_assert_eq!(ts.shed_queue_full + ts.shed_overloaded, refused[t]);
        }
        srv.shutdown();
    }
}
