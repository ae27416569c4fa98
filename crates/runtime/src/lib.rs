//! # culi-runtime — CuLi's execution runtimes
//!
//! Ties the interpreter (`culi-core`) to the machine models
//! (`culi-gpu-sim`):
//!
//! * [`gpu_repl::GpuRepl`] — the paper's system: host command buffer,
//!   persistent kernel, master-thread parse/eval/print, postbox-driven
//!   `|||` sections with warp-livelock mechanics.
//! * [`cpu_repl::CpuRepl`] — the comparison systems: a modeled pthread
//!   pool (figures) and a real std::thread persistent-pool backend
//!   (functional parallelism).
//! * `pipeline` — the one parse → eval → print → GC → [`Reply`] loop both
//!   REPLs run, over a small backend trait (the clock the work is charged
//!   to and the `|||` hook in use).
//! * [`pool::WorkerPool`] — the persistent real-threads `|||` backend:
//!   warm interpreter forks synchronized incrementally through the flat
//!   postbox codec.
//! * [`scheduler::BatchScheduler`] — the backend-agnostic batch
//!   dispatcher: classification, run coalescing, barrier/drain semantics
//!   and reply re-sequencing over the [`scheduler::ExecQueue`] trait that
//!   every backend implements.
//! * [`session::Session`] — one facade over every backend.
//! * [`server::SessionServer`] — the multi-tenant layer: fair-share
//!   admission (deficit round-robin), structured backpressure and
//!   per-tenant containment/quarantine over many concurrent sessions,
//!   which share one worker fleet lent to each in turn.
//! * [`phases`] — operation counts → cycles → per-phase milliseconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cpu_repl;
pub mod error;
pub mod gpu_repl;
pub mod phases;
mod pipeline;
pub mod pool;
pub mod reply;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod vfs;

pub use cache::{CacheConfig, CacheStats, CommandCache, TierStats};
pub use cpu_repl::{CpuMode, CpuRepl, CpuReplConfig, SectionRoutes};
pub use error::{Result, RuntimeError};
pub use gpu_repl::{GpuRepl, GpuReplConfig};
pub use phases::{counters_to_cycles, CommandCounters, PhaseBreakdown};
pub use pool::{ThreadedHook, WorkerPool};
pub use reply::Reply;
pub use scheduler::{BatchScheduler, ExecQueue, Verdict};
pub use server::{ServerConfig, ServerStats, SessionServer, TenantId, TenantSnapshot, TenantStats};
pub use session::{Session, TenantSessionConfig};
pub use vfs::{DirFs, VirtualFs};
