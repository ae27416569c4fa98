//! # culi-bench — workloads and figure regeneration for the CuLi paper
//!
//! [`workload`] generates the paper's fib(5) inputs (§IV) and the
//! repeated-traffic stream of the command cache; [`figures`] reruns every
//! figure of the evaluation on the simulated devices and renders the same
//! rows/series the paper reports; [`jsonout`] writes and reads the JSON
//! records. Two binaries:
//!
//! * `figures` — the command-line entry point of the evaluation sweep;
//! * `gate` — the wall-clock regression gate. It times every
//!   before/after pair of CuLi's performance record (pipelined vs
//!   rendezvous batches, scheduler cost, fuel overhead, hung-worker
//!   recovery, multi-tenant serving, command-cache speedup and miss tax)
//!   in one interleaved A/B loop, checks each against its committed
//!   `BENCH_pr*.json` value with one rule (regression band 1.6 on top of
//!   an absolute floor), and exits non-zero on a regression:
//!   `cargo run --release -p culi-bench --bin gate -- out.json`.
//!
//! The Criterion benches under `benches/` measure the real-machine cost of
//! the simulator and interpreter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod jsonout;
pub mod workload;
