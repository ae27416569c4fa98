//! The unified REPL reply type shared by all backends.

use crate::phases::{CommandCounters, PhaseBreakdown};
use culi_core::ErrorCode;
use culi_gpu_sim::SectionReport;

/// Result of submitting one line to any CuLi backend.
///
/// `Default` (empty output, `ok == false`, all counters zero) exists for
/// tests and mock queues that need a base to build replies from; real
/// backends always construct every field.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// The printed output (or a rendered error message).
    pub output: String,
    /// `false` when `output` is an error message rather than a value.
    pub ok: bool,
    /// Stable classification of how this command ended: [`ErrorCode::Ok`]
    /// for plain successes, the error's code for `ok == false` replies,
    /// and [`ErrorCode::Degraded`] for successes produced by the
    /// scheduler's sequential fallback after a backend failure (output
    /// and counters are still byte-identical to the reference; only this
    /// marker differs). Lets clients distinguish user error / fuel
    /// exhaustion / backend degradation without string matching.
    pub code: ErrorCode,
    /// Per-phase simulated timing (zeroed sections the backend does not
    /// model; the real-threads backend reports only master-side phases).
    pub phases: PhaseBreakdown,
    /// Raw paper-model operation counters behind `phases`, split by
    /// phase and by master-vs-worker, including the print work of a
    /// command whose printing failed. Backend-independent for successful
    /// commands (the differential harness asserts it). A failed command's
    /// `parse` and `print` are backend-independent too; its job counters
    /// are only where jobs run in order on the master (modeled CPU, GPU),
    /// since a chunked pool worker may run past the globally-first error.
    pub counters: CommandCounters,
    /// One report per `|||` section the command executed (modeled
    /// backends only).
    pub sections: Vec<SectionReport>,
    /// Real wall-clock nanoseconds from parse start to reply, on every
    /// backend (cache hits included). Measured, not modeled: the modeled
    /// time is `phases`.
    pub wall_ns: u64,
}

impl Reply {
    /// Shorthand used by tests: panics unless the reply is a success.
    pub fn expect_ok(self) -> String {
        assert!(self.ok, "REPL error: {}", self.output);
        self.output
    }

    /// A server-constructed refusal: the command was never executed (all
    /// counters zero), `ok == false`, and `code` says why — the session
    /// server's structured backpressure ([`ErrorCode::Overloaded`],
    /// [`ErrorCode::QueueFull`]) in place of a silent drop.
    pub fn refusal(code: ErrorCode, why: &str) -> Self {
        Self {
            output: format!("error: {why}"),
            ok: false,
            code,
            ..Default::default()
        }
    }
}
