//! Interpreter error type.

use core::fmt;

/// Everything that can go wrong while parsing or evaluating CuLi input.
#[derive(Debug, Clone, PartialEq)]
pub enum CuliError {
    /// Input ended inside a string literal.
    UnterminatedString {
        /// Byte offset of the opening quote.
        at: usize,
    },
    /// A `)` with no matching `(`.
    UnbalancedClose {
        /// Byte offset of the stray parenthesis.
        at: usize,
    },
    /// Input ended with unclosed `(`s.
    UnbalancedOpen {
        /// How many lists remained open.
        depth: usize,
    },
    /// The fixed node arena is exhausted (the paper's stated input-size
    /// limitation: *"the size of the possible inputs is currently limited
    /// ... by the organization of the nodes"*).
    ArenaFull {
        /// The arena capacity that was exceeded.
        capacity: usize,
    },
    /// Evaluation exceeded the configured recursion depth.
    RecursionLimit {
        /// The configured limit.
        limit: usize,
    },
    /// A built-in was applied to a value of the wrong type.
    Type {
        /// The built-in that complained.
        builtin: &'static str,
        /// Human-readable description of the expectation.
        expected: &'static str,
    },
    /// A built-in received the wrong number of arguments.
    Arity {
        /// The built-in that complained.
        builtin: &'static str,
        /// Human-readable arity description (e.g. "exactly 2").
        expected: &'static str,
        /// How many arguments arrived.
        got: usize,
    },
    /// Integer division or modulo by zero.
    DivByZero,
    /// Integer arithmetic overflowed `i64`.
    IntOverflow,
    /// The fixed output buffer overflowed while printing.
    OutputFull {
        /// Configured output capacity in bytes.
        capacity: usize,
    },
    /// `|||` was asked for more workers than the device provides.
    TooManyWorkers {
        /// Workers requested.
        requested: usize,
        /// Workers available.
        available: usize,
    },
    /// `|||`'s argument lists were shorter than the worker count.
    ParallelArgShort {
        /// Index (0-based) of the offending argument list.
        arg_index: usize,
        /// Its length.
        len: usize,
        /// Workers requested.
        requested: usize,
    },
    /// A worker failed; carries the worker index and the underlying error.
    /// Build it with [`CuliError::in_worker`], which picks
    /// [`CuliError::WorkerLimit`] instead when the job hit a resource cap.
    WorkerFailed {
        /// Which worker.
        worker: usize,
        /// What went wrong, pre-rendered (keeps the type `Sized` + cheap).
        message: String,
    },
    /// A worker's job was aborted by its fuel budget or a resource cap.
    /// Renders exactly like [`CuliError::WorkerFailed`]; `code` (always
    /// [`ErrorCode::Fuel`] or [`ErrorCode::Limit`]) is the job's own
    /// error code, so the abort classifies as it would on the master.
    WorkerLimit {
        /// Which worker.
        worker: usize,
        /// The job error's code.
        code: ErrorCode,
        /// What went wrong, pre-rendered.
        message: String,
    },
    /// Host-side file I/O failed (missing file, no host services attached).
    Io(String),
    /// A parallel backend failed (e.g. the simulated device livelocked).
    /// Carries the backend's rendered diagnosis; runtimes re-map this to
    /// their own error types.
    Backend(String),
    /// The command's fuel budget ([`crate::interp::InterpConfig::fuel_budget`])
    /// ran out mid-evaluation. The interpreter is left GC-consistent and the
    /// meter counters are valid up to the abort point.
    FuelExhausted {
        /// The per-command budget (in evaluator steps) that was exceeded.
        budget: u64,
    },
    /// The arena's live-node cap
    /// ([`crate::interp::InterpConfig::heap_limit`]) was hit. Unlike
    /// [`CuliError::ArenaFull`] (physical capacity), this is a configured
    /// policy limit containing runaway allocation.
    HeapLimitExceeded {
        /// The configured live-node limit that was exceeded.
        limit: usize,
    },
    /// Internal invariant violation — always a bug, never user error.
    Internal(&'static str),
}

/// Stable, string-free classification of every error a CuLi session can
/// report, carried on [`crate::Result`]-adjacent reply types so clients
/// (and the coming session server) can branch on failure class without
/// matching rendered messages. Shared by all three layers: `culi_core`
/// errors, `culi_runtime` errors and `culi-gpu-sim` device errors all
/// map into these codes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Not an error (successful reply). `Default` so zero-initialized
    /// replies classify as failed-unclassified only via `ok == false`.
    #[default]
    Ok,
    /// The input did not parse (unbalanced parens, unterminated string).
    Parse,
    /// A user-program error: wrong types/arity, division by zero,
    /// overflow, `|||` misuse, a failed worker job, host I/O.
    User,
    /// The per-command fuel budget ran out ([`CuliError::FuelExhausted`]).
    Fuel,
    /// A configured resource cap was hit (heap limit, arena capacity,
    /// recursion depth, output buffer).
    Limit,
    /// A parallel backend failed but the scheduler degraded gracefully:
    /// the reply was produced by the sequential reference instead.
    Degraded,
    /// A device-level failure (livelock, protocol violation) that could
    /// not be recovered.
    Device,
    /// The session was already shut down.
    Closed,
    /// The session server shed the command before execution: the global
    /// admission queue was full, or the tenant is quarantined for
    /// repeated resource-limit offenses. Structured backpressure — the
    /// client sees this reply instead of a silent drop and should retry
    /// later (or repair its program, if quarantined).
    Overloaded,
    /// The tenant's own bounded command queue was full. Unlike
    /// [`ErrorCode::Overloaded`] this is per-tenant backpressure: the
    /// server as a whole has capacity, but this tenant is submitting
    /// faster than its fair share drains.
    QueueFull,
    /// Internal invariant violation — always a bug.
    Internal,
}

impl CuliError {
    /// The stable [`ErrorCode`] this error classifies under.
    pub fn code(&self) -> ErrorCode {
        match self {
            Self::UnterminatedString { .. }
            | Self::UnbalancedClose { .. }
            | Self::UnbalancedOpen { .. } => ErrorCode::Parse,
            Self::ArenaFull { .. }
            | Self::RecursionLimit { .. }
            | Self::OutputFull { .. }
            | Self::HeapLimitExceeded { .. } => ErrorCode::Limit,
            Self::FuelExhausted { .. } => ErrorCode::Fuel,
            Self::Type { .. }
            | Self::Arity { .. }
            | Self::DivByZero
            | Self::IntOverflow
            | Self::TooManyWorkers { .. }
            | Self::ParallelArgShort { .. }
            | Self::WorkerFailed { .. }
            | Self::Io(_) => ErrorCode::User,
            Self::WorkerLimit { code, .. } => *code,
            Self::Backend(_) => ErrorCode::Device,
            Self::Internal(_) => ErrorCode::Internal,
        }
    }
}

impl CuliError {
    /// The error a `|||` section reports when its job `worker` failed
    /// with `inner`.
    pub fn in_worker(worker: usize, inner: &CuliError) -> Self {
        Self::from_worker(worker, inner.code(), inner.to_string())
    }

    /// [`CuliError::in_worker`] from a job error already reduced to its
    /// code and rendered text (a worker seat reports these): a fuel or
    /// limit code is kept, anything else is a plain
    /// [`CuliError::WorkerFailed`].
    pub fn from_worker(worker: usize, code: ErrorCode, message: String) -> Self {
        match code {
            ErrorCode::Fuel | ErrorCode::Limit => Self::WorkerLimit {
                worker,
                code,
                message,
            },
            _ => Self::WorkerFailed { worker, message },
        }
    }
}

impl fmt::Display for CuliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnterminatedString { at } => {
                write!(f, "unterminated string literal starting at byte {at}")
            }
            Self::UnbalancedClose { at } => {
                write!(f, "unmatched ')' at byte {at}")
            }
            Self::UnbalancedOpen { depth } => {
                write!(f, "input ended with {depth} unclosed '('")
            }
            Self::ArenaFull { capacity } => {
                write!(f, "node arena exhausted (capacity {capacity})")
            }
            Self::RecursionLimit { limit } => {
                write!(f, "recursion depth limit {limit} exceeded")
            }
            Self::Type { builtin, expected } => {
                write!(f, "{builtin}: expected {expected}")
            }
            Self::Arity {
                builtin,
                expected,
                got,
            } => {
                write!(f, "{builtin}: expected {expected} argument(s), got {got}")
            }
            Self::DivByZero => write!(f, "division by zero"),
            Self::IntOverflow => write!(f, "integer overflow"),
            Self::OutputFull { capacity } => {
                write!(f, "output buffer exhausted (capacity {capacity})")
            }
            Self::TooManyWorkers {
                requested,
                available,
            } => {
                write!(
                    f,
                    "||| requested {requested} workers, device has {available}"
                )
            }
            Self::ParallelArgShort {
                arg_index,
                len,
                requested,
            } => {
                write!(
                    f,
                    "||| argument list {arg_index} has {len} element(s) but {requested} workers were requested"
                )
            }
            Self::WorkerFailed { worker, message }
            | Self::WorkerLimit {
                worker, message, ..
            } => {
                write!(f, "worker {worker} failed: {message}")
            }
            Self::Io(msg) => write!(f, "file i/o error: {msg}"),
            Self::Backend(msg) => write!(f, "parallel backend error: {msg}"),
            Self::FuelExhausted { budget } => {
                write!(f, "fuel budget exhausted ({budget} steps)")
            }
            Self::HeapLimitExceeded { limit } => {
                write!(f, "heap limit exceeded ({limit} live nodes)")
            }
            Self::Internal(what) => write!(f, "internal interpreter error: {what}"),
        }
    }
}

impl std::error::Error for CuliError {}

/// Convenience alias used throughout the interpreter.
pub type Result<T> = core::result::Result<T, CuliError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(CuliError, &str)> = vec![
            (CuliError::UnterminatedString { at: 4 }, "byte 4"),
            (CuliError::UnbalancedClose { at: 9 }, "byte 9"),
            (CuliError::UnbalancedOpen { depth: 2 }, "2 unclosed"),
            (CuliError::ArenaFull { capacity: 128 }, "128"),
            (CuliError::RecursionLimit { limit: 64 }, "64"),
            (
                CuliError::Type {
                    builtin: "car",
                    expected: "a list",
                },
                "car",
            ),
            (
                CuliError::Arity {
                    builtin: "cons",
                    expected: "exactly 2",
                    got: 3,
                },
                "got 3",
            ),
            (CuliError::DivByZero, "zero"),
            (CuliError::OutputFull { capacity: 16 }, "16"),
            (
                CuliError::TooManyWorkers {
                    requested: 99,
                    available: 32,
                },
                "99",
            ),
            (CuliError::FuelExhausted { budget: 1000 }, "1000"),
            (CuliError::HeapLimitExceeded { limit: 512 }, "512"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn error_codes_classify_by_failure_class() {
        assert_eq!(
            CuliError::UnbalancedOpen { depth: 1 }.code(),
            ErrorCode::Parse
        );
        assert_eq!(CuliError::DivByZero.code(), ErrorCode::User);
        assert_eq!(
            CuliError::WorkerFailed {
                worker: 0,
                message: String::new()
            }
            .code(),
            ErrorCode::User
        );
        // A job's fuel or limit abort keeps its class through the
        // worker wrapper, and renders exactly like any worker failure.
        let limit = CuliError::RecursionLimit { limit: 512 };
        let wrapped = CuliError::in_worker(1, &limit);
        assert_eq!(wrapped.code(), ErrorCode::Limit);
        assert_eq!(
            wrapped.to_string(),
            "worker 1 failed: recursion depth limit 512 exceeded"
        );
        let fuel = CuliError::FuelExhausted { budget: 9 };
        assert_eq!(CuliError::in_worker(0, &fuel).code(), ErrorCode::Fuel);
        assert_eq!(
            CuliError::in_worker(0, &CuliError::DivByZero).code(),
            ErrorCode::User
        );
        assert_eq!(
            CuliError::FuelExhausted { budget: 1 }.code(),
            ErrorCode::Fuel
        );
        assert_eq!(
            CuliError::HeapLimitExceeded { limit: 1 }.code(),
            ErrorCode::Limit
        );
        assert_eq!(
            CuliError::ArenaFull { capacity: 1 }.code(),
            ErrorCode::Limit
        );
        assert_eq!(CuliError::Backend(String::new()).code(), ErrorCode::Device);
        assert_eq!(CuliError::Internal("x").code(), ErrorCode::Internal);
        assert_eq!(ErrorCode::default(), ErrorCode::Ok);
        // The backpressure codes are server-constructed (no CuliError maps
        // to them) but must stay distinct so clients can branch on them.
        assert_ne!(ErrorCode::Overloaded, ErrorCode::QueueFull);
        assert_ne!(ErrorCode::Overloaded, ErrorCode::User);
    }
}
