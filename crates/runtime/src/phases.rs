//! Phase accounting: operation counts → device cycles → milliseconds.
//!
//! The paper's evaluation (Figs. 16/17/18) splits every command into three
//! device phases — parsing, evaluating, printing — and reports both
//! absolute times and proportions. [`PhaseBreakdown`] is that record for
//! one submitted command.

use culi_core::cost::Counters;
use culi_gpu_sim::{CostTable, DeviceSpec};

/// Converts one phase's operation counts into device cycles under a cost
/// table. This is the *entire* timing model: exact counts × calibrated
/// per-op prices.
pub fn counters_to_cycles(costs: &CostTable, c: &Counters) -> u64 {
    c.chars_scanned * costs.char_scan
        + c.nodes_alloc * costs.node_alloc
        + c.nodes_freed * costs.node_read
        + c.node_reads * costs.node_read
        + c.eval_steps * costs.eval_step
        + c.env_probes * costs.env_probe
        + c.symbol_cmp_bytes * costs.sym_cmp_byte
        + c.arith_ops * costs.arith
        + c.builtin_calls * costs.builtin_call
        + c.form_applies * costs.form_apply
        + c.output_bytes * costs.output_byte
        + c.number_formats * costs.num_format
}

/// Paper-model operation counters of one REPL command, split the way the
/// cost model attributes them. Every backend fills this identically for
/// the same program — the cross-backend differential harness asserts it —
/// so `parse`/`eval_master`/`print` cover the master thread's three
/// phases and `jobs` covers work evaluated inside `|||` workers (measured
/// in the worker interpreters for the real-threads backends, separated on
/// the master meter for the modeled ones).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandCounters {
    /// Tokenize/parse phase.
    pub parse: Counters,
    /// Master-side evaluation work (job evaluation excluded).
    pub eval_master: Counters,
    /// Work evaluated inside `|||` section jobs (nested sections counted
    /// once). Backend synchronization traffic — flat-codec encode/decode,
    /// sync replay, snapshot resync — is *not* paper-model work and is never
    /// charged here or anywhere else.
    pub jobs: Counters,
    /// Print phase.
    pub print: Counters,
}

impl CommandCounters {
    /// Element-wise sum of all four groups: the command's total
    /// paper-model work regardless of where it ran.
    pub fn combined(&self) -> Counters {
        let mut total = self.parse;
        total.add(&self.eval_master);
        total.add(&self.jobs);
        total.add(&self.print);
        total
    }
}

/// Per-phase timing of one REPL command on one device.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Parse phase, device cycles.
    pub parse_cycles: u64,
    /// Evaluation phase, device cycles (master dispatch + parallel-section
    /// time; worker compute is inside the section's execute time).
    pub eval_cycles: u64,
    /// Print phase, device cycles.
    pub print_cycles: u64,
    /// Host↔device transfer overhead, nanoseconds.
    pub transfer_ns: u64,
    /// Device clock in MHz (to render cycles as time).
    pub clock_mhz: u32,
}

impl PhaseBreakdown {
    /// Total device cycles across the three phases.
    pub fn total_cycles(&self) -> u64 {
        self.parse_cycles + self.eval_cycles + self.print_cycles
    }

    fn to_ms(self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz as f64 * 1_000.0)
    }

    /// Parse time in milliseconds.
    pub fn parse_ms(&self) -> f64 {
        self.to_ms(self.parse_cycles)
    }

    /// Evaluation time in milliseconds.
    pub fn eval_ms(&self) -> f64 {
        self.to_ms(self.eval_cycles)
    }

    /// Print time in milliseconds.
    pub fn print_ms(&self) -> f64 {
        self.to_ms(self.print_cycles)
    }

    /// Kernel execution time in milliseconds (sum of the three phases —
    /// the quantity of paper Fig. 16a).
    pub fn execution_ms(&self) -> f64 {
        self.to_ms(self.total_cycles())
    }

    /// Total including host transfer, milliseconds (paper Fig. 15).
    pub fn runtime_ms(&self) -> f64 {
        self.execution_ms() + self.transfer_ns as f64 / 1e6
    }

    /// `(parse, eval, print)` shares of the kernel time, each in `[0, 1]`
    /// (paper Figs. 17/18). All zeros for an empty command.
    pub fn proportions(&self) -> (f64, f64, f64) {
        let total = self.total_cycles();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = total as f64;
        (
            self.parse_cycles as f64 / t,
            self.eval_cycles as f64 / t,
            self.print_cycles as f64 / t,
        )
    }
}

/// Builds a breakdown from per-phase counters and a device.
pub fn breakdown(
    spec: &DeviceSpec,
    parse: &Counters,
    eval: &Counters,
    print: &Counters,
    extra_eval_cycles: u64,
    transfer_ns: u64,
) -> PhaseBreakdown {
    PhaseBreakdown {
        parse_cycles: counters_to_cycles(&spec.costs, parse),
        eval_cycles: counters_to_cycles(&spec.costs, eval) + extra_eval_cycles,
        print_cycles: counters_to_cycles(&spec.costs, print),
        transfer_ns,
        clock_mhz: spec.clock_mhz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culi_gpu_sim::device::gtx1080;

    #[test]
    fn counters_to_cycles_is_linear() {
        let costs = gtx1080().costs;
        let a = Counters {
            chars_scanned: 10,
            ..Default::default()
        };
        let b = Counters {
            chars_scanned: 20,
            ..Default::default()
        };
        assert_eq!(
            2 * counters_to_cycles(&costs, &a),
            counters_to_cycles(&costs, &b)
        );
        assert_eq!(counters_to_cycles(&costs, &Counters::default()), 0);
    }

    #[test]
    fn proportions_sum_to_one() {
        let p = PhaseBreakdown {
            parse_cycles: 500,
            eval_cycles: 300,
            print_cycles: 200,
            transfer_ns: 0,
            clock_mhz: 1000,
        };
        let (a, b, c) = p.proportions();
        assert!((a + b + c - 1.0).abs() < 1e-12);
        assert!((a - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ms_conversion_uses_clock() {
        let p = PhaseBreakdown {
            parse_cycles: 1_000_000,
            eval_cycles: 0,
            print_cycles: 0,
            transfer_ns: 500_000,
            clock_mhz: 1000, // 1 GHz → 1e6 cycles = 1 ms
        };
        assert!((p.parse_ms() - 1.0).abs() < 1e-9);
        assert!((p.runtime_ms() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_has_zero_proportions() {
        let p = PhaseBreakdown {
            clock_mhz: 1000,
            ..Default::default()
        };
        assert_eq!(p.proportions(), (0.0, 0.0, 0.0));
    }
}
