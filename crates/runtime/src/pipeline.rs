//! The one command pipeline every session runs.
//!
//! The paper's interpreter parses, evaluates and prints every command the
//! same way on the GPU and on the CPU comparison systems (Figs. 14–18).
//! [`Pipeline`] is that loop, once: parse → arm fuel → evaluate with a
//! `|||` hook → split master and job counters → print → GC → [`Reply`].
//! [`crate::CpuRepl`] and [`crate::GpuRepl`] own one each and differ only
//! in the [`Backend`] they hand it:
//!
//! * a [`Clock`] — the simulated machine master-serial work is charged to
//!   (`CpuMachine::serial_compute` or `PersistentKernel::master_compute`)
//!   and, for the modeled backends, the one that times `|||` sections;
//! * the [`ParallelHook`] that runs `|||` jobs: [`Modeled`] (jobs on the
//!   master, list-scheduled by the clock — the modeled CPU and every GPU
//!   device), [`Pooled`] (the real-threads worker pool) or [`Reference`]
//!   (the master-side sequential reference the scheduler degrades onto).
//!
//! The GPU adds only the command-buffer handshake around the pipeline.
//!
//! Batched streams enter through [`Pipeline::classify`]: one metered
//! parse, the reply-cache probe, the effect analysis' staging verdict and
//! the reply-tier store ticket, shared by both
//! [`crate::scheduler::ExecQueue`] impls.
//! The parsed forms stay GC-rooted until the command runs, and the parse
//! cycles are charged to whichever clock eventually runs it, so a command
//! costs the same whether it arrived through `submit` or `submit_batch`.
//!
//! Every reply — success or error, on every backend — carries the
//! counters of every phase that ran, including `print` when printing is
//! what failed, and the wall-clock time from parse start to reply.

use crate::cache::{CommandCache, ReplyTicket};
use crate::error::{Result, RuntimeError};
use crate::phases::{breakdown, counters_to_cycles, CommandCounters};
use crate::pool::ThreadedHook;
use crate::reply::Reply;
use crate::scheduler::Verdict;
use culi_core::cost::Counters;
use culi_core::eval::{eval, ParallelHook};
use culi_core::structhash::StructKey;
use culi_core::{CuliError, EnvId, ErrorCode, Interp, InterpConfig, NodeId};
use culi_gpu_sim::{CpuMachine, DeviceSpec, PersistentKernel, SectionReport, SimError};
use std::collections::HashMap;
use std::time::Instant;

/// The clock of a simulated machine.
pub(crate) trait Clock {
    /// The machine's device model (cost table, dispatch overhead).
    fn spec(&self) -> &DeviceSpec;
    /// Charges master-serial cycles.
    fn serial(&mut self, cycles: u64) -> std::result::Result<(), SimError>;
    /// Times one `|||` section of per-job cycle costs.
    fn section(&mut self, job_cycles: &[u64]) -> std::result::Result<SectionReport, SimError>;
}

impl Clock for CpuMachine {
    fn spec(&self) -> &DeviceSpec {
        CpuMachine::spec(self)
    }

    fn serial(&mut self, cycles: u64) -> std::result::Result<(), SimError> {
        self.serial_compute(cycles)
    }

    fn section(&mut self, job_cycles: &[u64]) -> std::result::Result<SectionReport, SimError> {
        self.parallel_section(job_cycles)
    }
}

impl Clock for PersistentKernel {
    fn spec(&self) -> &DeviceSpec {
        PersistentKernel::spec(self)
    }

    fn serial(&mut self, cycles: u64) -> std::result::Result<(), SimError> {
        self.master_compute(cycles)
    }

    fn section(&mut self, job_cycles: &[u64]) -> std::result::Result<SectionReport, SimError> {
        self.parallel_section(job_cycles)
    }
}

/// What a backend's `|||` sections did since the last
/// [`Backend::take_tally`].
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Paper-model work evaluated inside section jobs.
    pub(crate) jobs: Counters,
    /// The part of `jobs` metered on the master interpreter (and so to be
    /// subtracted from its eval window).
    pub(crate) on_master: Counters,
    /// Modeled section reports.
    pub(crate) sections: Vec<SectionReport>,
    /// A machine-level failure behind a section error.
    pub(crate) sim_error: Option<SimError>,
}

/// One backend of the pipeline: a `|||` hook plus the clock master-side
/// work is charged to.
pub(crate) trait Backend: ParallelHook {
    /// Charges master-serial cycles.
    fn charge(&mut self, cycles: u64) -> Result<()>;
    /// Drains the section tally accumulated since the last call.
    fn take_tally(&mut self) -> Tally;
}

/// Jobs evaluate on the master, one after another, and `clock` times each
/// section from their metered costs: the modeled CPU pthread pool and the
/// GPU's Algorithm-1 choreography alike. `job_cycles` is scratch lent by
/// the session, reused across sections and commands.
pub(crate) struct Modeled<'a, C> {
    clock: &'a mut C,
    tally: Tally,
    job_cycles: &'a mut Vec<u64>,
}

impl<'a, C: Clock> Modeled<'a, C> {
    pub(crate) fn new(clock: &'a mut C, job_cycles: &'a mut Vec<u64>) -> Self {
        Self {
            clock,
            tally: Tally::default(),
            job_cycles,
        }
    }
}

impl<C: Clock> ParallelHook for Modeled<'_, C> {
    fn execute(
        &mut self,
        interp: &mut Interp,
        jobs: &[NodeId],
        parent_env: EnvId,
        results: &mut Vec<NodeId>,
    ) -> culi_core::Result<()> {
        // Swap the scratch out for this section: a nested ||| inside a job
        // re-enters execute and must not clobber the outer section's
        // cycles (the nested level starts from a fresh buffer instead).
        let mut cycles = std::mem::take(self.job_cycles);
        cycles.clear();
        let costs = self.clock.spec().costs;
        for (w, &job) in jobs.iter().enumerate() {
            let env = interp.envs.push(Some(parent_env));
            let before = interp.meter.snapshot();
            let nested_before = self.tally.jobs;
            let value = match eval(interp, self, job, env, 0) {
                Ok(v) => v,
                Err(e) => {
                    *self.job_cycles = cycles;
                    return Err(CuliError::in_worker(w, &e));
                }
            };
            // A nested ||| inside this job already billed its own jobs;
            // bill only this job's own operations.
            let nested = self.tally.jobs.delta_since(&nested_before);
            let own = interp
                .meter
                .snapshot()
                .delta_since(&before)
                .delta_since(&nested);
            self.tally.jobs.add(&own);
            cycles.push(counters_to_cycles(&costs, &own));
            results.push(value);
        }
        let outcome = self.clock.section(&cycles);
        *self.job_cycles = cycles;
        match outcome {
            Ok(report) => {
                self.tally.sections.push(report);
                Ok(())
            }
            Err(e) => {
                let msg = e.to_string();
                self.tally.sim_error = Some(e);
                Err(CuliError::Backend(msg))
            }
        }
    }
}

impl<C: Clock> Backend for Modeled<'_, C> {
    fn charge(&mut self, cycles: u64) -> Result<()> {
        Ok(self.clock.serial(cycles)?)
    }

    fn take_tally(&mut self) -> Tally {
        let mut tally = std::mem::take(&mut self.tally);
        tally.on_master = tally.jobs;
        tally
    }
}

/// Jobs run on the real-threads worker pool; their counters come back
/// from the workers (plus any section the hook degraded onto the master).
pub(crate) struct Pooled<'a> {
    pub(crate) hook: &'a mut ThreadedHook,
    pub(crate) machine: &'a mut CpuMachine,
}

impl ParallelHook for Pooled<'_> {
    fn execute(
        &mut self,
        interp: &mut Interp,
        jobs: &[NodeId],
        parent_env: EnvId,
        results: &mut Vec<NodeId>,
    ) -> culi_core::Result<()> {
        self.hook.execute(interp, jobs, parent_env, results)
    }
}

impl Backend for Pooled<'_> {
    fn charge(&mut self, cycles: u64) -> Result<()> {
        Ok(self.machine.serial_compute(cycles)?)
    }

    fn take_tally(&mut self) -> Tally {
        let on_master = self.hook.take_degraded_jobs();
        let mut jobs = self.hook.take_job_counters();
        jobs.add(&on_master);
        Tally {
            jobs,
            on_master,
            ..Tally::default()
        }
    }
}

/// The scheduler's degradation fallback: jobs evaluate sequentially on
/// the master with the worker pool's exact metering discipline (see
/// `pool::run_jobs_sequential_reference`), so replies are byte-identical
/// to the pooled backend's without consulting (or forking) a pool.
pub(crate) struct Reference<'a> {
    machine: &'a mut CpuMachine,
    jobs: Counters,
}

impl<'a> Reference<'a> {
    pub(crate) fn new(machine: &'a mut CpuMachine) -> Self {
        Self {
            machine,
            jobs: Counters::default(),
        }
    }
}

impl ParallelHook for Reference<'_> {
    fn execute(
        &mut self,
        interp: &mut Interp,
        jobs: &[NodeId],
        parent_env: EnvId,
        results: &mut Vec<NodeId>,
    ) -> culi_core::Result<()> {
        crate::pool::run_jobs_sequential_reference(
            interp,
            jobs,
            parent_env,
            results,
            &mut self.jobs,
        )
    }
}

impl Backend for Reference<'_> {
    fn charge(&mut self, cycles: u64) -> Result<()> {
        Ok(self.machine.serial_compute(cycles)?)
    }

    fn take_tally(&mut self) -> Tally {
        let jobs = std::mem::take(&mut self.jobs);
        Tally {
            jobs,
            on_master: jobs,
            ..Tally::default()
        }
    }
}

/// One parsed command: its forms (or the parse error), the metered parse
/// counters (not yet charged to any clock) and its wall-clock start.
#[derive(Debug)]
pub(crate) struct Command {
    pub(crate) forms: culi_core::Result<Vec<NodeId>>,
    pub(crate) parse: Counters,
    pub(crate) wall_start: Instant,
}

/// A command after evaluation, before print: the last form's value (or
/// the error that stopped it), the counters so far and its sections.
#[derive(Debug)]
pub(crate) struct Evaluated {
    pub(crate) value: culi_core::Result<Option<NodeId>>,
    pub(crate) counters: CommandCounters,
    pub(crate) sections: Vec<SectionReport>,
    pub(crate) wall_start: Instant,
}

/// A session's interpreter plus the per-command machinery around it.
#[derive(Debug)]
pub(crate) struct Pipeline {
    pub(crate) interp: Interp,
    spec: DeviceSpec,
    fuel_budget: u64,
    pub(crate) cache: Option<CommandCache>,
    /// Parsed forms and staged job trees of batch commands that have not
    /// run yet: GC roots while earlier commands finish.
    pub(crate) batch_roots: Vec<NodeId>,
    /// A barrier command's parsed forms, rooted from classification
    /// until it runs (a drain may dispatch and collect runs meanwhile).
    pub(crate) barrier_roots: Vec<NodeId>,
    gc_scratch: Vec<NodeId>,
    /// Reply slots written off by an infrastructure failure, awaiting
    /// the scheduler's sequential fallback.
    pub(crate) degraded_slots: Vec<usize>,
    /// Reply-tier store tickets of classified-pure cache misses, keyed by
    /// batch slot, consumed when the slot's `Ok` reply is produced.
    pending_store: HashMap<usize, ReplyTicket>,
}

impl Pipeline {
    pub(crate) fn new(
        spec: DeviceSpec,
        config: &InterpConfig,
        host_io: Option<culi_core::hostio::HostIoHandle>,
        cache: Option<CommandCache>,
    ) -> Self {
        let mut interp = Interp::new(config.clone());
        interp.host_io = host_io;
        Self {
            interp,
            spec,
            fuel_budget: config.fuel_budget,
            cache,
            batch_roots: Vec::new(),
            barrier_roots: Vec::new(),
            gc_scratch: Vec::new(),
            degraded_slots: Vec::new(),
            pending_store: HashMap::new(),
        }
    }

    fn cycles(&self, c: &Counters) -> u64 {
        counters_to_cycles(&self.spec.costs, c)
    }

    /// Resets per-batch state. Stale roots can only be left behind by a
    /// batch aborted on a hard error; store tickets never outlive their
    /// batch (slot numbers only mean something within one).
    pub(crate) fn begin_batch(&mut self) {
        self.batch_roots.clear();
        self.barrier_roots.clear();
        self.pending_store.clear();
    }

    /// Parses `input` on the session meter.
    pub(crate) fn parse(&mut self, input: &str) -> Command {
        let wall_start = Instant::now();
        let m = self.interp.meter.snapshot();
        let forms = culi_core::parser::parse(&mut self.interp, input.as_bytes());
        Command {
            forms,
            parse: self.interp.meter.snapshot().delta_since(&m),
            wall_start,
        }
    }

    /// Parses and classifies one batch command: a reply-cache hit is
    /// `Done`; a single-form `|||` the effect analysis proves pure is
    /// `Stage`; anything else (parse errors included) is a `Barrier`.
    /// The forms are rooted in `batch_roots` or `barrier_roots` until the
    /// command runs.
    ///
    /// The epoch captured for the cache is exactly the environment state
    /// the command executes against: the scheduler runs every earlier
    /// barrier before classifying the next command, and every in-flight
    /// staged command is pure.
    pub(crate) fn classify(&mut self, input: &str, slot: usize) -> Verdict<Command, Command> {
        let cmd = self.parse(input);
        let Ok(forms) = &cmd.forms else {
            return Verdict::Barrier(cmd);
        };
        let mut probe = None;
        if let Some(cache) = &self.cache {
            let key = StructKey::of_forms(&self.interp, forms);
            let epoch = self.interp.envs.sync_epoch();
            if let Some(mut reply) = cache.reply_lookup(&key, input, epoch) {
                // The stored counters are the ones this run would
                // recompute (source-text condition); only wall time is
                // fresh. The probe's parse tree is garbage now.
                reply.wall_ns = cmd.wall_start.elapsed().as_nanos() as u64;
                self.gc();
                return Verdict::Done(Box::new(reply));
            }
            probe = Some((key, epoch));
        }
        let global = self.interp.global;
        let stageable = forms.len() == 1
            && culi_core::effects::stageable_parallel_section(&self.interp, global, forms[0]);
        // A miss on a pure command earns a store ticket, consumed if the
        // slot produces an `Ok` reply: the reply then depends only on the
        // tree and the epoch-stamped environment.
        if let Some((key, epoch)) = probe {
            let pure = stageable
                || forms
                    .iter()
                    .all(|&f| culi_core::effects::expr_is_pure(&self.interp, global, f));
            if pure {
                let text = input.to_string();
                self.pending_store
                    .insert(slot, ReplyTicket { key, text, epoch });
            }
        }
        if stageable {
            self.batch_roots.extend_from_slice(forms);
            Verdict::Stage(cmd)
        } else {
            self.barrier_roots.extend_from_slice(forms);
            Verdict::Barrier(cmd)
        }
    }

    /// Consumes `slot`'s store ticket if its command produced the `Ok`
    /// reply the ticket anticipated. Error and degraded replies drop
    /// through, so a stored reply is always an `Ok` produced by the real
    /// execution path at the ticket's epoch.
    pub(crate) fn store(&mut self, slot: usize, reply: &Reply) {
        if !reply.ok || reply.code != ErrorCode::Ok {
            return;
        }
        let (Some(ticket), Some(cache)) = (self.pending_store.remove(&slot), &self.cache) else {
            return;
        };
        // Pure commands cannot move the epoch, and nothing impure can
        // have run between classify and reply (barriers drain first).
        debug_assert_eq!(self.interp.envs.sync_epoch(), ticket.epoch);
        cache.reply_insert(ticket.key, &ticket.text, ticket.epoch, reply.clone());
    }

    /// Runs a parsed command start to finish on `backend`, charging
    /// `overhead` extra eval cycles for the REPL dispatch.
    pub(crate) fn execute<B: Backend>(
        &mut self,
        backend: &mut B,
        cmd: &Command,
        overhead: u64,
    ) -> Result<Reply> {
        backend.charge(self.cycles(&cmd.parse))?;
        let forms = match &cmd.forms {
            Ok(forms) => forms,
            Err(e) => {
                let counters = CommandCounters {
                    parse: cmd.parse,
                    ..Default::default()
                };
                self.gc();
                return Ok(self.reply(Err(e.clone()), counters, Vec::new(), 0, cmd.wall_start));
            }
        };
        let evaluated = self.eval(backend, forms, cmd.parse, cmd.wall_start)?;
        self.finish(backend, evaluated, overhead)
    }

    /// Arms the session's fuel budget for one command's master-side work
    /// (workers re-arm per job themselves).
    pub(crate) fn arm_fuel(&mut self) {
        self.interp.meter.arm_fuel(self.fuel_budget);
    }

    /// Evaluates `forms` in order, stopping at the first error, and splits
    /// the master's meter window into master-side and job counters.
    fn eval<B: Backend>(
        &mut self,
        backend: &mut B,
        forms: &[NodeId],
        parse: Counters,
        wall_start: Instant,
    ) -> Result<Evaluated> {
        self.arm_fuel();
        let m = self.interp.meter.snapshot();
        let global = self.interp.global;
        let mut value = Ok(None);
        for &form in forms {
            match eval(&mut self.interp, backend, form, global, 0) {
                Ok(v) => value = Ok(Some(v)),
                Err(e) => {
                    value = Err(e);
                    break;
                }
            }
        }
        let tally = backend.take_tally();
        if let Some(sim) = tally.sim_error {
            return Err(RuntimeError::Device(sim));
        }
        let eval_master = self
            .interp
            .meter
            .snapshot()
            .delta_since(&m)
            .delta_since(&tally.on_master);
        Ok(Evaluated {
            value,
            counters: CommandCounters {
                parse,
                eval_master,
                jobs: tally.jobs,
                print: Counters::default(),
            },
            sections: tally.sections,
            wall_start,
        })
    }

    /// Charges the master-side eval work plus `overhead`, prints the value,
    /// charges the print work, collects garbage and assembles the reply.
    pub(crate) fn finish<B: Backend>(
        &mut self,
        backend: &mut B,
        evaluated: Evaluated,
        overhead: u64,
    ) -> Result<Reply> {
        let Evaluated {
            value,
            mut counters,
            sections,
            wall_start,
        } = evaluated;
        backend.charge(self.cycles(&counters.eval_master) + overhead)?;
        let printed = match value {
            Ok(Some(node)) => {
                let m = self.interp.meter.snapshot();
                let printed = culi_core::printer::print_to_string(&mut self.interp, node);
                counters.print = self.interp.meter.snapshot().delta_since(&m);
                backend.charge(self.cycles(&counters.print))?;
                printed
            }
            Ok(None) => Ok(String::new()),
            Err(e) => Err(e),
        };
        self.gc();
        let section_cycles = sections.iter().map(|s| s.total_cycles()).sum::<u64>() + overhead;
        Ok(self.reply(printed, counters, sections, section_cycles, wall_start))
    }

    /// Assembles a reply; an error renders as printed text (the REPL
    /// survives) and drops the section reports and dispatch cycles.
    fn reply(
        &self,
        printed: culi_core::Result<String>,
        counters: CommandCounters,
        sections: Vec<SectionReport>,
        section_cycles: u64,
        wall_start: Instant,
    ) -> Reply {
        let (output, ok, code, sections, section_cycles) = match printed {
            Ok(output) => (output, true, ErrorCode::Ok, sections, section_cycles),
            Err(e) => (format!("error: {e}"), false, e.code(), Vec::new(), 0),
        };
        Reply {
            output,
            ok,
            code,
            phases: breakdown(
                &self.spec,
                &counters.parse,
                &counters.eval_master,
                &counters.print,
                section_cycles,
                0,
            ),
            counters,
            sections,
            wall_ns: wall_start.elapsed().as_nanos() as u64,
        }
    }

    /// Between-command collection, keeping not-yet-run batch commands
    /// (parsed forms, staged job trees, a barrier's forms) alive.
    pub(crate) fn gc(&mut self) {
        let roots = if self.barrier_roots.is_empty() {
            &self.batch_roots
        } else if self.batch_roots.is_empty() {
            &self.barrier_roots
        } else {
            self.gc_scratch.clear();
            self.gc_scratch.extend_from_slice(&self.batch_roots);
            self.gc_scratch.extend_from_slice(&self.barrier_roots);
            &self.gc_scratch
        };
        culi_core::gc::collect(&mut self.interp, roots);
    }
}
