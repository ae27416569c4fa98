//! The CPU read–eval–print loops (the paper's comparison systems).
//!
//! Two modes share one type, and the same command `Pipeline` as the GPU
//! session:
//!
//! * **Modeled** — jobs evaluate on the master and a [`CpuMachine`]
//!   (list-scheduled pthread workers, no warps, no postbox spinning)
//!   times them. This is the backend behind the CPU series of
//!   Figs. 14–18.
//! * **Threaded** — `|||` sections really run on OS threads: a
//!   persistent [`ThreadedHook`] worker pool (see [`crate::pool`]) keeps
//!   warm interpreter forks alive across sections and commands,
//!   synchronizing them incrementally through the flat postbox codec.
//!   This mode proves the interpreter's parallel semantics on real
//!   hardware. [`CpuRepl::submit_batch`] additionally *pipelines* a
//!   command stream through the pool's double-buffered postboxes.
//!
//! # Pipelined command batches
//!
//! A synchronous `submit` pays one full postbox rendezvous per `|||`
//! section. [`CpuRepl::submit_batch`] instead routes the stream through
//! the shared [`crate::scheduler::BatchScheduler`], with this type
//! implementing the [`ExecQueue`] staging hooks. The pipeline's classify
//! step parses each command once and stages a top-level `(||| …)` whose
//! operands the conservative effect analysis ([`culi_core::effects`])
//! proves pure: its section is prepared through the evaluator's own
//! dispatch charges ([`culi_core::builtins::prepare_section`]) into the
//! pool's double buffers while earlier sections still run. Any other
//! command — defines, `setq`s, operands invoking user forms or I/O, parse
//! errors — is a barrier: the scheduler drains the pipeline, then the
//! command runs like a `submit`. Replies, error text and per-command
//! [`crate::CommandCounters`] are identical to a `submit` loop; the
//! equivalence is property-tested.
//!
//! # Section placement
//!
//! A pool handoff costs tens of µs on a small host; many sections do far
//! less work than that. So once a section is prepared, the batch path
//! runs it **inline** on the master, instead of staging it, when two
//! things hold:
//!
//! * its predicted job work is at most `INLINE_MAX_JOB_STEPS` paper-model
//!   eval steps. The prediction is the job work of the last `Ok` section
//!   that applied the same function value; an unseen function predicts
//!   nothing and goes to the pool. Both routes feed the history, and
//!   success counters are backend-independent, so a command stream
//!   always takes the same routes. Wall clock never enters the decision;
//! * [`culi_core::effects::exprs_are_isolated`] proves the built jobs
//!   cannot mutate persistent state, do host I/O or open a nested `|||`:
//!   a worker replica would isolate a job's `setq`, the master would not.
//!
//! The inline route is no new execution path: it is the `Reference`
//! backend — `pool::run_jobs_sequential_reference`, the path
//! [`CpuRepl::submit_reference`] and the scheduler's degradation
//! fallback already pin byte-identical to the pool. Like a cache hit, an
//! inline section answers `Verdict::Done` from classification, so it
//! neither flushes nor drains the run being assembled.
//! [`CpuRepl::section_routes`] counts both routes. `submit` always uses
//! the pool.

use crate::error::{Result, RuntimeError};
use crate::phases::{counters_to_cycles, CommandCounters};
use crate::pipeline::{Backend, Command, Evaluated, Modeled, Pipeline, Pooled, Reference};
use crate::pool::{ThreadedHook, WorkerPool};
use crate::reply::Reply;
use crate::scheduler::{BatchScheduler, ExecQueue, Verdict};
use culi_core::cost::Counters;
use culi_core::eval::ParallelHook;
use culi_core::fault::FaultPlan;
use culi_core::{ErrorCode, InterpConfig, NodeId};
use culi_gpu_sim::{CpuMachine, DeviceSpec};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How `|||` sections execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuMode {
    /// Deterministic cost-model timing (figures).
    Modeled,
    /// Real OS threads over a persistent worker pool.
    Threaded {
        /// Worker thread count.
        threads: usize,
    },
}

/// Configuration for a CPU session.
#[derive(Debug, Clone)]
pub struct CpuReplConfig {
    /// Interpreter limits.
    pub interp: InterpConfig,
    /// Execution mode.
    pub mode: CpuMode,
    /// Host-side file services exposed to device code.
    pub host_io: Option<culi_core::hostio::HostIoHandle>,
    /// Worker-pool watchdog: how long one reply take may block before
    /// the seat is declared hung and detached (Threaded mode).
    pub reply_deadline: Duration,
    /// Deterministic fault script handed to the worker pool (empty in
    /// production; the differential fault harness scripts it).
    pub fault_plan: FaultPlan,
    /// Reply cache ([`crate::cache`]): `None` (the default) leaves every
    /// path uncached; `Some` enables the per-session reply tier for
    /// [`CpuRepl::submit_batch`] streams.
    /// Replies served from cache are bit-identical to the uncached run
    /// (the differential harness runs a cache-on arm).
    pub cache: Option<crate::CommandCache>,
}

impl Default for CpuReplConfig {
    fn default() -> Self {
        Self {
            interp: InterpConfig::default(),
            mode: CpuMode::Modeled,
            host_io: None,
            reply_deadline: WorkerPool::DEFAULT_REPLY_DEADLINE,
            fault_plan: FaultPlan::none(),
            cache: None,
        }
    }
}

/// A live CuLi session on a (modeled or real) CPU.
#[derive(Debug)]
pub struct CpuRepl {
    pipe: Pipeline,
    machine: CpuMachine,
    /// The persistent real-threads backend (Threaded mode only). Its
    /// worker pool forks lazily and survives across commands.
    threaded: Option<ThreadedHook>,
    /// Reused per-job cycle scratch for the modeled backend.
    scratch_cycles: Vec<u64>,
    /// Where `submit_batch` runs each stageable section.
    placement: Placement,
}

/// Largest predicted job work, in paper-model eval steps summed over a
/// section's jobs, that [`CpuRepl::submit_batch`] runs inline on the
/// master instead of handing to the worker pool.
///
/// Measured on a 2-vCPU host (release build, 2-thread pool, 16-command
/// batches, 400 interleaved inline/pooled pairs, medians; `(||| 2 fib
/// (n n))`, µs per section):
///
/// | steps per section | 16 | 398 | 1,802 | 2,936 | 4,772 | 7,742 |
/// |---|---|---|---|---|---|---|
/// | split by `setq` barriers: inline / pooled | 5.7 / 27 | 14 / 38 | 48 / 76 | 83 / 109 | 134 / 158 | 209 / 196 |
/// | 16 sections in one run: inline / pooled | 5.7 / 9.1 | 13 / 18 | 52 / 51 | 78 / 67 | 144 / 110 | 233 / 186 |
///
/// A section that shares no run with others pays the whole handoff and
/// breaks even near 6,000 steps; a homogeneous run amortizes it and
/// breaks even near 1,800. Placement cannot see the run a section will
/// join, so the bound sits at the lower crossover: inline then never
/// loses by more than noise, and wins most where barriers split runs.
const INLINE_MAX_JOB_STEPS: u64 = 2_000;

/// Most function values [`Placement`] remembers; past it the history
/// starts over (deterministically, like everything that feeds a route).
const PLACEMENT_HISTORY: usize = 1_024;

/// How many stageable `|||` sections [`CpuRepl::submit_batch`] ran inline
/// on the master and how many it handed to the worker pool. Sections of
/// barrier commands and cache hits are not placed and count in neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionRoutes {
    /// Sections run inline on the master.
    pub inline: u64,
    /// Sections staged on the worker pool.
    pub pooled: u64,
}

/// The section placement rule: the last observed job work of a section
/// per function value it applied. Every input is a paper-model counter
/// of an `Ok` reply, and those are backend-independent, so a command
/// stream always takes the same routes; wall clock never enters.
#[derive(Debug, Default)]
struct Placement {
    /// Job eval steps of the last `Ok` section applying each function.
    /// A redefinition is a new form node and starts without history (a
    /// collected node's recycled slot may inherit a stale entry: that
    /// misplaces one section, never changes a reply).
    steps: HashMap<NodeId, u64>,
    routes: SectionRoutes,
}

impl Placement {
    /// `true` when the last section applying `callee` did at most
    /// [`INLINE_MAX_JOB_STEPS`] of job work. An unseen function predicts
    /// nothing, and goes to the pool.
    fn predicts_inline(&self, callee: Option<NodeId>) -> bool {
        callee
            .and_then(|f| self.steps.get(&f))
            .is_some_and(|&steps| steps <= INLINE_MAX_JOB_STEPS)
    }

    /// Records the job work of a section applying `callee`.
    fn observe(&mut self, callee: Option<NodeId>, reply: &Reply) {
        let Some(f) = callee else {
            return;
        };
        if reply.code != ErrorCode::Ok {
            return;
        }
        if self.steps.len() >= PLACEMENT_HISTORY && !self.steps.contains_key(&f) {
            self.steps.clear();
        }
        self.steps.insert(f, reply.counters.jobs.eval_steps);
    }
}

/// A pipelined command whose section is staged but not yet collected.
#[derive(Debug)]
struct PendingCommand {
    /// Index into the batch's reply vector.
    slot: usize,
    /// Wall clock at parse start.
    wall_start: Instant,
    /// Parse-phase counters (already machine-accounted).
    parse: Counters,
    /// Master-side eval counters spent staging (header eval, job build,
    /// encode-side dispatch).
    eval_stage: Counters,
    /// The function value the section applies (see
    /// [`culi_core::effects::section_callee`]).
    callee: Option<NodeId>,
}

impl PendingCommand {
    /// The command after its jobs ran: `value` is the section's result
    /// list (or its error), `eval_master` the master's charges since
    /// staging, `jobs` the jobs' own.
    fn evaluated(
        &self,
        value: culi_core::Result<NodeId>,
        eval_master: &Counters,
        jobs: Counters,
    ) -> Evaluated {
        let mut master = self.eval_stage;
        master.add(eval_master);
        Evaluated {
            value: value.map(Some),
            counters: CommandCounters {
                parse: self.parse,
                eval_master: master,
                jobs,
                ..Default::default()
            },
            sections: Vec::new(),
            wall_start: self.wall_start,
        }
    }
}

impl CpuRepl {
    /// Boots a CPU session for `spec` (one of the catalog's CPU devices).
    pub fn launch(spec: DeviceSpec, config: CpuReplConfig) -> Self {
        let threaded = match config.mode {
            CpuMode::Modeled => None,
            CpuMode::Threaded { threads } => Some(ThreadedHook::with_watchdog(
                threads,
                config.reply_deadline,
                config.fault_plan,
            )),
        };
        Self {
            pipe: Pipeline::new(spec, &config.interp, config.host_io, config.cache),
            machine: CpuMachine::launch(spec),
            threaded,
            scratch_cycles: Vec::new(),
            placement: Placement::default(),
        }
    }

    /// How this session's `submit_batch` calls placed their stageable
    /// sections so far.
    pub fn section_routes(&self) -> SectionRoutes {
        self.placement.routes
    }

    /// The device this session models.
    pub fn spec(&self) -> DeviceSpec {
        *self.machine.spec()
    }

    /// Direct access to the interpreter (tests/diagnostics).
    pub fn interp_mut(&mut self) -> &mut culi_core::Interp {
        &mut self.pipe.interp
    }

    /// Submits one command line.
    pub fn submit(&mut self, input: &str) -> Result<Reply> {
        self.submit_inner(input, false)
    }

    /// Submits one command forced through the master-side sequential
    /// reference, regardless of mode: no worker pool is consulted (or
    /// lazily forked), yet the reply — output, ok flag, counters — is
    /// byte-identical to what the pooled path would produce (the
    /// invariant `run_jobs_sequential_reference` pins). The session
    /// server routes *cold* tenants through this, so a tenant that never
    /// reaches the warm route never borrows (or forks) the server's one
    /// worker pool; a tenant's replies are indistinguishable across the
    /// cold and warm routes.
    pub fn submit_reference(&mut self, input: &str) -> Result<Reply> {
        self.submit_inner(input, true)
    }

    /// [`CpuRepl::submit_batch`] as server tenant `owner`: a Threaded
    /// session borrows the server's worker pool `fleet` for the batch
    /// (launching it into `fleet` if `None`; each seat resyncs to this
    /// session on its next dispatch); a Modeled one leaves it alone.
    pub(crate) fn submit_batch_on(
        &mut self,
        fleet: &mut Option<WorkerPool>,
        owner: usize,
        inputs: &[&str],
    ) -> Result<Vec<Reply>> {
        let Some(hook) = &mut self.threaded else {
            return self.submit_batch(inputs);
        };
        hook.swap_pool(fleet, owner);
        let replies = self.submit_batch(inputs);
        threaded(&mut self.threaded).swap_pool(fleet, owner);
        replies
    }

    fn submit_inner(&mut self, input: &str, reference: bool) -> Result<Reply> {
        if !self.machine.is_running() {
            return Err(RuntimeError::SessionClosed);
        }
        let cmd = self.pipe.parse(input);
        self.execute(&cmd, reference)
    }

    /// Runs a parsed command through the pipeline on this session's
    /// backend — or, with `reference` set, on the master-side sequential
    /// reference, which must not depend on the (possibly lost) worker
    /// pool yet produces byte-identical replies.
    fn execute(&mut self, cmd: &Command, reference: bool) -> Result<Reply> {
        let overhead = self.machine.spec().command_overhead_cycles;
        let machine = &mut self.machine;
        match &mut self.threaded {
            _ if reference => self
                .pipe
                .execute(&mut Reference::new(machine), cmd, overhead),
            Some(hook) => self
                .pipe
                .execute(&mut Pooled { hook, machine }, cmd, overhead),
            None => self.pipe.execute(
                &mut Modeled::new(machine, &mut self.scratch_cycles),
                cmd,
                overhead,
            ),
        }
    }

    /// Submits a stream of commands through the shared
    /// [`BatchScheduler`], pipelining consecutive stageable `|||`
    /// commands (Threaded mode: coalesced multi-section postbox
    /// dispatches with up to [`WorkerPool::PIPELINE_DEPTH`] runs in
    /// flight; Modeled mode falls back to a `submit` loop). Replies come
    /// back in input order and match a `submit` loop exactly.
    pub fn submit_batch(&mut self, inputs: &[&str]) -> Result<Vec<Reply>> {
        if self.threaded.is_none() {
            return inputs.iter().map(|s| self.submit(s)).collect();
        }
        if !self.machine.is_running() {
            return Err(RuntimeError::SessionClosed);
        }
        self.pipe.begin_batch();
        BatchScheduler::submit_batch(self, inputs)
    }

    /// Evaluates a classified top-level section command through the same
    /// dispatch charges and job construction as the recursive evaluator
    /// ([`culi_core::eval::charge_symbol_head_dispatch`] +
    /// [`culi_core::builtins::prepare_section`]) and returns the pooled
    /// job buffer, ready to stage. Meter-identical to `eval` reaching the
    /// `|||` builtin (the differential harness asserts this).
    fn prepare_classified_section(&mut self, form: NodeId) -> culi_core::Result<Vec<NodeId>> {
        let interp = &mut self.pipe.interp;
        let hook = threaded(&mut self.threaded);
        let global = interp.global;
        let mut args = interp.take_node_buf();
        let prepared =
            match culi_core::eval::charge_symbol_head_dispatch(interp, form, global, &mut args) {
                Ok(_) => culi_core::builtins::prepare_section(interp, hook, &args, global, 0),
                Err(e) => Err(e),
            };
        interp.put_node_buf(args);
        prepared
    }

    /// Collects the oldest pool-staged command: gather its section's
    /// replies, then finish it through the pipeline.
    fn collect_staged(&mut self, cmd: PendingCommand) -> Result<Reply> {
        let interp = &mut self.pipe.interp;
        let hook = threaded(&mut self.threaded);
        let mut results = interp.take_node_buf();
        let m = interp.meter.snapshot();
        let finished = hook
            .pool_mut(interp)
            .collect_next(interp, &mut results)
            .and_then(|()| culi_core::builtins::finish_section(interp, &results));
        interp.put_node_buf(results);
        let eval_master = interp.meter.snapshot().delta_since(&m);
        let jobs = hook.take_job_counters();
        match finished {
            // Infrastructure failure (seat lost to a panic, hang, or
            // garbled reply) — not a program error. Surface it to the
            // scheduler so it can degrade the batch to the sequential
            // fallback instead of replying.
            Err(e) if e.code() == ErrorCode::Device => Err(RuntimeError::Lisp(e)),
            value => {
                let evaluated = cmd.evaluated(value, &eval_master, jobs);
                let machine = &mut self.machine;
                let overhead = machine.spec().command_overhead_cycles;
                let mut backend = Pooled { hook, machine };
                self.pipe.finish(&mut backend, evaluated, overhead)
            }
        }
    }

    /// Runs a prepared section's jobs inline on the master, through the
    /// same sequential reference the scheduler degrades onto (so the
    /// reply is byte-identical to the pooled one), and finishes it.
    fn run_inline(&mut self, cmd: &PendingCommand, jobs: Vec<NodeId>) -> Result<Reply> {
        let interp = &mut self.pipe.interp;
        let overhead = self.machine.spec().command_overhead_cycles;
        let mut backend = Reference::new(&mut self.machine);
        let global = interp.global;
        let mut results = interp.take_node_buf();
        let m = interp.meter.snapshot();
        let finished = backend
            .execute(interp, &jobs, global, &mut results)
            .and_then(|()| culi_core::builtins::finish_section(interp, &results));
        interp.put_node_buf(results);
        interp.put_node_buf(jobs);
        let tally = backend.take_tally();
        let eval_master = interp
            .meter
            .snapshot()
            .delta_since(&m)
            .delta_since(&tally.on_master);
        let evaluated = cmd.evaluated(finished, &eval_master, tally.jobs);
        self.pipe.finish(&mut backend, evaluated, overhead)
    }

    /// Stops the worker pool; returns total setup+teardown in ms.
    pub fn shutdown(&mut self) -> f64 {
        self.threaded = None; // joins the persistent worker pool
        self.machine.shutdown();
        self.machine.overhead_ns() as f64 / 1e6
    }

    /// `true` until shutdown.
    pub fn is_running(&self) -> bool {
        self.machine.is_running()
    }
}

/// The worker-pool hook of a Threaded session (the only mode that runs
/// batches through the scheduler).
fn threaded(hook: &mut Option<ThreadedHook>) -> &mut ThreadedHook {
    hook.as_mut().expect("batches run in Threaded mode")
}

/// One classified-stageable CPU batch command: its metadata plus the
/// prepared (pooled) job buffer, awaiting dispatch. Opaque scheduler
/// token — see [`ExecQueue::Staged`].
#[derive(Debug)]
pub struct CpuStaged {
    cmd: PendingCommand,
    jobs: Vec<NodeId>,
}

/// A parsed CPU batch command that must run synchronously (its forms
/// stay rooted through the drain). Opaque scheduler token — see
/// [`ExecQueue::Barrier`].
#[derive(Debug)]
pub struct CpuBarrier(Command);

/// One dispatched CPU run: the worker pool holds its sections, collected
/// in order through [`WorkerPool::collect_next`]. Opaque scheduler token
/// — see [`ExecQueue::Run`].
#[derive(Debug)]
pub struct CpuRun(Vec<PendingCommand>);

impl<'i> ExecQueue<'i> for CpuRepl {
    type Staged = CpuStaged;
    type Barrier = CpuBarrier;
    type Run = CpuRun;

    fn max_run_len(&self) -> usize {
        WorkerPool::MAX_RUN_SECTIONS
    }

    fn pipeline_depth(&self) -> usize {
        WorkerPool::PIPELINE_DEPTH
    }

    fn classify_and_stage(
        &mut self,
        input: &'i str,
        slot: usize,
    ) -> Result<Verdict<CpuStaged, CpuBarrier>> {
        let cmd = match self.pipe.classify(input, slot) {
            Verdict::Stage(cmd) => cmd,
            Verdict::Barrier(cmd) => return Ok(Verdict::Barrier(CpuBarrier(cmd))),
            Verdict::Done(reply) => return Ok(Verdict::Done(reply)),
        };
        let form = cmd.forms.as_ref().expect("staged commands parsed")[0];
        let global = self.pipe.interp.global;
        let callee = culi_core::effects::section_callee(&self.pipe.interp, global, form);
        // Same arming point as the synchronous path: the command's
        // master-side work runs under the session's fuel budget.
        self.pipe.arm_fuel();
        let m = self.pipe.interp.meter.snapshot();
        let prepared = self.prepare_classified_section(form);
        let eval_stage = self.pipe.interp.meter.snapshot().delta_since(&m);
        let jobs = match prepared {
            Ok(jobs) => jobs,
            Err(_) => {
                // Staging failed part-way. The operands are pure, so the
                // command simply runs as a barrier: the synchronous path
                // meters and renders the same failure as a `submit`.
                self.pipe.barrier_roots.push(form);
                return Ok(Verdict::Barrier(CpuBarrier(cmd)));
            }
        };
        // Staged commands never reach `Pipeline::execute`: charge the
        // parse here.
        let costs = self.machine.spec().costs;
        self.machine
            .serial_compute(counters_to_cycles(&costs, &cmd.parse))?;
        let pending = PendingCommand {
            slot,
            wall_start: cmd.wall_start,
            parse: cmd.parse,
            eval_stage,
            callee,
        };
        // Placement: a section predicted to cost less than the pool
        // handoff, whose jobs provably cannot touch persistent state (a
        // worker would isolate a job's `setq`; the master does not),
        // runs inline now. Like a cache hit, it neither flushes nor
        // drains the assembling run.
        if self.placement.predicts_inline(callee)
            && culi_core::effects::exprs_are_isolated(&self.pipe.interp, global, &jobs)
        {
            let rooted = self.pipe.batch_roots.pop();
            debug_assert_eq!(rooted, Some(form), "classify roots the staged form last");
            let reply = self.run_inline(&pending, jobs)?;
            self.placement.routes.inline += 1;
            self.placement.observe(callee, &reply);
            self.pipe.store(slot, &reply);
            return Ok(Verdict::Done(Box::new(reply)));
        }
        self.placement.routes.pooled += 1;
        self.pipe.batch_roots.extend_from_slice(&jobs);
        Ok(Verdict::Stage(CpuStaged { cmd: pending, jobs }))
    }

    fn dispatch(&mut self, run: Vec<CpuStaged>) -> Result<CpuRun> {
        let hook = threaded(&mut self.threaded);
        let interp = &mut self.pipe.interp;
        let sections: Vec<&[NodeId]> = run.iter().map(|s| s.jobs.as_slice()).collect();
        let global = interp.global;
        hook.pool_mut(interp).stage_run(interp, &sections, global);
        let mut cmds = Vec::with_capacity(run.len());
        for CpuStaged { cmd, jobs } in run {
            interp.put_node_buf(jobs);
            cmds.push(cmd);
        }
        // The jobs are encoded into the postbox now.
        self.pipe.batch_roots.clear();
        Ok(CpuRun(cmds))
    }

    fn collect(&mut self, run: CpuRun, replies: &mut [Option<Reply>]) -> Result<()> {
        let mut cmds = run.0.into_iter();
        while let Some(cmd) = cmds.next() {
            let (slot, callee) = (cmd.slot, cmd.callee);
            match self.collect_staged(cmd) {
                Ok(reply) => {
                    self.placement.observe(callee, &reply);
                    self.pipe.store(slot, &reply);
                    replies[slot] = Some(reply);
                }
                Err(e) if e.is_degradable() => {
                    // A seat was lost mid-run. Write this command and
                    // every later one in the run off to the scheduler's
                    // sequential fallback, draining the pool's remaining
                    // (possibly synthetic) replies so its accounting
                    // stays balanced.
                    self.pipe.degraded_slots.push(slot);
                    let interp = &mut self.pipe.interp;
                    let hook = threaded(&mut self.threaded);
                    let pool = hook.pool_mut(interp);
                    let mut scratch = interp.take_node_buf();
                    for cmd in cmds {
                        self.pipe.degraded_slots.push(cmd.slot);
                        scratch.clear();
                        let _ = pool.collect_next(interp, &mut scratch);
                    }
                    interp.put_node_buf(scratch);
                    let _ = hook.take_job_counters();
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn run_barrier(
        &mut self,
        barrier: CpuBarrier,
        slot: usize,
        replies: &mut [Option<Reply>],
    ) -> Result<()> {
        self.pipe.barrier_roots.clear();
        let reply = self.execute(&barrier.0, false)?;
        self.pipe.store(slot, &reply);
        replies[slot] = Some(reply);
        Ok(())
    }

    fn take_failed(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.pipe.degraded_slots)
    }

    fn run_sequential(
        &mut self,
        input: &'i str,
        slot: usize,
        replies: &mut [Option<Reply>],
    ) -> Result<()> {
        let mut reply = self.submit_reference(input)?;
        if reply.ok {
            // The answer is correct but was not produced by the parallel
            // backend; sessions inspecting codes can tell.
            reply.code = ErrorCode::Degraded;
        }
        replies[slot] = Some(reply);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culi_gpu_sim::device::{amd_6272, intel_e5_2620};

    fn modeled() -> CpuRepl {
        CpuRepl::launch(intel_e5_2620(), CpuReplConfig::default())
    }

    fn threaded(threads: usize) -> CpuRepl {
        CpuRepl::launch(
            intel_e5_2620(),
            CpuReplConfig {
                interp: InterpConfig {
                    arena_capacity: 1 << 16,
                    ..Default::default()
                },
                mode: CpuMode::Threaded { threads },
                ..Default::default()
            },
        )
    }

    #[test]
    fn modeled_end_to_end() {
        let mut r = modeled();
        assert_eq!(r.submit("(* 2 (+ 4 3) 6)").unwrap().expect_ok(), "84");
    }

    #[test]
    fn fuel_limited_command_reports_a_fuel_reply_and_the_session_survives() {
        let mut r = CpuRepl::launch(
            intel_e5_2620(),
            CpuReplConfig {
                interp: InterpConfig {
                    arena_capacity: 1 << 16,
                    fuel_budget: 10_000,
                    ..Default::default()
                },
                mode: CpuMode::Threaded { threads: 2 },
                ..Default::default()
            },
        );
        let reply = r.submit("(dotimes (i 1000000000) (+ i i))").unwrap();
        assert!(!reply.ok);
        assert_eq!(reply.code, ErrorCode::Fuel);
        assert!(reply.output.contains("fuel"), "{}", reply.output);
        assert_eq!(r.submit("(+ 1 2)").unwrap().expect_ok(), "3");
    }

    #[test]
    fn batch_degrades_to_sequential_on_seat_loss_and_matches_reference() {
        use culi_core::fault::{FaultKind, FaultSite};
        let prelude = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
        let section = "(||| 4 fib (4 5 6 7))";
        let mut clean = threaded(4);
        clean.submit(prelude).unwrap();
        let plan = FaultPlan::single(FaultSite::WorkerSection, FaultKind::Hang, 2);
        let mut faulted = CpuRepl::launch(
            intel_e5_2620(),
            CpuReplConfig {
                interp: InterpConfig {
                    arena_capacity: 1 << 16,
                    ..Default::default()
                },
                mode: CpuMode::Threaded { threads: 4 },
                reply_deadline: Duration::from_millis(200),
                fault_plan: plan.clone(),
                ..Default::default()
            },
        );
        faulted.submit(prelude).unwrap();
        let batch = vec![section; 6];
        let got = faulted.submit_batch(&batch).unwrap();
        assert_eq!(got.len(), 6);
        assert_eq!(plan.injected_count(), 1, "the scripted hang must fire");
        let mut degraded = 0;
        for reply in &got {
            let want = clean.submit(section).unwrap();
            assert_eq!(reply.output, want.output);
            assert_eq!(reply.ok, want.ok);
            assert_eq!(reply.counters, want.counters);
            if reply.code == ErrorCode::Degraded {
                degraded += 1;
            }
        }
        assert!(
            degraded >= 1,
            "the lost seat must degrade at least one slot"
        );
        // The pool recovered: later batches run parallel again.
        let after = faulted.submit_batch(&[section; 3]).unwrap();
        for reply in after {
            assert_eq!(reply.code, ErrorCode::Ok);
            assert_eq!(reply.expect_ok(), "(3 5 8 13)");
        }
    }

    #[test]
    fn modeled_parallel_sections_report() {
        let mut r = modeled();
        let reply = r.submit("(||| 3 + (1 2 3) (4 5 6))").unwrap();
        assert_eq!(reply.output, "(5 7 9)");
        assert_eq!(reply.sections.len(), 1);
    }

    #[test]
    fn threaded_matches_sequential_results() {
        let mut r = threaded(4);
        r.submit("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
            .unwrap();
        let reply = r.submit("(||| 8 fib (1 2 3 4 5 6 7 8))").unwrap();
        assert_eq!(reply.output, "(1 1 2 3 5 8 13 21)");
        assert!(reply.wall_ns > 0);
    }

    #[test]
    fn threaded_respects_result_order_with_few_threads() {
        let mut r = threaded(3);
        let reply = r
            .submit("(||| 7 - (10 20 30 40 50 60 70) (1 2 3 4 5 6 7))")
            .unwrap();
        assert_eq!(reply.output, "(9 18 27 36 45 54 63)");
    }

    #[test]
    fn threaded_worker_error_reports_global_index() {
        let mut r = threaded(2);
        let reply = r.submit("(||| 4 / (1 1 1 1) (1 1 0 1))").unwrap();
        assert!(!reply.ok);
        assert!(reply.output.contains("worker 2"), "{}", reply.output);
    }

    #[test]
    fn threaded_workers_cannot_corrupt_main_state() {
        let mut r = threaded(4);
        r.submit("(setq total 100)").unwrap();
        // Workers setq `total` in their forks; the master copy is intact.
        r.submit("(defun bump (x) (progn (setq total (+ total x)) total))")
            .unwrap();
        let reply = r.submit("(||| 4 bump (1 2 3 4))").unwrap();
        assert_eq!(reply.output, "(101 102 103 104)");
        assert_eq!(r.submit("total").unwrap().output, "100");
    }

    #[test]
    fn batch_pipelines_sections_and_matches_submit_loop() {
        let prelude = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
        let section = "(||| 4 fib (4 5 6 7))";
        let mut a = threaded(4);
        let mut b = threaded(4);
        a.submit(prelude).unwrap();
        b.submit(prelude).unwrap();
        let batch: Vec<&str> = vec![section; 8];
        let batched = b.submit_batch(&batch).unwrap();
        for reply in batched {
            let reference = a.submit(section).unwrap();
            assert_eq!(reply.output, reference.output);
            assert_eq!(reply.ok, reference.ok);
            assert_eq!(reply.counters, reference.counters);
        }
    }

    #[test]
    fn batch_barriers_on_defines_and_stays_correct() {
        let mut r = threaded(3);
        let replies = r
            .submit_batch(&[
                "(setq g 5)",
                "(defun addg (x) (+ x g))",
                "(||| 3 addg (1 2 3))",
                "(||| 3 addg (10 20 30))",
                "(setq g 50)",
                "(||| 3 addg (1 2 3))",
            ])
            .unwrap();
        let outputs: Vec<&str> = replies.iter().map(|r| r.output.as_str()).collect();
        assert_eq!(
            outputs,
            ["5", "addg", "(6 7 8)", "(15 25 35)", "50", "(51 52 53)"]
        );
    }

    #[test]
    fn batch_propagates_errors_in_order() {
        let mut r = threaded(2);
        let replies = r
            .submit_batch(&[
                "(||| 2 / (4 6) (2 2))",
                "(||| 2 / (4 6) (0 2))", // worker 0 divides by zero
                "(||| 2 / (4 6) (1 2))",
                "(+ 1", // parse error barrier
                "(||| 2 + (1 2) (1 1))",
            ])
            .unwrap();
        assert_eq!(replies[0].output, "(2 3)");
        assert!(!replies[1].ok);
        assert!(
            replies[1].output.contains("worker 0"),
            "{}",
            replies[1].output
        );
        assert_eq!(replies[2].output, "(4 3)");
        assert!(!replies[3].ok);
        assert_eq!(replies[4].output, "(2 3)");
    }

    #[test]
    fn batch_with_zero_warm_clones() {
        // Besides a plain repeated section, the streams are the recorded
        // zero-clone workloads of BENCH_pr3.json
        // (`warm_interp_clones_over_64_mixed_batched_commands`, dirty
        // seats included) and BENCH_pr4.json
        // (`warm_interp_clones_over_computed_operand_batches`).
        let mut r = threaded(8);
        for line in [
            "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
            "(setq total 100)",
            "(defun bump (x) (progn (setq total (+ total x)) total))",
            "(setq c 3)",
            "(defun sq (x) (* x x))",
        ] {
            assert!(r.submit(line).unwrap().ok);
        }
        r.submit("(||| 8 fib (4 4 4 4 4 4 4 4))").unwrap(); // warm the pool

        // Each stream cycles its (command, expected reply) pairs. Workers'
        // `setq`s stay local to their section, so every bump starts from
        // the master's total of 100.
        let streams: [(&[(&str, &str)], usize); 3] = [
            (&[("(||| 4 sq (1 2 3 4))", "(1 4 9 16)")], 32),
            (
                &[
                    ("(||| 8 fib (4 4 4 4 4 4 4 4))", "(3 3 3 3 3 3 3 3)"),
                    (
                        "(||| 8 bump (1 2 3 4 5 6 7 8))",
                        "(101 102 103 104 105 106 107 108)",
                    ),
                ],
                64,
            ),
            (
                &[
                    (
                        "(||| 8 + (1 2 3 4 5 6 7 8) (list c c c c c c c c))",
                        "(4 5 6 7 8 9 10 11)",
                    ),
                    (
                        "(||| (+ 4 4) sq (1 2 3 4 5 6 7 8))",
                        "(1 4 9 16 25 36 49 64)",
                    ),
                ],
                32,
            ),
        ];
        for (commands, len) in streams {
            let expected: Vec<(&str, &str)> = commands.iter().copied().cycle().take(len).collect();
            let batch: Vec<&str> = expected.iter().map(|(command, _)| *command).collect();
            let clones = r.interp_mut().clone_count();
            let pooled = r.section_routes().pooled;
            let replies = r.submit_batch(&batch).unwrap();
            assert_eq!(replies.len(), len);
            assert!(
                r.section_routes().pooled > pooled,
                "{commands:?} must still reach the pool"
            );
            for (k, (reply, (command, want))) in replies.iter().zip(&expected).enumerate() {
                assert_eq!(reply.output, *want, "cmd {k}: {command}");
            }
            assert_eq!(
                r.interp_mut().clone_count(),
                clones,
                "a warm pipelined batch of {commands:?} must not clone the interpreter"
            );
        }
    }

    #[test]
    fn computed_operands_pipeline_under_effect_analysis() {
        // `(list g g)` and a computed worker count were barriers under
        // PR 3's syntactic rule; the effect classifier stages them — with
        // zero warm clones — and results stay correct.
        let mut r = threaded(2);
        r.submit("(setq g 3)").unwrap();
        r.submit("(||| 2 + (1 2) (3 4))").unwrap(); // warm the pool
        let clones = r.interp_mut().clone_count();
        let batch: Vec<&str> = vec![
            "(||| 2 + (1 2) (list g g))",
            "(||| (+ 1 1) + (list g g) (10 20))",
            "(||| 2 + (if (< g 0) (1 2) (5 6)) (1 1))",
        ];
        let replies = r.submit_batch(&batch).unwrap();
        let outputs: Vec<&str> = replies.iter().map(|r| r.output.as_str()).collect();
        assert_eq!(outputs, ["(4 5)", "(13 23)", "(6 7)"]);
        assert_eq!(
            r.interp_mut().clone_count(),
            clones,
            "computed-operand sections must pipeline without cloning"
        );
    }

    #[test]
    fn classification_rejects_effectful_operands() {
        let mut r = threaded(2);
        // An operand that calls a user form (which could mutate globals)
        // must barrier — and still evaluate correctly on the sync path.
        r.submit("(defun bumpg (x) (progn (setq g (+ g x)) g))")
            .unwrap();
        let replies = r
            .submit_batch(&[
                "(setq g 3)",
                "(||| 2 + (1 2) (list (bumpg 1) (bumpg 1)))",
                "g",
            ])
            .unwrap();
        assert_eq!(replies[1].output, "(5 7)");
        assert_eq!(replies[2].output, "5", "barrier preserved effect order");
    }

    #[test]
    fn cpu_phases_dominated_by_eval() {
        // Paper Fig. 18: on CPUs parsing and printing are almost
        // negligible; evaluation dominates.
        let mut r = CpuRepl::launch(amd_6272(), CpuReplConfig::default());
        r.submit("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
            .unwrap();
        let jobs = vec!["5"; 64].join(" ");
        let reply = r.submit(&format!("(||| 64 fib ({jobs}))")).unwrap();
        let (p, e, pr) = reply.phases.proportions();
        assert!(e > 0.6, "eval share {e}");
        assert!(p < 0.3, "parse share {p}");
        assert!(pr < 0.3, "print share {pr}");
    }

    #[test]
    fn sessions_survive_errors() {
        let mut r = modeled();
        let err = r.submit("(car 5)").unwrap();
        assert!(!err.ok);
        assert!(err.wall_ns > 0, "error replies are timed too");
        let parse_err = r.submit("(+ 1").unwrap();
        assert!(!parse_err.ok);
        assert!(parse_err.wall_ns > 0);
        let ok = r.submit("(+ 1 1)").unwrap();
        assert_eq!(ok.output, "2");
        assert!(ok.wall_ns > 0, "modeled replies report wall time");
    }

    #[test]
    fn shutdown_closes() {
        let mut r = modeled();
        let ms = r.shutdown();
        assert!(ms > 0.0);
        assert!(matches!(r.submit("1"), Err(RuntimeError::SessionClosed)));
    }
}
