//! Persistent worker pool for the real-threads `|||` backend.
//!
//! This is the `|||` half of the Threaded CPU session: the one command
//! pipeline (`pipeline`) parses, evaluates, prints and meters
//! every command, and hands each section to [`ThreadedHook`], which runs
//! it here. Workers are **persistent** — the architecture the paper
//! describes (§III-D) — and jobs travel through a compact **postbox**
//! that is **pipelined**: dispatch of section *k+1* overlaps execution of
//! section *k*.
//!
//! # Architecture
//!
//! * Each [`WorkerPool`] seat owns an OS thread holding a **warm
//!   interpreter fork**, cloned exactly once at pool warm-up.
//! * Master ⇄ worker traffic goes through **double-buffered**
//!   `Postbox`es: a mutex + condvar around a two-slot FIFO, not
//!   channels — no per-message queue-node allocation, mirroring the GPU
//!   postbox's fixed mailbox cells. Two slots (instead of PR 2's one) let
//!   the master ship section *k+1*'s packets while the worker still
//!   executes section *k*, so a warm command stream pays one rendezvous
//!   per *batch* instead of one sleep/wake pair per seat per section.
//! * A section dispatch per active seat carries recycled flat buffers
//!   ([`culi_core::postbox`]):
//!   1. either a `SyncPacket` — the master's environment mutations since
//!      this seat's **sync epoch** (see [`culi_core::env`]) — or an
//!      `EnvSnapshot`, a whole-environment dump, whichever is smaller
//!      (see *Snapshot resync* below);
//!   2. a `ChainPacket` — the transient environment chain above the `|||`
//!      expression (dynamic scoping: job bodies may reference enclosing
//!      `let`/parameter bindings);
//!   3. a `FlatTree` of job expressions, each encoded afresh at dispatch
//!      with [`culi_core::postbox::FlatTree::push_tree`] (one explicit-
//!      stack arena walk per job; nothing is cached across dispatches);
//!   4. a `FlatTree` the worker fills with encoded results.
//! * Buffers round-trip master → worker → master, so a warm section
//!   performs **zero steady-state heap allocations** and **zero
//!   whole-interpreter clones** ([`culi_core::Interp::clone_count`]
//!   proves the latter in tests). Returned buffers are capped at
//!   `RETAINED_MSG_BYTES` so one oversized section cannot pin its
//!   high-water allocation for the pool's lifetime.
//! * Results come back in distribution order; worker errors surface as
//!   [`CuliError::WorkerFailed`] with the job's global index, exactly
//!   like the sequential backend. Each reply also carries the worker's
//!   paper-model [`Counters`] for its jobs, so the real-threads backend
//!   reports the same meter charges as the sequential reference.
//!
//! # Pipelined dispatch protocol
//!
//! [`WorkerPool::stage`] encodes and ships one section without waiting;
//! [`WorkerPool::collect_next`] blocks for the oldest staged section's
//! replies. [`WorkerPool::execute`] (the [`ParallelHook`] path) is
//! `stage` + `collect_next` back to back — PR 2's rendezvous exactly. The
//! REPL layer (`culi_runtime::cpu_repl::CpuRepl::submit_batch`) keeps up
//! to [`WorkerPool::PIPELINE_DEPTH`] sections in flight.
//!
//! Not every batch section comes here: the batch path places a section
//! predicted to do less work than a handoff costs, and proven unable to
//! touch persistent state, inline on the master through
//! `run_jobs_sequential_reference` (see the `cpu_repl` module docs,
//! *Section placement*). Sections of `submit`, of barrier commands and
//! of every unseen or impure function still run here.
//!
//! Staging ahead is only sound while the master's persistent state is
//! frozen: a staged packet describes the master *as of staging time*, and
//! the recovery paths below re-encode against the current master. `stage`
//! therefore asserts that every in-flight section was staged at the same
//! sync epoch; the REPL drains the pipeline before any command that could
//! mutate persistent state.
//!
//! # Isolation across sections and snapshot resync
//!
//! Worker-side mutations of *global* state must not leak into later
//! sections, so every worker watches its own sync log: if a section's
//! jobs grew it (a job ran `setq`/`defun` against persistent state), the
//! worker reports itself **dirty**. PR 2
//! re-forked dirty seats (a whole-interpreter clone); PR 3 instead ships
//! an [`culi_core::postbox::EnvSnapshot`] that rebuilds the replica's
//! persistent environments in place — structure-faithful, no clone. The
//! same snapshot repairs seats whose incremental replay window would be
//! larger than the live environment (cold seats behind thousands of
//! defines; the crossover is count-based, recorded in the `sync/` rows
//! of `BENCH_pr3.json`) and seats older than the log's compaction frontier
//! ([`culi_core::env::EnvArena::sync_replay_faithful_since`]).
//!
//! A **dirty** worker refuses any already-queued plain section (its state
//! has diverged from every master epoch) and the master re-arms the
//! refused message with a snapshot. A **panicked** worker refuses
//! everything; the master respawns the seat's thread from the current
//! master — the only remaining source of post-warm-up clones, reserved
//! for the pathological path. Pure workloads — the paper's model — never
//! pay any of this.
//!
//! After replying, a worker collects its own garbage (decoded sync
//! values stay rooted by its global bindings; job temporaries die), so a
//! warm worker's arena stays at its steady-state high-water mark.
//!
//! The session server lends one pool to whichever tenant it serves. When
//! a different tenant than its replicas are synced to stages a section,
//! the pool soft-poisons every seat, so each seat's next dispatch is that
//! same repairing snapshot (which collects the replaced values before
//! decoding). What a fork would copy from its master — fuel budget, heap
//! limit, arena capacity, fault plan — rides in every message instead.
//!
//! # Fault model and watchdog (PR 6)
//!
//! A worker that never replies would wedge the whole pipeline behind its
//! postbox, so every reply take carries a **deadline**
//! ([`WorkerPool::DEFAULT_REPLY_DEADLINE`]; tests shorten it). A seat
//! that blows the deadline is **detached**: its thread is abandoned
//! rather than joined (a shutdown marker is queued best-effort, so the
//! hung thread exits on its own if it ever wakes), the seat relaunches
//! with a fresh fork of the current master, and every message that was
//! in flight on it is written off with a synthetic failure reply — the
//! in-flight buffers are unrecoverable, so transparent re-execution is
//! impossible at this layer. Written-off commands surface as degradable
//! [`CuliError::Backend`] errors that the batch scheduler
//! (`culi_runtime::scheduler`) re-executes on the master's sequential
//! reference after draining the pipeline.
//!
//! The master also validates every executed reply's **shape** before
//! indexing into it (`reply_shape_valid`): a corrupted reply is treated
//! exactly like a panic — seat hard-poisoned, run written off — instead
//! of crashing the master. Deterministic fault injection
//! ([`culi_core::fault::FaultPlan`], polled once per accepted section
//! message) can script panics, hangs, garbled replies and dropped
//! replies; the differential fault harness drives every kind against the
//! clean reference.
//!
//! Fuel composes with the watchdog: each job re-arms the session's
//! per-command fuel budget before evaluating (`run_msg`), so a budgeted
//! runaway job aborts promptly with `FuelExhausted` inside the worker,
//! and the deadline only backstops *unbudgeted* runaways and genuine
//! infrastructure hangs.

use culi_core::cost::Counters;
use culi_core::eval::{eval, ParallelHook, SequentialHook};
use culi_core::fault::{FaultKind, FaultPlan, FaultSite};
use culi_core::postbox::{ChainPacket, EnvSnapshot, FlatTree, SyncPacket};
use culi_core::{CuliError, EnvId, ErrorCode, Interp, NodeId};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Mailbox slots per direction: the master may run this many sections
/// ahead of a worker (double buffering).
const POSTBOX_DEPTH: usize = 2;

/// Retained-capacity cap for a recycled [`SectionMsg`], applied when its
/// buffers return to the seat pool: one oversized section must not pin
/// high-water memory for the pool's lifetime.
const RETAINED_MSG_BYTES: usize = 64 * 1024;

/// Extra replay records tolerated before a snapshot becomes cheaper than
/// incremental sync. Replay and snapshot records cost within a few
/// percent of each other to encode/apply (both are one flat value tree
/// plus one define/set; the `sync/` rows of `BENCH_pr3.json` record
/// both), so the crossover is essentially the record *counts*; the slack
/// absorbs the snapshot's fixed cost of resetting and rebuilding the
/// environment list.
const SNAPSHOT_SLACK_RECORDS: usize = 16;

/// A bounded FIFO rendezvous mailbox: `put` blocks while all
/// [`POSTBOX_DEPTH`] slots are occupied, `take` blocks while the box is
/// empty. The CPU analogue of the simulated kernel's postbox cells — no
/// unbounded queue, no per-message allocation in steady state.
#[derive(Debug)]
struct Postbox<T> {
    slots: Mutex<VecDeque<T>>,
    ready: Condvar,
}

impl<T> Postbox<T> {
    fn new() -> Self {
        Self {
            slots: Mutex::new(VecDeque::with_capacity(POSTBOX_DEPTH)),
            ready: Condvar::new(),
        }
    }

    fn put(&self, value: T) {
        let mut slots = self.slots.lock().unwrap();
        while slots.len() >= POSTBOX_DEPTH {
            slots = self.ready.wait(slots).unwrap();
        }
        slots.push_back(value);
        self.ready.notify_all();
    }

    fn take(&self) -> T {
        let mut slots = self.slots.lock().unwrap();
        loop {
            if let Some(v) = slots.pop_front() {
                self.ready.notify_all();
                return v;
            }
            slots = self.ready.wait(slots).unwrap();
        }
    }

    /// `take` with a watchdog deadline: `None` if nothing arrived within
    /// `timeout` (the sender is presumed hung).
    fn take_deadline(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut slots = self.slots.lock().unwrap();
        loop {
            if let Some(v) = slots.pop_front() {
                self.ready.notify_all();
                return Some(v);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.ready.wait_timeout(slots, deadline - now).unwrap();
            slots = guard;
        }
    }

    /// Non-blocking `put`: `false` when every slot is occupied. Used on
    /// the seat-abandonment path, where a blocking put to a hung peer
    /// would hang the master too.
    fn try_put(&self, value: T) -> bool {
        let mut slots = self.slots.lock().unwrap();
        if slots.len() >= POSTBOX_DEPTH {
            return false;
        }
        slots.push_back(value);
        self.ready.notify_all();
        true
    }
}

/// How long an injected `Hang` fault stalls a worker: comfortably past
/// the watchdog deadline (the fault must actually blow it) yet bounded,
/// so abandoned test threads drain their mailbox and exit on their own.
fn hang_duration(deadline: Duration) -> Duration {
    deadline * 4
}

/// What a replica obeys of the session it serves, carried by every
/// message so a pool lent across sessions serves each under its own
/// limits and fault script.
#[derive(Debug, Default)]
struct SeatTerms {
    fuel_budget: u64,
    heap_limit: usize,
    arena_capacity: usize,
    fault_plan: FaultPlan,
    hang_for: Duration,
}

impl SeatTerms {
    fn of(master: &Interp, fault_plan: &FaultPlan, hang_for: Duration) -> Self {
        Self {
            fuel_budget: master.meter.fuel_budget(),
            heap_limit: master.config.heap_limit,
            arena_capacity: master.arena.capacity(),
            fault_plan: fault_plan.clone(),
            hang_for,
        }
    }
}

/// One dispatch message: a **run** of one or more consecutive sections
/// for one seat, plus the synchronization payload. Every buffer is
/// recycled across runs by round-tripping master → worker → master.
/// Seats that participate in a run but not in one of its sections carry
/// a zero-job entry for it, so section indices line up across seats.
#[derive(Debug, Default)]
struct SectionMsg {
    /// Master env mutations since this seat's last sync (ignored when
    /// `use_snapshot`).
    sync: SyncPacket,
    /// Whole-environment resync (only read when `use_snapshot`).
    snapshot: EnvSnapshot,
    /// Synchronize via `snapshot` instead of `sync`.
    use_snapshot: bool,
    /// The serving session's terms.
    terms: SeatTerms,
    /// Continue a partially-executed run (after a mid-run dirty stop):
    /// keep recorded outcomes and resume at section `completed` instead
    /// of starting over.
    resume: bool,
    /// Transient env chain above the `|||` expressions (one per run: a
    /// coalesced run shares its parent environment).
    chain: ChainPacket,
    /// Encoded job expressions of every section, concatenated.
    jobs: FlatTree,
    /// Jobs per section (this seat's chunks).
    section_jobs: Vec<u32>,
    /// Global index of this seat's first job, per section (errors).
    section_first: Vec<u32>,
    /// Worker-filled encoded results, concatenated across sections.
    results: FlatTree,
    /// Worker-filled: results pushed per attempted section.
    section_results: Vec<u32>,
    /// Worker-filled: the section's error (naming its first failing
    /// job), if any.
    section_error: Vec<Option<CuliError>>,
    /// Worker-filled: paper-model charges of each section's jobs.
    section_counters: Vec<Counters>,
    /// Worker-filled: sections attempted (a mid-run dirty stop leaves
    /// `completed < section_jobs.len()`; the master re-arms the same
    /// message in `resume` mode with a snapshot).
    completed: u32,
}

impl SectionMsg {
    fn section_count(&self) -> usize {
        self.section_jobs.len()
    }

    /// Bytes of heap capacity currently retained across all buffers.
    fn byte_capacity(&self) -> usize {
        self.sync.byte_capacity()
            + self.snapshot.byte_capacity()
            + self.chain.byte_capacity()
            + self.jobs.byte_capacity()
            + self.results.byte_capacity()
            + (self.section_jobs.capacity()
                + self.section_first.capacity()
                + self.section_results.capacity())
                * 4
            + self.section_error.capacity() * std::mem::size_of::<Option<CuliError>>()
            + self.section_counters.capacity() * std::mem::size_of::<Counters>()
    }

    /// Shrink policy: cap what a recycled message keeps.
    fn shrink_to_retention_cap(&mut self) {
        if self.byte_capacity() > RETAINED_MSG_BYTES {
            let per_buf = RETAINED_MSG_BYTES / 5;
            self.sync.shrink_to_budget(per_buf);
            self.snapshot.shrink_to_budget(per_buf);
            self.chain.shrink_to_budget(per_buf);
            self.jobs.shrink_to_budget(per_buf);
            self.results.shrink_to_budget(per_buf);
            self.section_jobs.shrink_to(64);
            self.section_first.shrink_to(64);
            self.section_results.shrink_to(64);
            self.section_error.shrink_to(64);
            self.section_counters.shrink_to(64);
        }
    }
}

#[derive(Debug)]
enum ToWorker {
    Section(Box<SectionMsg>),
    Shutdown,
}

#[derive(Debug)]
struct SectionReply {
    msg: Box<SectionMsg>,
    /// The worker ended this message poisoned: its fork has diverged
    /// from the master (the last attempted section mutated persistent
    /// state, or synchronization failed).
    dirty: bool,
    /// The worker panicked mid-run; its fork is untrusted and the seat's
    /// thread must be respawned. Per-section outcomes in `msg` are
    /// unreliable.
    panicked: bool,
    /// The worker declined to run this message because an earlier run
    /// poisoned it (`panicked` distinguishes hard from soft poison). The
    /// message was not executed; the master re-arms and re-sends it.
    refused: bool,
}

#[derive(Debug)]
struct Seat {
    to: Arc<Postbox<ToWorker>>,
    from: Arc<Postbox<SectionReply>>,
    handle: Option<JoinHandle<()>>,
    /// Master sync epoch this seat's fork has replayed up to.
    synced_epoch: u64,
    /// Recycled dispatch buffers; one set per pipeline slot. Empty only
    /// while that many runs are in flight on this seat. (Boxed so the
    /// postbox and reply types move a pointer, not the buffer struct.)
    #[allow(clippy::vec_box)]
    bufs: Vec<Box<SectionMsg>>,
    /// Messages sent minus replies taken.
    outstanding: usize,
    /// Replies written off by a watchdog detach: the in-flight buffers
    /// went down with the abandoned thread, so each owed reply is
    /// synthesized as a panic-shaped failure instead.
    lost_replies: usize,
    /// A dirty end-of-run was observed: the next dispatch must carry a
    /// snapshot (the worker refuses anything else).
    soft_poisoned: bool,
    /// A panic was observed: the thread must be respawned before the
    /// next dispatch.
    hard_poisoned: bool,
}

impl Seat {
    fn launch(template: &Interp) -> Self {
        let to = Arc::new(Postbox::new());
        let from = Arc::new(Postbox::new());
        let interp = template.clone();
        let (to2, from2) = (Arc::clone(&to), Arc::clone(&from));
        let handle = std::thread::spawn(move || worker_loop(interp, &to2, &from2));
        Self {
            to,
            from,
            handle: Some(handle),
            synced_epoch: template.envs.sync_epoch(),
            bufs: (0..POSTBOX_DEPTH).map(|_| Box::default()).collect(),
            outstanding: 0,
            lost_replies: 0,
            soft_poisoned: false,
            hard_poisoned: false,
        }
    }

    fn send(&mut self, msg: Box<SectionMsg>) {
        self.to.put(ToWorker::Section(msg));
        self.outstanding += 1;
    }

    /// Takes the next owed reply. Previously written-off messages are
    /// consumed first as synthetic panic-shaped replies; a live take that
    /// blows `deadline` detaches the seat (see
    /// [`Seat::detach_respawn`]) and is written off the same way.
    fn take_reply_within(&mut self, template: &Interp, deadline: Duration) -> SectionReply {
        fn synthetic() -> SectionReply {
            SectionReply {
                msg: Box::default(),
                dirty: true,
                panicked: true,
                refused: false,
            }
        }
        if self.lost_replies > 0 {
            self.lost_replies -= 1;
            return synthetic();
        }
        match self.from.take_deadline(deadline) {
            Some(reply) => {
                self.outstanding -= 1;
                reply
            }
            None => {
                self.detach_respawn(template);
                debug_assert!(
                    self.lost_replies > 0,
                    "deadline blown with nothing in flight"
                );
                self.lost_replies = self.lost_replies.saturating_sub(1);
                synthetic()
            }
        }
    }

    /// Returns a message's buffers to the pool, applying the retention
    /// cap. Synthetic write-off replies can outnumber the lost originals
    /// they replace, so the recycled set never grows past the pipeline
    /// depth.
    fn give_back(&mut self, mut msg: Box<SectionMsg>) {
        if self.bufs.len() >= POSTBOX_DEPTH {
            return;
        }
        msg.shrink_to_retention_cap();
        self.bufs.push(msg);
    }

    /// Replaces this seat's worker thread with a fresh fork of `template`
    /// (the panic-recovery path — the only post-warm-up interpreter
    /// clone). Requires all outstanding replies to have been drained.
    fn respawn(&mut self, template: &Interp) {
        debug_assert_eq!(self.outstanding, 0, "respawn with replies in flight");
        self.shutdown();
        let bufs = std::mem::take(&mut self.bufs);
        let lost = self.lost_replies;
        *self = Seat::launch(template);
        // Keep the old buffer sets (they are already shrunk to cap) and
        // the write-off credits still owed to uncollected runs.
        self.bufs = bufs;
        self.lost_replies = lost;
    }

    /// Watchdog path: the worker blew the reply deadline. The thread is
    /// abandoned, never joined — a shutdown marker is queued best-effort
    /// so it exits on its own if it ever wakes (the worker blocks only
    /// after taking a message, so at most one message is queued in `to`
    /// and the marker always fits). The seat relaunches from the current
    /// master (sound: the pipeline pins one master epoch, so the master
    /// *is* the state every in-flight message was staged against), and
    /// every in-flight message is written off — its buffers are
    /// unrecoverable.
    fn detach_respawn(&mut self, template: &Interp) {
        let _ = self.to.try_put(ToWorker::Shutdown);
        drop(self.handle.take());
        let lost = self.outstanding + self.lost_replies;
        let bufs = std::mem::take(&mut self.bufs);
        *self = Seat::launch(template);
        self.bufs = bufs;
        self.lost_replies = lost;
    }

    fn shutdown(&mut self) {
        self.to.put(ToWorker::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    /// Re-sends a FIFO run of parked messages after this seat was
    /// repaired: the first may carry a fresh snapshot (and continue a
    /// partially-executed run when `resume_first`); the rest ride behind
    /// it with nothing left to sync. Clears the master-side poison flags
    /// — the worker is clean once the head message lands (a fresh fork
    /// after a respawn, or a successful snapshot apply).
    #[allow(clippy::vec_box)] // messages stay boxed end to end
    fn resend_parked(
        &mut self,
        interp: &Interp,
        parked: Vec<Box<SectionMsg>>,
        snapshot_first: bool,
        resume_first: bool,
    ) {
        for (k, mut msg) in parked.into_iter().enumerate() {
            msg.use_snapshot = snapshot_first && k == 0;
            if msg.use_snapshot {
                msg.snapshot.encode(interp);
            }
            msg.resume = resume_first && k == 0;
            msg.sync.clear();
            self.send(msg);
        }
        self.soft_poisoned = false;
        self.hard_poisoned = false;
    }
}

/// Worker-side divergence state. A poisoned worker refuses messages
/// instead of running them on a diverged fork, but keeps draining its
/// mailbox so the pipeline never wedges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Poison {
    /// Fork matches its sync epoch: run anything.
    None,
    /// A completed run's last section diverged the fork: only a
    /// snapshot-bearing message may run.
    Soft,
    /// A run stopped dirty *mid-message*: only the master's resume
    /// re-send of that same message may run — a fresh snapshot message
    /// for a later run must not jump the remaining sections.
    AwaitResume,
    /// A panic left the fork untrusted: nothing runs until the master
    /// respawns this thread.
    Hard,
}

fn worker_loop(mut interp: Interp, to: &Postbox<ToWorker>, from: &Postbox<SectionReply>) {
    let mut poison = Poison::None;
    loop {
        match to.take() {
            ToWorker::Shutdown => return,
            ToWorker::Section(mut msg) => {
                let accept = match poison {
                    Poison::None => true,
                    Poison::Soft => msg.use_snapshot,
                    Poison::AwaitResume => msg.resume,
                    Poison::Hard => false,
                };
                if !accept {
                    from.put(SectionReply {
                        msg,
                        dirty: false,
                        panicked: poison == Poison::Hard,
                        refused: true,
                    });
                    continue;
                }
                // One fault-injection event per *accepted* section
                // message (refusals are protocol traffic, not work).
                let fault = msg.terms.fault_plan.poll(FaultSite::WorkerSection);
                if fault == Some(FaultKind::Hang) {
                    // Injected stall: blow the master's watchdog deadline,
                    // then carry on — the master has detached this seat by
                    // the time we wake, so the late reply lands in an
                    // orphaned postbox.
                    std::thread::sleep(msg.terms.hang_for);
                }
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    if fault == Some(FaultKind::Panic) {
                        // resume_unwind skips the global panic hook: no
                        // backtrace noise for a scripted fault.
                        std::panic::resume_unwind(Box::new("injected worker fault"));
                    }
                    run_msg(&mut interp, &mut msg)
                }));
                match outcome {
                    Ok(run) => {
                        poison = if run.dirty {
                            if (msg.completed as usize) < msg.section_count() {
                                Poison::AwaitResume
                            } else {
                                Poison::Soft
                            }
                        } else {
                            Poison::None
                        };
                        if fault == Some(FaultKind::DropReply) {
                            // Injected loss: the reply never lands; the
                            // master's watchdog writes the message off and
                            // detaches this seat.
                            culi_core::gc::collect(&mut interp, &[]);
                            continue;
                        }
                        if fault == Some(FaultKind::Garbage) {
                            // Injected corruption: the reply claims every
                            // section ran but its payload vectors are
                            // empty. The master's shape validation must
                            // write it off instead of indexing into it.
                            msg.results.clear();
                            msg.section_results.clear();
                            msg.section_error.clear();
                            msg.section_counters.clear();
                        }
                        from.put(SectionReply {
                            msg,
                            dirty: run.dirty,
                            panicked: false,
                            refused: false,
                        });
                        // Collect after replying: the master proceeds while
                        // this fork sweeps its job temporaries (bounded by
                        // its high-water slot, see culi_core::gc).
                        culi_core::gc::collect(&mut interp, &[]);
                    }
                    Err(_) => {
                        // The fork's state can no longer be trusted; report
                        // and refuse everything until the master respawns
                        // this seat.
                        poison = Poison::Hard;
                        from.put(SectionReply {
                            msg,
                            dirty: true,
                            panicked: true,
                            refused: false,
                        });
                    }
                }
            }
        }
    }
}

/// What one dispatched message did inside a worker.
struct MsgRun {
    /// The fork ends this message diverged from the master.
    dirty: bool,
    /// A snapshot was applied successfully (clears soft poison).
    resynced: bool,
}

/// Runs one dispatched message inside a worker: synchronize (replay or
/// snapshot), rebuild the transient chain, then execute the run's
/// sections in order — each section's jobs evaluate in their own child
/// environments, results/errors/charges are recorded per section. A
/// section whose jobs mutate persistent state stops the run: the fork
/// has diverged, and later sections must wait for a snapshot resync
/// (the master re-sends this message in `resume` mode).
fn run_msg(interp: &mut Interp, msg: &mut SectionMsg) -> MsgRun {
    let mut run = MsgRun {
        dirty: false,
        resynced: false,
    };
    if !msg.resume {
        msg.completed = 0;
        msg.results.clear();
        msg.section_results.clear();
        msg.section_error.clear();
        msg.section_counters.clear();
    }
    let sections = msg.section_count();
    interp.arena.set_capacity(msg.terms.arena_capacity);
    // A failed sync leaves this fork in an unspecified intermediate
    // state: every remaining section fails, and the dirty flag makes the
    // next dispatch resynchronize from a snapshot.
    let synced = if msg.use_snapshot {
        // No heap cap for the apply: the master already holds these
        // values within its own cap (the apply collects the replaced
        // ones first, so only decoding's unsharing could push past it).
        interp.arena.set_node_limit(usize::MAX);
        msg.snapshot.apply(interp)
    } else {
        msg.sync.apply(interp)
    };
    interp.arena.set_node_limit(msg.terms.heap_limit);
    if let Err(e) = synced {
        for s in msg.completed as usize..sections {
            msg.section_results.push(0);
            msg.section_error.push(Some(CuliError::WorkerFailed {
                worker: msg.section_first[s] as usize,
                message: format!("worker sync failed: {e}"),
            }));
            msg.section_counters.push(Counters::default());
        }
        msg.completed = sections as u32;
        run.dirty = true;
        return run;
    }
    run.resynced = msg.use_snapshot;
    let base_env = match msg.chain.rebuild(interp) {
        Ok(env) => env,
        Err(e) => {
            for s in msg.completed as usize..sections {
                msg.section_results.push(0);
                msg.section_error.push(Some(CuliError::WorkerFailed {
                    worker: msg.section_first[s] as usize,
                    message: format!("worker chain rebuild failed: {e}"),
                }));
                msg.section_counters.push(Counters::default());
            }
            msg.completed = sections as u32;
            run.dirty = true;
            return run;
        }
    };
    // Job tree index where the next section starts (preceding sections'
    // jobs were already consumed on resume).
    let mut job_at: usize = msg.section_jobs[..msg.completed as usize]
        .iter()
        .map(|&n| n as usize)
        .sum();
    while (msg.completed as usize) < sections {
        let s = msg.completed as usize;
        let njobs = msg.section_jobs[s] as usize;
        // Synchronization itself appends to this fork's own log; only
        // growth *beyond* this point means a job mutated global state.
        let log_before = interp.envs.sync_log_len();
        let mut error: Option<CuliError> = None;
        let mut pushed = 0u32;
        let mut counters = Counters::default();
        for j in 0..njobs {
            let job = match msg.jobs.decode(job_at + j, interp) {
                Ok(id) => id,
                Err(e) => {
                    error = Some(CuliError::in_worker(msg.section_first[s] as usize + j, &e));
                    break;
                }
            };
            // Paper §III-D b: each job's subtree roots in a child of the
            // ||| expression's environment. The meter window around eval
            // charges exactly the job's own interpreter work — codec
            // traffic stays outside it, so these counters line up with
            // the sequential backend's.
            let env = interp.envs.push(Some(base_env));
            // Each parallel job gets the session's full per-command fuel
            // budget independently: this fork's absolute deadline is
            // stale (cloned from the master at warm-up), and a shared
            // window would make a job's abort depend on how much its
            // seat has already executed.
            interp.meter.arm_fuel(msg.terms.fuel_budget);
            let before = interp.meter.snapshot();
            let outcome = eval(interp, &mut SequentialHook, job, env, 0);
            counters.add(&interp.meter.snapshot().delta_since(&before));
            match outcome {
                Ok(value) => {
                    msg.results.push_tree(interp, value);
                    pushed += 1;
                }
                Err(e) => {
                    error = Some(CuliError::in_worker(msg.section_first[s] as usize + j, &e));
                    break;
                }
            }
        }
        job_at += njobs;
        msg.section_results.push(pushed);
        msg.section_error.push(error);
        msg.section_counters.push(counters);
        msg.completed = (s + 1) as u32;
        if interp.envs.sync_log_len() != log_before {
            // This section's jobs mutated persistent state: stop here.
            run.dirty = true;
            break;
        }
    }
    run
}

/// Master-side defensive validation of an executed reply: every
/// worker-filled vector must line up with the reply's own claimed
/// progress before the master indexes into them. A reply that fails this
/// cannot be trusted any further than a panic — the caller writes it off
/// instead of crashing the master.
fn reply_shape_valid(msg: &SectionMsg) -> bool {
    let completed = msg.completed as usize;
    completed <= msg.section_count()
        && msg.section_results.len() == completed
        && msg.section_error.len() == completed
        && msg.section_counters.len() == completed
        && msg
            .section_results
            .iter()
            .map(|&n| n as usize)
            .sum::<usize>()
            <= msg.results.len()
}

/// Dispatch plan of one section within a staged run.
#[derive(Debug, Clone, Copy)]
struct SectionPlan {
    /// Seats the section's jobs were chunked over (`0..active`).
    active: usize,
}

/// One staged (in-flight) run of sections awaiting collection.
#[derive(Debug)]
struct StagedRun {
    plans: Vec<SectionPlan>,
    /// Master sync epoch at staging time (pipeline-frozen invariant).
    epoch: u64,
    /// Seats that received a message for this run.
    active_seats: usize,
    /// Per-seat executed replies, taken at first collection. The flag
    /// marks a panicked seat (its recorded outcomes are unreliable; the
    /// buffers still round-trip back to the seat pool).
    replies: Vec<(bool, Box<SectionMsg>)>,
    /// Sections already handed out by `collect_next`.
    cursor: usize,
    /// Result-tree cursor per seat (prefix of consumed result trees).
    result_at: Vec<usize>,
}

/// A pool of persistent worker threads with warm interpreter forks and a
/// pipelined multi-section dispatch queue (see the module docs for the
/// protocol).
#[derive(Debug)]
pub struct WorkerPool {
    seats: Vec<Seat>,
    pending: VecDeque<StagedRun>,
    /// Job charges accumulated across collected sections since the last
    /// [`WorkerPool::take_job_counters`].
    job_counters: Counters,
    /// Watchdog: how long one reply take may block before its seat is
    /// declared hung and detached.
    reply_deadline: Duration,
    /// Deterministic fault script the workers poll (empty in
    /// production: one branch per section message).
    fault_plan: FaultPlan,
    /// Seats a section's jobs chunk over: the serving session's thread
    /// count (seats beyond it idle while that session borrows the pool).
    width: usize,
    /// The server tenant whose session the replicas serve (`None`
    /// outside a server).
    owner: Option<usize>,
}

impl WorkerPool {
    /// Maximum runs a caller may keep staged-but-uncollected: the
    /// postbox double-buffer depth.
    pub const PIPELINE_DEPTH: usize = POSTBOX_DEPTH;

    /// Maximum sections a single staged run may coalesce.
    pub const MAX_RUN_SECTIONS: usize = 16;

    /// Retained-capacity cap per recycled dispatch buffer (see
    /// [`WorkerPool::retained_buffer_bytes`]). Public so other retained
    /// buffers — the command cache's stores — can budget in the same
    /// units.
    pub const RETAINED_MSG_BYTES: usize = RETAINED_MSG_BYTES;

    /// Default watchdog deadline for one reply take. Deliberately
    /// generous: legitimate sections can run long, and *budgeted*
    /// runaways are caught much earlier by fuel — the deadline exists
    /// for genuinely hung workers.
    pub const DEFAULT_REPLY_DEADLINE: Duration = Duration::from_secs(30);

    /// Forks `threads` workers (at least one) from `template`. This is the
    /// only point that clones whole interpreters; every later section is
    /// incremental (snapshot resync repairs diverged seats in place, and
    /// only the panic-recovery path ever clones again).
    pub fn launch(template: &Interp, threads: usize) -> Self {
        Self::launch_with(
            template,
            threads,
            Self::DEFAULT_REPLY_DEADLINE,
            FaultPlan::none(),
        )
    }

    /// [`WorkerPool::launch`] with an explicit watchdog deadline and
    /// fault-injection script (tests and the differential fault
    /// harness).
    pub fn launch_with(
        template: &Interp,
        threads: usize,
        reply_deadline: Duration,
        fault_plan: FaultPlan,
    ) -> Self {
        let width = threads.max(1);
        let seats = (0..width).map(|_| Seat::launch(template)).collect();
        Self {
            seats,
            pending: VecDeque::new(),
            job_counters: Counters::default(),
            reply_deadline,
            fault_plan,
            width,
            owner: None,
        }
    }

    /// The server tenant the replicas last served.
    pub(crate) fn owner(&self) -> Option<usize> {
        self.owner
    }

    /// Hands the pool to `owner`'s session, which chunks its sections
    /// over `threads` seats under its own watchdog deadline and fault
    /// plan. A different owner than the last soft-poisons every seat, so
    /// each one's next dispatch resyncs it from a snapshot of the new
    /// owner's master. Only whole runs change hands: nothing may be
    /// staged.
    fn serve(
        &mut self,
        owner: Option<usize>,
        threads: usize,
        reply_deadline: Duration,
        plan: &FaultPlan,
    ) {
        if self.owner == owner {
            return;
        }
        assert!(self.pending.is_empty(), "pool switched with runs in flight");
        self.owner = owner;
        self.width = threads.max(1);
        self.reply_deadline = reply_deadline;
        self.fault_plan = plan.clone();
        for seat in &mut self.seats {
            seat.soft_poisoned = true;
        }
    }

    /// Number of staged runs not yet fully collected.
    pub fn staged_runs(&self) -> usize {
        self.pending.len()
    }

    /// Number of staged sections not yet collected.
    pub fn staged(&self) -> usize {
        self.pending.iter().map(|r| r.plans.len() - r.cursor).sum()
    }

    /// Paper-model charges of every job evaluated in collected sections
    /// since the last call (the worker-side half of a command's meter).
    pub fn take_job_counters(&mut self) -> Counters {
        std::mem::take(&mut self.job_counters)
    }

    /// Bytes of buffer capacity currently retained by seat-held (idle)
    /// dispatch buffers — the quantity bounded by the shrink policy.
    pub fn retained_buffer_bytes(&self) -> usize {
        self.seats
            .iter()
            .flat_map(|s| s.bufs.iter())
            .map(|m| m.byte_capacity())
            .sum()
    }

    /// Encodes and ships one section without waiting for replies: a run
    /// of one.
    pub fn stage(&mut self, interp: &mut Interp, jobs: &[NodeId], parent_env: EnvId) {
        self.stage_run(interp, &[jobs], parent_env);
    }

    /// Encodes and ships a run of consecutive sections (sharing
    /// `parent_env`) as **one message per participating seat** — one
    /// postbox rendezvous per seat per run instead of one per seat per
    /// section. At most [`WorkerPool::PIPELINE_DEPTH`] runs may be in
    /// flight; every staged run must see the same master sync epoch
    /// (stage panics otherwise — the caller drains the pipeline before
    /// mutating commands).
    pub fn stage_run(&mut self, interp: &mut Interp, sections: &[&[NodeId]], parent_env: EnvId) {
        let epoch_now = interp.envs.sync_epoch();
        assert!(
            self.pending.iter().all(|p| p.epoch == epoch_now),
            "pipelined sections must be staged against one frozen master epoch"
        );
        assert!(
            self.pending.len() < POSTBOX_DEPTH,
            "postbox pipeline staged deeper than its double buffers"
        );
        assert!(
            sections.len() <= Self::MAX_RUN_SECTIONS,
            "staged run exceeds MAX_RUN_SECTIONS"
        );
        let mut plans = Vec::with_capacity(sections.len());
        let mut active_seats = 0;
        for jobs in sections {
            let active = if jobs.is_empty() {
                0
            } else {
                // Seats actually receiving a chunk: ceil-division rounding
                // can leave fewer chunks than seats (e.g. 5 jobs over 4
                // seats chunk in threes: 2+2+1), so recompute from the
                // chunk size instead of assuming one chunk per seat.
                let t = self.width.min(jobs.len()).max(1);
                let chunk_size = jobs.len().div_ceil(t);
                jobs.len().div_ceil(chunk_size)
            };
            plans.push(SectionPlan { active });
            active_seats = active_seats.max(active);
        }
        let faithful = interp.envs.sync_replay_faithful_since();
        let nseats = self.width;
        let plan = self.fault_plan.clone();
        let hang_for = hang_duration(self.reply_deadline);
        // A borrower wider than the pool gets its extra seats forked now.
        while self.seats.len() < nseats {
            self.seats.push(Seat::launch(interp));
        }
        // The whole-environment snapshot is identical for every seat that
        // needs one: encode it once per dispatch and memcpy it into each
        // message instead of re-walking the environment per seat.
        let mut shared_snapshot: Option<EnvSnapshot> = None;
        for c in 0..active_seats {
            let seat = &mut self.seats[c];
            if seat.hard_poisoned && seat.outstanding == 0 {
                seat.respawn(interp);
            }
            let mut msg = seat.bufs.pop().expect("seat staged past its buffers");
            // Snapshot-vs-replay decision (module docs): a snapshot is
            // forced for diverged or compaction-stranded seats, and
            // otherwise chosen whenever the replay window holds more
            // records than the live environment dump would.
            let window = interp.envs.sync_records_since(seat.synced_epoch).len();
            let use_snapshot = seat.soft_poisoned
                || seat.synced_epoch < faithful
                || window > interp.envs.logged_binding_count() + SNAPSHOT_SLACK_RECORDS;
            if use_snapshot {
                msg.use_snapshot = true;
                let shared = shared_snapshot.get_or_insert_with(|| {
                    let mut snap = EnvSnapshot::default();
                    snap.encode(interp);
                    snap
                });
                msg.snapshot.copy_from(shared);
                msg.sync.clear();
                // Optimistic: the worker clears its own poison only when
                // the snapshot applies; a failure comes back dirty and
                // re-poisons this flag.
                seat.soft_poisoned = false;
            } else {
                msg.use_snapshot = false;
                msg.sync.encode_since(interp, seat.synced_epoch);
            }
            msg.resume = false;
            msg.terms = SeatTerms::of(interp, &plan, hang_for);
            msg.chain.encode(interp, parent_env);
            msg.jobs.clear();
            msg.section_jobs.clear();
            msg.section_first.clear();
            for (s, jobs) in sections.iter().enumerate() {
                let active = plans[s].active;
                if c >= active {
                    // Not participating in this section: keep indices
                    // aligned with a zero-job entry.
                    msg.section_jobs.push(0);
                    msg.section_first.push(0);
                    continue;
                }
                let t = nseats.min(jobs.len()).max(1);
                let chunk_size = jobs.len().div_ceil(t);
                let lo = c * chunk_size;
                let hi = (lo + chunk_size).min(jobs.len());
                for &job in &jobs[lo..hi] {
                    msg.jobs.push_tree(interp, job);
                }
                msg.section_jobs.push((hi - lo) as u32);
                msg.section_first.push(lo as u32);
            }
            seat.synced_epoch = epoch_now;
            seat.send(msg);
        }
        self.pending.push_back(StagedRun {
            plans,
            epoch: epoch_now,
            active_seats,
            replies: Vec::new(),
            cursor: 0,
            result_at: vec![0; active_seats],
        });
    }

    /// Takes seat `c`'s fully-executed reply for the front run,
    /// repairing refusals and mid-run dirty stops along the way. The
    /// returned flag is `true` when the seat's reply was written off —
    /// panic, watchdog timeout, or corrupted payload (its recorded
    /// outcomes are unreliable).
    fn take_run_reply(
        seats: &mut [Seat],
        interp: &mut Interp,
        epoch: u64,
        c: usize,
        deadline: Duration,
    ) -> (bool, Box<SectionMsg>) {
        /// Drains the (expected-refused) replies still owed on `seat`
        /// behind an out-of-band head reply: FIFO messages, whether a
        /// hard-poison refusal was seen, and whether the drain itself
        /// hit the watchdog. On the watchdog path the seat was already
        /// detached and relaunched from the current master, and the
        /// interrupted message — owed to a *later* run — had its
        /// write-off credit restored so that run collects a synthetic
        /// failure.
        // Messages stay boxed end to end (the postbox hands out
        // `Box<SectionMsg>`), so the parked list keeps the boxes rather
        // than moving the large payloads out and back in.
        #[allow(clippy::vec_box)]
        fn drain_owed(
            seat: &mut Seat,
            interp: &Interp,
            deadline: Duration,
        ) -> (Vec<Box<SectionMsg>>, bool, bool) {
            let mut parked = Vec::new();
            let mut saw_hard = false;
            let mut detached = false;
            while seat.outstanding > 0 {
                let r = seat.take_reply_within(interp, deadline);
                if r.panicked && !r.refused {
                    seat.lost_replies += 1;
                    detached = true;
                    break;
                }
                debug_assert!(r.refused, "poisoned seat executed out of order");
                saw_hard |= r.panicked;
                parked.push(r.msg);
            }
            (parked, saw_hard, detached)
        }

        let seat = &mut seats[c];
        let mut reply = seat.take_reply_within(interp, deadline);
        loop {
            if reply.panicked && !reply.refused {
                // A real panic reply or a synthetic watchdog write-off:
                // the recorded outcomes are unreliable either way.
                seat.hard_poisoned = true;
                return (true, reply.msg);
            }
            if reply.refused {
                // A poisoned worker bounced this (oldest outstanding)
                // message. Everything queued behind it has been (or is
                // about to be) bounced too, so drain the whole run of
                // refusals and re-send in FIFO order — re-arming only the
                // refused head would let a later message execute first.
                // Sound because the pipeline is pinned to one master
                // epoch: the current master *is* the state these
                // messages were staged against.
                let mut parked = vec![reply.msg];
                let saw_hard_head = reply.panicked;
                let (rest, saw_hard_rest, detached) = drain_owed(seat, interp, deadline);
                parked.extend(rest);
                let saw_hard = saw_hard_head || saw_hard_rest;
                if detached {
                    // The watchdog already relaunched this seat from the
                    // current master mid-drain: nothing left to repair,
                    // just re-send what was recovered.
                    seat.resend_parked(interp, parked, false, false);
                } else if saw_hard {
                    // Hard poison: respawn the thread from the current
                    // master; the fresh fork needs no sync at all.
                    seat.respawn(interp);
                    seat.resend_parked(interp, parked, false, false);
                } else {
                    // Soft poison: the first re-sent message carries a
                    // snapshot that fully repairs the replica; the rest
                    // ride behind it with nothing left to sync.
                    seat.synced_epoch = epoch;
                    seat.resend_parked(interp, parked, true, false);
                }
                reply = seat.take_reply_within(interp, deadline);
                continue;
            }
            if !reply_shape_valid(&reply.msg) {
                // Corrupted payload: write the reply off like a panic
                // instead of indexing into it.
                seat.hard_poisoned = true;
                return (true, reply.msg);
            }
            if (reply.msg.completed as usize) < reply.msg.section_count() {
                // Mid-run dirty stop: a section's jobs diverged the fork
                // and the remaining sections must not run on it. Drain
                // any refusals queued behind this message, then re-send
                // the *same* message in resume mode with a snapshot —
                // recorded outcomes are kept and execution continues from
                // `completed` — followed by the drained messages, in
                // order. (After a mid-drain detach the relaunched fork
                // already *is* the master state, so the resume rides on
                // an empty sync instead of a snapshot.)
                let (parked, _saw_hard, detached) = drain_owed(seat, interp, deadline);
                let mut run = vec![reply.msg];
                run.extend(parked);
                if !detached {
                    seat.synced_epoch = epoch;
                }
                seat.resend_parked(interp, run, !detached, true);
                reply = seat.take_reply_within(interp, deadline);
                continue;
            }
            // Fully executed. A dirty *last* section leaves the worker
            // poisoned. Repair eagerly: if later messages are already
            // queued on this seat the worker is bouncing them right now —
            // drain the refusals and re-send the run (snapshot first)
            // before anything newer is staged behind them, preserving
            // FIFO order. With nothing queued, just flag the seat so the
            // next stage ships a snapshot.
            if reply.dirty {
                if seat.outstanding > 0 {
                    let (parked, _saw_hard, detached) = drain_owed(seat, interp, deadline);
                    if !detached {
                        seat.synced_epoch = epoch;
                    }
                    seat.resend_parked(interp, parked, !detached, false);
                } else {
                    seat.soft_poisoned = true;
                }
            }
            return (false, reply.msg);
        }
    }

    /// Blocks for the oldest staged run's next section and appends its
    /// decoded results to `results` in distribution order. Always drains
    /// every participating seat (once per run) so the pool stays
    /// consistent on failure.
    pub fn collect_next(
        &mut self,
        interp: &mut Interp,
        results: &mut Vec<NodeId>,
    ) -> culi_core::Result<()> {
        let deadline = self.reply_deadline;
        let run = self
            .pending
            .front_mut()
            .expect("collect_next without a staged section");
        if run.replies.is_empty() && run.active_seats > 0 {
            for c in 0..run.active_seats {
                run.replies.push(Self::take_run_reply(
                    &mut self.seats,
                    interp,
                    run.epoch,
                    c,
                    deadline,
                ));
            }
        }
        let s = run.cursor;
        let mut first_error: Option<CuliError> = None;
        // When any participating seat was written off, the whole section
        // is re-executed by a fallback (the hook's or the scheduler's):
        // keep the surviving seats' partial charges out of the job meter
        // so the fallback's full re-run is the only accounting.
        let seat_lost = run.replies[..run.plans[s].active]
            .iter()
            .any(|(lost, _)| *lost);
        for c in 0..run.plans[s].active {
            match &run.replies[c] {
                (true, _) => {
                    if first_error.is_none() {
                        first_error = Some(CuliError::Backend(
                            "||| worker seat lost (panic, corrupted reply, or watchdog timeout)"
                                .to_string(),
                        ));
                    }
                }
                (false, msg) => {
                    let pushed = msg.section_results[s] as usize;
                    let start = run.result_at[c];
                    run.result_at[c] += pushed;
                    if !seat_lost {
                        self.job_counters.add(&msg.section_counters[s]);
                    }
                    if let Some(error) = &msg.section_error[s] {
                        if first_error.is_none() {
                            first_error = Some(error.clone());
                        }
                    } else if first_error.is_none() {
                        // Decoding results is postbox traffic, not
                        // paper-model interpreter work: keep it off the
                        // master's meter so the real-threads backend
                        // charges exactly like the sequential reference.
                        let decoded = interp.unmetered(|i| -> culi_core::Result<()> {
                            for r in start..start + pushed {
                                results.push(msg.results.decode(r, i)?);
                            }
                            Ok(())
                        });
                        if let Err(e) = decoded {
                            first_error = Some(e);
                        }
                    }
                }
            }
        }
        run.cursor += 1;
        if run.cursor == run.plans.len() {
            let done = self.pending.pop_front().expect("front run exists");
            for (c, (_panicked, msg)) in done.replies.into_iter().enumerate() {
                self.seats[c].give_back(msg);
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Distributes `jobs` over the seats, blocks for every reply, and
    /// appends the decoded results to `results` in distribution order —
    /// PR 2's synchronous rendezvous, now expressed as
    /// [`WorkerPool::stage`] + [`WorkerPool::collect_next`].
    pub fn execute(
        &mut self,
        interp: &mut Interp,
        jobs: &[NodeId],
        parent_env: EnvId,
        results: &mut Vec<NodeId>,
    ) -> culi_core::Result<()> {
        self.stage(interp, jobs, parent_env);
        self.collect_next(interp, results)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for seat in &mut self.seats {
            seat.shutdown();
        }
    }
}

/// Evaluates one section's jobs sequentially on the master interpreter
/// with the *worker's* exact metering discipline (`run_msg`): child env
/// outside the job window, per-job fuel re-arm, then the `eval` window
/// itself, accumulated into `job_counters`. Both graceful-degradation
/// fallbacks — [`ThreadedHook::execute`]'s on seat loss and the batch
/// scheduler's sequential re-run — go through this, which is what keeps
/// degraded replies byte-identical to the pool's (the pool test
/// `job_counters_match_sequential_reference` pins the equivalence). The
/// batch path's inline placement of small isolated sections is this same
/// path, taken on purpose.
pub(crate) fn run_jobs_sequential_reference(
    interp: &mut Interp,
    jobs: &[NodeId],
    parent_env: EnvId,
    results: &mut Vec<NodeId>,
    job_counters: &mut Counters,
) -> culi_core::Result<()> {
    for (w, &job) in jobs.iter().enumerate() {
        let env = interp.envs.push(Some(parent_env));
        // Like a pool worker: each job independently gets the full
        // per-command fuel budget.
        let budget = interp.meter.fuel_budget();
        interp.meter.arm_fuel(budget);
        let before = interp.meter.snapshot();
        let outcome = eval(interp, &mut SequentialHook, job, env, 0);
        job_counters.add(&interp.meter.snapshot().delta_since(&before));
        let value = outcome.map_err(|e| CuliError::in_worker(w, &e))?;
        results.push(value);
    }
    Ok(())
}

/// Real-threads `|||` backend over a lazily-launched persistent
/// [`WorkerPool`]. The pool forks its workers on the first section and
/// keeps them warm across sections *and* REPL commands; see the module
/// docs for the synchronization protocol.
#[derive(Debug)]
pub struct ThreadedHook {
    /// The server tenant this session is (see [`ThreadedHook::swap_pool`]).
    owner: Option<usize>,
    threads: usize,
    reply_deadline: Duration,
    fault_plan: FaultPlan,
    pool: Option<WorkerPool>,
    /// Job charges of sections re-executed on the *master* after a seat
    /// loss ([`ThreadedHook::execute`]'s degradation fallback). Reported
    /// separately from the pool's worker-side charges so the repl can
    /// subtract them back out of the master meter.
    degraded_jobs: Counters,
}

impl ThreadedHook {
    /// A backend that will fork `threads` persistent workers on first use.
    pub fn new(threads: usize) -> Self {
        Self::with_watchdog(
            threads,
            WorkerPool::DEFAULT_REPLY_DEADLINE,
            FaultPlan::none(),
        )
    }

    /// [`ThreadedHook::new`] with an explicit watchdog deadline and
    /// fault-injection script (tests and the differential fault
    /// harness).
    pub fn with_watchdog(threads: usize, reply_deadline: Duration, fault_plan: FaultPlan) -> Self {
        Self {
            owner: None,
            threads,
            reply_deadline,
            fault_plan,
            pool: None,
            degraded_jobs: Counters::default(),
        }
    }

    /// The pool, forking it from `interp` on first use and taking it
    /// over from the tenant it last served.
    pub fn pool_mut(&mut self, interp: &Interp) -> &mut WorkerPool {
        let pool = self.pool.get_or_insert_with(|| {
            let mut pool = WorkerPool::launch_with(
                interp,
                self.threads,
                self.reply_deadline,
                self.fault_plan.clone(),
            );
            pool.owner = self.owner;
            pool
        });
        pool.serve(
            self.owner,
            self.threads,
            self.reply_deadline,
            &self.fault_plan,
        );
        pool
    }

    /// Makes this the session of server tenant `owner` and swaps its
    /// pool with `pool`: called once to borrow the server's pool and once
    /// to hand it (or the one launched meanwhile) back.
    pub(crate) fn swap_pool(&mut self, pool: &mut Option<WorkerPool>, owner: usize) {
        self.owner = Some(owner);
        std::mem::swap(&mut self.pool, pool);
    }

    /// Worker-side job charges collected since the last call (zero when
    /// the pool was never forked).
    pub fn take_job_counters(&mut self) -> Counters {
        self.pool
            .as_mut()
            .map(WorkerPool::take_job_counters)
            .unwrap_or_default()
    }

    /// Job charges of degradation-fallback sections evaluated on the
    /// master meter since the last call (see `degraded_jobs`). Zero in
    /// every fault-free session.
    pub fn take_degraded_jobs(&mut self) -> Counters {
        std::mem::take(&mut self.degraded_jobs)
    }
}

impl ParallelHook for ThreadedHook {
    fn execute(
        &mut self,
        interp: &mut Interp,
        jobs: &[NodeId],
        parent_env: EnvId,
        results: &mut Vec<NodeId>,
    ) -> culi_core::Result<()> {
        let base = results.len();
        match self
            .pool_mut(interp)
            .execute(interp, jobs, parent_env, results)
        {
            Err(e) if e.code() == ErrorCode::Device => {
                // A seat was written off mid-section (the pool has
                // already relaunched it). The workers' partial results
                // and charges are discarded — `collect_next` withheld the
                // section's counters — and the whole section re-executes
                // on the master with the worker metering discipline, so
                // the reply stays byte-identical to an un-faulted run.
                results.truncate(base);
                run_jobs_sequential_reference(
                    interp,
                    jobs,
                    parent_env,
                    results,
                    &mut self.degraded_jobs,
                )
            }
            outcome => outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culi_core::InterpConfig;

    fn interp() -> Interp {
        Interp::new(InterpConfig {
            arena_capacity: 1 << 16,
            ..Default::default()
        })
    }

    fn run(i: &mut Interp, hook: &mut dyn ParallelHook, src: &str) -> String {
        i.eval_str_with(src, hook).unwrap()
    }

    #[test]
    fn pooled_results_match_paper_example() {
        let mut i = interp();
        let mut hook = ThreadedHook::new(3);
        assert_eq!(
            run(&mut i, &mut hook, "(||| 3 + (1 2 3) (4 5 6))"),
            "(5 7 9)"
        );
    }

    #[test]
    fn pool_is_lazy_and_persists_across_sections() {
        // The second stream is the recorded zero-clone workload of
        // BENCH_pr2.json (`warm_interp_clones_over_64_sections`): 64 warm
        // 8-worker fib sections with a collection after each.
        let streams = [
            (4, "(||| 4 * (1 2 3 4) (2 2 2 2))", "(2 4 6 8)", 16),
            (8, "(||| 8 fib (4 4 4 4 4 4 4 4))", "(3 3 3 3 3 3 3 3)", 64),
        ];
        for (workers, section, want, count) in streams {
            let mut i = interp();
            i.eval_str("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
                .unwrap();
            let mut hook = ThreadedHook::new(workers);
            assert!(hook.pool.is_none());
            run(&mut i, &mut hook, section);
            assert!(hook.pool.is_some());
            let clones_after_warmup = i.clone_count();
            for _ in 0..count {
                assert_eq!(run(&mut i, &mut hook, section), want);
                culi_core::gc::collect(&mut i, &[]);
            }
            assert_eq!(
                i.clone_count(),
                clones_after_warmup,
                "warm sections must not clone the interpreter: {section}"
            );
        }
    }

    #[test]
    fn definitions_between_sections_reach_warm_workers() {
        let mut i = interp();
        let mut hook = ThreadedHook::new(2);
        run(&mut i, &mut hook, "(||| 2 + (1 2) (0 0))"); // warm up
        i.eval_str_with("(setq k 100)", &mut hook).unwrap();
        i.eval_str_with("(defun addk (x) (+ x k))", &mut hook)
            .unwrap();
        assert_eq!(run(&mut i, &mut hook, "(||| 2 addk (1 2))"), "(101 102)");
        i.eval_str_with("(setq k 200)", &mut hook).unwrap();
        assert_eq!(run(&mut i, &mut hook, "(||| 2 addk (1 2))"), "(201 202)");
    }

    #[test]
    fn dynamic_scope_chain_reaches_workers() {
        // The ||| sits inside a form application; its body references the
        // caller's parameter through dynamic scoping.
        let mut i = interp();
        let mut hook = ThreadedHook::new(2);
        i.eval_str_with("(defun use-y (x) (+ x y))", &mut hook)
            .unwrap();
        i.eval_str_with("(defun outer (y) (||| 2 use-y (10 20)))", &mut hook)
            .unwrap();
        assert_eq!(run(&mut i, &mut hook, "(outer 7)"), "(17 27)");
        assert_eq!(run(&mut i, &mut hook, "(outer 9)"), "(19 29)");
    }

    #[test]
    fn worker_global_mutation_does_not_leak_across_sections() {
        let mut i = interp();
        let mut hook = ThreadedHook::new(2);
        i.eval_str_with("(setq total 100)", &mut hook).unwrap();
        i.eval_str_with(
            "(defun bump (x) (progn (setq total (+ total x)) total))",
            &mut hook,
        )
        .unwrap();
        assert_eq!(run(&mut i, &mut hook, "(||| 2 bump (1 2))"), "(101 102)");
        // Dirty forks were snapshot-resynced: the next section starts from
        // the master's state again (total is still 100 there).
        assert_eq!(run(&mut i, &mut hook, "(||| 2 bump (5 6))"), "(105 106)");
        assert_eq!(i.eval_str_with("total", &mut hook).unwrap(), "100");
    }

    #[test]
    fn dirty_seats_resync_without_cloning() {
        // PR 2 re-forked (cloned) dirty seats; the snapshot resync repairs
        // them in place, keeping the zero-clone property even for
        // global-mutating workloads.
        let mut i = interp();
        let mut hook = ThreadedHook::new(2);
        i.eval_str_with("(setq total 100)", &mut hook).unwrap();
        i.eval_str_with(
            "(defun bump (x) (progn (setq total (+ total x)) total))",
            &mut hook,
        )
        .unwrap();
        run(&mut i, &mut hook, "(||| 2 + (1 2) (1 1))"); // warm up
        let clones_after_warmup = i.clone_count();
        for _ in 0..8 {
            assert_eq!(run(&mut i, &mut hook, "(||| 2 bump (1 2))"), "(101 102)");
        }
        assert_eq!(
            i.clone_count(),
            clones_after_warmup,
            "dirty-seat recovery must not clone the interpreter"
        );
    }

    #[test]
    fn errors_report_global_job_index_in_distribution_order() {
        let mut i = interp();
        let mut hook = ThreadedHook::new(2);
        let err = i
            .eval_str_with("(||| 4 / (1 1 1 1) (1 1 0 1))", &mut hook)
            .unwrap_err();
        match err {
            CuliError::WorkerFailed { worker, message } => {
                assert_eq!(worker, 2);
                assert!(message.contains("zero"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        // The pool survives an error section.
        assert_eq!(run(&mut i, &mut hook, "(||| 2 + (1 2) (1 1))"), "(2 3)");
    }

    #[test]
    fn more_jobs_than_seats_chunk_in_order() {
        let mut i = interp();
        let mut hook = ThreadedHook::new(3);
        assert_eq!(
            run(
                &mut i,
                &mut hook,
                "(||| 7 - (10 20 30 40 50 60 70) (1 2 3 4 5 6 7))"
            ),
            "(9 18 27 36 45 54 63)"
        );
    }

    #[test]
    fn ceil_chunking_leaves_trailing_seats_idle() {
        // 5 jobs over 4 seats chunk as 2+2+1: only three seats receive
        // work and the fourth must stay idle (regression: the run planner
        // once assumed one chunk per seat and indexed past the job list).
        let mut i = interp();
        let mut hook = ThreadedHook::new(4);
        assert_eq!(
            run(&mut i, &mut hook, "(||| 5 + (1 2 3 4 5) (1 1 1 1 1))"),
            "(2 3 4 5 6)"
        );
        // The same shape across every job-count/seat-count mismatch.
        for n in 1..=9 {
            let args: Vec<String> = (1..=n).map(|k| k.to_string()).collect();
            let ones = vec!["1"; n].join(" ");
            let want: Vec<String> = (1..=n).map(|k| (k + 1).to_string()).collect();
            assert_eq!(
                run(
                    &mut i,
                    &mut hook,
                    &format!("(||| {n} + ({}) ({ones}))", args.join(" "))
                ),
                format!("({})", want.join(" "))
            );
        }
    }

    #[test]
    fn nested_sections_run_inside_workers() {
        let mut i = interp();
        let mut hook = ThreadedHook::new(2);
        i.eval_str_with("(defun row (x) (||| 2 + (1 2) (list x x)))", &mut hook)
            .unwrap();
        assert_eq!(
            run(&mut i, &mut hook, "(||| 2 row (10 20))"),
            "((11 12) (21 22))"
        );
    }

    #[test]
    fn staged_sections_pipeline_and_collect_in_order() {
        let mut i = interp();
        i.eval_str("(defun sq (x) (* x x))").unwrap();
        let mut pool = WorkerPool::launch(&i, 3);
        let forms =
            culi_core::parser::parse(&mut i, b"(sq 2) (sq 3) (sq 4) (sq 5) (sq 6) (sq 7)").unwrap();
        // Stage two three-job sections back to back, then collect both.
        let g = i.global;
        pool.stage(&mut i, &forms[0..3], g);
        pool.stage(&mut i, &forms[3..6], g);
        assert_eq!(pool.staged(), 2);
        let mut first = Vec::new();
        pool.collect_next(&mut i, &mut first).unwrap();
        let mut second = Vec::new();
        pool.collect_next(&mut i, &mut second).unwrap();
        assert_eq!(pool.staged(), 0);
        let print = |i: &mut Interp, ids: &[culi_core::NodeId]| -> Vec<String> {
            ids.iter()
                .map(|&id| culi_core::printer::print_to_string(i, id).unwrap())
                .collect()
        };
        assert_eq!(print(&mut i, &first), ["4", "9", "16"]);
        assert_eq!(print(&mut i, &second), ["25", "36", "49"]);
    }

    #[test]
    fn dirty_section_with_next_section_already_staged_recovers() {
        // Section k's jobs mutate global state while section k+1 is
        // already sitting in the double buffer: the worker refuses the
        // stale dispatch and the master re-arms it with a snapshot.
        let mut i = interp();
        i.eval_str("(setq total 100)").unwrap();
        i.eval_str("(defun bump (x) (progn (setq total (+ total x)) total))")
            .unwrap();
        i.eval_str("(defun read-total (x) (+ total x))").unwrap();
        let mut pool = WorkerPool::launch(&i, 1);
        let forms = culi_core::parser::parse(&mut i, b"(bump 5) (read-total 1)").unwrap();
        let g = i.global;
        pool.stage(&mut i, &forms[0..1], g);
        pool.stage(&mut i, &forms[1..2], g); // staged before k's dirt is known
        let mut first = Vec::new();
        pool.collect_next(&mut i, &mut first).unwrap();
        let mut second = Vec::new();
        pool.collect_next(&mut i, &mut second).unwrap();
        let shown = culi_core::printer::print_to_string(&mut i, second[0]).unwrap();
        assert_eq!(
            shown, "101",
            "the re-armed section must see the master's total, not the dirty fork's"
        );
        let clones = i.clone_count();
        // Recovery is snapshot-based: no interpreter clone beyond warm-up.
        assert_eq!(clones, 1, "one clone for the single-seat warm-up only");
    }

    #[test]
    fn oversized_sections_do_not_pin_buffer_memory() {
        let mut i = interp();
        let mut hook = ThreadedHook::new(2);
        run(&mut i, &mut hook, "(||| 2 + (1 2) (1 1))"); // warm up
        let big: String = (0..4000).map(|k| format!("{k} ")).collect();
        let section = format!("(||| 2 + ({big}) ({big}))");
        run(&mut i, &mut hook, &section);
        run(&mut i, &mut hook, "(||| 2 + (1 2) (1 1))");
        let retained = hook
            .pool
            .as_ref()
            .expect("pool is warm")
            .retained_buffer_bytes();
        let seats = 2;
        assert!(
            retained <= seats * POSTBOX_DEPTH * RETAINED_MSG_BYTES,
            "retained {retained} bytes"
        );
    }

    /// Sequential reference hook that meters job evaluations exactly the
    /// way a pool worker does (same job expressions, same nested-section
    /// backend).
    #[derive(Default)]
    struct SeparatingSequentialHook {
        jobs: Counters,
    }

    impl ParallelHook for SeparatingSequentialHook {
        fn execute(
            &mut self,
            interp: &mut Interp,
            jobs: &[NodeId],
            parent_env: EnvId,
            results: &mut Vec<NodeId>,
        ) -> culi_core::Result<()> {
            for (w, &job) in jobs.iter().enumerate() {
                let env = interp.envs.push(Some(parent_env));
                let before = interp.meter.snapshot();
                let outcome = eval(interp, &mut SequentialHook, job, env, 0);
                self.jobs.add(&interp.meter.snapshot().delta_since(&before));
                let value = outcome.map_err(|e| CuliError::in_worker(w, &e))?;
                results.push(value);
            }
            Ok(())
        }
    }

    #[test]
    fn job_counters_match_sequential_reference() {
        const FIB: &str = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
        const SECTION: &str = "(||| 2 fib (6 7))";
        let mut seq = interp();
        seq.eval_str(FIB).unwrap();
        let mut sep = SeparatingSequentialHook::default();
        seq.eval_str_with(SECTION, &mut sep).unwrap();

        let mut pooled = interp();
        pooled.eval_str(FIB).unwrap();
        let mut hook = ThreadedHook::new(2);
        pooled.eval_str_with(SECTION, &mut hook).unwrap();
        let pooled_jobs = hook.take_job_counters();
        assert_eq!(pooled_jobs, sep.jobs);
    }

    #[test]
    fn hung_worker_is_detached_and_the_section_degrades_to_the_master() {
        let mut i = interp();
        let plan = FaultPlan::single(FaultSite::WorkerSection, FaultKind::Hang, 0);
        let mut hook = ThreadedHook::with_watchdog(2, Duration::from_millis(100), plan.clone());
        let started = Instant::now();
        // The watchdog detaches the hung seat and the section re-runs on
        // the master: the caller still gets the right answer.
        assert_eq!(run(&mut i, &mut hook, "(||| 2 + (1 2) (1 1))"), "(2 3)");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "recovery latency {:?}",
            started.elapsed()
        );
        assert_eq!(plan.injected_count(), 1);
        let degraded = hook.take_degraded_jobs();
        assert!(degraded.eval_steps > 0, "fallback charges must be reported");
        // The seat was relaunched: the next section runs parallel again.
        assert_eq!(run(&mut i, &mut hook, "(||| 2 + (1 2) (1 1))"), "(2 3)");
        assert_eq!(hook.take_degraded_jobs().eval_steps, 0);
    }

    #[test]
    fn garbled_reply_is_written_off_not_a_master_crash() {
        let mut i = interp();
        let plan = FaultPlan::single(FaultSite::WorkerSection, FaultKind::Garbage, 0);
        let mut hook = ThreadedHook::with_watchdog(2, Duration::from_secs(5), plan.clone());
        assert_eq!(run(&mut i, &mut hook, "(||| 2 + (1 2) (1 1))"), "(2 3)");
        assert_eq!(plan.injected_count(), 1);
        assert_eq!(run(&mut i, &mut hook, "(||| 2 + (1 2) (1 1))"), "(2 3)");
    }

    #[test]
    fn injected_panic_respawns_the_seat() {
        let mut i = interp();
        let plan = FaultPlan::single(FaultSite::WorkerSection, FaultKind::Panic, 0);
        let mut hook = ThreadedHook::with_watchdog(2, Duration::from_secs(5), plan.clone());
        assert_eq!(run(&mut i, &mut hook, "(||| 2 + (1 2) (1 1))"), "(2 3)");
        assert_eq!(plan.injected_count(), 1);
        assert_eq!(run(&mut i, &mut hook, "(||| 2 + (1 2) (1 1))"), "(2 3)");
    }

    #[test]
    fn dropped_worker_reply_is_written_off_by_the_watchdog() {
        let mut i = interp();
        let plan = FaultPlan::single(FaultSite::WorkerSection, FaultKind::DropReply, 0);
        let mut hook = ThreadedHook::with_watchdog(2, Duration::from_millis(100), plan.clone());
        assert_eq!(run(&mut i, &mut hook, "(||| 2 + (1 2) (1 1))"), "(2 3)");
        assert_eq!(plan.injected_count(), 1);
        assert_eq!(run(&mut i, &mut hook, "(||| 2 + (1 2) (1 1))"), "(2 3)");
    }

    #[test]
    fn raw_pool_seat_loss_still_surfaces_as_a_degradable_backend_error() {
        // The hook degrades; the *pool* itself must keep reporting the
        // loss so the batch scheduler's own fallback sees it.
        let mut i = interp();
        let plan = FaultPlan::single(FaultSite::WorkerSection, FaultKind::Panic, 0);
        let mut pool = WorkerPool::launch_with(&i, 2, Duration::from_secs(5), plan.clone());
        let jobs = culi_core::parser::parse(&mut i, b"(+ 1 1) (+ 2 1)").unwrap();
        let mut results = Vec::new();
        let global = i.global;
        let err = pool
            .execute(&mut i, &jobs, global, &mut results)
            .unwrap_err();
        assert!(matches!(err, CuliError::Backend(_)), "{err:?}");
        assert_eq!(err.code(), ErrorCode::Device);
        assert_eq!(plan.injected_count(), 1);
        // And the written-off section's partial worker charges stayed out
        // of the job meter: the fallback's re-run is the only accounting.
        assert_eq!(pool.take_job_counters().eval_steps, 0);
    }

    #[test]
    fn worker_jobs_rearm_the_fuel_budget_per_job() {
        // A budget that comfortably covers any single job but not a whole
        // session of them: without the per-job re-arm in `run_msg`, the
        // worker fork's absolute fuel deadline (cloned from the master at
        // warm-up) would exhaust after a few sections.
        let mut i = Interp::new(InterpConfig {
            arena_capacity: 1 << 16,
            fuel_budget: 50_000,
            ..Default::default()
        });
        let mut hook = ThreadedHook::new(2);
        i.eval_str_with(
            "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
            &mut hook,
        )
        .unwrap();
        for _ in 0..30 {
            assert_eq!(run(&mut i, &mut hook, "(||| 2 fib (10 11))"), "(55 89)");
        }
    }

    #[test]
    fn runaway_worker_job_aborts_on_fuel_not_the_watchdog() {
        let mut i = Interp::new(InterpConfig {
            arena_capacity: 1 << 16,
            fuel_budget: 10_000,
            ..Default::default()
        });
        let mut hook = ThreadedHook::new(2);
        i.eval_str_with(
            "(defun spin (x) (dotimes (k 1000000000) (+ k x)))",
            &mut hook,
        )
        .unwrap();
        let started = Instant::now();
        let err = i
            .eval_str_with("(||| 2 spin (1 2))", &mut hook)
            .unwrap_err();
        // The job's fuel abort keeps its class through the worker wrapper.
        assert_eq!(err.code(), ErrorCode::Fuel);
        match err {
            CuliError::WorkerLimit { message, .. } => {
                assert!(message.contains("fuel"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        // Fuel, not the 30 s watchdog, contained the runaway.
        assert!(started.elapsed() < WorkerPool::DEFAULT_REPLY_DEADLINE);
        assert_eq!(run(&mut i, &mut hook, "(||| 2 + (1 2) (1 1))"), "(2 3)");
    }
}
