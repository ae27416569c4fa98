//! The GPU read–eval–print loop: CuLi proper.
//!
//! One [`GpuRepl`] is the paper's full system: a host loop feeding a
//! command buffer (Figs. 8/9), a persistent kernel whose master thread
//! parses, evaluates and prints entirely "on the device", and the postbox
//! machinery executing `|||` sections across worker blocks (Figs. 10–13).
//!
//! The interpreter runs for real, through the same
//! `Pipeline` as the CPU sessions; the device
//! contributes *time*. Every operation the interpreter counts is priced by
//! the device's cost table, master-serial work advances the kernel clock,
//! and parallel sections go through the simulated Algorithm-1
//! choreography (which is where the warp-livelock ablations bite). What
//! is GPU-specific is only the command-buffer handshake around each
//! pipeline run.
//!
//! # Multi-device sharding
//!
//! A session may span several simulated devices
//! ([`GpuReplConfig::device_count`]), in the spirit of the multi-GPU ASP
//! solving and PyCUDA-style run-time dispatch lines of work: every device
//! owns its **own persistent kernel** (and therefore its own postbox
//! array) and its **own command buffer**, and
//! [`GpuRepl::submit_batch`] — driven by the shared
//! [`crate::scheduler::BatchScheduler`] — round-robins independent
//! stageable runs across the devices, re-sequencing replies into
//! submission order. Commands are parsed once, at classification, and
//! still *evaluated* in submission order on the session's one
//! interpreter (stageable runs are provably pure, so evaluation order
//! cannot be observed — the same argument that lets the CPU pool stage
//! ahead), which keeps replies and per-command [`crate::CommandCounters`]
//! **bit-identical to the single-device path**; what shards is the
//! *modeled time*: each run's upload, parse, master compute and reply
//! handshake are charged to its own device's clock and buffer, so a
//! device-bound batch's modeled makespan
//! ([`GpuRepl::elapsed_device_ns`], the max over the per-device clocks)
//! drops by up to the device count. Barriers (defines, host I/O, parse
//! errors) drain the pipeline and run on device 0, the interactive
//! `submit` device.

use crate::error::{Result, RuntimeError};
use crate::pipeline::{Command, Modeled, Pipeline};
use crate::reply::Reply;
use crate::scheduler::{BatchScheduler, ExecQueue, Verdict};
use culi_core::fault::{FaultPlan, FaultSite};
use culi_core::{ErrorCode, InterpConfig};
use culi_gpu_sim::cmdbuf::CommandBuffer;
use culi_gpu_sim::{DeviceSpec, KernelConfig, PersistentKernel, SimError, SimStats};

/// Configuration for a GPU session.
#[derive(Debug, Clone)]
pub struct GpuReplConfig {
    /// Kernel mitigation switches (ablations flip these).
    pub kernel: KernelConfig,
    /// Interpreter limits.
    pub interp: InterpConfig,
    /// Command buffer capacity in bytes (both directions, per device).
    pub cmdbuf_capacity: usize,
    /// Host-side file services exposed to device code (`read-file` etc.,
    /// the paper's future-work feature). `None` disables file I/O.
    pub host_io: Option<culi_core::hostio::HostIoHandle>,
    /// Simulated devices this session shards batched runs across (min 1).
    /// Each device runs its own persistent kernel and command buffer;
    /// device 0 additionally serves `submit` and batch barriers.
    pub device_count: usize,
    /// Deterministic fault-injection plan (tests and the differential
    /// fault harness). Polled at [`FaultSite::DeviceReply`] once per
    /// batched run's reply handshake; any armed fault kind manifests as a
    /// dropped reply — the only failure the command-buffer protocol
    /// models — exercising the retry-then-degrade path. Empty by default.
    pub fault_plan: FaultPlan,
    /// Reply cache ([`crate::cache`]): `None` (the default) leaves every
    /// path uncached; `Some` enables the per-session reply tier for
    /// [`GpuRepl::submit_batch`] streams. Replies
    /// served from cache are bit-identical to the uncached run.
    pub cache: Option<crate::CommandCache>,
}

impl Default for GpuReplConfig {
    fn default() -> Self {
        Self {
            kernel: KernelConfig::default(),
            interp: InterpConfig::default(),
            cmdbuf_capacity: 1 << 16,
            host_io: None,
            device_count: 1,
            fault_plan: FaultPlan::none(),
            cache: None,
        }
    }
}

/// One simulated device of a (possibly sharded) GPU session: its
/// persistent kernel (which owns the device's postbox array) and its
/// host↔device command buffer.
#[derive(Debug)]
struct GpuDevice {
    kernel: PersistentKernel,
    cmdbuf: CommandBuffer,
}

/// A live CuLi session on one or more simulated GPUs.
#[derive(Debug)]
pub struct GpuRepl {
    pipe: Pipeline,
    /// The session's devices; index 0 is the interactive/barrier device.
    devices: Vec<GpuDevice>,
    fault_plan: FaultPlan,
    /// Reused per-job cycle scratch for the section hook.
    scratch_cycles: Vec<u64>,
    /// Round-robin cursor for sharding batched runs across devices.
    next_device: usize,
}

impl GpuRepl {
    /// Boots the session: allocates the interpreter state in "device
    /// memory" and launches one persistent kernel per configured device.
    pub fn launch(spec: DeviceSpec, config: GpuReplConfig) -> Self {
        let devices = (0..config.device_count.max(1))
            .map(|_| GpuDevice {
                kernel: PersistentKernel::launch(spec, config.kernel),
                cmdbuf: CommandBuffer::new(config.cmdbuf_capacity),
            })
            .collect();
        Self {
            pipe: Pipeline::new(spec, &config.interp, config.host_io, config.cache),
            devices,
            fault_plan: config.fault_plan,
            scratch_cycles: Vec::new(),
            next_device: 0,
        }
    }

    /// The device model this session runs on (all shards are identical).
    pub fn spec(&self) -> DeviceSpec {
        *self.devices[0].kernel.spec()
    }

    /// Number of simulated devices behind this session.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Workers a single device's grid offers to `|||`.
    pub fn worker_count(&self) -> usize {
        self.devices[0].kernel.worker_count()
    }

    /// Direct access to the interpreter (tests/diagnostics).
    pub fn interp_mut(&mut self) -> &mut culi_core::Interp {
        &mut self.pipe.interp
    }

    /// Submits one command line through the full host→device→host path
    /// (device 0).
    ///
    /// Lisp-level errors come back as a printed reply with `ok == false`
    /// (the REPL prints them, it does not die); device-level failures
    /// (livelock, protocol violations) are [`RuntimeError`]s.
    pub fn submit(&mut self, input: &str) -> Result<Reply> {
        if !self.is_running() {
            return Err(RuntimeError::SessionClosed);
        }
        let cmd = self.pipe.parse(input);
        self.serve(input, &cmd)
    }

    /// Session-server routing hook, mirroring `CpuRepl::submit_reference`:
    /// GPU sessions have no master-side shortcut — every command already
    /// rides the session's *own* simulated devices (per-tenant state, no
    /// shared pool to contend on or to avoid forking), so the reference
    /// route and the ordinary route coincide and this delegates to
    /// [`GpuRepl::submit`].
    pub fn submit_reference(&mut self, input: &str) -> Result<Reply> {
        self.submit(input)
    }

    /// Submits a stream of commands through the shared
    /// [`BatchScheduler`]: maximal runs of commands the effect analysis
    /// ([`culi_core::effects::stageable_parallel_section`]) marks
    /// stageable coalesce into *batched command buffers* — one
    /// host→device upload and one device→host reply handshake per run,
    /// with the per-command spin-wake dispatch overhead charged once per
    /// run — and consecutive runs round-robin across the session's
    /// devices, overlapping in modeled time. Any other command (defines,
    /// host I/O, impure operands, parse errors) is a barrier shipped
    /// through the ordinary [`GpuRepl::submit`] handshake on device 0
    /// after the pipeline drains.
    ///
    /// Outputs and per-command [`crate::CommandCounters`] are identical
    /// to a `submit` loop at **any** device count (evaluation is
    /// untouched — batching only amortizes transfer latency and dispatch
    /// overhead, sharding only splits which clock the time lands on);
    /// per-command [`crate::PhaseBreakdown::transfer_ns`] differs by
    /// construction, with a run's upload attributed to its first command
    /// and its reply handshake to its last.
    pub fn submit_batch(&mut self, inputs: &[&str]) -> Result<Vec<Reply>> {
        if !self.is_running() {
            return Err(RuntimeError::SessionClosed);
        }
        self.pipe.begin_batch();
        BatchScheduler::submit_batch(self, inputs)
    }

    /// Commands coalesced into one uploaded command buffer at most
    /// (mirrors the CPU pool's `MAX_RUN_SECTIONS`).
    pub const MAX_RUN_COMMANDS: usize = 16;

    /// How many times a batched run is re-driven after a dropped reply
    /// handshake before its commands are written off for the scheduler's
    /// sequential fallback.
    pub const HANDSHAKE_RETRIES: usize = 2;

    /// Runs a parsed command through the pipeline on device `dev`'s master
    /// thread, charging `overhead` extra cycles for the REPL spin-wake.
    /// The reply's `transfer_ns` is 0: the caller owns the handshake.
    fn run_on(&mut self, dev: usize, cmd: &Command, overhead: u64) -> Result<Reply> {
        let mut backend = Modeled::new(&mut self.devices[dev].kernel, &mut self.scratch_cycles);
        self.pipe.execute(&mut backend, cmd, overhead)
    }

    /// One command through the interactive handshake on device 0: upload
    /// `input`, run `cmd` (its parse), reply.
    fn serve(&mut self, input: &str, cmd: &Command) -> Result<Reply> {
        let upload_ns = self.upload(0, input.as_bytes())?;
        let overhead = self.spec().command_overhead_cycles;
        let mut reply = self.run_on(0, cmd, overhead)?;
        reply.phases.transfer_ns = upload_ns + self.download(0, reply.output.as_bytes())?;
        Ok(reply)
    }

    /// Host→device upload on device `dev`; returns the transfer ns.
    fn upload(&mut self, dev: usize, bytes: &[u8]) -> Result<u64> {
        let cmdbuf = &mut self.devices[dev].cmdbuf;
        let t0 = cmdbuf.transfer_ns();
        cmdbuf.host_write(bytes)?;
        let taken = cmdbuf.device_take()?;
        debug_assert_eq!(taken, bytes);
        Ok(cmdbuf.transfer_ns() - t0)
    }

    /// Device→host reply on device `dev`; returns the transfer ns.
    fn download(&mut self, dev: usize, bytes: &[u8]) -> Result<u64> {
        let cmdbuf = &mut self.devices[dev].cmdbuf;
        let t0 = cmdbuf.transfer_ns();
        cmdbuf.device_reply(bytes)?;
        let echoed = cmdbuf.host_read()?;
        debug_assert_eq!(echoed, bytes);
        Ok(cmdbuf.transfer_ns() - t0)
    }

    /// Uploads a run as one command buffer on device `dev`, runs each
    /// command through the pipeline and ships the joined replies back.
    fn run_batched(&mut self, dev: usize, run: &[GpuStaged<'_>]) -> Result<Vec<(usize, Reply)>> {
        let blob = run.iter().map(|s| s.input).collect::<Vec<_>>().join("\n");
        let overhead = self.spec().command_overhead_cycles;
        // Bounded retry: a dropped reply handshake leaves the buffer
        // host-owned, so the host re-drives the whole run. Staged
        // commands are provably pure, so re-evaluating them is invisible
        // and their replies (output and counters) are bit-identical —
        // only the modeled transfer time records the extra round trips.
        // Past the retry budget the run's slots are written off for the
        // scheduler's sequential fallback.
        let mut attempts = 0usize;
        loop {
            let upload_ns = self.upload(dev, blob.as_bytes())?;
            let mut replies: Vec<(usize, Reply)> = Vec::with_capacity(run.len());
            for (k, staged) in run.iter().enumerate() {
                // One spin wake per run: charge the dispatch overhead on
                // the run's first command only.
                let o = if k == 0 { overhead } else { 0 };
                replies.push((staged.slot, self.run_on(dev, &staged.cmd, o)?));
            }
            let mut joined = replies
                .iter()
                .map(|(_, r)| r.output.as_str())
                .collect::<Vec<_>>()
                .join("\n");
            // Individual outputs are bounded by the interpreter's output
            // capacity, but a whole run's joined reply may still overrun
            // the command buffer — and a failed `device_reply` would
            // leave the device owning the buffer forever. Ship a short
            // overflow notice instead: the per-command replies are
            // already complete device-side (a real host would re-fetch
            // them one by one), and the session stays live.
            if joined.len() > self.devices[dev].cmdbuf.capacity() {
                joined = format!("!culi:batch-reply-overflow:{}", joined.len());
            }
            if self.fault_plan.poll(FaultSite::DeviceReply).is_some() {
                self.devices[dev].cmdbuf.arm_reply_drop();
            }
            match self.download(dev, joined.as_bytes()) {
                Ok(reply_ns) => {
                    replies[0].1.phases.transfer_ns += upload_ns;
                    let last = replies.len() - 1;
                    replies[last].1.phases.transfer_ns += reply_ns;
                    return Ok(replies);
                }
                Err(RuntimeError::Device(SimError::ReplyDropped))
                    if attempts < Self::HANDSHAKE_RETRIES =>
                {
                    attempts += 1;
                }
                Err(RuntimeError::Device(SimError::ReplyDropped)) => {
                    self.pipe.degraded_slots.extend(run.iter().map(|s| s.slot));
                    return Err(SimError::ReplyDropped.into());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Modeled session makespan so far: the **maximum** over the
    /// per-device clocks (sharded runs overlap in modeled time; a
    /// single-device session reduces to that device's clock).
    pub fn elapsed_device_ns(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.kernel.elapsed_device_ns())
            .fold(0.0, f64::max)
    }

    /// Per-device elapsed nanoseconds, in device order (benchmarks
    /// measure sharded-batch makespans from deltas of this).
    pub fn device_elapsed_ns(&self) -> Vec<f64> {
        self.devices
            .iter()
            .map(|d| d.kernel.elapsed_device_ns())
            .collect()
    }

    /// Synchronization statistics so far, summed across devices.
    pub fn stats(&self) -> SimStats {
        let mut total = SimStats::default();
        for d in &self.devices {
            total.add(&d.kernel.stats());
        }
        total
    }

    /// Base latency of this device: launch plus graceful stop, in
    /// milliseconds (paper Fig. 14). Measured by booting and immediately
    /// stopping a scratch kernel.
    pub fn measure_base_latency_ms(spec: DeviceSpec) -> f64 {
        let mut k = PersistentKernel::launch(spec, KernelConfig::default());
        k.shutdown();
        k.overhead_ns() as f64 / 1e6
    }

    /// Graceful stop: host clears `dev_active` on every device, each
    /// master deactivates its workers, the contexts are torn down.
    /// Returns the summed setup+teardown milliseconds.
    pub fn shutdown(&mut self) -> f64 {
        let mut overhead_ns = 0u64;
        for d in &mut self.devices {
            d.cmdbuf.host_terminate();
            d.kernel.shutdown();
            overhead_ns += d.kernel.overhead_ns();
        }
        overhead_ns as f64 / 1e6
    }

    /// `true` until shutdown.
    pub fn is_running(&self) -> bool {
        self.devices[0].kernel.is_running()
    }
}

/// One parsed GPU batch command awaiting upload: its input text, its
/// reply slot and its parsed forms (GC-rooted until it runs). Opaque
/// scheduler token — both [`ExecQueue::Staged`] and
/// [`ExecQueue::Barrier`].
#[derive(Debug)]
pub struct GpuStaged<'i> {
    input: &'i str,
    slot: usize,
    cmd: Command,
}

/// One dispatched (and, in the simulation, already-processed) GPU run:
/// the replies awaiting re-sequenced delivery. Opaque scheduler token —
/// see [`ExecQueue::Run`].
#[derive(Debug)]
pub struct GpuRun(Vec<(usize, Reply)>);

impl<'i> ExecQueue<'i> for GpuRepl {
    type Staged = GpuStaged<'i>;
    type Barrier = GpuStaged<'i>;
    type Run = GpuRun;

    fn max_run_len(&self) -> usize {
        Self::MAX_RUN_COMMANDS
    }

    fn pipeline_depth(&self) -> usize {
        // One run in flight per device: consecutive runs land on
        // consecutive devices before the oldest's replies are delivered.
        self.devices.len()
    }

    fn admits(&self, run_len: usize, run_bytes: usize, input: &str) -> bool {
        // Keep runs small enough that the joined reply string has ample
        // room too (outputs are not known until evaluated; a section's
        // print is on the order of its operand lists). `run_len` counts
        // the joining newlines already in the blob.
        run_bytes + run_len + input.len() <= self.devices[0].cmdbuf.capacity() / 4
    }

    fn classify_and_stage(
        &mut self,
        input: &'i str,
        slot: usize,
    ) -> Result<Verdict<GpuStaged<'i>, GpuStaged<'i>>> {
        Ok(match self.pipe.classify(input, slot) {
            Verdict::Stage(cmd) => Verdict::Stage(GpuStaged { input, slot, cmd }),
            Verdict::Barrier(cmd) => Verdict::Barrier(GpuStaged { input, slot, cmd }),
            Verdict::Done(reply) => Verdict::Done(reply),
        })
    }

    fn dispatch(&mut self, run: Vec<GpuStaged<'i>>) -> Result<GpuRun> {
        let replies = if let [lone] = run.as_slice() {
            // A run of one has no rendezvous to amortize: the plain
            // submit handshake is cheaper than the batched machinery and
            // behaves identically.
            self.serve(lone.input, &lone.cmd)
                .map(|reply| vec![(lone.slot, reply)])
        } else {
            // Round-robin device assignment per run.
            let dev = self.next_device;
            self.next_device = (self.next_device + 1) % self.devices.len();
            self.run_batched(dev, &run)
        };
        // The run's forms have been evaluated (or written off).
        self.pipe.batch_roots.clear();
        replies.map(GpuRun)
    }

    fn collect(&mut self, run: GpuRun, replies: &mut [Option<Reply>]) -> Result<()> {
        for (slot, reply) in run.0 {
            self.pipe.store(slot, &reply);
            replies[slot] = Some(reply);
        }
        Ok(())
    }

    fn run_barrier(
        &mut self,
        barrier: GpuStaged<'i>,
        slot: usize,
        replies: &mut [Option<Reply>],
    ) -> Result<()> {
        self.pipe.barrier_roots.clear();
        let reply = self.serve(barrier.input, &barrier.cmd)?;
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
        // The sequential reference is the plain interactive handshake on
        // device 0 — exactly what an unbatched submit loop would do, so
        // output and counters are byte-identical to the healthy path.
        let mut reply = self.submit(input)?;
        if reply.ok {
            reply.code = ErrorCode::Degraded;
        }
        replies[slot] = Some(reply);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culi_gpu_sim::device::{gtx1080, tesla_c2075};
    use culi_gpu_sim::LivelockCause;

    fn repl() -> GpuRepl {
        GpuRepl::launch(gtx1080(), GpuReplConfig::default())
    }

    fn sharded(devices: usize) -> GpuRepl {
        GpuRepl::launch(
            gtx1080(),
            GpuReplConfig {
                device_count: devices,
                ..Default::default()
            },
        )
    }

    #[test]
    fn arithmetic_end_to_end() {
        let mut r = repl();
        let reply = r.submit("(* 2 (+ 4 3) 6)").unwrap();
        assert!(reply.ok);
        assert_eq!(reply.output, "84");
        assert!(reply.phases.parse_cycles > 0);
        assert!(reply.phases.eval_cycles > 0);
        assert!(reply.phases.print_cycles > 0);
        assert!(reply.phases.transfer_ns > 0);
        assert!(reply.wall_ns > 0, "GPU replies report wall time");
    }

    #[test]
    fn environment_persists_across_commands() {
        let mut r = repl();
        r.submit("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
            .unwrap();
        let reply = r.submit("(fib 10)").unwrap();
        assert_eq!(reply.output, "55");
    }

    #[test]
    fn parallel_section_reports_appear() {
        let mut r = repl();
        let reply = r.submit("(||| 3 + (1 2 3) (4 5 6))").unwrap();
        assert_eq!(reply.output, "(5 7 9)");
        assert_eq!(reply.sections.len(), 1);
        assert_eq!(reply.sections[0].blocks_used, 1);
        assert!(reply.sections[0].execute_cycles > 0);
    }

    #[test]
    fn lisp_errors_are_printed_not_fatal() {
        let mut r = repl();
        let reply = r.submit("(/ 1 0)").unwrap();
        assert!(!reply.ok);
        assert!(reply.output.contains("division"));
        // Session survives.
        assert_eq!(r.submit("(+ 1 1)").unwrap().output, "2");
    }

    #[test]
    fn parse_errors_are_printed_not_fatal() {
        let mut r = repl();
        let reply = r.submit("(+ 1").unwrap();
        assert!(!reply.ok);
        assert!(reply.output.contains("unclosed"));
        assert_eq!(r.submit("(+ 1 2)").unwrap().output, "3");
    }

    #[test]
    fn livelock_is_a_device_error() {
        let cfg = GpuReplConfig {
            kernel: KernelConfig {
                mask_master_block: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut r = GpuRepl::launch(gtx1080(), cfg);
        match r.submit("(||| 2 + (1 2) (3 4))") {
            Err(RuntimeError::Device(SimError::Livelock {
                cause: LivelockCause::MasterBlockUnmasked,
                ..
            })) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn worker_time_not_double_billed_to_master() {
        let mut r = repl();
        r.submit("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
            .unwrap();
        let par = r
            .submit(
                "(||| 32 fib (5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5))",
            )
            .unwrap();
        // 32 identical jobs in one warp: execute time ≈ one job, while the
        // master's own eval share stays far below 32× a single job.
        let single = {
            let mut r2 = repl();
            r2.submit("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
                .unwrap();
            r2.submit("(fib 5)").unwrap()
        };
        assert!(
            par.phases.eval_cycles < 32 * single.phases.eval_cycles,
            "master billed {} vs 32×{}",
            par.phases.eval_cycles,
            single.phases.eval_cycles
        );
        assert_eq!(par.output.matches('5').count(), 32);
    }

    /// Floor on the modeled transfer saving of the recorded stream:
    /// max(base / 1.6, 1.05) over `gpu_transfer_saved_ratio` = 9.677 in
    /// `BENCH_pr4.json`, with 1.6 the record's regression band.
    const TRANSFER_SAVED_FLOOR: f64 = 9.677071600965407 / 1.6;

    /// Floor on the modeled 4-device speedup of the recorded section:
    /// max(base / 1.6, 2.0) over `multi_device_speedup` = 4.0 in
    /// `BENCH_pr5.json`, with 1.6 the record's regression band.
    const MULTI_DEVICE_FLOOR: f64 = 4.0 / 1.6;

    #[test]
    fn batched_commands_match_submit_loop_and_amortize_transfer() {
        let prelude = "(defun sq (x) (* x x))";
        let mixed = vec![
            "(||| 4 sq (1 2 3 4))",
            "(||| (+ 2 2) sq (list 5 6 7 8))",
            "(setq g 3)", // barrier
            "(||| 2 + (1 2) (list g g))",
            "(||| 2 + (1 2) (3 4))",
        ];
        // The recorded stream of BENCH_pr4.json.
        let recorded: Vec<&str> = std::iter::once("(setq c 3)")
            .chain(std::iter::repeat_n("(||| 2 + (1 2) (list c c))", 32))
            .collect();
        for (inputs, floor) in [(mixed, 1.0), (recorded, TRANSFER_SAVED_FLOOR)] {
            let mut loop_repl = repl();
            let mut batch_repl = repl();
            loop_repl.submit(prelude).unwrap();
            batch_repl.submit(prelude).unwrap();
            let batched = batch_repl.submit_batch(&inputs).unwrap();
            assert_eq!(batched.len(), inputs.len());
            let mut loop_transfer = 0u64;
            let mut batch_transfer = 0u64;
            for (src, got) in inputs.iter().zip(&batched) {
                let want = loop_repl.submit(src).unwrap();
                assert_eq!(want.output, got.output, "{src}");
                assert_eq!(want.ok, got.ok, "{src}");
                assert_eq!(want.counters, got.counters, "{src}");
                loop_transfer += want.phases.transfer_ns;
                batch_transfer += got.phases.transfer_ns;
            }
            let saved = loop_transfer as f64 / batch_transfer as f64;
            assert!(
                saved > floor,
                "coalesced command buffers must cut transfer time: {batch_transfer} vs \
                 {loop_transfer} ns, {saved:.2}x (floor {floor:.2}x)"
            );
            assert!(
                batch_repl.elapsed_device_ns() < loop_repl.elapsed_device_ns(),
                "batched {} ns vs loop {} ns of device time",
                batch_repl.elapsed_device_ns(),
                loop_repl.elapsed_device_ns()
            );
        }
    }

    #[test]
    fn batched_runs_amortize_dispatch_overhead() {
        // Same workload, batched vs looped: the run charges the spin-wake
        // dispatch overhead once, so the device clock advances less.
        let inputs: Vec<&str> = vec!["(||| 2 + (1 2) (list 3 4))"; 8];
        let mut loop_repl = repl();
        for i in &inputs {
            loop_repl.submit(i).unwrap();
        }
        let mut batch_repl = repl();
        batch_repl.submit_batch(&inputs).unwrap();
        assert!(
            batch_repl.elapsed_device_ns() < loop_repl.elapsed_device_ns(),
            "batched {} ns vs loop {} ns",
            batch_repl.elapsed_device_ns(),
            loop_repl.elapsed_device_ns()
        );
    }

    #[test]
    fn batched_errors_and_barriers_stay_in_order() {
        let mut r = repl();
        let replies = r
            .submit_batch(&[
                "(||| 2 / (4 6) (2 2))",
                "(||| 2 / (4 6) (0 2))", // worker error inside a run
                "(+ 1",                  // parse-error barrier
                "(||| 2 + (1 2) (1 1))",
            ])
            .unwrap();
        assert_eq!(replies[0].output, "(2 3)");
        assert!(!replies[1].ok);
        assert!(!replies[2].ok);
        assert_eq!(replies[3].output, "(2 3)");
        assert!(
            replies.iter().all(|r| r.wall_ns > 0),
            "batched, error and barrier replies are all timed"
        );
        // Session survives the whole batch.
        assert_eq!(r.submit("(+ 1 1)").unwrap().output, "2");
    }

    #[test]
    fn oversized_batched_reply_does_not_wedge_the_session() {
        // Inputs fit the upload budget but the run's joined outputs
        // overrun the command buffer: the reply handshake degrades to an
        // overflow notice and the session (and replies) stay intact.
        let mut r = GpuRepl::launch(
            gtx1080(),
            GpuReplConfig {
                cmdbuf_capacity: 512,
                ..Default::default()
            },
        );
        r.submit("(setq xs (list 11 12 13 14 15 16 17 18 19 20))")
            .unwrap();
        let inputs: Vec<&str> = vec!["(||| 2 append (xs xs) (xs xs))"; 6];
        let replies = r.submit_batch(&inputs).unwrap();
        assert_eq!(replies.len(), 6);
        let want = r.submit(inputs[0]).unwrap();
        assert!(want.output.len() * 6 > 512, "workload must overflow");
        for reply in &replies {
            assert_eq!(reply.output, want.output);
            assert!(reply.ok);
        }
        assert_eq!(r.submit("(+ 1 1)").unwrap().output, "2");
    }

    #[test]
    fn sharded_batches_match_single_device_bit_for_bit() {
        // The multi-device path must change *only* which clock the time
        // lands on: outputs, ok flags and per-command counters stay
        // bit-identical across 1, 2 and 4 devices — barriers, worker
        // errors and computed operands included.
        let prelude = "(defun sq (x) (* x x))";
        let inputs = [
            "(||| 4 sq (1 2 3 4))",
            "(||| 2 sq (5 6))",
            "(setq g 2)", // barrier mid-stream
            "(||| 2 + (1 2) (list g g))",
            "(||| 2 / (4 6) (0 2))", // worker error inside a run
            "(||| 3 sq (7 8 9))",
            "(||| (+ 1 1) sq (list g g))",
        ];
        let run = |devices: usize| {
            let mut r = sharded(devices);
            r.submit(prelude).unwrap();
            r.submit_batch(&inputs).unwrap()
        };
        let one = run(1);
        for devices in [2, 4] {
            let many = run(devices);
            for (k, (a, b)) in one.iter().zip(&many).enumerate() {
                assert_eq!(a.output, b.output, "{devices} devices, cmd {k}");
                assert_eq!(a.ok, b.ok, "{devices} devices, cmd {k}");
                assert_eq!(a.counters, b.counters, "{devices} devices, cmd {k}");
            }
        }
    }

    #[test]
    fn sharded_runs_overlap_in_modeled_time() {
        // Four device-bound runs over four devices: the modeled makespan
        // (max over device clocks) must undercut the single-device batch,
        // because round-robined runs advance different clocks, while every
        // reply stays bit-identical. The 16-job section is the recorded
        // workload of BENCH_pr5.json.
        let prelude = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
        for (section, floor) in [
            ("(||| 8 fib (8 8 8 8 8 8 8 8))", 2.0),
            (
                "(||| 16 fib (7 7 7 7 7 7 7 7 7 7 7 7 7 7 7 7))",
                MULTI_DEVICE_FLOOR,
            ),
        ] {
            let inputs: Vec<&str> = vec![section; 4 * GpuRepl::MAX_RUN_COMMANDS];
            let run = |devices: usize| {
                let mut r = sharded(devices);
                r.submit(prelude).unwrap();
                let before = r.device_elapsed_ns();
                let replies = r.submit_batch(&inputs).unwrap();
                let after = r.device_elapsed_ns();
                let makespan = after
                    .iter()
                    .zip(&before)
                    .map(|(a, b)| a - b)
                    .fold(0.0, f64::max);
                (makespan, replies)
            };
            let (one, one_replies) = run(1);
            let (four, four_replies) = run(4);
            for (k, (a, b)) in one_replies.iter().zip(&four_replies).enumerate() {
                assert!(a.ok, "{}", a.output);
                assert_eq!(a.output, b.output, "cmd {k}");
                assert_eq!(a.counters, b.counters, "cmd {k}");
            }
            assert!(
                one / four >= floor,
                "4-device makespan {four} ns must be under the single-device {one} ns \
                 by {floor:.2}x"
            );
        }
    }

    #[test]
    fn sharded_round_robin_touches_every_device() {
        let mut r = sharded(3);
        let inputs: Vec<&str> = vec!["(||| 2 + (1 2) (3 4))"; 3 * GpuRepl::MAX_RUN_COMMANDS];
        let before = r.device_elapsed_ns();
        r.submit_batch(&inputs).unwrap();
        let after = r.device_elapsed_ns();
        for (d, (a, b)) in after.iter().zip(&before).enumerate() {
            assert!(a > b, "device {d} never advanced");
        }
    }

    fn faulted(plan: FaultPlan) -> GpuRepl {
        GpuRepl::launch(
            gtx1080(),
            GpuReplConfig {
                fault_plan: plan,
                ..Default::default()
            },
        )
    }

    #[test]
    fn dropped_batched_reply_is_retried_transparently() {
        use culi_core::fault::FaultKind;
        let inputs = ["(||| 2 + (1 2) (3 4))", "(||| 2 * (1 2) (3 4))"];
        let plan = FaultPlan::single(FaultSite::DeviceReply, FaultKind::DropReply, 0);
        let mut r = faulted(plan.clone());
        let got = r.submit_batch(&inputs).unwrap();
        assert_eq!(plan.injected_count(), 1, "the drop must actually fire");
        let mut clean = repl();
        for (src, g) in inputs.iter().zip(&got) {
            let want = clean.submit(src).unwrap();
            assert_eq!(want.output, g.output, "{src}");
            assert_eq!(want.counters, g.counters, "{src}");
            assert_eq!(g.code, ErrorCode::Ok, "a retried run is not degraded");
        }
    }

    #[test]
    fn persistent_reply_drops_degrade_to_sequential_fallback() {
        use culi_core::fault::FaultKind;
        let inputs = [
            "(||| 2 + (1 2) (3 4))",
            "(||| 2 * (1 2) (3 4))",
            "(||| 2 - (9 9) (3 4))",
        ];
        // Every attempt of the first run drops its reply: initial + all
        // retries, forcing the write-off.
        let plan = FaultPlan::burst(
            FaultSite::DeviceReply,
            FaultKind::DropReply,
            0,
            1 + GpuRepl::HANDSHAKE_RETRIES as u64,
        );
        let mut r = faulted(plan.clone());
        let got = r.submit_batch(&inputs).unwrap();
        assert_eq!(
            plan.injected_count(),
            1 + GpuRepl::HANDSHAKE_RETRIES as u64,
            "every retry must re-fault"
        );
        let mut clean = repl();
        for (src, g) in inputs.iter().zip(&got) {
            let want = clean.submit(src).unwrap();
            assert_eq!(want.output, g.output, "{src}");
            assert_eq!(want.counters, g.counters, "{src}");
            assert!(g.ok, "{src}");
            assert_eq!(
                g.code,
                ErrorCode::Degraded,
                "fallback replies carry the degradation marker: {src}"
            );
        }
        // The session survives degradation.
        assert_eq!(r.submit("(+ 1 1)").unwrap().output, "2");
    }

    #[test]
    fn shutdown_closes_the_session() {
        let mut r = repl();
        let base = r.shutdown();
        assert!(base > 0.0);
        assert!(matches!(r.submit("1"), Err(RuntimeError::SessionClosed)));
        assert!(matches!(
            r.submit_batch(&["1"]),
            Err(RuntimeError::SessionClosed)
        ));
    }

    #[test]
    fn base_latency_matches_spec() {
        let ms = GpuRepl::measure_base_latency_ms(gtx1080());
        assert!((ms - gtx1080().base_latency_ms()).abs() < 1e-9);
    }

    #[test]
    fn gc_keeps_long_sessions_alive() {
        let mut cfg = GpuReplConfig::default();
        cfg.interp.arena_capacity = 2048;
        let mut r = GpuRepl::launch(gtx1080(), cfg);
        for _ in 0..100 {
            let reply = r.submit("(+ 1 2 3 4 5 6 7 8 9)").unwrap();
            assert_eq!(reply.output, "45");
        }
    }

    #[test]
    fn fermi_parses_faster_than_pascal() {
        let input = format!("(+ {})", "1 ".repeat(500));
        let mut fermi = GpuRepl::launch(tesla_c2075(), GpuReplConfig::default());
        let mut pascal = repl();
        let pf = fermi.submit(&input).unwrap().phases;
        let pp = pascal.submit(&input).unwrap().phases;
        assert!(
            pf.parse_ms() < pp.parse_ms(),
            "Fermi {} ms vs Pascal {} ms",
            pf.parse_ms(),
            pp.parse_ms()
        );
    }
}
