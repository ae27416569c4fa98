//! The interpreter object: arenas, environments, builtin registry, meter.
//!
//! One [`Interp`] corresponds to one running CuLi instance — on the real
//! system, the state living in GPU global memory for the lifetime of the
//! persistent kernel. It is deliberately `Clone` so the CPU-threaded
//! runtime can fork isolated workers, and so tests can snapshot state.

use crate::arena::NodeArena;
use crate::builtins::Registry;
use crate::cost::Meter;
use crate::env::EnvArena;
use crate::error::Result;
use crate::eval::{eval, ParallelHook, SequentialHook};
use crate::node::Node;
use crate::parser::parse;
use crate::printer::print_to_string;
use crate::strings::StrTable;
use crate::types::{EnvId, NodeId, StrId};
use culi_strlib::StrBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Construction-time limits, the analogue of CuLi's compile-time constants.
#[derive(Debug, Clone)]
pub struct InterpConfig {
    /// Node arena slots (the paper's fixed node array length).
    pub arena_capacity: usize,
    /// Output buffer bytes (the device side of the command buffer).
    pub output_capacity: usize,
    /// Maximum parse nesting and evaluation recursion depth.
    pub max_depth: usize,
    /// Per-command fuel budget in evaluator steps: evaluation aborts with
    /// [`crate::CuliError::FuelExhausted`] once a command has charged this
    /// many. [`crate::cost::FUEL_UNLIMITED`] (the default) disables the
    /// budget; the check is then a single never-true compare.
    pub fuel_budget: u64,
    /// Live-node cap (policy limit, distinct from `arena_capacity`'s
    /// physical bound): allocation fails with
    /// [`crate::CuliError::HeapLimitExceeded`] once this many nodes are
    /// live. `usize::MAX` (the default) disables the cap.
    pub heap_limit: usize,
}

impl Default for InterpConfig {
    fn default() -> Self {
        Self {
            arena_capacity: 1 << 20,
            output_capacity: 1 << 16,
            max_depth: 512,
            fuel_budget: crate::cost::FUEL_UNLIMITED,
            heap_limit: usize::MAX,
        }
    }
}

/// Reusable buffers for the evaluator's steady-state hot path and the
/// collector. Buffers are taken, used, cleared and returned; after the
/// first few evaluations every `eval` step, builtin call and GC cycle runs
/// without touching the heap allocator.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    node_bufs: Vec<Vec<NodeId>>,
    sym_bufs: Vec<Vec<StrId>>,
    /// Reusable printer output buffers (capacity = configured output
    /// capacity), so repeated printing never re-allocates the output
    /// string (the paper's Fig. 16d print phase).
    print_bufs: Vec<StrBuf>,
    /// Word-packed GC mark bitmap, reused across collections.
    pub(crate) gc_marks: Vec<u64>,
    /// GC root/traversal stack, reused across collections.
    pub(crate) gc_roots: Vec<NodeId>,
    /// Open lists and forms of the postbox decode walk, reused across
    /// decodes.
    pub(crate) decode_frames: Vec<crate::postbox::DecodeFrame>,
    /// The printer's walk stack, reused across prints.
    pub(crate) print_steps: Vec<crate::printer::Step>,
}

/// A complete CuLi interpreter instance.
#[derive(Debug)]
pub struct Interp {
    /// Limits this instance was built with.
    pub config: InterpConfig,
    /// Node storage.
    pub arena: NodeArena,
    /// Interned strings and symbols.
    pub strings: StrTable,
    /// Environment tree storage.
    pub envs: EnvArena,
    /// Built-in function registry.
    pub builtins: Registry,
    /// The global environment (root of the environment tree; holds the
    /// built-in functions and everything `defun`/`setq` made global).
    pub global: EnvId,
    /// Operation counters for the cost model.
    pub meter: Meter,
    /// Host-side I/O services (the paper's future-work file API, routed
    /// over the command buffer). `None` until a runtime attaches one.
    pub host_io: Option<crate::hostio::HostIoHandle>,
    /// Reusable hot-path buffers (see [`Scratch`]).
    pub(crate) scratch: Scratch,
    /// Environments created before any evaluation (the global environment):
    /// everything beyond this watermark is transient and reclaimed by
    /// [`crate::gc::collect`] between evaluations.
    pub(crate) persistent_envs: usize,
    /// Whole-interpreter clones performed in this instance's lineage
    /// (shared by every clone). Worker pools fork interpreters exactly
    /// once at warm-up; tests and benches assert that a warm session's
    /// count stays flat.
    clone_counter: Arc<AtomicU64>,
}

/// Cloning an interpreter is a *fork*: a deep copy of the arena, strings,
/// environments and registry. It is deliberately supported (the CPU
/// backends fork workers, tests snapshot state) but expensive — the shared
/// [`Interp::clone_count`] ticks on every clone so the parallel runtime
/// can prove it only forks at pool warm-up.
impl Clone for Interp {
    fn clone(&self) -> Self {
        self.clone_counter.fetch_add(1, Ordering::Relaxed);
        Self {
            config: self.config.clone(),
            arena: self.arena.clone(),
            strings: self.strings.clone(),
            envs: self.envs.clone(),
            builtins: self.builtins.clone(),
            global: self.global,
            meter: self.meter.clone(),
            host_io: self.host_io.clone(),
            scratch: self.scratch.clone(),
            persistent_envs: self.persistent_envs,
            clone_counter: Arc::clone(&self.clone_counter),
        }
    }
}

impl Interp {
    /// Builds an interpreter: allocates the arenas, creates the global
    /// environment and registers every built-in function in it (the paper
    /// stores builtins like `+` and `defun` in the global environment).
    pub fn new(config: InterpConfig) -> Self {
        let mut interp = Self {
            arena: NodeArena::with_capacity(config.arena_capacity),
            strings: StrTable::new(),
            envs: EnvArena::new(),
            builtins: Registry::new(),
            global: EnvId::new(0), // placeholder, replaced below
            meter: Meter::new(),
            host_io: None,
            scratch: Scratch::default(),
            persistent_envs: 0,
            clone_counter: Arc::new(AtomicU64::new(0)),
            config,
        };
        interp.global = interp.envs.push(None);
        interp.persistent_envs = interp.envs.env_count();
        let defs = crate::builtins::all_builtins();
        for def in defs {
            let id = interp.builtins.register(def);
            let sym = interp.strings.intern(def.name.as_bytes());
            let node = interp
                .arena
                .alloc(Node::function(id), &mut interp.meter)
                .expect("arena must fit the builtin table");
            interp
                .envs
                .define(interp.global, sym, node, &interp.strings);
        }
        // Boot definitions never need replaying: worker replicas are
        // forked from a fully-booted instance. Start the sync log here so
        // only post-boot mutations travel to warm worker forks.
        interp.envs.start_sync_log();
        // The heap cap is a *policy* limit on user programs; applying it
        // only after boot means builtin registration can never trip it.
        interp.arena.set_node_limit(interp.config.heap_limit);
        interp
    }

    /// Number of whole-interpreter clones ever performed in this
    /// instance's lineage (the counter is shared between an instance and
    /// every fork made from it).
    pub fn clone_count(&self) -> u64 {
        self.clone_counter.load(Ordering::Relaxed)
    }

    /// Number of persistent environments (created before evaluation
    /// started — the global environment). Everything beyond this watermark
    /// is transient; the postbox chain codec uses it to find where a `|||`
    /// expression's environment chain leaves replica-stable ground.
    pub fn persistent_env_count(&self) -> usize {
        self.persistent_envs
    }

    /// Takes a cleared [`NodeId`] buffer from the scratch pool (or a fresh
    /// one while the pool warms up). Return it with
    /// [`Interp::put_node_buf`] so its capacity is reused; steady-state
    /// evaluation then performs zero heap allocations for list traversal
    /// and argument collection.
    #[inline]
    pub fn take_node_buf(&mut self) -> Vec<NodeId> {
        self.scratch.node_bufs.pop().unwrap_or_default()
    }

    /// Returns a buffer taken with [`Interp::take_node_buf`] to the pool.
    /// Outsized buffers (one huge list evaluated once) are dropped rather
    /// than pooled, so a single large expression cannot pin its peak
    /// capacity — multiplied by recursion depth and per-worker clones —
    /// for the interpreter's lifetime.
    #[inline]
    pub fn put_node_buf(&mut self, mut buf: Vec<NodeId>) {
        const POOL_CAPACITY_LIMIT: usize = 1 << 16;
        if buf.capacity() <= POOL_CAPACITY_LIMIT {
            buf.clear();
            self.scratch.node_bufs.push(buf);
        }
    }

    /// Takes a cleared [`StrId`] buffer from the scratch pool (parameter
    /// symbol collection during form application).
    #[inline]
    pub(crate) fn take_sym_buf(&mut self) -> Vec<StrId> {
        self.scratch.sym_bufs.pop().unwrap_or_default()
    }

    /// Returns a buffer taken with [`Interp::take_sym_buf`] to the pool.
    #[inline]
    pub(crate) fn put_sym_buf(&mut self, mut buf: Vec<StrId>) {
        buf.clear();
        self.scratch.sym_bufs.push(buf);
    }

    /// Takes a cleared printer output buffer of the configured output
    /// capacity from the scratch pool (or builds one while the pool warms
    /// up). Return it with [`Interp::put_print_buf`]; after the first
    /// print, printing re-allocates nothing.
    #[inline]
    pub fn take_print_buf(&mut self) -> StrBuf {
        self.scratch
            .print_bufs
            .pop()
            .unwrap_or_else(|| StrBuf::with_capacity(self.config.output_capacity))
    }

    /// Returns a buffer taken with [`Interp::take_print_buf`] to the pool.
    #[inline]
    pub fn put_print_buf(&mut self, mut buf: StrBuf) {
        buf.clear();
        self.scratch.print_bufs.push(buf);
    }

    /// Runs `f` with the meter swapped out for a scratch one, discarding
    /// whatever `f` charged. Used by the parallel runtimes for protocol
    /// work that is *not* paper-model interpreter work — decoding worker
    /// results or importing fork trees allocates real nodes, but the
    /// modeled backends never perform those operations, so charging them
    /// would make the real-threads backends' counters diverge from the
    /// sequential reference.
    pub fn unmetered<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let saved = std::mem::take(&mut self.meter);
        let result = f(self);
        self.meter = saved;
        result
    }

    /// Allocates a node, charging the meter.
    pub fn alloc(&mut self, node: Node) -> Result<NodeId> {
        self.arena.alloc(node, &mut self.meter)
    }

    /// Allocates a symbol node for `name`.
    pub fn symbol(&mut self, name: &[u8]) -> Result<NodeId> {
        let sid = self.strings.intern(name);
        self.alloc(Node::symbol(sid))
    }

    /// Shallow-copies a node for insertion into a freshly built list.
    ///
    /// Nodes are immutable once visible, but their `next` link is the list
    /// chain they already sit in — linking an existing node into a second
    /// list would corrupt the first. The copy shares any child structure
    /// (safe: children are immutable), exactly as cheap as the C original's
    /// fresh result nodes.
    pub fn copy_for_list(&mut self, id: NodeId) -> Result<NodeId> {
        let n = *self.arena.get(id);
        self.alloc(Node {
            ty: n.ty,
            payload: n.payload,
            next: None,
        })
    }

    /// Looks `name` up in the global environment without charging lookup
    /// costs (diagnostics/tests).
    pub fn lookup_global(&mut self, name: &[u8]) -> Option<NodeId> {
        let sym = self.strings.intern(name);
        let mut scratch = Meter::new();
        self.envs
            .lookup(self.global, sym, &self.strings, &mut scratch)
    }

    /// Parses, evaluates and prints one input line against the persistent
    /// global environment, sequentially (no parallel backend). This is the
    /// plain-CPU read–eval–print used by tests and the quickstart; the
    /// runtimes in `culi-runtime` drive the same pieces phase by phase.
    pub fn eval_str(&mut self, src: &str) -> Result<String> {
        self.eval_str_with(src, &mut SequentialHook)
    }

    /// Like [`Interp::eval_str`] but with an explicit parallel backend for
    /// `|||` expressions.
    pub fn eval_str_with(&mut self, src: &str, hook: &mut dyn ParallelHook) -> Result<String> {
        self.meter.arm_fuel(self.config.fuel_budget);
        let forms = parse(self, src.as_bytes())?;
        let mut last = None;
        for form in forms {
            last = Some(eval(self, hook, form, self.global, 0)?);
        }
        match last {
            Some(node) => print_to_string(self, node),
            None => Ok(String::new()),
        }
    }
}

impl Default for Interp {
    fn default() -> Self {
        Self::new(InterpConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_interp_registers_builtins_globally() {
        let mut i = Interp::default();
        for name in [
            "+", "-", "*", "/", "car", "cdr", "defun", "let", "setq", "|||",
        ] {
            assert!(
                i.lookup_global(name.as_bytes()).is_some(),
                "builtin {name} missing from global environment"
            );
        }
    }

    #[test]
    fn eval_str_empty_input() {
        let mut i = Interp::default();
        assert_eq!(i.eval_str("").unwrap(), "");
        assert_eq!(i.eval_str("   \n ").unwrap(), "");
    }

    #[test]
    fn eval_str_multiple_forms_returns_last() {
        let mut i = Interp::default();
        assert_eq!(i.eval_str("(+ 1 1) (+ 2 2)").unwrap(), "4");
    }

    #[test]
    fn global_environment_persists_between_inputs() {
        // Paper §I: "the successively created environment on the GPU is
        // persistent until the interpreter is terminated".
        let mut i = Interp::default();
        i.eval_str("(setq x 41)").unwrap();
        assert_eq!(i.eval_str("(+ x 1)").unwrap(), "42");
    }

    #[test]
    fn copy_for_list_detaches_next() {
        let mut i = Interp::default();
        let forms = crate::parser::parse(&mut i, b"(1 2)").unwrap();
        let kids = i.arena.list_children(forms[0]);
        assert!(i.arena.get(kids[0]).next.is_some());
        let copy = i.copy_for_list(kids[0]).unwrap();
        assert!(i.arena.get(copy).next.is_none());
        assert_eq!(i.arena.get(copy).payload, i.arena.get(kids[0]).payload);
    }

    #[test]
    fn fuel_budget_aborts_runaway_loops_and_interp_survives() {
        let mut i = Interp::new(InterpConfig {
            fuel_budget: 50_000,
            ..Default::default()
        });
        // A deliberate runaway: a billion iterations would spin forever
        // without the budget.
        match i.eval_str("(dotimes (i 1000000000) (+ i i))") {
            Err(crate::CuliError::FuelExhausted { budget: 50_000 }) => {}
            other => panic!("expected FuelExhausted, got {other:?}"),
        }
        // The abort leaves the interpreter reusable: the next command gets
        // a fresh budget and evaluates normally.
        assert_eq!(i.eval_str("(+ 1 2)").unwrap(), "3");
        crate::gc::collect(&mut i, &[]);
        assert_eq!(i.eval_str("(* 6 7)").unwrap(), "42");
    }

    #[test]
    fn heap_limit_contains_runaway_allocation() {
        let mut i = Interp::new(InterpConfig {
            heap_limit: 4096,
            ..Default::default()
        });
        match i.eval_str("(dotimes (i 1000000) (list i i i i))") {
            Err(crate::CuliError::HeapLimitExceeded { limit: 4096 }) => {}
            other => panic!("expected HeapLimitExceeded, got {other:?}"),
        }
        // GC reclaims the aborted command's garbage and the session lives.
        crate::gc::collect(&mut i, &[]);
        assert_eq!(i.eval_str("(+ 1 2)").unwrap(), "3");
    }

    #[test]
    fn interp_is_cloneable_for_worker_forks() {
        let mut i = Interp::default();
        i.eval_str("(setq x 7)").unwrap();
        let mut fork = i.clone();
        assert_eq!(fork.eval_str("x").unwrap(), "7");
        fork.eval_str("(setq x 8)").unwrap();
        assert_eq!(
            i.eval_str("x").unwrap(),
            "7",
            "fork must not affect original"
        );
    }
}
