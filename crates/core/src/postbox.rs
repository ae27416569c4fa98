//! Postbox-style flat encoding of node trees, environment deltas and
//! environment chains (paper §III-D).
//!
//! The paper's `|||` choreography never ships pointer graphs between the
//! master and its workers: jobs travel through a compact postbox as flat,
//! contiguous buffers. This module is the CPU-side analogue for the
//! real-threads backend in `culi-runtime`: instead of cloning a whole
//! interpreter per worker per section (PR 1's fork-per-section design), a
//! persistent worker receives
//!
//! 1. a [`SyncPacket`] — the master's [`crate::env`] sync-log records since
//!    the worker's last epoch, so the warm fork replays only *new* global
//!    definitions — **or** an [`EnvSnapshot`], a compacted dump of the
//!    whole persistent environment set, whenever incremental replay would
//!    be larger than resynchronizing from scratch (see below);
//! 2. a [`ChainPacket`] — the transient environment chain between the
//!    `|||` expression and the persistent set (dynamic scoping means job
//!    bodies may resolve symbols bound by enclosing `let`s and form
//!    parameters);
//! 3. a [`FlatTree`] batch of job expressions,
//!
//! and answers with a [`FlatTree`] batch of result values. All four are
//! plain `Vec`-backed buffers that the pool recycles across sections, so a
//! warm section performs **zero steady-state heap allocations** for
//! message traffic — the postbox buffer-reuse discipline. One oversized
//! section must not pin its high-water capacity forever, so every packet
//! supports [`FlatTree::shrink_to_budget`]-style capacity capping (the
//! pool applies it when buffers return to the pool) and reports
//! [`FlatTree::byte_capacity`] for diagnostics.
//!
//! # Snapshot-resync vs. incremental replay
//!
//! A [`SyncPacket`] grows with the number of mutations since the
//! replica's epoch; an [`EnvSnapshot`] grows with the number of *live*
//! bindings. A master that `setq`s in a hot loop between sections, or a
//! seat that sat cold through thousands of definitions, makes the replay
//! window arbitrarily larger than the environment itself — the dispatcher
//! compares the two record counts and ships whichever is smaller, which
//! bounds sync traffic by the live environment size regardless of define
//! volume. A snapshot is also the only *faithful* repair once log
//! compaction has dropped records the replica never saw
//! ([`crate::env::EnvArena::sync_replay_faithful_since`]), and the only
//! repair at all for a replica whose own jobs mutated persistent state
//! (its structure has diverged from every epoch of the master's log) —
//! both previously forced a whole-interpreter re-fork.
//!
//! # Wire format
//!
//! A tree is a preorder word stream: one tag word per node, then
//! payload words (`i64`/`f64` as two words, text as an index into a
//! shared span-table-over-byte-heap (`TextHeap`), lists as a child
//! count followed by the encoded children, forms/macros as two nested
//! trees). Builtin functions travel
//! as registry ids — every replica clones the master's registry, so ids
//! are stable. Text travels as raw bytes and is re-interned on decode,
//! which keeps `eq`'s interned-id fast path working inside each replica.

use crate::cost::Meter;
use crate::env::SyncKind;
use crate::error::{CuliError, Result};
use crate::interp::Interp;
use crate::node::{Node, NodeType, Payload};
use crate::types::{EnvId, NodeId, StrId};

const TAG_NIL: u32 = 0;
const TAG_TRUE: u32 = 1;
const TAG_INT: u32 = 2;
const TAG_FLOAT: u32 = 3;
const TAG_STR: u32 = 4;
const TAG_SYMBOL: u32 = 5;
const TAG_FUNCTION: u32 = 6;
const TAG_LIST: u32 = 7;
const TAG_EXPRESSION: u32 = 8;
const TAG_FORM: u32 = 9;
const TAG_MACRO: u32 = 10;

/// A shared `(offset, len)`-span table over one byte heap: the single
/// implementation of flat text storage used by every packet type (tree
/// nodes, sync symbols, chain symbols). Entry `i` is retrieved with a
/// bounds-checked [`TextHeap::get`], so a corrupt span surfaces as an
/// internal error instead of a panic.
#[derive(Debug, Clone, Default)]
struct TextHeap {
    spans: Vec<(u32, u32)>,
    bytes: Vec<u8>,
}

impl TextHeap {
    fn clear(&mut self) {
        self.spans.clear();
        self.bytes.clear();
    }

    /// Appends `text`, returning its entry index.
    fn push(&mut self, text: &[u8]) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans
            .push((self.bytes.len() as u32, text.len() as u32));
        self.bytes.extend_from_slice(text);
        idx
    }

    fn get(&self, i: usize) -> Result<&[u8]> {
        let &(off, len) = self
            .spans
            .get(i)
            .ok_or(CuliError::Internal("text heap entry out of range"))?;
        self.bytes
            .get(off as usize..off as usize + len as usize)
            .ok_or(CuliError::Internal("text heap span out of range"))
    }

    fn byte_size(&self) -> usize {
        self.bytes.len() + self.spans.len() * 8
    }

    fn byte_capacity(&self) -> usize {
        self.bytes.capacity() + self.spans.capacity() * 8
    }

    /// Caps retained capacity at roughly `budget` bytes (split between the
    /// span table and the byte heap).
    fn shrink_to_budget(&mut self, budget: usize) {
        self.spans.shrink_to(budget / 16);
        self.bytes.shrink_to(budget / 2);
    }

    /// Overwrites `self` with `other`'s contents, reusing allocations.
    fn copy_from(&mut self, other: &TextHeap) {
        self.spans.clone_from(&other.spans);
        self.bytes.clone_from(&other.bytes);
    }
}

/// A batch of node trees in flat postbox encoding. Buffers grow on demand
/// and are reused across batches via [`FlatTree::clear`].
#[derive(Debug, Clone, Default)]
pub struct FlatTree {
    /// Preorder word stream of all encoded trees.
    words: Vec<u32>,
    /// String/symbol text entries referenced by index from `words`.
    text: TextHeap,
    /// Word offset where each tree starts.
    starts: Vec<u32>,
    /// Reused explicit stack of the encode walk (nodes still to encode,
    /// next on top), so no tree depth can overflow the thread stack.
    pending: Vec<NodeId>,
}

impl FlatTree {
    /// Empties the batch, keeping all buffer capacity.
    pub fn clear(&mut self) {
        self.words.clear();
        self.text.clear();
        self.starts.clear();
    }

    /// Number of trees in the batch.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// `true` when no tree has been encoded.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Encoded size in bytes (diagnostics; the postbox analogue of the
    /// paper's job-buffer occupancy).
    pub fn byte_size(&self) -> usize {
        self.words.len() * 4 + self.text.byte_size() + self.starts.len() * 4
    }

    /// Bytes of heap capacity currently retained by the buffers (the
    /// quantity the pool's shrink policy bounds).
    pub fn byte_capacity(&self) -> usize {
        self.words.capacity() * 4
            + self.text.byte_capacity()
            + self.starts.capacity() * 4
            + self.pending.capacity() * 4
    }

    /// Caps retained capacity at roughly `budget` bytes so one oversized
    /// batch does not pin its high-water allocation for the buffer's
    /// lifetime. Contents are preserved (`Vec::shrink_to` never drops
    /// below the current length).
    pub fn shrink_to_budget(&mut self, budget: usize) {
        self.words.shrink_to(budget / 8);
        self.starts.shrink_to(budget / 16);
        self.text.shrink_to_budget(budget / 4);
        self.pending.shrink_to(budget / 16);
    }

    /// Overwrites `self` with `other`'s contents, reusing allocations
    /// (unlike the derived `Clone`, no buffer is reallocated when
    /// capacity suffices).
    pub fn copy_from(&mut self, other: &FlatTree) {
        self.words.clone_from(&other.words);
        self.starts.clone_from(&other.starts);
        self.text.copy_from(&other.text);
    }

    /// Appends the tree rooted at `root` to the batch.
    pub fn push_tree(&mut self, interp: &Interp, root: NodeId) {
        self.starts.push(self.words.len() as u32);
        let mut pending = std::mem::take(&mut self.pending);
        pending.push(root);
        while let Some(id) = pending.pop() {
            self.encode_node(interp, id, &mut pending);
        }
        self.pending = pending;
    }

    fn push_text(&mut self, bytes: &[u8]) {
        let idx = self.text.push(bytes);
        self.words.push(idx);
    }

    /// Emits one node's tag and payload words; a list's children and a
    /// form's two trees go onto `pending` so that they pop in preorder.
    fn encode_node(&mut self, interp: &Interp, id: NodeId, pending: &mut Vec<NodeId>) {
        let n = interp.arena.get(id);
        match (n.ty, n.payload) {
            (NodeType::Nil, _) => self.words.push(TAG_NIL),
            (NodeType::True, _) => self.words.push(TAG_TRUE),
            (NodeType::Int, Payload::Int(v)) => {
                self.words.push(TAG_INT);
                self.push_u64(v as u64);
            }
            (NodeType::Float, Payload::Float(v)) => {
                self.words.push(TAG_FLOAT);
                self.push_u64(v.to_bits());
            }
            (NodeType::Str, Payload::Text(s)) => {
                self.words.push(TAG_STR);
                self.push_text(interp.strings.get(s));
            }
            (NodeType::Symbol, Payload::Text(s)) => {
                self.words.push(TAG_SYMBOL);
                self.push_text(interp.strings.get(s));
            }
            (NodeType::Function, Payload::Builtin(b)) => {
                self.words.push(TAG_FUNCTION);
                self.words.push(b.index() as u32);
            }
            (NodeType::List | NodeType::Expression, _) => {
                self.words.push(if n.ty == NodeType::List {
                    TAG_LIST
                } else {
                    TAG_EXPRESSION
                });
                let start = pending.len();
                pending.extend(interp.arena.iter_list(id));
                self.words.push((pending.len() - start) as u32);
                pending[start..].reverse();
            }
            (NodeType::Form | NodeType::Macro, Payload::Form { params, body }) => {
                self.words.push(if n.ty == NodeType::Form {
                    TAG_FORM
                } else {
                    TAG_MACRO
                });
                pending.extend([body, params]);
            }
            _ => unreachable!("node type/payload mismatch in postbox encode"),
        }
    }

    fn push_u64(&mut self, v: u64) {
        self.words.push(v as u32);
        self.words.push((v >> 32) as u32);
    }

    /// Decodes tree `i` of the batch into `interp`'s arena, re-interning
    /// text, and returns the new root. The walk keeps its open lists and
    /// forms on an explicit stack pooled on the interpreter, and allocates
    /// nodes in the order a recursive decode would: a list before its
    /// children, a form after its parameter and body trees.
    pub fn decode(&self, i: usize, interp: &mut Interp) -> Result<NodeId> {
        let mut pos = self.starts[i] as usize;
        let mut frames = std::mem::take(&mut interp.scratch.decode_frames);
        frames.clear();
        let root = self.decode_walk(interp, &mut pos, &mut frames);
        interp.scratch.decode_frames = frames;
        root
    }

    fn word(&self, pos: &mut usize) -> Result<u32> {
        let w = self
            .words
            .get(*pos)
            .copied()
            .ok_or(CuliError::Internal("truncated postbox tree"))?;
        *pos += 1;
        Ok(w)
    }

    fn read_u64(&self, pos: &mut usize) -> Result<u64> {
        let lo = self.word(pos)? as u64;
        let hi = self.word(pos)? as u64;
        Ok(lo | (hi << 32))
    }

    fn decode_walk(
        &self,
        interp: &mut Interp,
        pos: &mut usize,
        frames: &mut Vec<DecodeFrame>,
    ) -> Result<NodeId> {
        loop {
            let mut done = match self.word(pos)? {
                TAG_NIL => interp.alloc(Node::nil())?,
                TAG_TRUE => interp.alloc(Node::truth())?,
                TAG_INT => {
                    let v = self.read_u64(pos)? as i64;
                    interp.alloc(Node::int(v))?
                }
                TAG_FLOAT => {
                    let v = f64::from_bits(self.read_u64(pos)?);
                    interp.alloc(Node::float(v))?
                }
                TAG_STR => {
                    let sid = self.intern_span(interp, pos)?;
                    interp.alloc(Node::string(sid))?
                }
                TAG_SYMBOL => {
                    let sid = self.intern_span(interp, pos)?;
                    interp.alloc(Node::symbol(sid))?
                }
                TAG_FUNCTION => {
                    let id = self.word(pos)? as usize;
                    interp.alloc(Node::function(crate::types::BuiltinId::new(id)))?
                }
                tag @ (TAG_LIST | TAG_EXPRESSION) => {
                    let ty = if tag == TAG_LIST {
                        NodeType::List
                    } else {
                        NodeType::Expression
                    };
                    let count = self.word(pos)?;
                    let list = interp.alloc(Node::new(
                        ty,
                        Payload::List {
                            first: None,
                            last: None,
                        },
                    ))?;
                    if count > 0 {
                        frames.push(DecodeFrame::List {
                            list,
                            remaining: count,
                        });
                        continue;
                    }
                    list
                }
                tag @ (TAG_FORM | TAG_MACRO) => {
                    let ty = if tag == TAG_FORM {
                        NodeType::Form
                    } else {
                        NodeType::Macro
                    };
                    frames.push(DecodeFrame::Form { ty, params: None });
                    continue;
                }
                _ => return Err(CuliError::Internal("unknown postbox tree tag")),
            };
            // Hand the finished node to its parent, closing every frame
            // it completes.
            loop {
                match frames.last_mut() {
                    None => return Ok(done),
                    Some(DecodeFrame::List { list, remaining }) => {
                        interp.arena.list_append(*list, done);
                        *remaining -= 1;
                        if *remaining > 0 {
                            break;
                        }
                        done = *list;
                    }
                    Some(DecodeFrame::Form { ty, params }) => match *params {
                        None => {
                            *params = Some(done);
                            break;
                        }
                        Some(params) => {
                            let form = Payload::Form { params, body: done };
                            done = interp.alloc(Node::new(*ty, form))?;
                        }
                    },
                }
                frames.pop();
            }
        }
    }

    fn intern_span(&self, interp: &mut Interp, pos: &mut usize) -> Result<StrId> {
        let idx = self.word(pos)? as usize;
        let bytes = self.text.get(idx)?;
        Ok(interp.strings.intern(bytes))
    }
}

/// An open list or form on the explicit decode stack.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DecodeFrame {
    /// An allocated list still waiting for `remaining` children.
    List { list: NodeId, remaining: u32 },
    /// A form or macro waiting for its trees: `params` is `None` until the
    /// parameter tree is decoded; the node is allocated after the body.
    Form {
        ty: NodeType,
        params: Option<NodeId>,
    },
}

/// A batch of environment-mutation records in flat encoding: the
/// incremental synchronization stream for warm worker forks. Struct-of-
/// arrays layout, every field reused across sections.
#[derive(Debug, Clone, Default)]
pub struct SyncPacket {
    /// 0 = define, 1 = set, parallel to `values` trees.
    kinds: Vec<u8>,
    /// Mutated environment indices (persistent, stable across replicas).
    envs: Vec<u32>,
    /// Bound symbols' names, entry `i` for record `i`.
    syms: TextHeap,
    /// One encoded value tree per record.
    values: FlatTree,
}

impl SyncPacket {
    /// Number of records in the packet.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` when there is nothing to replay.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Empties the packet, keeping capacity.
    pub fn clear(&mut self) {
        self.kinds.clear();
        self.envs.clear();
        self.syms.clear();
        self.values.clear();
    }

    /// Encoded size in bytes (diagnostics and the snapshot-vs-replay
    /// decision's tie-breaker).
    pub fn byte_size(&self) -> usize {
        self.kinds.len() + self.envs.len() * 4 + self.syms.byte_size() + self.values.byte_size()
    }

    /// Bytes of heap capacity currently retained.
    pub fn byte_capacity(&self) -> usize {
        self.kinds.capacity()
            + self.envs.capacity() * 4
            + self.syms.byte_capacity()
            + self.values.byte_capacity()
    }

    /// Caps retained capacity at roughly `budget` bytes.
    pub fn shrink_to_budget(&mut self, budget: usize) {
        self.kinds.shrink_to(budget / 16);
        self.envs.shrink_to(budget / 16);
        self.syms.shrink_to_budget(budget / 4);
        self.values.shrink_to_budget(budget / 2);
    }

    /// Re-encodes the packet as every master mutation stamped at `epoch`
    /// or later (see [`crate::env::EnvArena::sync_records_since`]).
    pub fn encode_since(&mut self, interp: &Interp, epoch: u64) {
        self.kinds.clear();
        self.envs.clear();
        self.syms.clear();
        self.values.clear();
        for r in interp.envs.sync_records_since(epoch) {
            self.kinds.push(match r.kind {
                SyncKind::Define => 0,
                SyncKind::Set => 1,
            });
            self.envs.push(r.env.index() as u32);
            self.syms.push(interp.strings.get(r.sym));
            self.values.push_tree(interp, r.value);
        }
    }

    /// Replays the packet into a replica: defines prepend, sets overwrite
    /// the visible binding (falling back to a define when the replica
    /// never saw the original definition — log compaction can drop it).
    pub fn apply(&self, interp: &mut Interp) -> Result<()> {
        for i in 0..self.kinds.len() {
            let sym = interp.strings.intern(self.syms.get(i)?);
            let value = self.values.decode(i, interp)?;
            let env = EnvId::new(self.envs[i] as usize);
            let applied = if self.kinds[i] == 1 {
                let mut scratch = Meter::new();
                interp
                    .envs
                    .set_nearest(env, sym, value, &interp.strings, &mut scratch)
            } else {
                false
            };
            if !applied {
                interp.envs.define(env, sym, value, &interp.strings);
            }
        }
        Ok(())
    }
}

/// A compacted whole-environment snapshot of the logged (persistent)
/// environment set: every live binding of every logged environment,
/// oldest first, in flat postbox encoding. Applying it *rebuilds* a
/// replica's persistent environments from scratch, reproducing the
/// master's binding-list structure exactly — shadowed bindings, order and
/// name lengths included — so paper-model lookup charges inside the
/// replica stay bit-identical to the master's. See the module docs for
/// when the dispatcher prefers this over incremental [`SyncPacket`]
/// replay.
#[derive(Debug, Clone, Default)]
pub struct EnvSnapshot {
    /// Live binding count per logged environment, environment 0 first.
    env_lens: Vec<u32>,
    /// Binding names, oldest binding first within each environment.
    syms: TextHeap,
    /// One encoded value tree per binding.
    values: FlatTree,
    /// Reused walk scratch (newest-first binding collection).
    bind_scratch: Vec<(StrId, NodeId)>,
}

impl EnvSnapshot {
    /// Number of binding records in the snapshot.
    pub fn record_count(&self) -> usize {
        self.values.len()
    }

    /// `true` when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.env_lens.is_empty()
    }

    /// Empties the snapshot, keeping capacity.
    pub fn clear(&mut self) {
        self.env_lens.clear();
        self.syms.clear();
        self.values.clear();
    }

    /// Encoded size in bytes.
    pub fn byte_size(&self) -> usize {
        self.env_lens.len() * 4 + self.syms.byte_size() + self.values.byte_size()
    }

    /// Bytes of heap capacity currently retained.
    pub fn byte_capacity(&self) -> usize {
        self.env_lens.capacity() * 4
            + self.syms.byte_capacity()
            + self.values.byte_capacity()
            + self.bind_scratch.capacity() * 16
    }

    /// Caps retained capacity at roughly `budget` bytes.
    pub fn shrink_to_budget(&mut self, budget: usize) {
        self.env_lens.shrink_to(budget / 16);
        self.syms.shrink_to_budget(budget / 4);
        self.values.shrink_to_budget(budget / 2);
        self.bind_scratch.shrink_to(budget / 16);
    }

    /// Overwrites `self` with `other`'s encoded contents, reusing
    /// allocations — the dispatcher encodes one snapshot per dispatch
    /// and copies it into every seat's message.
    pub fn copy_from(&mut self, other: &EnvSnapshot) {
        self.env_lens.clone_from(&other.env_lens);
        self.syms.copy_from(&other.syms);
        self.values.copy_from(&other.values);
    }

    /// Encodes every live binding of `interp`'s logged environments,
    /// oldest binding first (replaying defines in that order reproduces
    /// the original list structure).
    pub fn encode(&mut self, interp: &Interp) {
        self.clear();
        for e in 0..interp.envs.logged_env_count() {
            let env = EnvId::new(e);
            self.bind_scratch.clear();
            self.bind_scratch.extend(interp.envs.local_bindings(env));
            self.env_lens.push(self.bind_scratch.len() as u32);
            for j in (0..self.bind_scratch.len()).rev() {
                let (sym, value) = self.bind_scratch[j];
                self.syms.push(interp.strings.get(sym));
                self.values.push_tree(interp, value);
            }
        }
    }

    /// Rebuilds the replica's logged environments from the snapshot:
    /// every logged environment is cleared and its bindings redefined in
    /// original order. The replica must share the master's lineage (same
    /// logged-environment count); anything else is a protocol error.
    ///
    /// The values the cleared bindings held are collected before any is
    /// decoded, together with the replica's own sync log (on a replica it
    /// only counts mutations), so a replica last synced to another
    /// interpreter keeps none of its values alive. Like
    /// [`crate::gc::collect`], this must run between evaluations.
    pub fn apply(&self, interp: &mut Interp) -> Result<()> {
        if self.env_lens.len() != interp.envs.logged_env_count() {
            return Err(CuliError::Internal(
                "env snapshot does not match the replica's persistent set",
            ));
        }
        for e in 0..self.env_lens.len() {
            interp.envs.reset_env_bindings(EnvId::new(e));
        }
        interp.envs.clear_sync_log();
        crate::gc::collect(interp, &[]);
        let mut k = 0usize;
        for (e, &len) in self.env_lens.iter().enumerate() {
            let env = EnvId::new(e);
            for _ in 0..len {
                let sym = interp.strings.intern(self.syms.get(k)?);
                let value = self.values.decode(k, interp)?;
                interp.envs.define(env, sym, value, &interp.strings);
                k += 1;
            }
        }
        Ok(())
    }
}

/// The transient environment chain between a `|||` expression and the
/// persistent set, flattened for replay inside a worker. Dynamic scoping
/// means a job's form body may resolve symbols bound by enclosing `let`s
/// or form parameters — the worker rebuilds exactly that chain on top of
/// its own persistent environments before evaluating its jobs.
#[derive(Debug, Clone, Default)]
pub struct ChainPacket {
    /// Binding count per chain environment, outermost first.
    env_lens: Vec<u32>,
    /// Binding names, oldest binding first within each environment
    /// (replaying defines in that order reproduces the original
    /// shadowing).
    syms: TextHeap,
    /// One encoded value tree per binding.
    values: FlatTree,
    /// Index of the persistent environment the chain hangs from.
    anchor: u32,
    /// Reused walk scratch (newest-first binding collection).
    bind_scratch: Vec<(StrId, NodeId)>,
    /// Reused walk scratch (innermost-first chain environments).
    env_scratch: Vec<EnvId>,
}

impl ChainPacket {
    /// `true` when the `|||` expression sat directly in a persistent
    /// environment (the common top-level case: nothing to rebuild).
    pub fn is_trivial(&self) -> bool {
        self.env_lens.is_empty()
    }

    /// Bytes of heap capacity currently retained.
    pub fn byte_capacity(&self) -> usize {
        self.env_lens.capacity() * 4
            + self.syms.byte_capacity()
            + self.values.byte_capacity()
            + self.bind_scratch.capacity() * 16
            + self.env_scratch.capacity() * 8
    }

    /// Caps retained capacity at roughly `budget` bytes.
    pub fn shrink_to_budget(&mut self, budget: usize) {
        self.env_lens.shrink_to(budget / 16);
        self.syms.shrink_to_budget(budget / 4);
        self.values.shrink_to_budget(budget / 2);
        self.bind_scratch.shrink_to(budget / 16);
        self.env_scratch.shrink_to(budget / 16);
    }

    /// Encodes the chain from `parent_env` down to (excluding) the first
    /// persistent environment.
    pub fn encode(&mut self, interp: &Interp, parent_env: EnvId) {
        self.env_lens.clear();
        self.syms.clear();
        self.values.clear();
        self.env_scratch.clear();
        let persistent = interp.persistent_env_count();
        let mut cur = parent_env;
        while cur.index() >= persistent {
            self.env_scratch.push(cur);
            cur = interp
                .envs
                .parent(cur)
                .expect("transient environment without a parent");
        }
        self.anchor = cur.index() as u32;
        for i in (0..self.env_scratch.len()).rev() {
            let env = self.env_scratch[i];
            self.bind_scratch.clear();
            self.bind_scratch.extend(interp.envs.local_bindings(env));
            self.env_lens.push(self.bind_scratch.len() as u32);
            for j in (0..self.bind_scratch.len()).rev() {
                let (sym, value) = self.bind_scratch[j];
                self.syms.push(interp.strings.get(sym));
                self.values.push_tree(interp, value);
            }
        }
    }

    /// Rebuilds the chain inside a replica and returns its innermost
    /// environment (the anchor itself when the chain is trivial). The
    /// rebuilt environments are transient in the replica too — its next
    /// collection reclaims them.
    pub fn rebuild(&self, interp: &mut Interp) -> Result<EnvId> {
        let mut env = EnvId::new(self.anchor as usize);
        let mut k = 0usize;
        for &len in &self.env_lens {
            let child = interp.envs.push(Some(env));
            for _ in 0..len {
                let sym = interp.strings.intern(self.syms.get(k)?);
                let value = self.values.decode(k, interp)?;
                interp.envs.define(child, sym, value, &interp.strings);
                k += 1;
            }
            env = child;
        }
        Ok(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_to_string;

    fn roundtrip(src: &str) -> (String, String) {
        let mut master = Interp::default();
        let forms = crate::parser::parse(&mut master, src.as_bytes()).unwrap();
        let mut buf = FlatTree::default();
        buf.push_tree(&master, forms[0]);
        let mut replica = Interp::default();
        let decoded = buf.decode(0, &mut replica).unwrap();
        (
            print_to_string(&mut master, forms[0]).unwrap(),
            print_to_string(&mut replica, decoded).unwrap(),
        )
    }

    #[test]
    fn primitives_roundtrip() {
        for src in ["42", "-7", "1.5", "nil", "T", "sym", "\"text\"", "()"] {
            let (a, b) = roundtrip(src);
            assert_eq!(a, b, "{src}");
        }
    }

    #[test]
    fn nested_lists_roundtrip() {
        let (a, b) = roundtrip("(1 (2 (3 4) 5) (() 6) \"s\" sym 7.25)");
        assert_eq!(a, b);
    }

    #[test]
    fn forms_and_builtins_roundtrip() {
        let mut master = Interp::default();
        master.eval_str("(defun addk (a b) (+ a b k))").unwrap();
        let form = master.lookup_global(b"addk").unwrap();
        let plus = master.lookup_global(b"+").unwrap();
        let mut buf = FlatTree::default();
        buf.push_tree(&master, form);
        buf.push_tree(&master, plus);
        let mut replica = Interp::default();
        let form2 = buf.decode(0, &mut replica).unwrap();
        let plus2 = buf.decode(1, &mut replica).unwrap();
        // The decoded form is directly applicable in the replica.
        let g = replica.global;
        let k = replica.strings.intern(b"k");
        let hundred = replica.alloc(Node::int(100)).unwrap();
        replica.envs.define(g, k, hundred, &replica.strings);
        let f = replica.strings.intern(b"decoded-addk");
        replica.envs.define(g, f, form2, &replica.strings);
        assert_eq!(replica.eval_str("(decoded-addk 1 2)").unwrap(), "103");
        assert_eq!(
            print_to_string(&mut replica, plus2).unwrap(),
            "#<builtin +>"
        );
    }

    #[test]
    fn batches_decode_independently_and_clear_reuses() {
        let mut master = Interp::default();
        let forms = crate::parser::parse(&mut master, b"(1 2) (3 4 5) 9").unwrap();
        let mut buf = FlatTree::default();
        for &f in &forms {
            buf.push_tree(&master, f);
        }
        assert_eq!(buf.len(), 3);
        let mut replica = Interp::default();
        for (i, expect) in ["(1 2)", "(3 4 5)", "9"].iter().enumerate() {
            let d = buf.decode(i, &mut replica).unwrap();
            assert_eq!(&print_to_string(&mut replica, d).unwrap(), expect);
        }
        buf.clear();
        assert!(buf.is_empty());
        buf.push_tree(&master, forms[2]);
        let d = buf.decode(0, &mut replica).unwrap();
        assert_eq!(print_to_string(&mut replica, d).unwrap(), "9");
    }

    #[test]
    fn sync_packet_replays_defines_and_sets() {
        let mut master = Interp::default();
        let epoch0 = master.envs.sync_epoch();
        let mut replica = master.clone();
        master.eval_str("(setq x 1)").unwrap(); // define (unbound fallback)
        master.eval_str("(defun sq (n) (* n n))").unwrap();
        master.eval_str("(setq x 2)").unwrap(); // set on existing binding
        let mut packet = SyncPacket::default();
        packet.encode_since(&master, epoch0);
        assert_eq!(packet.len(), 3);
        packet.apply(&mut replica).unwrap();
        assert_eq!(replica.eval_str("(sq x)").unwrap(), "4");
        // Incremental: nothing new → empty packet → replica unchanged.
        let epoch1 = master.envs.sync_epoch();
        packet.encode_since(&master, epoch1);
        assert!(packet.is_empty());
    }

    #[test]
    fn sync_packet_set_falls_back_to_define_after_compaction() {
        let mut master = Interp::default();
        let epoch0 = master.envs.sync_epoch();
        let mut replica = master.clone();
        // 70 distinct defines push the log over the compaction threshold,
        // then a set overwrites one of them; compaction keeps only the set.
        for i in 0..70 {
            master.eval_str(&format!("(setq v{i} {i})")).unwrap();
        }
        master.eval_str("(setq v3 333)").unwrap();
        crate::gc::collect(&mut master, &[]);
        let mut packet = SyncPacket::default();
        packet.encode_since(&master, epoch0);
        packet.apply(&mut replica).unwrap();
        assert_eq!(replica.eval_str("v3").unwrap(), "333");
        assert_eq!(replica.eval_str("(+ v0 v69)").unwrap(), "69");
    }

    #[test]
    fn chain_packet_rebuilds_transient_bindings() {
        let mut master = Interp::default();
        let mut replica = master.clone();
        // Build a transient chain by hand: global → e1(a=1, shadows) → e2(b).
        let g = master.global;
        let e1 = master.envs.push(Some(g));
        let a = master.strings.intern(b"a");
        let v1 = master.alloc(Node::int(1)).unwrap();
        master.envs.define(e1, a, v1, &master.strings);
        let v2 = master.alloc(Node::int(2)).unwrap();
        master.envs.define(e1, a, v2, &master.strings); // shadows a=1
        let e2 = master.envs.push(Some(e1));
        let b = master.strings.intern(b"b");
        let v3 = master.alloc(Node::int(30)).unwrap();
        master.envs.define(e2, b, v3, &master.strings);

        let mut packet = ChainPacket::default();
        packet.encode(&master, e2);
        assert!(!packet.is_trivial());
        let tail = packet.rebuild(&mut replica).unwrap();
        let mut m = Meter::new();
        let ra = replica.strings.intern(b"a");
        let rb = replica.strings.intern(b"b");
        let got_a = replica
            .envs
            .lookup(tail, ra, &replica.strings, &mut m)
            .unwrap();
        let got_b = replica
            .envs
            .lookup(tail, rb, &replica.strings, &mut m)
            .unwrap();
        assert_eq!(replica.arena.get(got_a).payload, Payload::Int(2));
        assert_eq!(replica.arena.get(got_b).payload, Payload::Int(30));
    }

    #[test]
    fn env_snapshot_rebuilds_exact_structure() {
        let mut master = Interp::default();
        let mut replica = master.clone();
        master.eval_str("(setq a 1)").unwrap();
        master.eval_str("(defun f (x) (+ x a))").unwrap();
        master.eval_str("(defun f (x) (- x a))").unwrap(); // shadowing redefine
        master.eval_str("(setq a 2)").unwrap();
        let mut snap = EnvSnapshot::default();
        snap.encode(&master);
        snap.apply(&mut replica).unwrap();
        assert_eq!(replica.eval_str("(f 10)").unwrap(), "8");
        // Structure fidelity: the faithful scan pays the same charges in
        // the replica as in the master, shadowed redefine included.
        for name in ["a", "f", "+", "car", "no-such-symbol"] {
            let mut mm = Meter::new();
            let mut rm = Meter::new();
            let ms = master.strings.intern(name.as_bytes());
            let rs = replica.strings.intern(name.as_bytes());
            let got_m = master
                .envs
                .lookup(master.global, ms, &master.strings, &mut mm);
            let got_r = replica
                .envs
                .lookup(replica.global, rs, &replica.strings, &mut rm);
            assert_eq!(got_m.is_some(), got_r.is_some(), "{name}");
            assert_eq!(mm.snapshot(), rm.snapshot(), "charges for {name}");
        }
    }

    #[test]
    fn env_snapshot_size_tracks_live_bindings_not_mutation_volume() {
        let mut master = Interp::default();
        master.eval_str("(setq v 0)").unwrap();
        let mut before = EnvSnapshot::default();
        before.encode(&master);
        for i in 0..500 {
            master.eval_str(&format!("(setq v {i})")).unwrap();
        }
        let mut replay = SyncPacket::default();
        replay.encode_since(&master, 0);
        let mut after = EnvSnapshot::default();
        after.encode(&master);
        assert_eq!(after.record_count(), before.record_count());
        assert!(
            after.byte_size() < replay.byte_size(),
            "snapshot {} bytes vs replay {} bytes",
            after.byte_size(),
            replay.byte_size()
        );
    }

    #[test]
    fn shrink_to_budget_caps_retained_capacity() {
        let mut master = Interp::default();
        let big = format!("({})", "123456789 ".repeat(4096));
        let forms = crate::parser::parse(&mut master, big.as_bytes()).unwrap();
        let mut buf = FlatTree::default();
        buf.push_tree(&master, forms[0]);
        buf.clear();
        assert!(buf.byte_capacity() > 1 << 15);
        buf.shrink_to_budget(1 << 10);
        assert!(
            buf.byte_capacity() <= 1 << 12,
            "retained {} bytes",
            buf.byte_capacity()
        );
        // Still usable after shrinking.
        buf.push_tree(&master, forms[0]);
        let mut replica = Interp::default();
        assert!(buf.decode(0, &mut replica).is_ok());
    }

    #[test]
    fn chain_packet_is_trivial_at_top_level() {
        let master = Interp::default();
        let mut packet = ChainPacket::default();
        packet.encode(&master, master.global);
        assert!(packet.is_trivial());
        let mut replica = master.clone();
        assert_eq!(packet.rebuild(&mut replica).unwrap(), replica.global);
    }
}
