//! The paper's evaluation workload (§IV).
//!
//! *"In our test all threads compute the 5th Fibonacci number recursively"*;
//! thread counts sweep 1,2,4,…,4096, and the resulting REPL input strings
//! are *"17 to 8207 characters per transfer, around 8 KB in size"*. This
//! module generates exactly those inputs.

/// The recursive Fibonacci definition submitted once per session.
pub const FIB_DEFUN: &str = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";

/// Which Fibonacci index every worker computes (the paper uses the 5th).
pub const FIB_INDEX: u32 = 5;

/// The paper's thread-count sweep: 1, 2, 4, …, 4096.
pub fn thread_counts() -> Vec<usize> {
    (0..=12).map(|p| 1usize << p).collect()
}

/// Builds the `(||| n fib (5 5 … 5))` input for `n` workers.
pub fn fib_input(n: usize) -> String {
    let mut args = String::with_capacity(2 * n);
    for i in 0..n {
        if i > 0 {
            args.push(' ');
        }
        args.push_str(&FIB_INDEX.to_string());
    }
    format!("(||| {n} fib ({args}))")
}

/// Expected result list, for output validation: fib(5) = 5, n times.
pub fn expected_output(n: usize) -> String {
    let vals = vec!["5"; n];
    format!("({})", vals.join(" "))
}

/// Reference Fibonacci for validation.
pub fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

/// Benchmark fixture: a full interpreter (global env holds every builtin),
/// a chain of `depth` child environments each carrying one local binding,
/// and the symbol `+` as the lookup target. `+` is registered *first*, so
/// it sits at the very tail of the global binding list: the faithful scan
/// walks the chain, then every builtin; the indexed lookup walks the chain
/// and resolves the global hit in O(1). This is exactly the shape of every
/// builtin resolution the evaluator performs.
pub fn env_chain_fixture(depth: usize) -> (culi_core::Interp, culi_core::EnvId, culi_core::StrId) {
    let mut interp = culi_core::Interp::default();
    let target = interp.strings.intern(b"+");
    let mut env = interp.global;
    for i in 0..depth {
        env = interp.envs.push(Some(env));
        let local = interp.strings.intern(format!("local-{i}").as_bytes());
        interp
            .envs
            .define(env, local, culi_core::NodeId::new(i + 1), &interp.strings);
    }
    (interp, env, target)
}

/// Benchmark fixture: an arena filled to capacity and then 50% freed in an
/// interleaved (every-other-slot) pattern — the worst case for the seed's
/// wrapping-scan allocator.
pub fn fragmented_arena(capacity: usize) -> (culi_core::arena::NodeArena, culi_core::cost::Meter) {
    let mut arena = culi_core::arena::NodeArena::with_capacity(capacity);
    let mut meter = culi_core::cost::Meter::new();
    let ids: Vec<culi_core::NodeId> = (0..capacity)
        .map(|i| {
            arena
                .alloc(culi_core::node::Node::int(i as i64), &mut meter)
                .unwrap()
        })
        .collect();
    for id in ids.into_iter().step_by(2) {
        arena.free(id, &mut meter);
    }
    (arena, meter)
}

/// Definitions the repeated-traffic command stream relies on.
pub const CACHE_PRELUDE: &[&str] = &[
    FIB_DEFUN,
    "(defun plus (a b) (+ a b))",
    "(defun addg (x) (+ x g))",
    "(defun fibj (x) (fib (+ 8 (mod x 4))))",
    "(setq g 1)",
    "(setq xs (list 3 4 5 6 7 8))",
];

/// Repeated command traffic for the command cache: `len` commands drawn
/// Zipf(0.99) over `universe` distinct pure commands (sections over the
/// [`CACHE_PRELUDE`] functions plus scalar reads, each with real
/// execution cost). Rank 0 is the hottest; the draw is seeded, so the
/// stream is the same on every call.
pub fn zipf_stream(universe: usize, len: usize) -> Vec<String> {
    let commands: Vec<String> = (0..universe)
        .map(|k| match k % 4 {
            0 => format!(
                "(||| 4 fibj ({} {} {} {}))",
                k % 8,
                (k + 3) % 8,
                (k + 5) % 8,
                (k + 6) % 8
            ),
            1 => format!("(||| 3 fibj ({k} {} {}))", k + 1, k + 2),
            2 => format!("(||| 2 fibj ({k} {}))", k + 7),
            _ => format!("(+ {k} (* {} g))", k % 13),
        })
        .collect();
    // Rank k is drawn with probability proportional to 1 / (k+1)^0.99.
    let mut cdf = Vec::with_capacity(universe);
    let mut acc = 0.0;
    for k in 0..universe {
        acc += 1.0 / ((k + 1) as f64).powf(0.99);
        cdf.push(acc);
    }
    // splitmix64
    let mut state: u64 = 0x5eed_c0de;
    let mut uniform = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..len)
        .map(|_| {
            let r = uniform() * acc;
            commands[cdf.partition_point(|&c| c < r).min(universe - 1)].clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_paper() {
        let t = thread_counts();
        assert_eq!(t.first(), Some(&1));
        assert_eq!(t.last(), Some(&4096));
        assert_eq!(t.len(), 13);
        for w in t.windows(2) {
            assert_eq!(w[1], 2 * w[0]);
        }
    }

    /// Experiment T1: the paper reports 17–8207 characters per transfer.
    #[test]
    fn input_sizes_match_paper() {
        let small = fib_input(1);
        let large = fib_input(4096);
        assert!(
            (14..=20).contains(&small.len()),
            "1-thread input is {} chars: {small}",
            small.len()
        );
        assert!(
            (8190..=8220).contains(&large.len()),
            "4096-thread input is {} chars (paper: 8207)",
            large.len()
        );
    }

    #[test]
    fn inputs_are_valid_culi() {
        let mut lisp = culi_core::Interp::default();
        lisp.eval_str(FIB_DEFUN).unwrap();
        assert_eq!(lisp.eval_str(&fib_input(4)).unwrap(), expected_output(4));
    }

    #[test]
    fn fib_reference() {
        assert_eq!(fib(5), 5);
        assert_eq!(fib(10), 55);
    }
}
