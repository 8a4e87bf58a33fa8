//! Property tests for the span layer: *any* interleaving of lane
//! operations — however unbalanced — must leave the recorded forest
//! well-formed, because every consumer (`aggregate_spans` and the
//! reports built on it) assumes [`verify_spans`] holds.
//! The histogram-bound and JSON round-trip checks ride along.

use proptest::prelude::*;
use s2fa_obs::{verify_spans, Histogram, Json, Profiler};

const NAMES: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];

/// One encoded lane operation: `(op, a, b)` with the opcode taken mod 5.
type Op = (u8, u8, u8);

/// Runs a random program against one lane, mirroring the open stack so
/// `close` can target an arbitrary open span (not only the innermost).
fn run_program(lane: &mut s2fa_obs::Lane, ops: &[Op]) {
    let mut open: Vec<u64> = Vec::new();
    for &(op, a, b) in ops {
        match op % 5 {
            0 => open.push(lane.open(NAMES[a as usize % NAMES.len()])),
            1 => {
                if !open.is_empty() {
                    let at = a as usize % open.len();
                    let id = open[at];
                    // closing a non-innermost span closes its descendants
                    lane.close(id);
                    open.truncate(at);
                }
            }
            2 => {
                // a complete leaf under whatever is open
                let id = lane.open(NAMES[a as usize % NAMES.len()]);
                lane.close(id);
            }
            3 => lane.flush(),
            _ => {
                lane.in_span(NAMES[a as usize % NAMES.len()], |inner| {
                    let id = inner.open(NAMES[b as usize % NAMES.len()]);
                    inner.flush(); // mid-span flush: `id` is still open
                    inner.close(id);
                });
            }
        }
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Whatever a single thread does to its lane — unbalanced opens,
    // out-of-order closes, nested scopes, mid-stream flushes — the
    // final forest passes every well-formedness check.
    #[test]
    fn random_programs_keep_the_forest_well_formed(ops in arb_ops()) {
        let profiler = Profiler::enabled();
        let mut lane = profiler.lane();
        run_program(&mut lane, &ops);
        drop(lane); // closes leftovers, flushes
        let spans = profiler.take_spans();
        if let Err(e) = verify_spans(&spans) {
            panic!("ill-formed forest: {e}");
        }
    }

    // Concurrent lanes never entangle: three threads running independent
    // random programs on the same profiler still yield one well-formed
    // forest, and parenting never crosses a lane boundary (verify_spans
    // checks that invariant for every record).
    #[test]
    fn concurrent_lanes_stay_well_formed(
        a in arb_ops(),
        b in arb_ops(),
        c in arb_ops(),
    ) {
        let profiler = Profiler::enabled();
        std::thread::scope(|scope| {
            for ops in [&a, &b, &c] {
                let profiler = &profiler;
                scope.spawn(move || {
                    let mut lane = profiler.lane();
                    run_program(&mut lane, ops);
                });
            }
        });
        let spans = profiler.take_spans();
        if let Err(e) = verify_spans(&spans) {
            panic!("ill-formed forest: {e}");
        }
    }

    // The disabled profiler records nothing, whatever the program does.
    #[test]
    fn inert_lanes_record_nothing(ops in arb_ops()) {
        let profiler = Profiler::disabled();
        let mut lane = profiler.lane();
        run_program(&mut lane, &ops);
        drop(lane);
        prop_assert_eq!(profiler.take_spans().len(), 0);
    }

    // Log-linear histogram bounds: count and sum are exact, max is
    // exact, quantiles are monotone and within the bucket scheme's
    // relative-error envelope of the observed range.
    #[test]
    fn histogram_quantiles_stay_in_bounds(
        values in prop::collection::vec(0u64..4_000_000_000, 1..200),
    ) {
        let snap = values.iter().copied().collect::<Histogram>().snapshot();
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
        prop_assert_eq!(snap.max, max);
        prop_assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99);
        prop_assert!(snap.p99 <= snap.max);
        // bucket midpoints sit within ~1/16 relative error below the
        // smallest observed value
        let floor = (min as f64 * 0.9) as u64;
        prop_assert!(snap.p50 >= floor, "p50 {} below floor {}", snap.p50, floor);
    }

    // The crate's JSON writer and parser are inverses on arbitrary
    // nested documents built from awkward scalars.
    #[test]
    fn json_roundtrips(
        n in any::<i32>(),
        f in -1.0e12f64..1.0e12,
        s in prop::sample::select(vec![
            "plain",
            "with \"quotes\" and \\backslash",
            "newline\nand\ttab",
            "unicode π ≤ 🦀",
            "",
        ]),
        flag in any::<bool>(),
    ) {
        let doc = Json::obj([
            ("int", Json::int(u64::from(n.unsigned_abs()))),
            ("float", Json::Num(f)),
            ("string", Json::str(s)),
            ("flag", Json::Bool(flag)),
            (
                "nested",
                Json::obj([
                    ("list", Json::Arr(vec![Json::Null, Json::str(s), Json::Num(f)])),
                ]),
            ),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("rendered JSON parses");
        prop_assert_eq!(back, doc);
    }
}
