//! Property tests for the tuning substrate: space algebra invariants and
//! driver guarantees.

use proptest::prelude::*;
use s2fa_tuner::{
    Config, Measurement, ParamDef, ParamKind, SearchSpace, TimeLimitOnly, TuningOptions, TuningRun,
};

fn arb_space() -> impl Strategy<Value = SearchSpace> {
    prop::collection::vec(
        prop_oneof![
            (1u32..5).prop_map(|p| ParamKind::PowerOfTwo {
                min: 1,
                max: 1 << p
            }),
            (2u32..6).prop_map(|n| ParamKind::Enum { n }),
            (0u32..4, 1u32..8).prop_map(|(lo, span)| ParamKind::IntRange { lo, hi: lo + span }),
        ],
        1..6,
    )
    .prop_map(|kinds| {
        SearchSpace::new(
            kinds
                .into_iter()
                .enumerate()
                .map(|(i, k)| ParamDef::new(format!("p{i}"), k))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_configs_are_contained(space in arb_space(), seed in any::<u64>()) {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..20 {
            let c = space.random(&mut rng);
            prop_assert!(space.contains(&c));
        }
    }

    #[test]
    fn mutation_stays_contained_and_moves(space in arb_space(), seed in any::<u64>()) {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut c = space.random(&mut rng);
        for _ in 0..20 {
            let before = c.clone();
            if let Some(i) = space.mutate_one(&mut c, &mut rng) {
                prop_assert!(space.contains(&c));
                prop_assert_ne!(&before[i], &c[i], "mutation must change the factor");
                // exactly one coordinate moved
                let diffs = before.iter().zip(&c).filter(|(a, b)| a != b).count();
                prop_assert_eq!(diffs, 1);
            }
        }
    }

    #[test]
    fn restriction_shrinks_and_nests(space in arb_space(), lo in 0u32..3, span in 0u32..3) {
        let full = space.size_log10();
        let r = space.restricted(0, lo, lo + span);
        prop_assert!(r.size_log10() <= full + 1e-12);
        // restricting again can only shrink further
        let r2 = r.restricted(0, lo, lo);
        prop_assert!(r2.size_log10() <= r.size_log10() + 1e-12);
        // bounds remain ordered
        let (blo, bhi) = r.bounds(0);
        prop_assert!(blo <= bhi);
    }

    #[test]
    fn clamp_brings_anything_into_bounds(space in arb_space(), raw in prop::collection::vec(any::<u32>(), 1..6)) {
        let mut c: Vec<u32> = raw;
        c.resize(space.params().len(), 0);
        space.clamp(&mut c);
        prop_assert!(space.contains(&c));
    }

    #[test]
    fn driver_never_exceeds_budget_or_repeats(
        space in arb_space(),
        budget in 10.0f64..100.0,
        seed in any::<u64>(),
    ) {
        let run = TuningRun::new(
            space,
            TuningOptions {
                budget_minutes: budget,
                rng_seed: seed,
                ..TuningOptions::default()
            },
        );
        let out = run.run(
            &mut |cfg: &Config| Measurement::new(cfg.iter().map(|&v| v as f64).sum::<f64>() + 1.0, 3.0),
            &mut TimeLimitOnly,
        );
        prop_assert!(out.elapsed_minutes <= budget + 1e-9);
        let mut seen = std::collections::HashSet::new();
        for e in out.history.evaluations() {
            prop_assert!(seen.insert(e.config.clone()), "duplicate evaluation");
        }
        // the incumbent best, replayed from the history, is
        // non-increasing and matches the run's best
        let mut best = f64::INFINITY;
        for e in out.history.evaluations() {
            let before = best;
            if e.improved {
                best = e.measurement.value;
            }
            prop_assert!(best <= before);
        }
        prop_assert_eq!(best, out.best_value());
    }
}
