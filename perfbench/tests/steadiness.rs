//! Steadiness self-test: every workload at a toy size repeats its
//! simulated outcome exactly for one seed (traced or not) and moves it
//! for another seed.

use totoro_perfbench::report::Iteration;
use totoro_perfbench::trace::Tracer;
use totoro_perfbench::Workload;

fn run(w: Workload, seed: u64, traced: bool) -> Iteration {
    w.iterate(seed, true, &mut Tracer::new(traced))
}

#[test]
fn one_seed_repeats_counters_digest_and_modelled_metrics() {
    for w in Workload::ALL {
        let a = run(w, 11, false);
        let b = run(w, 11, false);
        let traced = run(w, 11, true);
        assert_eq!(a.problem, None, "{} fails its checks", w.name());
        assert!(a.attempted > 0, "{} attempted nothing", w.name());
        let keys: Vec<&str> = a.layers.keys().copied().collect();
        assert!(!keys.is_empty());
        assert_eq!(
            a.fingerprint(&keys),
            b.fingerprint(&keys),
            "{} rerun",
            w.name()
        );
        assert_eq!(
            a.fingerprint(&keys),
            traced.fingerprint(&keys),
            "{} traced",
            w.name()
        );
        assert!(
            traced.layers.len() > a.layers.len(),
            "{} traced adds layers",
            w.name()
        );
    }
}

#[test]
fn different_seeds_give_different_digests() {
    for w in Workload::ALL {
        assert_ne!(
            run(w, 11, false).digest,
            run(w, 12, false).digest,
            "{}",
            w.name()
        );
    }
}

/// The measured size on a seed never used while the benchmark was tuned.
/// Slow in a debug build: `cargo test --release -- --ignored`.
#[test]
#[ignore]
fn held_out_seed_passes_every_check_at_full_size() {
    for w in Workload::ALL {
        let it = w.iterate(1_000_003, false, &mut Tracer::new(false));
        assert_eq!(it.problem, None, "{}", w.name());
        assert_eq!(it.failed, 0, "{}", w.name());
    }
}
