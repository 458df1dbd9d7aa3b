//! Property-based tests of the sequence algebra, the streaming expansion
//! and the hardware model, over seeded random sequences (the offline
//! environment has no proptest; a deterministic sample loop plays its
//! role).

use bist_expand::expansion::{CustomExpansion, Expand, ExpansionConfig};
use bist_expand::hardware::OnChipExpander;
use bist_expand::{TestSequence, TestVector, VectorSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 96;

/// A random test sequence with 1..=12 vectors of width 1..=20.
fn random_sequence(rng: &mut StdRng) -> TestSequence {
    let width = rng.gen_range(1usize..=20);
    let len = rng.gen_range(1usize..=12);
    TestSequence::from_vectors(
        (0..len).map(|_| TestVector::from_fn(width, |_| rng.gen_bool(0.5))).collect(),
    )
    .expect("nonempty, uniform width")
}

fn for_each_case(mut f: impl FnMut(&mut StdRng, TestSequence)) {
    let mut rng = StdRng::seed_from_u64(0x5eed_ca5e);
    for _ in 0..CASES {
        let s = random_sequence(&mut rng);
        f(&mut rng, s);
    }
}

#[test]
fn expansion_length_is_8nl() {
    for_each_case(|rng, s| {
        let n = rng.gen_range(1usize..=6);
        let cfg = ExpansionConfig::new(n).unwrap();
        assert_eq!(cfg.expand(&s).len(), 8 * n * s.len());
    });
}

#[test]
fn expansion_starts_with_s() {
    // Sexp begins with S itself — the property Procedure 2's
    // termination argument relies on.
    for_each_case(|rng, s| {
        let n = rng.gen_range(1usize..=4);
        let cfg = ExpansionConfig::new(n).unwrap();
        let sexp = cfg.expand(&s);
        for (i, v) in s.iter().enumerate() {
            assert_eq!(&sexp[i], v);
        }
    });
}

#[test]
fn expansion_is_palindromic() {
    for_each_case(|rng, s| {
        let n = rng.gen_range(1usize..=4);
        let cfg = ExpansionConfig::new(n).unwrap();
        let sexp = cfg.expand(&s);
        assert_eq!(sexp.reversed(), sexp);
    });
}

#[test]
fn phases_equal_reference() {
    for_each_case(|rng, s| {
        let n = rng.gen_range(1usize..=4);
        let cfg = ExpansionConfig::new(n).unwrap();
        assert_eq!(cfg.expand_by_phases(&s), cfg.expand(&s));
    });
}

/// The tentpole equivalence, for every paper `n`: the lazy streaming
/// iterator, the materialized software reference and the cycle-accurate
/// hardware model produce the identical `Sexp`, vector for vector.
#[test]
fn streaming_equals_materialized_equals_hardware_for_paper_ns() {
    let mut rng = StdRng::seed_from_u64(1999);
    for _ in 0..CASES {
        let s = random_sequence(&mut rng);
        for n in [2usize, 4, 8, 16] {
            let cfg = ExpansionConfig::new(n).unwrap();
            let materialized = cfg.expand(&s);

            // Iterator view.
            let streamed = TestSequence::from_vectors(cfg.stream(&s).collect()).unwrap();
            assert_eq!(streamed, materialized, "iterator view, n={n}");

            // Replayable visit view (what the simulators consume).
            let mut visited = Vec::new();
            cfg.stream(&s).visit(&mut |t, v| {
                assert_eq!(t, visited.len());
                visited.push(v.clone());
                true
            });
            assert_eq!(
                TestSequence::from_vectors(visited).unwrap(),
                materialized,
                "visit view, n={n}"
            );

            // Hardware model, clock for clock.
            let mut hw = OnChipExpander::new(s.len(), s.width(), cfg);
            hw.load(&s).unwrap();
            let mut stream = cfg.stream(&s);
            let mut clocks = 0usize;
            while let Some(hw_vector) = hw.clock() {
                assert_eq!(Some(hw_vector), stream.next(), "clock {clocks} diverges, n={n}");
                clocks += 1;
            }
            assert!(stream.next().is_none(), "stream longer than hardware, n={n}");
            assert_eq!(clocks, 8 * n * s.len());
        }
    }
}

#[test]
fn custom_recipes_stream_like_they_expand() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..CASES {
        let s = random_sequence(&mut rng);
        let recipe = CustomExpansion::new(rng.gen_range(1usize..=4))
            .unwrap()
            .complement(rng.gen_bool(0.5))
            .shift(rng.gen_bool(0.5))
            .reverse(rng.gen_bool(0.5));
        let streamed = TestSequence::from_vectors(recipe.stream(&s).collect()).unwrap();
        assert_eq!(streamed, Expand::expand(&recipe, &s), "{}", recipe.describe());
        assert_eq!(
            recipe.stream(&s).num_vectors(),
            recipe.length_factor() * s.len(),
            "{}",
            recipe.describe()
        );
    }
}

/// The contract simulators fast-forward by, on one source: `vector_into(t)`
/// is `visit`'s vector at `t` for every `t`, so a simulator may resume the
/// stream anywhere; the declared walks cover the stream, and every
/// repetition of a walk yields the vectors of the run's first walk.
fn check_stream_contract(source: &dyn VectorSource, what: &str) {
    let mut all = Vec::new();
    source.visit(&mut |t, v| {
        assert_eq!(t, all.len(), "{what}: visit times");
        all.push(v.clone());
        true
    });
    assert_eq!(all.len(), source.num_vectors(), "{what}: visit length");
    let mut out = TestVector::zeros(1);
    for (t, v) in all.iter().enumerate() {
        source.vector_into(t, &mut out);
        assert_eq!(&out, v, "{what}: vector_into({t})");
    }

    let walks = source.walks();
    assert_eq!(walks.iter().map(|w| w.len * w.reps).sum::<usize>(), all.len(), "{what}: walks");
    let mut start = 0;
    for w in &walks {
        for rep in 1..w.reps {
            for i in 0..w.len {
                assert_eq!(
                    all[start + rep * w.len + i],
                    all[start + i],
                    "{what}: walk {rep} of a {}×{} run at {start} differs at offset {i}",
                    w.reps,
                    w.len
                );
            }
        }
        start += w.len * w.reps;
    }
}

#[test]
fn streams_resume_anywhere_and_repeat_their_walks() {
    let mut rng = StdRng::seed_from_u64(0x3a1c);
    for _ in 0..24 {
        let s = random_sequence(&mut rng);
        check_stream_contract(&s, "stored sequence");
        for n in [1usize, 2, 3] {
            let cfg = ExpansionConfig::new(n).unwrap();
            check_stream_contract(&cfg.stream(&s), &format!("n={n}"));
            let from = rng.gen_range(0..s.len());
            let to = rng.gen_range(from..s.len());
            check_stream_contract(&cfg.stream(&s).window(from, to), &format!("n={n} window"));
            let u = rng.gen_range(0..s.len());
            check_stream_contract(&cfg.stream(&s).without(u), &format!("n={n} without {u}"));
        }
        let recipe = CustomExpansion::new(rng.gen_range(1usize..=3))
            .unwrap()
            .complement(rng.gen_bool(0.5))
            .shift(rng.gen_bool(0.5))
            .reverse(rng.gen_bool(0.5));
        check_stream_contract(&recipe.stream(&s), &recipe.describe());
    }
    // The paper's larger `n`: the walks and a sample of resume points.
    let s = random_sequence(&mut rng);
    for n in [8usize, 16] {
        let stream = ExpansionConfig::new(n).unwrap().stream(&s);
        let walks = stream.walks();
        assert_eq!(walks.len(), 8, "eight phases");
        assert!(walks.iter().all(|w| w.len == s.len() && w.reps == n));
        let all = stream.materialize();
        let mut out = TestVector::zeros(1);
        for t in [0, 1, s.len(), n * s.len() + 1, all.len() - 1] {
            stream.vector_into(t, &mut out);
            assert_eq!(out, all[t], "n={n} at {t}");
        }
    }
}

#[test]
fn hardware_equals_software() {
    for_each_case(|rng, s| {
        let n = rng.gen_range(1usize..=4);
        let cfg = ExpansionConfig::new(n).unwrap();
        let mut hw = OnChipExpander::new(s.len(), s.width(), cfg);
        hw.load(&s).unwrap();
        assert_eq!(hw.run().unwrap(), cfg.expand(&s));
    });
}

#[test]
fn complement_is_involution() {
    for_each_case(|_, s| {
        assert_eq!(s.complemented().complemented(), s);
    });
}

#[test]
fn reverse_is_involution() {
    for_each_case(|_, s| {
        assert_eq!(s.reversed().reversed(), s);
    });
}

#[test]
fn shift_has_period_width() {
    for_each_case(|_, s| {
        let w = s.width();
        assert_eq!(s.shifted(w), s);
        assert_eq!(s.shifted(1).shifted(w - 1), s);
    });
}

#[test]
fn shift_commutes_with_complement() {
    for_each_case(|rng, s| {
        let k = rng.gen_range(0usize..8);
        assert_eq!(s.shifted(k).complemented(), s.complemented().shifted(k));
    });
}

#[test]
fn repetition_multiplies_length() {
    for_each_case(|rng, s| {
        let n = rng.gen_range(1usize..=5);
        let r = s.repeated(n).unwrap();
        assert_eq!(r.len(), n * s.len());
        // Every copy equals the original.
        for copy in 0..n {
            for u in 0..s.len() {
                assert_eq!(&r[copy * s.len() + u], &s[u]);
            }
        }
    });
}

#[test]
fn display_parse_round_trip() {
    for_each_case(|_, s| {
        let text = s.to_string();
        let back: TestSequence = text.parse().unwrap();
        assert_eq!(back, s);
    });
}

#[test]
fn storage_bits_consistent() {
    for_each_case(|_, s| {
        assert_eq!(s.storage_bits(), s.len() * s.width());
    });
}
