//! Property tests for [`Shard`]: the round-robin assignment must be a
//! true partition — disjoint, complete, deterministic — for any shard
//! count, and the shard-aware subset maps must compute exactly the
//! bytes the unsharded sweep would, item for item, at any thread
//! count. These are the invariants `compstat run --shard K/N` stands
//! on: if any of them slips, merged shard outputs silently diverge
//! from an unsharded run.

use compstat_runtime::{Runtime, Shard};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random work-sweep shape: `n` items split `count` ways, run on
/// `threads` workers.
#[derive(Clone, Debug)]
struct Sweep {
    n: usize,
    count: usize,
    threads: usize,
}

struct ArbSweep;

impl Strategy for ArbSweep {
    type Value = Sweep;

    fn sample(&self, rng: &mut StdRng) -> Option<Sweep> {
        Some(Sweep {
            n: rng.gen_range(0usize..80),
            count: rng.gen_range(1usize..=16),
            threads: rng.gen_range(1usize..=8),
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Disjoint + complete + deterministic: every item index is owned
    // by exactly one shard, `indices` enumerates exactly the owned
    // set in increasing order (twice, identically), and `len_of`
    // agrees with the enumeration.
    #[test]
    fn shards_partition_any_item_range(s in ArbSweep) {
        let mut owners = vec![0usize; s.n];
        for k in 1..=s.count {
            let shard = match Shard::new(k, s.count) {
                Ok(shard) => shard,
                Err(e) => return Err(TestCaseError::fail(format!("Shard::new({k}, {}): {e}", s.count))),
            };
            let indices: Vec<usize> = shard.indices(s.n).collect();
            let again: Vec<usize> = shard.indices(s.n).collect();
            prop_assert_eq!(&indices, &again, "indices must be deterministic");
            prop_assert_eq!(indices.len(), shard.len_of(s.n));
            prop_assert!(indices.windows(2).all(|w| w[0] < w[1]), "increasing");
            for &i in &indices {
                prop_assert!(i < s.n);
                prop_assert!(shard.owns(i));
                owners[i] += 1;
            }
            // `owns` must agree with the enumeration exactly.
            for i in 0..s.n {
                prop_assert_eq!(shard.owns(i), indices.binary_search(&i).is_ok());
            }
        }
        prop_assert!(
            owners.iter().all(|&c| c == 1),
            "every item owned exactly once: {:?}", owners
        );
    }

    // `assemble` is the inverse of splitting: shattering any sweep
    // into per-shard parts and reassembling restores it exactly.
    #[test]
    fn assemble_inverts_the_partition(s in ArbSweep) {
        let whole: Vec<u64> = (0..s.n as u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let parts: Vec<Vec<u64>> = (1..=s.count)
            .map(|k| {
                Shard::new(k, s.count)
                    .unwrap()
                    .indices(s.n)
                    .map(|i| whole[i])
                    .collect()
            })
            .collect();
        match Shard::assemble(s.count, s.n, parts) {
            Ok(back) => prop_assert_eq!(back, whole),
            Err(e) => return Err(TestCaseError::fail(format!("assemble failed: {e}"))),
        }
    }

    // Work-item level: the subset map over each shard's indices
    // produces exactly the unsharded sweep's values for those items,
    // whatever the thread count — the contract that lets a shard
    // compute its slice of a big oracle sweep byte-identically.
    #[test]
    fn subset_maps_match_the_full_sweep_itemwise(s in ArbSweep) {
        let rt = Runtime::with_threads(s.threads);
        let full: Vec<u64> = rt.par_map_index(s.n, |i| (i as u64).wrapping_mul(0x517c_c1b7).rotate_left(13));
        for k in 1..=s.count {
            let shard = Shard::new(k, s.count).unwrap();
            let indices: Vec<usize> = shard.indices(s.n).collect();
            let got = rt.par_map_at(&indices, |i| (i as u64).wrapping_mul(0x517c_c1b7).rotate_left(13));
            let want: Vec<u64> = indices.iter().map(|&i| full[i]).collect();
            prop_assert_eq!(got, want, "shard {}/{} threads {}", k, s.count, s.threads);
        }
    }

    // Seeded work-item level: per-item split streams are keyed by the
    // *global* index, so any shard draws exactly the random bytes the
    // unsharded sweep would for its items.
    #[test]
    fn seeded_subset_maps_reuse_global_split_streams(s in ArbSweep, seed in proptest::num::u64::ANY) {
        let base = StdRng::seed_from_u64(seed);
        let rt = Runtime::with_threads(s.threads);
        let full: Vec<(u64, f64)> =
            rt.par_map_seeded(s.n, &base, |i, stream| (i as u64 ^ stream.gen::<u64>(), stream.gen::<f64>()));
        for k in 1..=s.count {
            let shard = Shard::new(k, s.count).unwrap();
            let indices: Vec<usize> = shard.indices(s.n).collect();
            let got = rt.par_map_at(&indices, |i| {
                let mut stream = base.split(i as u64);
                (i as u64 ^ stream.gen::<u64>(), stream.gen::<f64>())
            });
            let want: Vec<(u64, f64)> = indices.iter().map(|&i| full[i]).collect();
            prop_assert_eq!(got, want, "shard {}/{} threads {}", k, s.count, s.threads);
        }
    }

    // Parse round trip: every valid shard renders as K/N and parses
    // back to itself.
    #[test]
    fn display_parse_round_trips(s in ArbSweep) {
        for k in 1..=s.count {
            let shard = Shard::new(k, s.count).unwrap();
            match Shard::parse(&shard.to_string()) {
                Ok(back) => prop_assert_eq!(back, shard),
                Err(e) => return Err(TestCaseError::fail(format!("reparse failed: {e}"))),
            }
        }
    }
}
