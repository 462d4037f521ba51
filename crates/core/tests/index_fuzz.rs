//! Fixed-budget mutation test for the one `index.json` parser
//! ([`load_index`]), which `merge`, `diff` and `validate` all read
//! report directories through. Index files travel between machines in
//! a sharded run, so every input must either parse or fail with an
//! error naming the `index.json` it came from — never panic. Inputs
//! are seeded truncations, byte flips, splices and number swaps of the
//! committed `goldens/quick/index.json` and of a shard-stamped index;
//! 2000 of them run well under a second. The number swaps put counts
//! that are not whole numbers from 0 to 2^53 where the index has
//! counts: whatever the parser accepts, the writer must spell back as
//! the same value.

use compstat_core::json::Json;
use compstat_core::merge::{index_doc, load_index, parse_index, IndexEntry};
use compstat_runtime::Shard;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Mutated inputs per run.
const CASES: usize = 2000;

fn goldens() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../goldens/quick"))
}

/// The unmutated inputs: the golden index and a stamped index listing
/// shard 2 of 3's share of the same experiments.
fn seeds() -> Vec<Vec<u8>> {
    let golden = std::fs::read(goldens().join("index.json")).unwrap();
    let entries: Vec<IndexEntry> = load_index(goldens()).unwrap().entries;
    let shard = Shard::new(2, 3).unwrap();
    let mine: Vec<IndexEntry> = shard
        .indices(entries.len())
        .map(|i| entries[i].clone())
        .collect();
    let mut stamped = index_doc("quick", Some(shard), &mine).to_json_string();
    stamped.push('\n');
    vec![golden, stamped.into_bytes()]
}

/// Number spellings swapped in for a count: past 2^53, negative,
/// fractional, exponent forms, and the edges of the count range.
const NUMBERS: [&str; 9] = [
    "1e20",
    "-1",
    "2.5",
    "-0",
    "1e1",
    "0",
    "9007199254740992",
    "9007199254740993",
    "18446744073709551616",
];

/// One mutant of a random seed: a truncation, one to four byte flips,
/// a splice of two seeds at random cut points, or one run of digits
/// replaced by a spelling from [`NUMBERS`].
fn mutate(rng: &mut StdRng, seeds: &[Vec<u8>]) -> Vec<u8> {
    let base = &seeds[rng.gen_range(0..seeds.len())];
    match rng.gen_range(0..4) {
        0 => base[..rng.gen_range(0..base.len())].to_vec(),
        1 => {
            let mut bytes = base.clone();
            for _ in 0..rng.gen_range(1..=4) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = if rng.gen_bool(0.5) {
                    bytes[at] ^ (1 << rng.gen_range(0..8))
                } else {
                    rng.gen_range(0..=255u8)
                };
            }
            bytes
        }
        2 => {
            let other = &seeds[rng.gen_range(0..seeds.len())];
            let mut bytes = base[..rng.gen_range(0..=base.len())].to_vec();
            bytes.extend_from_slice(&other[rng.gen_range(0..=other.len())..]);
            bytes
        }
        _ => {
            let digits: Vec<usize> = (0..base.len())
                .filter(|&i| base[i].is_ascii_digit() && base[i - 1] == b':')
                .collect();
            let start = digits[rng.gen_range(0..digits.len())];
            let end = start
                + base[start..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
            let mut bytes = base[..start].to_vec();
            bytes.extend_from_slice(NUMBERS[rng.gen_range(0..NUMBERS.len())].as_bytes());
            bytes.extend_from_slice(&base[end..]);
            bytes
        }
    }
}

#[test]
fn mutated_indexes_parse_or_fail_naming_the_index() {
    let seeds = seeds();
    let dir = std::env::temp_dir().join(format!("compstat-index-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.json");

    let mut rng = StdRng::seed_from_u64(0x1DE5);
    let (mut parsed, mut rejected) = (0usize, 0usize);
    for case in 0..CASES {
        let bytes = mutate(&mut rng, &seeds);
        std::fs::write(&path, &bytes).unwrap();
        match std::panic::catch_unwind(|| load_index(&dir)) {
            Err(_) => panic!(
                "case {case}: panicked on\n{}",
                String::from_utf8_lossy(&bytes)
            ),
            Ok(Ok(index)) => {
                // What parses, the writer reproduces exactly: the same
                // counts, and text that reads back to the same index.
                let read = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
                let rewritten = index_doc(&index.scale, index.shard, &index.entries);
                for key in ["shard", "experiments"] {
                    assert_eq!(rewritten.get(key), read.get(key), "case {case}: {key}");
                }
                let text = rewritten.to_json_string();
                assert_eq!(
                    parse_index(&Json::parse(&text).unwrap()),
                    Ok(index),
                    "case {case}"
                );
                parsed += 1;
            }
            Ok(Err(e)) => {
                assert_eq!(e.path.as_deref(), Some(path.as_path()), "case {case}: {e}");
                rejected += 1;
            }
        }
    }
    // Both outcomes must be exercised, or the mutants are too tame (or
    // too wild) to test anything.
    assert!(
        parsed > CASES / 50,
        "only {parsed} of {CASES} mutants parsed"
    );
    assert!(
        rejected > CASES / 2,
        "only {rejected} of {CASES} mutants were rejected"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
