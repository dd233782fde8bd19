//! The benchmark's input corpora are pinned byte for byte.
//!
//! perfbench fits TPC-H at 5000 rows and draws from Tax at 2000 and BR2000
//! at 5000 rows, each generated from the run's seed. A change to the DP
//! machinery (noise or batch samplers) must leave these inputs untouched,
//! so a benchmark comparison across such a change compares fits of the
//! same data. Each entry is the FNV-1a hash and length of the corpus' CSV
//! (header and rows, as `write_csv` writes them).

use kamino_data::csv::write_csv;
use kamino_data::wire::fnv1a64;
use kamino_datasets::Corpus;

/// `(corpus, rows, seed)`, then the CSV's FNV-1a hash and byte length.
const PINS: &[(Corpus, usize, u64, u64, usize)] = &[
    (Corpus::TpcH, 5_000, 1, 0xf3c5a45adc4c7ba0, 233_108),
    (Corpus::TpcH, 5_000, 2, 0xba72fe31565e13ae, 234_016),
    (Corpus::TpcH, 5_000, 3, 0x5dd0df6c3370434e, 234_788),
    (Corpus::Tax, 2_000, 1, 0x670fd4fb86a57221, 95_080),
    (Corpus::Tax, 2_000, 2, 0x7d9f8e7291a761c4, 95_061),
    (Corpus::Tax, 2_000, 3, 0x324eac5c10424b4a, 95_232),
    (Corpus::Br2000, 5_000, 1, 0x2e86e48633a1edb9, 194_595),
    (Corpus::Br2000, 5_000, 2, 0x4e93abf27c97773c, 194_587),
    (Corpus::Br2000, 5_000, 3, 0x5d49f81b0c6bfe60, 194_520),
];

#[test]
fn benchmark_corpora_are_pinned() {
    let got: Vec<(u64, usize)> = PINS
        .iter()
        .map(|&(corpus, rows, seed, ..)| {
            let data = corpus.generate(rows, seed);
            let mut csv = Vec::new();
            write_csv(&data.schema, &data.instance, &mut csv).expect("corpus writes as CSV");
            (fnv1a64(&csv), csv.len())
        })
        .collect();
    let table: String = PINS
        .iter()
        .zip(&got)
        .map(|(&(corpus, rows, seed, ..), (hash, len))| {
            format!("    (Corpus::{corpus:?}, {rows}, {seed}, {hash:#018x}, {len}),\n")
        })
        .collect();
    for (&(corpus, rows, seed, hash, len), &got) in PINS.iter().zip(&got) {
        assert_eq!(
            got,
            (hash, len),
            "{corpus:?} n={rows} seed={seed} moved; today's table:\n{table}"
        );
    }
}
