//! Seeded input generator.
//!
//! Every workload's input is a list of Imprint-shaped hit rows (`id`,
//! `hitRatio`, `massCoverage`, `peptidesCount`). A row's evidence is a pure
//! function of `(seed, item number)`, so an id resubmitted in a later serve
//! request carries exactly the evidence it carried the first time, and one
//! seed always reproduces the same inputs. The engine only ever sees the
//! generated rows, as a [`DataSet`] or as the TSV body `POST /run` takes.

use qurator::prelude::*;
use qurator_rdf::term::Term;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Share of a serve request's rows that resubmit an id from an earlier
/// request (the rest are fresh ids).
pub const RESUBMIT_SHARE: f64 = 0.25;

/// One hit row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub n: u64,
    pub hit_ratio: f64,
    pub mass_coverage: f64,
    pub peptides: f64,
}

impl Row {
    /// The item IRI.
    pub fn id(&self) -> String {
        format!("urn:lsid:qvbench:hit:H{:08}", self.n)
    }
}

/// SplitMix64 finaliser: a stateless 64-bit mix.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A uniform value in `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The generator for one seed.
#[derive(Debug, Clone, Copy)]
pub struct Gen {
    seed: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen { seed }
    }

    /// The row of item number `n`: a latent quality drives all three
    /// evidence values, with independent jitter on each.
    pub fn row(&self, n: u64) -> Row {
        let h = mix(self.seed ^ mix(n));
        let (h2, h3) = (mix(h), mix(h ^ 0x5151));
        let quality = unit(h);
        Row {
            n,
            hit_ratio: (0.05 + 0.9 * quality + 0.1 * (unit(h2) - 0.5)).clamp(0.0, 1.0),
            mass_coverage: 50.0 * quality + 5.0 * unit(h3),
            peptides: (1.0 + 14.0 * quality).floor(),
        }
    }

    pub fn rows(&self, numbers: impl IntoIterator<Item = u64>) -> Vec<Row> {
        numbers.into_iter().map(|n| self.row(n)).collect()
    }

    /// Item numbers of `requests` serve requests of `per_request` rows:
    /// about [`RESUBMIT_SHARE`] of each request's rows repeat an id sent
    /// in an earlier request, the rest are fresh. No id repeats within one
    /// request.
    pub fn serve_requests(&self, requests: usize, per_request: usize) -> Vec<Vec<u64>> {
        let mut fresh = 0u64;
        let mut out = Vec::with_capacity(requests);
        for k in 0..requests as u64 {
            let mut seen = HashSet::with_capacity(per_request);
            let mut ids = Vec::with_capacity(per_request);
            for slot in 0..per_request as u64 {
                let h = mix(self.seed ^ mix((k << 20) | slot) ^ 0xa5a5);
                let old = if fresh > 0 && unit(h) < RESUBMIT_SHARE {
                    Some(mix(h) % fresh).filter(|n| !seen.contains(n))
                } else {
                    None
                };
                let n = old.unwrap_or_else(|| {
                    fresh += 1;
                    fresh - 1
                });
                seen.insert(n);
                ids.push(n);
            }
            out.push(ids);
        }
        out
    }
}

/// The rows as an engine input.
pub fn dataset(rows: &[Row]) -> DataSet {
    let mut dataset = DataSet::new();
    for row in rows {
        dataset.push(
            Term::iri(row.id()),
            [
                ("hitRatio", EvidenceValue::Number(row.hit_ratio)),
                ("massCoverage", EvidenceValue::Number(row.mass_coverage)),
                ("peptidesCount", EvidenceValue::Number(row.peptides)),
            ],
        );
    }
    dataset
}

/// The rows as the TSV body `POST /run/<view>` accepts. Floats print in
/// their shortest round-trip form, so the server parses back the exact
/// values [`dataset`] holds.
pub fn tsv(rows: &[Row]) -> String {
    let mut out = String::from("id\thitRatio\tmassCoverage\tpeptidesCount\n");
    for row in rows {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}",
            row.id(),
            row.hit_ratio,
            row.mass_coverage,
            row.peptides
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_reproduces_identical_inputs() {
        let (a, b) = (Gen::new(7), Gen::new(7));
        assert_eq!(tsv(&a.rows(0..500)), tsv(&b.rows(0..500)));
        assert_eq!(a.serve_requests(40, 200), b.serve_requests(40, 200));
        assert_eq!(dataset(&a.rows(0..50)).items(), dataset(&b.rows(0..50)).items());
    }

    #[test]
    fn two_seeds_differ() {
        let (a, b) = (Gen::new(1), Gen::new(2));
        assert_ne!(tsv(&a.rows(0..500)), tsv(&b.rows(0..500)));
        assert_ne!(a.serve_requests(40, 200), b.serve_requests(40, 200));
    }

    #[test]
    fn resubmitted_ids_carry_identical_evidence() {
        let gen = Gen::new(3);
        let requests = gen.serve_requests(100, 200);
        let mut first_seen = std::collections::HashMap::new();
        let mut resubmitted = 0usize;
        for (k, ids) in requests.iter().enumerate() {
            assert_eq!(ids.iter().collect::<HashSet<_>>().len(), ids.len(), "duplicate in {k}");
            for &n in ids {
                let row = Gen::new(3).row(n);
                if let Some(earlier) = first_seen.insert(n, row) {
                    assert_eq!(earlier, row);
                    resubmitted += 1;
                }
            }
        }
        let share = resubmitted as f64 / (100.0 * 200.0);
        assert!((0.2..0.3).contains(&share), "resubmitted share {share}");
    }

    #[test]
    fn tsv_round_trips_the_floats() {
        let rows = Gen::new(11).rows(0..100);
        for (row, line) in rows.iter().zip(tsv(&rows).lines().skip(1)) {
            let cells: Vec<&str> = line.split('\t').collect();
            assert_eq!(cells[0], row.id());
            assert_eq!(cells[1].parse::<f64>().unwrap(), row.hit_ratio);
            assert_eq!(cells[2].parse::<f64>().unwrap(), row.mass_coverage);
            assert_eq!(cells[3].parse::<f64>().unwrap(), row.peptides);
        }
    }
}
