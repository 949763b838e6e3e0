//! DBLP-like bibliography generator.
//!
//! DBLP is the paper's *shallow* dataset (depth ≤ 4, few distinct schema
//! paths): many small `inproceedings`/`article` documents under one
//! `dblp` root. The year skew reproduces Q1d–Q3d's selectivity sweep at
//! `scale = 1.0` (the paper's 50 MB snapshot):
//!
//! * `year = "1950"` → 1 record (Q1d, highly selective)
//! * `year = "1979"` → 1 647 records (Q2d)
//! * `year = "1998"` → 10 258 records (Q3d, unselective)
//!
//! Remaining years interpolate geometrically between those anchors.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use xtwig_xml::{NodeId, XmlForest};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct DblpConfig {
    /// Fraction of the paper's 50 MB profile.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        DblpConfig { scale: 0.05, seed: 0xD0B5 }
    }
}

/// Exact planted counts.
#[derive(Debug, Clone, Default)]
pub struct DblpProfile {
    /// Document root id.
    pub root: NodeId,
    /// Total `inproceedings` records.
    pub inproceedings: u64,
    /// Total `article` records.
    pub articles: u64,
    /// Records per year.
    pub per_year: BTreeMap<u32, u64>,
    /// Total element/attribute nodes generated.
    pub nodes: u64,
}

/// Paper-scale per-year record counts for `inproceedings`.
fn paper_year_count(year: u32) -> u64 {
    // Anchors from Fig. 7: (1950, 1), (1979, 1647), (1998, 10258).
    // Geometric interpolation/extrapolation between anchors.
    let anchors = [(1950u32, 1f64), (1979, 1_647.0), (1998, 10_258.0), (2002, 12_000.0)];
    if year <= anchors[0].0 {
        return anchors[0].1 as u64;
    }
    for w in anchors.windows(2) {
        let (y0, c0) = w[0];
        let (y1, c1) = w[1];
        if year <= y1 {
            let t = f64::from(year - y0) / f64::from(y1 - y0);
            return (c0 * (c1 / c0).powf(t)).round() as u64;
        }
    }
    anchors[3].1 as u64
}

/// Generates one DBLP-like document into `forest`.
pub fn generate_dblp(forest: &mut XmlForest, config: DblpConfig) -> DblpProfile {
    let s = config.scale;
    assert!(s > 0.0, "scale must be positive");
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut profile = DblpProfile::default();
    let before = forest.node_count() as u64;

    let mut b = forest.builder();
    let root = b.open("dblp");
    let mut key = 0u64;
    for year in 1950..=2002u32 {
        let count = if year == 1950 {
            // Exactly one at every scale (the Q1d singleton).
            1
        } else {
            ((paper_year_count(year) as f64) * s).round() as u64
        };
        if count == 0 {
            continue;
        }
        *profile.per_year.entry(year).or_insert(0) += count;
        let year_str = year.to_string();
        for _ in 0..count {
            // ~1 in 8 records is an article for schema-path variety.
            let is_article = key % 8 == 7;
            b.open(if is_article { "article" } else { "inproceedings" });
            b.attr("key", &format!("conf/xyz/{key}"));
            let n_authors = 1 + rng.gen_range(0..3);
            for a in 0..n_authors {
                b.leaf("author", &format!("Author {} {}", (key + a) % 997, a));
            }
            b.leaf("title", &format!("On the Matter of Topic {key}."));
            b.leaf("pages", &format!("{}-{}", key % 300 + 1, key % 300 + 12));
            b.leaf("year", &year_str);
            if is_article {
                b.leaf("journal", &format!("Journal of Things {}", key % 40));
                b.leaf("volume", &format!("{}", key % 90 + 1));
                profile.articles += 1;
            } else {
                b.leaf("booktitle", &format!("Conference {}", key % 60));
                if key.is_multiple_of(2) {
                    b.leaf("crossref", &format!("conf/xyz/{year}"));
                }
                profile.inproceedings += 1;
            }
            b.leaf("url", &format!("db/conf/xyz/{key}.html"));
            if key.is_multiple_of(3) {
                b.leaf("ee", &format!("https://doi.org/10.0000/{key}"));
            }
            b.close();
            key += 1;
        }
    }
    b.close(); // dblp
    b.finish();
    profile.root = root;
    profile.nodes = forest.node_count() as u64 - before;
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(scale: f64) -> (XmlForest, DblpProfile) {
        let mut f = XmlForest::new();
        let p = generate_dblp(&mut f, DblpConfig { scale, seed: 9 });
        (f, p)
    }

    #[test]
    fn year_anchors_match_fig7() {
        assert_eq!(paper_year_count(1950), 1);
        assert_eq!(paper_year_count(1979), 1_647);
        assert_eq!(paper_year_count(1998), 10_258);
    }

    #[test]
    fn singleton_year_survives_scaling() {
        let (_, p) = profile(0.02);
        assert_eq!(p.per_year[&1950], 1);
        assert!(p.per_year[&1998] > p.per_year[&1979]);
        let early = p.per_year.get(&1960).copied().unwrap_or(0);
        assert!(p.per_year[&1979] > early);
    }

    #[test]
    fn document_is_shallow() {
        let (f, _) = profile(0.01);
        assert!(f.max_depth() <= 4, "DBLP must stay shallow, got {}", f.max_depth());
    }

    #[test]
    fn per_year_counts_match_forest_scan() {
        let (f, p) = profile(0.01);
        let year = f.dict().lookup("year").unwrap();
        for (&y, &count) in &p.per_year {
            let scanned = f
                .iter_nodes()
                .filter(|&n| f.tag(n) == year && f.value_str(n) == Some(&y.to_string()))
                .count() as u64;
            assert_eq!(scanned, count, "year {y}");
        }
    }

    #[test]
    fn determinism() {
        let (f1, p1) = profile(0.01);
        let (f2, p2) = profile(0.01);
        assert_eq!(f1.node_count(), f2.node_count());
        assert_eq!(p1.per_year, p2.per_year);
    }

    #[test]
    fn has_both_record_kinds() {
        let (_, p) = profile(0.01);
        assert!(p.inproceedings > 0);
        assert!(p.articles > 0);
        assert!(p.inproceedings > p.articles);
    }
}
