//! Cardinality estimation over collected path statistics.
//!
//! The estimator consumes the same statistics the paper's §5.1.1 setup
//! collects in DB2: instance counts per root-anchored schema path (which
//! is exactly the DataGuide's path catalog, annotated with counts) and
//! per-tag totals. Core's `PathStats` implements [`CardinalitySource`];
//! the trait keeps this crate below `xtwig-core` in the dependency graph
//! so the engine itself can consult the optimizer. A bound predicate's
//! selectivity is not a statistic: the caller counts the literal's
//! instances in an index that holds them and passes the count in
//! (`xtwig-core`'s `QueryEngine::value_instances`).

use xtwig_xml::TagId;

/// Statistics interface the estimator and cost model read.
///
/// All counts are instance counts (not distinct-value counts). The
/// default implementations derive the aggregate queries from the
/// primitive ones where possible.
pub trait CardinalitySource {
    /// Instances of the exact root-anchored schema path `tags`.
    fn path_instances(&self, tags: &[TagId]) -> u64;

    /// Instances summed over every distinct root path that *ends with*
    /// `tags` — the `//`-headed pattern count.
    fn suffix_instances(&self, tags: &[TagId]) -> u64;

    /// Distinct stored schema paths matching the pattern: 1/0 for an
    /// anchored pattern, the number of paths ending with `tags`
    /// otherwise. Drives the per-table probe counts of ASR and Join
    /// Indices (one table pair per matching path expression).
    fn matching_path_count(&self, tags: &[TagId], anchored: bool) -> u64;

    /// Instances of nodes with `tag`.
    fn tag_instances(&self, tag: TagId) -> u64;

    /// Total element/attribute nodes.
    fn node_count(&self) -> u64;

    /// Mean root-path depth over all nodes — the expected backward-link
    /// walk length when a strategy has to recover ancestors it did not
    /// store.
    fn mean_depth(&self) -> f64;
}

/// Estimated matches of a PCsubpath pattern: the structural count
/// (exact path when anchored, suffix sum otherwise) capped by
/// `literal_instances`, the instances of the leaf tag with the bound
/// value, when the pattern carries one. Mirrors the engine's planner
/// estimate so ranking and step ordering agree.
pub fn pattern_matches<S: CardinalitySource + ?Sized>(
    stats: &S,
    tags: &[TagId],
    anchored: bool,
    literal_instances: Option<u64>,
) -> u64 {
    let structural =
        if anchored { stats.path_instances(tags) } else { stats.suffix_instances(tags) };
    literal_instances.map_or(structural, |count| structural.min(count))
}

/// Leaf candidates an Edge-family evaluation starts from: one value
/// probe (bound pattern, `literal_instances`) or a full tag scan
/// (structural pattern).
pub fn leaf_candidates<S: CardinalitySource + ?Sized>(
    stats: &S,
    tags: &[TagId],
    literal_instances: Option<u64>,
) -> u64 {
    let last = *tags.last().expect("empty pattern");
    literal_instances.unwrap_or_else(|| stats.tag_instances(last))
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use std::collections::HashMap;

    /// A hand-filled statistics table for cost-model unit tests.
    #[derive(Default)]
    pub struct TableStats {
        pub paths: HashMap<Vec<TagId>, u64>,
        pub depth: f64,
    }

    impl TableStats {
        pub fn path(mut self, tags: &[u32], count: u64) -> Self {
            self.paths.insert(tags.iter().map(|&t| TagId(t)).collect(), count);
            self
        }
    }

    impl CardinalitySource for TableStats {
        fn path_instances(&self, tags: &[TagId]) -> u64 {
            self.paths.get(tags).copied().unwrap_or(0)
        }

        fn suffix_instances(&self, tags: &[TagId]) -> u64 {
            self.paths.iter().filter(|(p, _)| p.ends_with(tags)).map(|(_, &c)| c).sum()
        }

        fn matching_path_count(&self, tags: &[TagId], anchored: bool) -> u64 {
            if anchored {
                u64::from(self.paths.contains_key(tags))
            } else {
                self.paths.keys().filter(|p| p.ends_with(tags)).count() as u64
            }
        }

        fn tag_instances(&self, tag: TagId) -> u64 {
            self.paths.iter().filter(|(p, _)| p.last() == Some(&tag)).map(|(_, &c)| c).sum()
        }

        fn node_count(&self) -> u64 {
            self.paths.values().sum()
        }

        fn mean_depth(&self) -> f64 {
            if self.depth > 0.0 {
                self.depth
            } else {
                let (mut weighted, mut total) = (0u64, 0u64);
                for (p, &c) in &self.paths {
                    weighted += p.len() as u64 * c;
                    total += c;
                }
                if total == 0 {
                    1.0
                } else {
                    weighted as f64 / total as f64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::TableStats;
    use super::*;

    fn stats() -> TableStats {
        // /a(1)/b(2)/c(3): 10 instances of a/b/c, 4 of x/b/c, 100 of a.
        TableStats::default()
            .path(&[1], 100)
            .path(&[1, 2], 40)
            .path(&[1, 2, 3], 10)
            .path(&[9, 2, 3], 4)
    }

    #[test]
    fn anchored_vs_suffix_counts() {
        let s = stats();
        let abc = [TagId(1), TagId(2), TagId(3)];
        let bc = [TagId(2), TagId(3)];
        assert_eq!(pattern_matches(&s, &abc, true, None), 10);
        assert_eq!(pattern_matches(&s, &bc, false, None), 14);
        assert_eq!(s.matching_path_count(&bc, false), 2);
        assert_eq!(s.matching_path_count(&abc, true), 1);
    }

    #[test]
    fn a_literal_caps_the_structural_count() {
        let s = stats();
        let bc = [TagId(2), TagId(3)];
        assert_eq!(pattern_matches(&s, &bc, false, Some(1)), 1);
        assert_eq!(pattern_matches(&s, &bc, false, Some(12)), 12);
        assert_eq!(pattern_matches(&s, &bc, false, Some(0)), 0);
        // More instances of the literal than the pattern has matches.
        assert_eq!(pattern_matches(&s, &bc, false, Some(20)), 14);
        assert_eq!(leaf_candidates(&s, &bc, Some(12)), 12);
        assert_eq!(leaf_candidates(&s, &bc, None), 14);
    }
}
