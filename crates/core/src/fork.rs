//! Engine forking: copy-on-write snapshots for MVCC maintenance.
//!
//! [`QueryEngine::fork`] produces a new engine over the *same* dictionary
//! whose maintained structures (ROOTPATHS, DATAPATHS and the long-value
//! relation) sit on copy-on-write forks of their buffer pools
//! ([`BufferPool::cow_fork`]): mutating the fork never changes what the
//! original engine reads, so the original can keep serving queries as
//! an immutable snapshot while maintenance runs against the fork. This
//! is the engine-level primitive behind `xtwig-service`'s
//! snapshot-isolated update path — readers pin an engine generation by
//! `Arc`, writers fork the newest generation, apply their update, and
//! publish the fork as the next generation.
//!
//! Cost model: a fork copies **no index pages** and allocates nothing
//! per frame of capacity. Each maintained structure gets a *warm*
//! pool — same page table, resident set and LRU order as its parent,
//! every frame pointing at the parent's page image — whose disk manager
//! overlays the sealed base image with `Arc`-shared pages; a page is
//! copied when the fork first writes it. The shells are reattached
//! over the forked pools from their own metadata, which allocates and
//! builds nothing. Everything else — the dictionary, the path
//! statistics and the never-mutated comparison structures (Edge,
//! DataGuide, Index Fabric, ASR, Join Indices) with their pools — is an
//! `Arc` the fork clones.
//!
//! A fork writes nothing back: a page the parent holds dirty joins the
//! fork's overlay by `Arc`, and the parent's frames and disk stay as
//! they were. So a fork never fails, and no reader's pin holds it up,
//! on whatever page: the one thing that refuses a pool's fork is a
//! writer holding a page latch, and the engine writes only in
//! `&mut self` methods, which cannot overlap a `&self` fork.

use crate::datapaths::DataPaths;
use crate::engine::QueryEngine;
use crate::persist::{ByteReader, ByteWriter, FormatError};
use crate::rootpaths::RootPaths;
use std::sync::Arc;
use xtwig_storage::BufferPool;

/// A copy-on-write fork of one of the engine's pools. It is never
/// refused: the engine writes its pools only in `&mut self` methods,
/// whose page guards are gone before a `&self` fork can begin, so no
/// writer holds a frame's latch (the only thing that refuses a
/// [`BufferPool::cow_fork`]).
pub(crate) fn fork_pool(pool: &BufferPool) -> Arc<BufferPool> {
    Arc::new(pool.cow_fork().expect("no writer holds an engine page while the engine is borrowed"))
}

/// Forks one maintainable structure onto a COW sibling of its pool and
/// reattaches its shell there via its persist-codec metadata — the same
/// zero-build reconstruction a catalog open performs.
fn fork_cow<T>(
    src: &Option<(T, Arc<BufferPool>)>,
    write: impl FnOnce(&T, &mut ByteWriter),
    open: impl FnOnce(&mut ByteReader<'_>, Arc<BufferPool>) -> Result<T, FormatError>,
) -> Option<(T, Arc<BufferPool>)> {
    let (index, pool) = src.as_ref()?;
    let forked = fork_pool(pool);
    let mut w = ByteWriter::new();
    write(index, &mut w);
    let bytes = w.finish();
    let index = open(&mut ByteReader::new(&bytes), forked.clone())
        .expect("in-memory metadata roundtrip cannot be malformed");
    Some((index, forked))
}

impl QueryEngine {
    /// Forks this engine into an independent copy-on-write sibling.
    ///
    /// The fork answers every query identically to `self` at fork time.
    /// Index maintenance on the fork ([`QueryEngine::apply`]) is
    /// invisible to `self`, whose page image is sealed by the fork —
    /// which is the point: `self` keeps serving concurrent readers as a
    /// frozen snapshot while the fork absorbs updates. Readers that pin
    /// pages of `self`, dirty ones included, never hold a fork up.
    pub fn fork(&self) -> Self {
        QueryEngine {
            dict: self.dict.clone(),
            rp: fork_cow(&self.rp, RootPaths::write_meta, RootPaths::open_meta),
            dp: fork_cow(&self.dp, DataPaths::write_meta, DataPaths::open_meta),
            long_values: self.long_values.fork(),
            sealed: self.sealed.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineOptions, Strategy};
    use crate::update::UpdateOp;
    use crate::xpath::parse_xpath;
    use xtwig_storage::PageId;
    use xtwig_xml::tree::fig1_book_document;
    use xtwig_xml::TagId;

    fn engine() -> QueryEngine {
        QueryEngine::build(
            Arc::new(fig1_book_document()),
            EngineOptions { pool_pages: 256, ..Default::default() },
        )
    }

    fn insert(tags: &[TagId], ids: &[u64], value: Option<&str>) -> UpdateOp {
        UpdateOp::InsertPath {
            tags: tags.to_vec(),
            ids: ids.to_vec(),
            value: value.map(Into::into),
        }
    }

    #[test]
    fn fork_answers_identically_across_all_strategies() {
        let base = engine();
        let fork = base.fork();
        // The five structures no maintenance writes are the parent's own.
        assert!(Arc::ptr_eq(&base.sealed, &fork.sealed));
        assert!(base.sealed.edge.is_some() && base.sealed.ji.is_some());
        for q in ["/book[title='XML']//author[fn='jane'][ln='doe']", "//author[fn='john']/ln"] {
            let twig = parse_xpath(q).unwrap();
            for s in Strategy::ALL {
                assert_eq!(base.answer(&twig, s).ids, fork.answer(&twig, s).ids, "{s}: {q}");
            }
        }
    }

    #[test]
    fn maintenance_on_the_fork_is_invisible_to_the_original() {
        let base = engine();
        let mut fork = base.fork();
        let tags: Vec<TagId> = ["book", "allauthors", "author", "fn"]
            .iter()
            .map(|t| base.dict().lookup(t).unwrap())
            .collect();
        fork.apply(&insert(&tags[..3], &[1, 5, 900], None)).unwrap();
        fork.apply(&insert(&tags, &[1, 5, 900, 901], Some("ada"))).unwrap();
        let twig = parse_xpath("//author[fn='ada']").unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            assert_eq!(
                fork.answer(&twig, s).ids.into_iter().collect::<Vec<_>>(),
                vec![900],
                "{s}: fork sees its own update"
            );
            assert!(base.answer(&twig, s).ids.is_empty(), "{s}: original is a sealed snapshot");
        }
        // The pre-existing data is still fully answerable on both.
        let jane = parse_xpath("//author[fn='jane']").unwrap();
        assert_eq!(base.answer(&jane, Strategy::RootPaths).ids.len(), 2);
        assert_eq!(fork.answer(&jane, Strategy::RootPaths).ids.len(), 2);
    }

    #[test]
    fn fork_chains_accumulate_updates_without_page_copies() {
        let base = engine();
        let tags: Vec<TagId> = ["book", "allauthors", "author", "fn"]
            .iter()
            .map(|t| base.dict().lookup(t).unwrap())
            .collect();
        let mut current = base.fork();
        for i in 0..5u64 {
            let mut next = current.fork();
            let id = 900 + 2 * i;
            next.apply(&insert(&tags[..3], &[1, 5, id], None)).unwrap();
            next.apply(&insert(&tags, &[1, 5, id, id + 1], Some(&format!("v{i}")))).unwrap();
            // Every earlier generation is frozen: generation i sees
            // values 0..i and nothing newer.
            let probe = parse_xpath(&format!("//author[fn='v{i}']")).unwrap();
            assert!(current.answer(&probe, Strategy::RootPaths).ids.is_empty());
            assert_eq!(next.answer(&probe, Strategy::RootPaths).ids.len(), 1);
            current = next;
        }
        for i in 0..5u64 {
            let probe = parse_xpath(&format!("//author[fn='v{i}']")).unwrap();
            assert_eq!(
                current.answer(&probe, Strategy::RootPaths).ids.into_iter().collect::<Vec<_>>(),
                vec![900 + 2 * i]
            );
        }
    }

    #[test]
    fn readers_pinning_every_page_a_commit_dirtied_never_hold_a_fork_up() {
        let base = engine();
        let tags: Vec<TagId> = ["book", "allauthors", "author", "fn"]
            .iter()
            .map(|t| base.dict().lookup(t).unwrap())
            .collect();
        let mut child = base.fork();
        child.apply(&insert(&tags[..3], &[1, 5, 900], None)).unwrap();
        child.apply(&insert(&tags, &[1, 5, 900, 901], Some("ada"))).unwrap();
        // Readers of the committed generation pin every page of its RP
        // and DP pools, the pages the commit left dirty among them.
        let pools =
            [child.rootpaths().unwrap().tree().pool(), child.datapaths().unwrap().tree().pool()];
        let held: Vec<_> = pools
            .iter()
            .flat_map(|pool| (0..pool.num_pages()).map(|p| pool.fetch(PageId(p))))
            .collect();
        let grandchild = child.fork();
        let twig = parse_xpath("//author[fn='ada']").unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths, Strategy::Auto] {
            let ids: Vec<u64> = grandchild.answer(&twig, s).ids.into_iter().collect();
            assert_eq!(ids, vec![900], "{s}: the grandchild answers the committed op");
        }
        drop(held);
    }
}
