//! Engine forking: copy-on-write snapshots for MVCC maintenance.
//!
//! [`QueryEngine::fork`] produces a new engine over the *same* forest
//! whose maintainable structures (ROOTPATHS, DATAPATHS) sit on
//! copy-on-write forks of their buffer pools
//! ([`BufferPool::cow_fork`]): mutating the fork never changes what the
//! original engine reads, so the original can keep serving queries as
//! an immutable snapshot while maintenance runs against the fork. This
//! is the engine-level primitive behind `xtwig-service`'s
//! snapshot-isolated update path — readers pin an engine generation by
//! `Arc`, writers fork the newest generation, apply their update, and
//! publish the fork as the next generation.
//!
//! Cost model: a fork copies **no index pages** and allocates nothing
//! per frame of capacity. Each maintainable structure gets a *warm*
//! pool — same page table, resident set and LRU order as its parent,
//! every frame pointing at the parent's page image — whose disk manager
//! overlays the sealed base image with `Arc`-shared pages; a page is
//! copied when the fork first writes it. The two shells are reattached
//! over the forked pools from their own metadata via the
//! [`crate::persist`] codec, which allocates and builds nothing.
//! Everything else — the path statistics and the never-mutated
//! comparison structures (Edge, DataGuide, Index Fabric, ASR, Join
//! Indices) with their pools — is one `Arc` the fork clones.

use crate::datapaths::DataPaths;
use crate::engine::QueryEngine;
use crate::persist::{ByteReader, ByteWriter, FormatError};
use crate::rootpaths::RootPaths;
use std::fmt;
use std::sync::Arc;
use xtwig_storage::BufferPool;

/// Why a fork was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForkError {
    /// A maintainable structure's pool held dirty pages pinned by an
    /// outstanding write guard: the image could be torn mid-write, so
    /// the fork must wait for that writer. Readers pinning clean pages
    /// never trigger this, but a reader holding a page a concurrent
    /// writer just dirtied can, transiently — retry once guards drop.
    PinnedPages {
        /// The structure whose pool was mid-write.
        structure: &'static str,
        /// Dirty pages the flush had to skip.
        skipped: usize,
    },
}

impl fmt::Display for ForkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForkError::PinnedPages { structure, skipped } => write!(
                f,
                "cannot fork while {structure} has {skipped} pinned dirty page(s) \
                 (concurrent writer?)"
            ),
        }
    }
}

impl std::error::Error for ForkError {}

/// Forks one maintainable structure onto a COW sibling of its pool and
/// reattaches its shell there via its persist-codec metadata — the same
/// zero-build reconstruction a catalog open performs.
fn fork_cow<T>(
    src: &Option<(T, Arc<BufferPool>)>,
    structure: &'static str,
    write: impl FnOnce(&T, &mut ByteWriter),
    open: impl FnOnce(&mut ByteReader<'_>, Arc<BufferPool>) -> Result<T, FormatError>,
) -> Result<Option<(T, Arc<BufferPool>)>, ForkError> {
    let Some((index, pool)) = src else {
        return Ok(None);
    };
    let forked =
        Arc::new(pool.cow_fork().map_err(|skipped| ForkError::PinnedPages { structure, skipped })?);
    let mut w = ByteWriter::new();
    write(index, &mut w);
    let bytes = w.finish();
    let index = open(&mut ByteReader::new(&bytes), forked.clone())
        .expect("in-memory metadata roundtrip cannot be malformed");
    Ok(Some((index, forked)))
}

impl QueryEngine {
    /// Forks this engine into an independent copy-on-write sibling.
    ///
    /// The fork answers every query identically to `self` at fork time.
    /// Index maintenance on the fork ([`QueryEngine::rootpaths_mut`] /
    /// [`QueryEngine::datapaths_mut`]) is invisible to `self`, whose
    /// page image is sealed by the fork — which is the point: `self`
    /// keeps serving concurrent readers as a frozen snapshot while the
    /// fork absorbs updates.
    ///
    /// Errs with [`ForkError::PinnedPages`] while a concurrent writer
    /// holds a dirty page guard in ROOTPATHS or DATAPATHS (the only
    /// structures written after build); callers that serialize writers
    /// — as `xtwig-service` does with its maintenance lock — only see
    /// this transiently when a *reader* still pins a freshly dirtied
    /// page, and retry.
    pub fn fork(&self) -> Result<Self, ForkError> {
        Ok(QueryEngine {
            forest: self.forest.clone(),
            rp: fork_cow(&self.rp, "ROOTPATHS", RootPaths::write_meta, RootPaths::open_meta)?,
            dp: fork_cow(&self.dp, "DATAPATHS", DataPaths::write_meta, DataPaths::open_meta)?,
            sealed: self.sealed.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineOptions, Strategy};
    use crate::xpath::parse_xpath;
    use xtwig_xml::tree::fig1_book_document;
    use xtwig_xml::TagId;

    fn engine() -> QueryEngine {
        QueryEngine::build(
            Arc::new(fig1_book_document()),
            EngineOptions { pool_pages: 256, ..Default::default() },
        )
    }

    #[test]
    fn fork_answers_identically_across_all_strategies() {
        let base = engine();
        let fork = base.fork().unwrap();
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
        let mut fork = base.fork().unwrap();
        let tags: Vec<TagId> = ["book", "allauthors", "author", "fn"]
            .iter()
            .map(|t| base.forest().dict().lookup(t).unwrap())
            .collect();
        let rp = fork.rootpaths_mut().unwrap();
        rp.insert_path(&tags[..3], &[1, 5, 900], None);
        rp.insert_path(&tags, &[1, 5, 900, 901], Some("ada"));
        let dp = fork.datapaths_mut().unwrap();
        dp.insert_path(&tags[..3], &[1, 5, 900], None);
        dp.insert_path(&tags, &[1, 5, 900, 901], Some("ada"));
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
            .map(|t| base.forest().dict().lookup(t).unwrap())
            .collect();
        let mut current = base.fork().unwrap();
        for i in 0..5u64 {
            let mut next = current.fork().unwrap();
            let id = 900 + 2 * i;
            let rp = next.rootpaths_mut().unwrap();
            rp.insert_path(&tags[..3], &[1, 5, id], None);
            rp.insert_path(&tags, &[1, 5, id, id + 1], Some(&format!("v{i}")));
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
    fn fork_is_refused_while_a_writer_holds_pages() {
        let base = engine();
        let pool = base.rp.as_ref().unwrap().1.clone();
        let (_pid, guard) = pool.allocate(); // an in-flight writer
        match base.fork() {
            Err(ForkError::PinnedPages { structure, skipped }) => {
                assert_eq!(structure, "ROOTPATHS");
                assert!(skipped >= 1);
            }
            Ok(_) => panic!("fork must refuse a torn image"),
        }
        drop(guard);
        assert!(base.fork().is_ok());
    }
}
