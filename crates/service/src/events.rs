//! Structured event journal for the serving layer.
//!
//! A bounded, sequence-numbered ring of typed events emitted from the
//! service, admission, catalog, and MVCC paths. Consumers (the `Events`
//! wire opcode, `xtwig top`, the metrics renderer) read the journal by
//! cursor: `since(after, max)` returns entries with `seq > after`, so a
//! client can tail the journal without the server tracking per-client
//! state. When the ring is full the oldest entry is dropped and a
//! `dropped` counter records the loss — a follower that sees a gap in
//! `seq` knows it fell behind.
//!
//! Emission cost is one short mutex hold (push + counter bump); with
//! sampling off, the serving hot path (`answer_one`) emits nothing, so
//! journal overhead stays out of query latency entirely.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Every kind string the journal can emit, in a stable order. Shared
/// with the metrics renderer so `xtwig_events_total{kind=...}` exposes
/// a complete (zero-initialised) family rather than only kinds that
/// happened to fire.
pub const EVENT_KINDS: &[&str] = &[
    "conn-open",
    "conn-close",
    "admission-rejected",
    "catalog-attached",
    "catalog-evicted",
    "update-committed",
    "rebuild-swapped",
    "persist-folded",
    "slow-query",
    "server-error",
];

/// One typed serving-layer event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A client connection was accepted.
    ConnOpen { peer: String },
    /// A client connection ended, with its lifetime accounting.
    ConnClose {
        peer: String,
        frames_in: u64,
        frames_out: u64,
        bytes_in: u64,
        bytes_out: u64,
        errors: u64,
    },
    /// Admission control turned a request away at the door.
    AdmissionRejected { in_flight: u64, limit: u64 },
    /// The catalog opened (attached) a persisted index.
    CatalogAttached { name: String },
    /// The catalog evicted an attached index to stay under its cap.
    CatalogEvicted { name: String },
    /// An update batch committed and published a new engine epoch.
    UpdateCommitted { generation: u64, ops: u64 },
    /// A background rebuild swapped in, after replaying the journal.
    RebuildSwapped { generation: u64, replayed_ops: u64 },
    /// The in-memory engine was folded to disk.
    PersistFolded { path: String },
    /// A query crossed the slow threshold; id + peer make it
    /// attributable to a wire request.
    SlowQuery { query: String, micros: u64, request_id: u64, peer: String },
    /// A server-side fault that did not kill the connection (e.g. a
    /// failed `set_read_timeout`).
    ServerError { detail: String },
}

impl Event {
    /// Stable kebab-case kind, used as the metrics label and the wire
    /// event discriminator.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ConnOpen { .. } => "conn-open",
            Event::ConnClose { .. } => "conn-close",
            Event::AdmissionRejected { .. } => "admission-rejected",
            Event::CatalogAttached { .. } => "catalog-attached",
            Event::CatalogEvicted { .. } => "catalog-evicted",
            Event::UpdateCommitted { .. } => "update-committed",
            Event::RebuildSwapped { .. } => "rebuild-swapped",
            Event::PersistFolded { .. } => "persist-folded",
            Event::SlowQuery { .. } => "slow-query",
            Event::ServerError { .. } => "server-error",
        }
    }

    /// One-line human detail (no kind prefix, no timestamp).
    pub fn detail(&self) -> String {
        match self {
            Event::ConnOpen { peer } => format!("peer={peer}"),
            Event::ConnClose { peer, frames_in, frames_out, bytes_in, bytes_out, errors } => {
                format!(
                    "peer={peer} frames_in={frames_in} frames_out={frames_out} \
                     bytes_in={bytes_in} bytes_out={bytes_out} errors={errors}"
                )
            }
            Event::AdmissionRejected { in_flight, limit } => {
                format!("in_flight={in_flight} limit={limit}")
            }
            Event::CatalogAttached { name } => format!("index={name}"),
            Event::CatalogEvicted { name } => format!("index={name}"),
            Event::UpdateCommitted { generation, ops } => {
                format!("generation={generation} ops={ops}")
            }
            Event::RebuildSwapped { generation, replayed_ops } => {
                format!("generation={generation} replayed_ops={replayed_ops}")
            }
            Event::PersistFolded { path } => format!("path={path}"),
            Event::SlowQuery { query, micros, request_id, peer } => {
                format!("request_id={request_id} peer={peer} micros={micros} query={query}")
            }
            Event::ServerError { detail } => detail.clone(),
        }
    }
}

/// One journal entry: an event plus its position and wall-clock stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Monotonic sequence number, starting at 1. Gaps (relative to a
    /// reader's cursor) mean the ring dropped entries.
    pub seq: u64,
    /// Microseconds since the Unix epoch at emission time.
    pub unix_micros: u64,
    pub event: Event,
}

impl JournalEntry {
    /// `#seq [kind] detail` — the text form used by `xtwig client
    /// events` and the access log.
    pub fn render_text(&self) -> String {
        format!("#{} [{}] {}", self.seq, self.event.kind(), self.event.detail())
    }
}

struct Ring {
    entries: VecDeque<JournalEntry>,
    /// Next sequence number to hand out (first emit gets seq 1).
    next_seq: u64,
    dropped: u64,
    counts: BTreeMap<&'static str, u64>,
}

/// The bounded journal. Cheap to share (`Arc<EventJournal>`); all state
/// sits behind one mutex held only for push/copy.
pub struct EventJournal {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("capacity", &self.capacity)
            .field("total", &self.total())
            .field("dropped", &self.dropped())
            .finish()
    }
}

fn now_unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

impl EventJournal {
    /// A journal keeping at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> EventJournal {
        let capacity = capacity.max(1);
        EventJournal {
            ring: Mutex::new(Ring {
                entries: VecDeque::with_capacity(capacity.min(1024)),
                next_seq: 1,
                dropped: 0,
                counts: BTreeMap::new(),
            }),
            capacity,
        }
    }

    /// Appends an event; returns its sequence number. Never blocks
    /// beyond the ring mutex and never allocates past the capacity.
    pub fn emit(&self, event: Event) -> u64 {
        let stamp = now_unix_micros();
        let mut ring = match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let seq = ring.next_seq;
        ring.next_seq += 1;
        *ring.counts.entry(event.kind()).or_insert(0) += 1;
        if ring.entries.len() >= self.capacity {
            ring.entries.pop_front();
            ring.dropped += 1;
        }
        ring.entries.push_back(JournalEntry { seq, unix_micros: stamp, event });
        seq
    }

    /// Entries with `seq > after`, oldest first, at most `max` (a
    /// `max` of 0 returns nothing).
    pub fn since(&self, after: u64, max: usize) -> Vec<JournalEntry> {
        let ring = match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        ring.entries.iter().filter(|e| e.seq > after).take(max).cloned().collect()
    }

    /// Total events ever emitted (including dropped ones).
    pub fn total(&self) -> u64 {
        let ring = match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        ring.next_seq - 1
    }

    /// Entries evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        let ring = match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        ring.dropped
    }

    /// Per-kind emission counts over every kind in [`EVENT_KINDS`]
    /// (kinds that never fired report 0 — metrics families must be
    /// stable across scrapes).
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        let ring = match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        EVENT_KINDS.iter().map(|&k| (k, ring.counts.get(k).copied().unwrap_or(0))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_numbers_are_monotonic_from_one() {
        let j = EventJournal::new(8);
        assert_eq!(j.emit(Event::CatalogAttached { name: "a".into() }), 1);
        assert_eq!(j.emit(Event::CatalogEvicted { name: "a".into() }), 2);
        assert_eq!(j.total(), 2);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_at_capacity() {
        let j = EventJournal::new(2);
        for gen in 1..=5u64 {
            j.emit(Event::UpdateCommitted { generation: gen, ops: 1 });
        }
        assert_eq!(j.total(), 5);
        assert_eq!(j.dropped(), 3);
        let tail = j.since(0, 16);
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn since_cursor_and_max_bound() {
        let j = EventJournal::new(16);
        for _ in 0..6 {
            j.emit(Event::AdmissionRejected { in_flight: 4, limit: 4 });
        }
        let page = j.since(2, 3);
        assert_eq!(page.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert!(j.since(6, 3).is_empty());
        assert!(j.since(0, 0).is_empty());
    }

    #[test]
    fn kind_counts_cover_every_kind() {
        let j = EventJournal::new(8);
        j.emit(Event::ConnOpen { peer: "p".into() });
        j.emit(Event::ConnOpen { peer: "q".into() });
        let counts = j.kind_counts();
        assert_eq!(counts.len(), EVENT_KINDS.len());
        assert!(counts.contains(&("conn-open", 2)));
        assert!(counts.contains(&("slow-query", 0)));
    }

    #[test]
    fn renders_text() {
        let j = EventJournal::new(4);
        j.emit(Event::SlowQuery {
            query: "//a[b=\"c\"]".into(),
            micros: 1500,
            request_id: 7,
            peer: "127.0.0.1:9".into(),
        });
        let e = j.since(0, 1).pop().unwrap();
        let text = e.render_text();
        assert!(text.starts_with("#1 [slow-query] "), "{text}");
        assert!(text.contains("request_id=7"), "{text}");
        assert!(e.unix_micros > 0);
    }

    #[test]
    fn every_event_kind_is_in_the_stable_list() {
        let events = vec![
            Event::ConnOpen { peer: String::new() },
            Event::ConnClose {
                peer: String::new(),
                frames_in: 0,
                frames_out: 0,
                bytes_in: 0,
                bytes_out: 0,
                errors: 0,
            },
            Event::AdmissionRejected { in_flight: 0, limit: 0 },
            Event::CatalogAttached { name: String::new() },
            Event::CatalogEvicted { name: String::new() },
            Event::UpdateCommitted { generation: 0, ops: 0 },
            Event::RebuildSwapped { generation: 0, replayed_ops: 0 },
            Event::PersistFolded { path: String::new() },
            Event::SlowQuery {
                query: String::new(),
                micros: 0,
                request_id: 0,
                peer: String::new(),
            },
            Event::ServerError { detail: String::new() },
        ];
        for e in events {
            assert!(EVENT_KINDS.contains(&e.kind()), "{} missing from EVENT_KINDS", e.kind());
        }
    }
}
