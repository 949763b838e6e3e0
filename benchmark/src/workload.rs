//! The four workloads: what each generates, through which door it
//! drives the program, and why it exists. The program under test sees
//! only what [`requests`] and the writer produce — XPath text (parsed
//! up front for the in-process door) and update ops.

use xtwig_core::Strategy;
use xtwig_datagen::{dblp_queries, xmark_queries};

use crate::rng::{self, mix};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Xmark,
    Dblp,
}

/// Where the load generator calls into the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Door {
    /// `TwigService::execute` on the generator's own threads.
    InProc,
    /// `Client::query` over loopback TCP to an in-process `Server`.
    Wire,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every request once per round, rounds shuffled by the seed.
    RoundRobin,
    /// Zipf(1.1) over the request list in list order (rank 1 first).
    Zipf,
}

/// One workload's fixed parameters. Everything here is part of the
/// workload's definition; only `--seed` varies between runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    pub dataset: Dataset,
    pub scale: f64,
    pub strategies: &'static [Strategy],
    /// Buffer-pool frames per structure.
    pub pool_pages: usize,
    pub result_cache: usize,
    pub door: Door,
    pub mix: Mix,
    /// Closed-loop callers as a function of `nproc`.
    pub callers: fn(usize) -> usize,
    /// Whether an open-loop writer commits beside the readers.
    pub writer: bool,
    /// Whether requests with bulk answers (see [`BULK_ANSWER_IDS`]) are
    /// taken out of the callers' mix and issued by one more connection
    /// of their own.
    pub bulk_apart: bool,
}

/// An answer of at least this many ids is a *bulk* answer: on the wire
/// it exceeds 8 KiB, the server's write buffer. `lat_bulk_p50_us` is
/// the latency of these requests alone.
pub const BULK_ANSWER_IDS: usize = 1_000;

const RP_DP: &[Strategy] = &[Strategy::RootPaths, Strategy::DataPaths];
const RP_DP_EDGE: &[Strategy] = &[Strategy::RootPaths, Strategy::DataPaths, Strategy::Edge];

/// Writer rate of `read_write` (and of the writer phase every traced
/// run adds), commits per second.
pub const COMMITS_PER_S: u64 = 10;

pub const ALL: &[Workload] = &[
    Workload {
        name: "twig_inproc",
        why: "every request executes (result cache off, pool fits): executor, B+-tree probes, codec and warm pool do the work",
        dataset: Dataset::Xmark,
        scale: 0.1,
        strategies: &Strategy::ALL,
        pool_pages: 5_120,
        result_cache: 0,
        door: Door::InProc,
        mix: Mix::RoundRobin,
        callers: |nproc| nproc,
        writer: false,
        bulk_apart: false,
    },
    Workload {
        name: "hot_wire",
        why: "Zipf XPath strings over loopback TCP, >90% result-cache hits, bulk answers on a connection of their own: framing, id-list codec, sockets, parser and caches do the work",
        dataset: Dataset::Xmark,
        scale: 0.1,
        strategies: &Strategy::ALL,
        pool_pages: 5_120,
        result_cache: 1_024,
        door: Door::Wire,
        mix: Mix::Zipf,
        // A connection keeps one thread busy at a time (its client or
        // its server thread), so nproc connections keep every core busy
        // and none idle. With fewer, round trips time the sandbox's
        // wake-up from idle: one connection measured 11 µs per round
        // trip in one hour and 53 µs in the next.
        callers: |nproc| nproc,
        writer: false,
        // Over TCP a bulk answer stalls its connection for ~40 ms (see
        // the README); in the callers' mix those stalls would idle the
        // connections 98 % of the time and the percentiles would time
        // the sandbox's wake-ups from idle, not the program.
        bulk_apart: true,
    },
    Workload {
        name: "cold_scan",
        why: "DBLP reopened with 64-frame pools, range scans far larger than the pool: misses, eviction, extent reads and leaf walks do the work",
        dataset: Dataset::Dblp,
        scale: 0.1,
        strategies: RP_DP_EDGE,
        pool_pages: 64,
        result_cache: 0,
        door: Door::InProc,
        mix: Mix::RoundRobin,
        callers: |nproc| nproc,
        writer: false,
        bulk_apart: false,
    },
    Workload {
        name: "read_write",
        why: "closed-loop readers beside an open-loop writer at 10 commits/s: a read gain bought with commit cost, or the reverse, shows",
        dataset: Dataset::Xmark,
        scale: 0.1,
        strategies: RP_DP,
        pool_pages: 5_120,
        // Off, unlike the issue's sketch: with it on, 99.97 % of reads
        // are cache hits that never touch the epoch the writer forks,
        // and neither side of the read/commit trade-off would show.
        result_cache: 0,
        door: Door::InProc,
        mix: Mix::RoundRobin,
        // One reader per core, so the writer always shares a core with a
        // reader. With a single reader on two cores the scheduler chose
        // per run whether the two shared one, and the reader's median
        // read 92 µs or 118 µs accordingly.
        callers: |nproc| nproc,
        writer: true,
        bulk_apart: false,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Paths whose answers are bulk at scale 0.1 (2 095 to 3 000 ids).
const BULK_PATHS: [&str; 4] =
    ["//person/emailaddress", "//item/name", "//open_auction/current", "//mail/to"];

/// The XPath strings of a workload, in rank order for `Mix::Zipf`.
pub fn xpaths(w: &Workload) -> Vec<String> {
    let paper: Vec<String> = xmark_queries().iter().map(|q| q.xpath.to_owned()).collect();
    match w.name {
        // Fifteen requests put the median in the middle of the eighth
        // by cost and the 90th percentile in the middle of the
        // fourteenth. The first eleven alone put the 90th percentile
        // nine tenths of the way through the tenth (507 µs), next to
        // the eleventh (870 µs), and a sandbox 20 % slower for a minute
        // read 32 % slower there.
        "twig_inproc" | "read_write" => paper,
        "hot_wire" => {
            let mut list: Vec<String> = paper;
            list.extend(xmark_variants());
            list.extend(BULK_PATHS.map(str::to_owned));
            list
        }
        "cold_scan" => {
            let mut list: Vec<String> = dblp_queries().iter().map(|q| q.xpath.to_owned()).collect();
            list.extend(
                [
                    "//inproceedings/author",
                    "//article[year='1998']/title",
                    "//article/journal",
                    "//inproceedings[year='1990']/booktitle",
                    "/dblp/inproceedings[booktitle='Conference 7']/title",
                    "//inproceedings[author='Author 13 0']/title",
                    "/dblp/article[journal='Journal of Things 3']/author",
                    "//inproceedings/crossref[. = 'conf/xyz/1985']",
                    "//article/volume",
                    // With the four below the list has six requests
                    // cheaper and six dearer than four ~770 µs scans of
                    // the articles, so the median operation is one of
                    // those four. A list whose median falls between two
                    // requests of unlike cost (377 µs and 760 µs
                    // without these) reports wherever their tails
                    // happen to meet: 550 µs to 700 µs from run to run.
                    "//article/pages",
                    "//inproceedings[year='1979']/title",
                    "//inproceedings[crossref='conf/xyz/1985']/title",
                    "//inproceedings[year='1979'][booktitle='Conference 7']/title",
                ]
                .map(str::to_owned),
            );
            list
        }
        other => unreachable!("no request list for workload {other}"),
    }
}

/// Literal-varied copies of the paper's XMark query shapes: same
/// plans, other constants, so the plan cache hits and the result cache
/// holds distinct entries.
fn xmark_variants() -> Vec<String> {
    let mut v = Vec::new();
    for q in ["3", "4", "6", "7"] {
        v.push(format!("/site/regions/namerica/item/quantity[. = '{q}']"));
    }
    for region in ["africa", "asia", "australia", "europe", "samerica"] {
        v.push(format!("/site/regions/{region}/item/quantity[. = '1']"));
    }
    for loc in ["canada", "mexico", "cuba"] {
        v.push(format!("/site/regions/namerica/item/location[. = '{loc}']"));
    }
    for inc in ["1.50", "6.00", "12.00", "24.00"] {
        v.push(format!("/site/open_auctions/open_auction[@increase = '{inc}']"));
    }
    for income in ["12000.00", "34000.00", "55000.00", "78000.00"] {
        v.push(format!("/site/people/person/profile[@income = '{income}']"));
        v.push(format!(
            "/site[people/person/profile/@income = '{income}']\
             /open_auctions/open_auction[@increase = '75.00']"
        ));
    }
    for p in [1, 8, 15, 22] {
        v.push(format!(
            "/site/open_auctions/open_auction[annotation/author/@person = 'person{p}']/time"
        ));
    }
    for c in 1..=5 {
        v.push(format!("/site//item[incategory/@category = 'category{c}']/mailbox/mail/date"));
    }
    for q in ["1", "3", "4"] {
        v.push(format!("/site//item[quantity = '{q}'][location = 'united states']"));
    }
    for p in 1..=5 {
        v.push(format!("/site/people/person[name = 'Person Name{p}']/emailaddress"));
    }
    v
}

/// Slots in one pass of a Zipf schedule.
const ZIPF_SLOTS: usize = 4_096;
const ZIPF_S: f64 = 1.1;
/// Rounds in one pass of a round-robin schedule (callers wrap around).
const ROUNDS: usize = 64;

/// The callers' request order for one run: entries of `mix`, the
/// request indices the callers share, in rank order for `Mix::Zipf`.
pub fn schedule(w: &Workload, mix: &[u32], seed: u64) -> Vec<u32> {
    let n = mix.len();
    let slots = match w.mix {
        Mix::RoundRobin => rng::shuffled_rounds(n, ROUNDS, seed),
        Mix::Zipf => rng::zipf_schedule(n, ZIPF_S, ZIPF_SLOTS.max(n), seed),
    };
    slots.into_iter().map(|slot| mix[slot as usize]).collect()
}

/// An answer's fingerprint: how many ids, and a sum of per-id hashes
/// that does not depend on the order the ids arrive in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub count: usize,
    pub sum: u64,
}

pub fn checksum(ids: impl IntoIterator<Item = u64>) -> Fingerprint {
    let mut f = Fingerprint { count: 0, sum: 0 };
    for id in ids {
        f.count += 1;
        f.sum = f.sum.wrapping_add(mix(id));
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_ignores_order_but_not_content() {
        let a = checksum([3, 1, 4, 15, 9]);
        assert_eq!(a, checksum([9, 15, 4, 1, 3]));
        assert_ne!(a, checksum([3, 1, 4, 15, 10]));
        assert_ne!(a, checksum([3, 1, 4, 15]));
        // A swap that keeps count and plain sum must still be caught.
        assert_ne!(checksum([1, 4]), checksum([2, 3]));
    }

    #[test]
    fn every_workload_has_a_parsable_request_list() {
        for w in ALL {
            let list = xpaths(w);
            assert!(list.len() >= 10, "{}: {} requests", w.name, list.len());
            for x in &list {
                xtwig_core::parse_xpath(x).unwrap_or_else(|e| panic!("{}: {x}: {e}", w.name));
            }
            let mut unique = list.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), list.len(), "{}: duplicate request", w.name);
            let mix: Vec<u32> = (0..list.len() as u32).filter(|i| i % 7 != 0).collect();
            let s = schedule(w, &mix, 1);
            assert!(s.iter().all(|i| mix.contains(i)), "{}: schedule leaves its mix", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert_eq!(xpaths(by_name("hot_wire").unwrap()).len(), 60);
        assert_eq!(ALL.iter().filter(|w| w.bulk_apart).count(), 1);
    }
}
