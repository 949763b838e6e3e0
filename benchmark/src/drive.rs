//! The load generator: closed-loop callers through one door, an
//! optional open-loop writer beside them, and the window arithmetic
//! over what they recorded.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xtwig_core::{parse_xpath, Strategy};
use xtwig_net::Client;
use xtwig_service::{TwigService, UpdateOp};
use xtwig_xml::{naive, TagId, XmlForest};

use crate::spans::Span;
use crate::stack::{Request, Stack, INDEX};
use crate::stats;
use crate::workload::{checksum, Dataset, Door, Fingerprint, Workload, COMMITS_PER_S};

/// One completed operation, timed by its caller.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Index of the request in the workload's list.
    pub request: u32,
    pub lat_ns: u64,
    /// The reply arrived, was no error, and matched the oracle.
    pub ok: bool,
}

/// One commit of the open-loop writer, relative to the writer's start.
#[derive(Debug, Clone, Copy)]
pub struct Commit {
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct Phase {
    pub ops: Vec<Op>,
    pub commits: Vec<Commit>,
    /// One root span per operation, when the phase ran traced.
    pub spans: Vec<Span>,
    /// The first failure's description, for the log.
    pub first_error: Option<String>,
}

impl Phase {
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }

    pub fn ops_per_s(&self, duration: Duration) -> f64 {
        (self.ops.len() - self.failed()) as f64 / duration.as_secs_f64()
    }

    pub fn p50_ns(&self) -> f64 {
        let mut lat: Vec<u64> = self.ops.iter().map(|o| o.lat_ns).collect();
        lat.sort_unstable();
        stats::percentile(&lat, 50) as f64
    }
}

/// What a door hands back, before the harness fingerprints it.
enum Answer {
    Set(Arc<BTreeSet<u64>>),
    List(Vec<u64>),
}

impl Answer {
    fn fingerprint(&self) -> Fingerprint {
        match self {
            Answer::Set(ids) => checksum(ids.iter().copied()),
            Answer::List(ids) => checksum(ids.iter().copied()),
        }
    }
}

enum Caller<'a> {
    InProc(&'a TwigService),
    Wire(Box<Client>),
}

impl Caller<'_> {
    fn call(&mut self, r: &Request) -> Result<Answer, String> {
        match self {
            Caller::InProc(svc) => svc
                .execute(&r.twig, Strategy::Auto)
                .map(|a| Answer::Set(a.ids))
                .map_err(|e| e.to_string()),
            Caller::Wire(client) => client
                .query(INDEX, &r.xpath, "auto")
                .map(|a| Answer::List(a.ids))
                .map_err(|e| e.to_string()),
        }
    }
}

/// A closed loop: `callers` threads, each sending its next request only
/// after the previous reply, walking `schedule` from its own offset —
/// and, when `bulk` is not empty, one more caller cycling through those
/// requests alone.
#[derive(Clone, Copy)]
pub struct Load<'a> {
    pub stack: &'a Stack,
    pub door: Door,
    pub requests: &'a [Request],
    pub schedule: &'a [u32],
    pub callers: usize,
    pub bulk: &'a [u32],
    /// Slot of `schedule` at which caller 0 starts; a later window
    /// starts where the one before it is likely to have stopped.
    pub offset: usize,
}

/// When a phase ends.
#[derive(Clone, Copy)]
pub enum Until<'a> {
    /// This long after it started.
    Elapsed(Duration),
    /// When someone raises the flag (the background load of the replay).
    Raised(&'a AtomicBool),
}

impl Until<'_> {
    /// Whether an action that would begin at `at` still belongs to the
    /// phase that began at `start`.
    fn is_over(self, start: Instant, at: Instant) -> bool {
        match self {
            Until::Elapsed(d) => at >= start + d,
            Until::Raised(flag) => flag.load(Ordering::Relaxed),
        }
    }
}

impl Load<'_> {
    fn connect(&self) -> Caller<'_> {
        match self.door {
            Door::InProc => Caller::InProc(&self.stack.svc),
            Door::Wire => Caller::Wire(Box::new(
                Client::connect(self.stack.addr()).expect("connect to loopback server"),
            )),
        }
    }

    /// One timed, checked operation, appended to `phase`. Returns the
    /// call's start and end relative to `start`.
    fn call(
        &self,
        caller: &mut Caller,
        request: u32,
        start: Instant,
        phase: &mut Phase,
    ) -> (u64, u64) {
        let r = &self.requests[request as usize];
        let t0 = Instant::now();
        let reply = caller.call(r);
        let t1 = Instant::now();
        let failure = match reply {
            Ok(answer) if answer.fingerprint() == r.expect => None,
            Ok(answer) => Some(format!(
                "{}: got {} ids, oracle has {} (or the checksum differs)",
                r.xpath,
                answer.fingerprint().count,
                r.expect.count
            )),
            Err(e) => Some(format!("{}: {e}", r.xpath)),
        };
        let since = |t: Instant| t.duration_since(start).as_nanos() as u64;
        let (start_ns, end_ns) = (since(t0), since(t1));
        phase.ops.push(Op { request, lat_ns: end_ns - start_ns, ok: failure.is_none() });
        if phase.first_error.is_none() {
            phase.first_error = failure;
        }
        (start_ns, end_ns)
    }

    /// One caller's closed loop over `order`, starting at slot `first`.
    fn call_until(
        &self,
        caller_id: usize,
        order: &[u32],
        first: usize,
        start: Instant,
        until: Until,
        root_span: Option<&'static str>,
    ) -> Phase {
        let mut caller = self.connect();
        let mut phase = Phase::default();
        for &request in order.iter().cycle().skip(first) {
            if until.is_over(start, Instant::now()) {
                break;
            }
            let (start_ns, end_ns) = self.call(&mut caller, request, start, &mut phase);
            if let Some(name) = root_span {
                phase.spans.push(Span {
                    request_id: (caller_id as u64) << 32 | phase.ops.len() as u64,
                    id: 0,
                    parent: None,
                    name,
                    start_ns,
                    end_ns,
                });
            }
        }
        phase
    }

    /// Every request once, in list order, on one caller: fills the plan
    /// cache (and the result cache, where on) the same way whatever the
    /// seed. The service memoizes its `auto` pick per twig *shape*, so
    /// without this the first of several same-shaped requests to arrive
    /// — a matter of the seed — fixes the strategy of all of them, and
    /// one request's latency differed 80 µs to 120 µs between seeds.
    pub fn prime(&self) -> Phase {
        let mut caller = self.connect();
        let mut phase = Phase::default();
        let start = Instant::now();
        for request in 0..self.requests.len() as u32 {
            self.call(&mut caller, request, start, &mut phase);
        }
        phase
    }

    /// Runs the loop until `until`. With a `writer`, one more thread
    /// commits open-loop at [`COMMITS_PER_S`]. With `root_span`, every
    /// operation also records a span of that name (the traced run).
    pub fn run(
        &self,
        until: Until,
        writer: Option<&mut Writer>,
        root_span: Option<&'static str>,
    ) -> Phase {
        let (mut phase, commits) = beside_writer(writer, &self.stack.svc, until, |start| {
            self.run_callers(start, until, root_span)
        });
        phase.commits = commits;
        phase
    }

    fn run_callers(&self, start: Instant, until: Until, root_span: Option<&'static str>) -> Phase {
        let merged = Mutex::new(Phase::default());
        let merge = |mut local: Phase| {
            let mut all = merged.lock().expect("a caller panicked");
            all.ops.append(&mut local.ops);
            all.spans.append(&mut local.spans);
            if all.first_error.is_none() {
                all.first_error = local.first_error;
            }
        };
        std::thread::scope(|scope| {
            let merge = &merge;
            for c in 0..self.callers {
                let first =
                    (self.offset + c * self.schedule.len() / self.callers) % self.schedule.len();
                scope.spawn(move || {
                    merge(self.call_until(c, self.schedule, first, start, until, root_span));
                });
            }
            if !self.bulk.is_empty() {
                scope.spawn(move || {
                    merge(self.call_until(self.callers, self.bulk, 0, start, until, root_span));
                });
            }
        });
        merged.into_inner().expect("a caller panicked")
    }
}

/// Runs `body` while `writer`, when there is one, commits open-loop on
/// a thread of its own until `until`; both count time from the same
/// start, which `body` is handed. Returns what `body` returned and the
/// writer's commits.
pub fn beside_writer<R>(
    writer: Option<&mut Writer>,
    svc: &TwigService,
    until: Until,
    body: impl FnOnce(Instant) -> R,
) -> (R, Vec<Commit>) {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let committing = writer.map(|w| scope.spawn(move || w.run_open_loop(svc, start, until)));
        let result = body(start);
        let commits = committing.map_or_else(Vec::new, |t| t.join().expect("the writer panicked"));
        (result, commits)
    })
}

/// The open-loop writer: every commit inserts one two-node subtree
/// (`…/person/name` on XMark, `…/article/author` on DBLP) with a unique
/// value and deletes the subtree the previous commit inserted, so the
/// index neither grows nor drifts and exactly one writer subtree is
/// live between commits.
pub struct Writer {
    tags: Vec<TagId>,
    tag_names: Vec<&'static str>,
    /// Node ids of the path down to the subtree's parent.
    prefix: Vec<u64>,
    next_node: u64,
    next_k: u64,
    /// `(k, node)` of the subtree currently in the index.
    live: Option<(u64, u64)>,
    /// `//parent/leaf` and how many nodes the oracle finds for it.
    census: (String, usize),
}

impl Writer {
    pub fn new(w: &Workload, forest: &XmlForest) -> Writer {
        let tag_names: Vec<&'static str> = match w.dataset {
            Dataset::Xmark => vec!["site", "people", "person", "name"],
            Dataset::Dblp => vec!["dblp", "article", "author"],
        };
        let tags = tag_names
            .iter()
            .map(|t| forest.dict().lookup(t).expect("writer tag exists in the dataset"))
            .collect();
        let depth = tag_names.len();
        let anchor_path = format!("/{}", tag_names[..depth - 2].join("/"));
        let anchor = parse_xpath(&anchor_path).expect("anchor path parses");
        let anchor_node =
            *naive::select(forest, &anchor).iter().next().expect("anchor node exists");
        let prefix = forest.root_path_ids(anchor_node).iter().map(|n| n.0).collect();
        let census_path = format!("//{}/{}", tag_names[depth - 2], tag_names[depth - 1]);
        let census_twig = parse_xpath(&census_path).expect("census path parses");
        let census = (census_path, naive::select(forest, &census_twig).len());
        let max_node = forest.iter_nodes().map(|n| n.0).max().unwrap_or(0);
        Writer {
            tags,
            tag_names,
            prefix,
            // Far above every generated id, so path id lists stay increasing.
            next_node: max_node + 1_000,
            next_k: 0,
            live: None,
            census,
        }
    }

    fn value(k: u64) -> String {
        format!("bench-writer-{k}")
    }

    fn subtree(&self, k: u64, node: u64, insert: bool) -> Vec<UpdateOp> {
        let depth = self.tags.len();
        let mut parent_ids = self.prefix.clone();
        parent_ids.push(node);
        let mut leaf_ids = parent_ids.clone();
        leaf_ids.push(node + 1);
        let parent_tags = self.tags[..depth - 1].to_vec();
        let value = Some(Writer::value(k));
        if insert {
            vec![
                UpdateOp::InsertPath { tags: parent_tags, ids: parent_ids, value: None },
                UpdateOp::InsertPath { tags: self.tags.clone(), ids: leaf_ids, value },
            ]
        } else {
            vec![
                UpdateOp::DeletePath { tags: self.tags.clone(), ids: leaf_ids, value },
                UpdateOp::DeletePath { tags: parent_tags, ids: parent_ids, value: None },
            ]
        }
    }

    /// One commit: insert subtree `k`, delete subtree `k − 1`.
    fn commit(&mut self, svc: &TwigService) {
        let (k, node) = (self.next_k, self.next_node);
        let mut ops = self.subtree(k, node, true);
        if let Some((old_k, old_node)) = self.live {
            ops.extend(self.subtree(old_k, old_node, false));
        }
        svc.apply_update(ops);
        self.live = Some((k, node));
        self.next_k += 1;
        self.next_node += 2;
    }

    /// Deletes the live subtree, returning the index to the forest's
    /// own content.
    fn retire(&mut self, svc: &TwigService) {
        if let Some((k, node)) = self.live.take() {
            svc.apply_update(self.subtree(k, node, false));
        }
    }

    fn run_open_loop(&mut self, svc: &TwigService, start: Instant, until: Until) -> Vec<Commit> {
        let period = Duration::from_nanos(1_000_000_000 / COMMITS_PER_S);
        let since = |t: Instant| t.duration_since(start).as_nanos() as u64;
        let mut commits = Vec::new();
        let mut due = start + period;
        loop {
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            if until.is_over(start, due) {
                return commits;
            }
            let begun = Instant::now();
            self.commit(svc);
            let done = Instant::now();
            commits.push(Commit {
                due_ns: since(due),
                start_ns: since(begun),
                end_ns: since(done),
            });
            due += period;
        }
    }

    /// Lost-update check, run while a subtree is live: the newest
    /// subtree is found, its predecessor is gone, and the census of the
    /// writer's path is the oracle's plus one — under both maintained
    /// strategies. Returns `(checks, failures)`.
    fn verify(&self, svc: &TwigService) -> (usize, usize) {
        let Some((k, node)) = self.live else { return (0, 0) };
        let depth = self.tag_names.len();
        let probe = |k: u64| {
            format!(
                "/{}[{} = '{}']",
                self.tag_names[..depth - 1].join("/"),
                self.tag_names[depth - 1],
                Writer::value(k)
            )
        };
        let mut checks = vec![(probe(k), Some(vec![node]), 1)];
        if k > 0 {
            checks.push((probe(k - 1), Some(vec![]), 0));
        }
        checks.push((self.census.0.clone(), None, self.census.1 + 1));
        let (mut attempted, mut failed) = (0, 0);
        for strategy in [Strategy::RootPaths, Strategy::DataPaths] {
            for (xpath, ids, count) in &checks {
                attempted += 1;
                let twig = parse_xpath(xpath).expect("probe parses");
                let ok = svc.execute(&twig, strategy).is_ok_and(|a| {
                    a.ids.len() == *count
                        && ids
                            .as_ref()
                            .is_none_or(|want| a.ids.iter().copied().eq(want.iter().copied()))
                });
                if !ok {
                    eprintln!("lost update: {xpath} under {strategy} is not {count} id(s)");
                    failed += 1;
                }
            }
        }
        (attempted, failed)
    }
}

/// Ends a writer's work on `svc`: the lost-update probes while its last
/// subtree is live, its retirement, then every request against the
/// oracle again. Returns `(checks, failures)`.
pub fn settle(writer: &mut Writer, svc: &TwigService, requests: &[Request]) -> (usize, usize) {
    let (probes, lost) = writer.verify(svc);
    writer.retire(svc);
    let (rechecked, wrong) = recheck(svc, requests);
    (probes + rechecked, lost + wrong)
}

/// Re-runs every request once and compares it with the oracle — after
/// a writer has retired its last subtree the answers must be the
/// forest's again. Returns `(checks, failures)`.
fn recheck(svc: &TwigService, requests: &[Request]) -> (usize, usize) {
    let failed = requests
        .iter()
        .filter(|r| {
            let ok = svc
                .execute(&r.twig, Strategy::Auto)
                .is_ok_and(|a| checksum(a.ids.iter().copied()) == r.expect);
            if !ok {
                eprintln!("recheck: {} no longer matches the oracle", r.xpath);
            }
            !ok
        })
        .count();
    (requests.len(), failed)
}

/// Prints how often each request ran and its median latency: the
/// mixture behind the run's percentiles.
pub fn print_mixture(ops: &[Op], requests: &[Request]) {
    let mut by_request: Vec<Vec<u64>> = vec![Vec::new(); requests.len()];
    for op in ops {
        by_request[op.request as usize].push(op.lat_ns);
    }
    println!("  {:>7} {:>12}  request", "ops", "p50 us");
    for (r, lat) in requests.iter().zip(&mut by_request) {
        if lat.is_empty() {
            continue;
        }
        lat.sort_unstable();
        let p50 = stats::percentile(lat, 50) as f64 / 1e3;
        println!("  {:>7} {p50:>12.1}  {} ({} ids)", lat.len(), r.xpath, r.expect.count);
    }
}

/// The tail percentile the ledger bounds. The 99th is printed beside
/// it, and reported by the traced run as `door.lat_p99_us`, but not
/// bounded: on a 13 µs loopback round trip everything from about the
/// 93rd percentile up is the sandbox's scheduler preempting one of four
/// threads on two cores, and one commit read 37 µs to 68 µs at the
/// 99th and 21 µs to 56 µs at the 95th from run to run, against 18 µs
/// to 20 µs at the 90th.
pub const TAIL_PCT: u32 = 90;

/// One window of a timed run: a phase of its own, with callers (and
/// connections) of its own.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub ops: usize,
    pub ops_per_s: f64,
    pub p50_us: f64,
    /// Which percentile `tail_us` is: [`TAIL_PCT`] unless the window is
    /// too small to support it.
    pub tail_pct: u32,
    pub tail_us: f64,
    /// The 99th percentile, when at least ten samples lie beyond it.
    pub p99_us: Option<f64>,
    /// Median latency of the bulk requests; `None` when none completed.
    pub bulk_p50_us: Option<f64>,
    /// Median commit latency from the due time; `None` without commits.
    pub commit_p50_ms: Option<f64>,
}

impl Window {
    /// Summarises a phase that ran for `duration`. `is_bulk[request]`
    /// marks the requests `bulk_p50_us` is taken over.
    pub fn of(phase: &Phase, duration: Duration, is_bulk: &[bool]) -> Window {
        let mut lat: Vec<u64> = phase.ops.iter().map(|o| o.lat_ns).collect();
        lat.sort_unstable();
        let tail_pct = stats::supported_tail(lat.len(), TAIL_PCT);
        let pct =
            |p: u32| if lat.is_empty() { 0.0 } else { stats::percentile(&lat, p) as f64 / 1e3 };
        let bulk: Vec<u64> =
            phase.ops.iter().filter(|o| is_bulk[o.request as usize]).map(|o| o.lat_ns).collect();
        let commits: Vec<u64> = phase.commits.iter().map(|c| c.end_ns - c.due_ns).collect();
        Window {
            ops: lat.len(),
            ops_per_s: phase.ops_per_s(duration),
            p50_us: pct(50),
            tail_pct,
            tail_us: pct(tail_pct),
            p99_us: (stats::supported_tail(lat.len(), 99) == 99).then(|| pct(99)),
            bulk_p50_us: (!bulk.is_empty()).then(|| stats::median_u64(&bulk) / 1e3),
            commit_p50_ms: (!commits.is_empty()).then(|| stats::median_u64(&commits) / 1e6),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_summarises_a_phase() {
        let mut phase = Phase::default();
        // 300 ops, latency = 1 µs × (index + 1); every tenth is bulk,
        // the last fails.
        for i in 0..300u64 {
            phase.ops.push(Op {
                request: u32::from(i % 10 == 9),
                lat_ns: (i + 1) * 1_000,
                ok: i != 299,
            });
        }
        phase.commits.push(Commit { due_ns: 0, start_ns: 5_000_000, end_ns: 12_000_000 });
        let w = Window::of(&phase, Duration::from_secs(3), &[false, true]);
        assert_eq!(w.ops, 300);
        assert!((w.ops_per_s - 299.0 / 3.0).abs() < 1e-9, "a failed operation is not throughput");
        assert_eq!(w.p50_us, 150.0);
        assert_eq!((w.tail_pct, w.tail_us), (90, 270.0));
        assert_eq!(w.p99_us, None, "300 samples leave three beyond the 99th");
        assert_eq!(w.bulk_p50_us, Some(155.0), "request 1 alone is bulk: 10, 20, ... 300");
        assert_eq!(w.commit_p50_ms, Some(12.0));
        let few = Phase { ops: phase.ops[..40].to_vec(), ..Phase::default() };
        assert_eq!(Window::of(&few, Duration::from_secs(1), &[false, true]).tail_pct, 75);
    }
}
