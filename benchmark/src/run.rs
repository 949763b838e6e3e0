//! One run of one workload: set-up, warm-up, then either the timed
//! windows (`--trace 0`, the end-to-end metrics) or the traced phases,
//! the door replay and the per-layer measurements (`--trace 1`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use xtwig_core::QueryEngine;
use xtwig_service::ServiceSnapshot;

use crate::drive::{self, Load, Phase, Until, Window, Writer};
use crate::layers;
use crate::metrics::{Ledger, MetricDef, END_TO_END, PER_LAYER};
use crate::rng::Rng;
use crate::spans;
use crate::stack::{self, Data, Request, Stack};
use crate::stats::{self, median};
use crate::workload::{self, Door, Workload};

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scale 0.005: the whole path in seconds.
    pub smoke: bool,
    /// Where index files and span files go.
    pub out_dir: PathBuf,
}

pub struct RunResult {
    pub table: &'static [MetricDef],
    pub ledger: Ledger,
    pub attempted: usize,
    pub failed: usize,
}

const SMOKE_SCALE: f64 = 0.005;
/// Stacks an untraced run sets up, one after another; `setup_s` is the
/// median of their set-up times, and each takes a third of the timed
/// windows. One stack is not enough: stacks of one process scan at
/// different speeds for as long as they live (833, 716 and 732 ops/s on
/// `cold_scan`, for reasons the harness does not control), and
/// `cold_scan` on a single stack ran all its windows at 770 ops/s in
/// most processes and all of them at 620 ops/s, with the 90th
/// percentile 28 % up, in one out of four.
const STACKS: usize = 3;
/// Windows the timed run is cut into; each timing is their median. A
/// window is a phase of its own — fresh caller threads, fresh
/// connections — so that a placement of threads on cores that happens
/// to be slow (or fast) lasts one window, not the run.
const WINDOWS: usize = 9;
const _: () = assert!(WINDOWS % STACKS == 0, "every stack takes the same number of windows");
/// The commit probe of a workload without a writer: on each stack,
/// after its windows, the writer commits beside the workload's own
/// callers for this share of the timed run (at least [`PROBE_MIN`]),
/// and the first half of its commits is discarded: a service's first
/// two commits take 0.2 s to 0.5 s where pools are large, and the
/// backlog they leave takes a second to drain. What is kept is each
/// commit's own duration. Its lateness is left out: it is 0.1 ms or one
/// scheduler slice of 4.9 ms, as the scheduler chooses, and on the 2 ms
/// commit of `cold_scan` that choice would be the whole reading. (An
/// idle service cannot be probed at all: commits with a sleep between
/// them time the sandbox's wake-up from idle, 7.5 ms, 9.4 ms or 20 ms
/// for that same commit from one half hour to the next.)
const PROBE_SHARE: u32 = 9;
const PROBE_MIN: Duration = Duration::from_millis(300);

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Operations attempted and failed so far, over every phase and check.
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn phase(&mut self, label: &str, phase: &Phase) {
        self.attempted += phase.ops.len();
        self.failed += phase.failed();
        if let Some(e) = &phase.first_error {
            eprintln!("{label}: first failure: {e}");
        }
    }

    fn checks(&mut self, (attempted, failed): (usize, usize)) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What both kinds of run are given: the workload's inputs for this
/// seed and where files go.
struct Run<'a> {
    w: &'static Workload,
    out_dir: &'a Path,
    data_dir: PathBuf,
    data: Data,
    requests: Vec<Request>,
    oracle_s: f64,
    /// The callers' request order.
    schedule: Vec<u32>,
    /// The bulk requests, in the bulk connection's order.
    bulk: Vec<u32>,
    is_bulk: Vec<bool>,
    callers: usize,
    duration: Duration,
    warm_up: Duration,
}

/// What a run produces, and the writer whose counters outlive a phase.
struct State {
    writer: Writer,
    ledger: Ledger,
    tally: Tally,
}

impl Run<'_> {
    fn index_path(&self, i: usize) -> PathBuf {
        self.data_dir.join(format!("{}-{i}.xtwig", self.w.name))
    }
}

pub fn run(args: &RunArgs) -> RunResult {
    let w = args.workload;
    let scale = if args.smoke { SMOKE_SCALE } else { w.scale };
    let data_dir = args.out_dir.join(format!("data-{}", std::process::id()));
    std::fs::create_dir_all(&data_dir).expect("create data directory");

    let data = stack::generate(w, scale);
    let (requests, oracle_s) = stack::requests(w, &data.forest);
    let (mix, mut bulk) = stack::split_bulk(w, &requests);
    let schedule = workload::schedule(w, &mix, args.seed);
    let is_bulk: Vec<bool> = (0..requests.len() as u32).map(|i| bulk.contains(&i)).collect();
    Rng::new(args.seed).shuffle(&mut bulk);
    let callers = (w.callers)(nproc());
    println!(
        "# {}: {:?} scale {scale}, {} nodes, {} requests ({} bulk), {callers} caller(s){}{}, seed {}, nproc {}",
        w.name,
        w.dataset,
        data.nodes,
        requests.len(),
        bulk.len(),
        if w.bulk_apart { " + 1 bulk connection" } else { "" },
        if w.writer { " + 1 open-loop writer" } else { "" },
        args.seed,
        nproc()
    );
    println!("# why: {}", w.why);

    let mut state = State {
        writer: Writer::new(w, &data.forest),
        ledger: Ledger::default(),
        tally: Tally { attempted: 0, failed: 0 },
    };
    let run = Run {
        w,
        out_dir: &args.out_dir,
        data_dir,
        data,
        requests,
        oracle_s,
        schedule,
        bulk,
        is_bulk,
        callers,
        duration: Duration::from_secs_f64(args.seconds),
        warm_up: Duration::from_secs_f64((args.seconds / 5.0).min(1.0)),
    };
    let table = if args.trace {
        traced(&run, &mut state);
        PER_LAYER
    } else {
        untraced(&run, &mut state);
        END_TO_END
    };
    let _ = std::fs::remove_dir(&run.data_dir);
    RunResult {
        table,
        ledger: state.ledger,
        attempted: state.tally.attempted,
        failed: state.tally.failed,
    }
}

/// The closed loop of `run`'s workload over `stack`.
fn load_on<'a>(run: &'a Run, stack: &'a Stack) -> Load<'a> {
    Load {
        stack,
        door: run.w.door,
        requests: &run.requests,
        schedule: &run.schedule,
        callers: run.callers,
        // The bulk connection exists only where bulk requests are kept
        // out of the callers' mix.
        bulk: if run.w.bulk_apart { &run.bulk } else { &[] },
        offset: 0,
    }
}

/// `--trace 0`: [`STACKS`] stacks one after another, each set up, primed,
/// warmed up, run for its share of the timed windows and, on a workload
/// without a writer, probed for commit cost.
fn untraced(run: &Run, state: &mut State) {
    let w = run.w;
    let window = run.duration / WINDOWS as u32;
    let mut stacks = Vec::with_capacity(STACKS);
    let mut win = Vec::with_capacity(WINDOWS);
    let mut timed = Vec::new();
    let mut probe_ms = Vec::new();
    let mut peak_rss = None;
    for i in 0..STACKS {
        let stack = Stack::set_up(w, &run.data.forest, &run.index_path(i), w.door == Door::Wire);
        let t = stack.times;
        println!(
            "set-up {i}: build {:.3} s, persist {:.3} s, attach {:.3} s, bind {:.6} s",
            t.build_s, t.persist_s, t.attach_s, t.bind_s
        );
        stacks.push(t);

        let load = Load { offset: timed.len() / run.callers, ..load_on(run, &stack) };
        state.tally.phase("priming", &load.prime());
        state.tally.phase("warm-up", &load.run(Until::Elapsed(run.warm_up / 2), None, None));
        // The writer commits through the stack's windows; the callers
        // start afresh in every window.
        let share = WINDOWS / STACKS;
        let (phases, commits) = drive::beside_writer(
            w.writer.then_some(&mut state.writer),
            &stack.svc,
            Until::Elapsed(window * share as u32),
            |start| {
                let mut done = 0;
                let phases: Vec<(u64, u64, Phase)> = (0..share)
                    .map(|_| {
                        let load = Load { offset: load.offset + done / load.callers, ..load };
                        let from = start.elapsed().as_nanos() as u64;
                        let phase = load.run(Until::Elapsed(window), None, None);
                        done += phase.ops.len();
                        (from, start.elapsed().as_nanos() as u64, phase)
                    })
                    .collect();
                phases
            },
        );
        for (from, to, mut phase) in phases {
            state.tally.phase(&format!("window {}", win.len()), &phase);
            phase.commits =
                commits.iter().filter(|c| (from..to).contains(&c.end_ns)).copied().collect();
            win.push(Window::of(&phase, window, &run.is_bulk));
            timed.extend(phase.ops);
        }
        state.tally.checks(drive::settle(&mut state.writer, &stack.svc, &run.requests));
        // Read before the first probe: its commits keep old epochs alive
        // beside the callers and would set the peak, at 640 MB to 745 MB
        // from run to run on `twig_inproc` against 525 MB without them.
        peak_rss.get_or_insert_with(peak_rss_mb);

        if !w.writer {
            let lasts = (run.duration / PROBE_SHARE).max(PROBE_MIN);
            let probe = load.run(Until::Elapsed(lasts), Some(&mut state.writer), None);
            state.tally.phase("commit probe", &probe);
            let run_in = probe.commits.len() / 2;
            probe_ms.extend(
                probe.commits[run_in..].iter().map(|c| (c.end_ns - c.start_ns) as f64 / 1e6),
            );
            state.tally.checks(drive::settle(&mut state.writer, &stack.svc, &run.requests));
        }
    }
    drive::print_mixture(&timed, &run.requests);

    let ledger = &mut state.ledger;
    let mut windowed = |name: &str, values: Vec<f64>| {
        println!("  {name}: samples {values:.1?}, max-min {:.1}", stats::range(&values));
        ledger.e2e(name, median(&values));
    };
    windowed("ops_per_s", win.iter().map(|w| w.ops_per_s).collect());
    windowed("lat_p50_us", win.iter().map(|w| w.p50_us).collect());
    windowed("lat_p90_us", win.iter().map(|w| w.tail_us).collect());
    windowed("lat_bulk_p50_us", win.iter().filter_map(|w| w.bulk_p50_us).collect());
    windowed(
        "commit_p50_ms",
        if w.writer {
            win.iter().filter_map(|w| w.commit_p50_ms).collect()
        } else {
            vec![median(&probe_ms)]
        },
    );
    if let Some(small) = win.iter().find(|w| w.tail_pct < drive::TAIL_PCT) {
        println!(
            "  lat_p90_us: a window holds {} operations; reporting p{} there",
            small.ops, small.tail_pct
        );
    }
    let p99: Vec<f64> = win.iter().filter_map(|w| w.p99_us).collect();
    println!("  lat_p99_us (not declared): samples {p99:.1?}");

    let totals: Vec<f64> = stacks.iter().map(|t| t.total_s()).collect();
    ledger.e2e("setup_s", median(&totals));
    ledger.e2e("index_bytes_per_node", stacks[0].file_bytes as f64 / run.data.nodes as f64);
    ledger.e2e("ok_frac", 1.0 - state.tally.failed_frac());
    ledger.e2e("peak_rss_mb", peak_rss.expect("at least one stack"));
    println!("  timed operations: {}, failed_frac {}", timed.len(), state.tally.failed_frac());
}

/// `--trace 1`: one set-up, three short phases of the closed loop, the
/// door replay, then every layer's own measurements.
fn traced(run: &Run, state: &mut State) {
    let w = run.w;
    let stack = Stack::set_up(w, &run.data.forest, &run.index_path(0), true);
    let t = Instant::now();
    let reopened = QueryEngine::open_with_report(&stack.index_path).expect("reopen index");
    let open_s = t.elapsed().as_secs_f64();
    drop(reopened);

    // Three phases of the closed loop, a fifth of the budget each: A as
    // the workload defines it, B the same with a span per operation, C
    // with the writer toggled.
    let load = load_on(run, &stack);
    let slice = run.duration / 5;
    let root = match w.door {
        Door::Wire => spans::NET_CLIENT_QUERY,
        Door::InProc => spans::SERVICE_EXECUTE,
    };
    let priming = load.prime();
    let warm_up = load.run(Until::Elapsed(run.warm_up), None, None);
    let before = stack.svc.stats();
    let a = load.run(Until::Elapsed(slice), w.writer.then_some(&mut state.writer), None);
    let after = stack.svc.stats();
    let b = load.run(Until::Elapsed(slice), w.writer.then_some(&mut state.writer), Some(root));
    let c = load.run(Until::Elapsed(slice), (!w.writer).then_some(&mut state.writer), None);

    let rec = &mut state.ledger;
    rec.layer("gen.datagen_s", run.data.datagen_s);
    rec.layer("gen.oracle_s", run.oracle_s);
    rec.layer("core.build_s", stack.times.build_s);
    rec.layer("core.persist_s", stack.times.persist_s);
    rec.layer("core.open_s", open_s);
    rec.layer("core.index_bytes_per_node", stack.times.file_bytes as f64 / run.data.nodes as f64);

    let ops = a.ops.len().max(1) as f64;
    let delta = |f: fn(&ServiceSnapshot) -> u64| (f(&after) - f(&before)) as f64;
    let ratio =
        |hits: f64, misses: f64| if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };
    let (result_hits, plan_hits) = (delta(|s| s.result_cache.hits), delta(|s| s.plan_cache.hits));
    rec.layer("service.result_hit_ratio", ratio(result_hits, delta(|s| s.result_cache.misses)));
    rec.layer("service.plan_hit_ratio", ratio(plan_hits, delta(|s| s.plan_cache.misses)));
    rec.layer("service.rejected_frac", delta(|s| s.overloaded) / ops);
    let logical = delta(|s| s.costs.iter().map(|c| c.logical_reads).sum());
    let physical = delta(|s| s.costs.iter().map(|c| c.physical_reads).sum());
    rec.layer("storage.hit_ratio", if logical > 0.0 { 1.0 - physical / logical } else { 1.0 });
    rec.layer("storage.misses_per_op", physical / ops);
    rec.layer("trace.overhead_ratio", b.ops_per_s(slice) / a.ops_per_s(slice));
    // The 99th percentile at the workload's door: reported here, where
    // nothing is bounded, because it is too unsteady to bound.
    let window_a = Window::of(&a, slice, &run.is_bulk);
    rec.layer("door.lat_p99_us", window_a.p99_us.unwrap_or(window_a.tail_us));

    let (with_writer, solo) = if w.writer { (&a, &c) } else { (&c, &a) };
    rec.layer("service.reader_slowdown", with_writer.p50_ns() / solo.p50_ns());
    let commits = &with_writer.commits;
    let took: Vec<u64> = commits.iter().map(|c| c.end_ns - c.start_ns).collect();
    let mut late: Vec<u64> = commits.iter().map(|c| c.start_ns - c.due_ns).collect();
    late.sort_unstable();
    rec.layer("service.commit_ms", stats::median_u64(&took) / 1e6);
    rec.layer("gen.writer_late_p99_ms", stats::percentile(&late, 99) as f64 / 1e6);

    // The replay stands in for one caller of the workload; the others,
    // and the writer, keep going beside it, so the doors are timed
    // under the load the untraced run times them under.
    let epoch = Instant::now();
    let done = AtomicBool::new(false);
    let beside = Load { callers: load.callers - 1, ..load };
    let writer = &mut state.writer;
    let (replayed, background) = std::thread::scope(|scope| {
        let beside =
            scope.spawn(|| beside.run(Until::Raised(&done), w.writer.then_some(writer), None));
        let replayed =
            layers::replay(rec, w, &stack, &run.requests, &run.schedule, &run.bulk, epoch);
        done.store(true, Ordering::Relaxed);
        (replayed, beside.join().expect("background load panicked"))
    });
    for (label, phase) in [
        ("priming", &priming),
        ("warm-up", &warm_up),
        ("phase A", &a),
        ("phase B", &b),
        ("phase C", &c),
        ("replay background", &background),
    ] {
        state.tally.phase(label, phase);
    }
    state.tally.checks(drive::settle(&mut state.writer, &stack.svc, &run.requests));

    layers::parser(rec, &run.requests);
    layers::net(rec, &stack, &run.requests);
    let complement = stack.complement(w);
    let (uncached, cached) =
        if w.result_cache == 0 { (&*stack.svc, &complement) } else { (&complement, &*stack.svc) };
    layers::service(rec, uncached, cached, &run.requests);
    complement.shutdown();
    layers::codec(rec, &run.data.forest);
    stack.svc.with_engine(|engine| {
        layers::executor(rec, engine, &run.requests);
        layers::btree(rec, engine);
        layers::storage(rec, engine, nproc());
    });

    let counts = [
        ("requests", a.ops.len() as u64),
        ("result_cache_hits", result_hits as u64),
        ("plan_cache_hits", plan_hits as u64),
        ("logical_reads", logical as u64),
        ("physical_reads", physical as u64),
        ("commits", commits.len() as u64),
    ];
    let mut all_spans = b.spans;
    all_spans.extend(replayed);
    let spans_path = run.out_dir.join(format!("{}.spans.jsonl", w.name));
    spans::write_jsonl(&spans_path, &all_spans, &counts).expect("write span file");
    println!("[{} spans written to {}]", all_spans.len(), spans_path.display());
}
