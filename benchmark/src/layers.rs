//! Per-layer measurements of the traced run: each function times calls
//! into one crate's public functions and records `<crate>.<what>`
//! metrics. Nothing here runs while the load generator does.

use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use xtwig_btree::{bulk_build, BTreeOptions};
use xtwig_core::decompose::CompiledTwig;
use xtwig_core::plan::QueryPlan;
use xtwig_core::{parse_xpath, Strategy};
use xtwig_net::{
    handle_request_ctx, read_frame, write_frame, Client, Frame, Request as WireRequest, Response,
    TraceContext,
};
use xtwig_rel::codec::{decode_idlist, encode_idlist, IdListCodec, KeyBuf};
use xtwig_service::{RequestCtx, SharedEngine, TwigService};
use xtwig_storage::{BufferPool, PageId};
use xtwig_xml::XmlForest;

use crate::metrics::Ledger;
use crate::spans::{self, Span, Tree};
use crate::stack::{Request, Stack, INDEX};
use crate::stats::{median, median_u64};
use crate::workload::{Door, Workload};

fn ns(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// Median of `reps` timings of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<u64> = (0..reps).map(|_| ns(&mut f)).collect();
    median_u64(&samples)
}

/// Metric suffix of a concrete strategy (`core.exec_us.<suffix>`).
fn suffix(s: Strategy) -> &'static str {
    match s {
        Strategy::RootPaths => "rp",
        Strategy::DataPaths => "dp",
        Strategy::Edge => "edge",
        Strategy::DataGuideEdge => "dg_edge",
        Strategy::IndexFabricEdge => "if_edge",
        Strategy::Asr => "asr",
        Strategy::JoinIndex => "ji",
        Strategy::Auto => unreachable!("auto is not a built strategy"),
    }
}

/// `core.parse_xpath_us`: the parser over the workload's own strings.
pub fn parser(rec: &mut Ledger, requests: &[Request]) {
    let per_request: Vec<f64> = requests
        .iter()
        .map(|r| {
            median_ns(5, || {
                std::hint::black_box(parse_xpath(std::hint::black_box(&r.xpath)).ok());
            })
        })
        .collect();
    rec.layer("core.parse_xpath_us", median(&per_request) / 1e3);
}

/// `core.exec_us.*`, the exact per-operation counts, `opt.*` and
/// `obs.traced_exec_ratio`: the executor pinned to each built strategy
/// over the request list, on the serving engine, one thread.
pub fn executor(rec: &mut Ledger, engine: &SharedEngine, requests: &[Request]) {
    let compiled: Vec<(&Request, CompiledTwig, QueryPlan)> = requests
        .iter()
        .filter_map(|r| engine.compile(&r.twig).ok().map(|(c, p)| (r, c, p)))
        .collect();
    assert!(!compiled.is_empty(), "no request compiles against the dataset");

    let plan_ns: Vec<f64> = compiled
        .iter()
        .map(|(r, _, _)| {
            median_ns(5, || {
                std::hint::black_box(engine.compile(&r.twig).ok());
            })
        })
        .collect();
    rec.layer("opt.plan_us", median(&plan_ns) / 1e3);

    // Counts: one cold-to-warm pass in list order, so that for a fixed
    // seed the physical reads repeat exactly.
    let built = engine.built_strategies();
    for s in &built {
        engine.clear_caches(*s);
    }
    let (mut probes, mut logical, mut physical, mut rows, mut results) = (0, 0, 0, 0, 0);
    let mut picks = Vec::with_capacity(compiled.len());
    for (_, c, p) in &compiled {
        let a = engine.answer_compiled(c, p, Strategy::Auto);
        probes += a.metrics.probes;
        logical += a.metrics.logical_reads;
        physical += a.metrics.physical_reads;
        rows += a.metrics.rows_fetched;
        results += a.ids.len() as u64;
        picks.push(a.strategy);
    }
    let n = compiled.len() as f64;
    rec.layer("core.probes_per_op", probes as f64 / n);
    rec.layer("core.logical_reads_per_op", logical as f64 / n);
    rec.layer("core.physical_reads_per_op", physical as f64 / n);
    rec.layer("core.rows_per_result", rows as f64 / results.max(1) as f64);

    // Times: median of three per (strategy, request).
    let mut times: Vec<(Strategy, Vec<f64>)> = Vec::new();
    for s in Strategy::ALL {
        if !built.contains(&s) {
            // 0 = this workload does not build the strategy.
            rec.layer(&format!("core.exec_us.{}", suffix(s)), 0.0);
            continue;
        }
        let per_request: Vec<f64> = compiled
            .iter()
            .map(|(_, c, p)| {
                median_ns(3, || {
                    std::hint::black_box(engine.answer_compiled(c, p, s));
                })
            })
            .collect();
        rec.layer(&format!("core.exec_us.{}", suffix(s)), median(&per_request) / 1e3);
        times.push((s, per_request));
    }
    let under = |s: Strategy, i: usize| {
        times.iter().find(|(t, _)| *t == s).map_or(f64::INFINITY, |(_, v)| v[i])
    };
    let picked: f64 = picks.iter().enumerate().map(|(i, s)| under(*s, i)).sum();
    let best: f64 = (0..compiled.len())
        .map(|i| times.iter().map(|(_, v)| v[i]).fold(f64::INFINITY, f64::min))
        .sum();
    rec.layer("opt.auto_regret", picked / best);

    let (mut traced, mut plain) = (0.0, 0.0);
    for (r, _, _) in &compiled {
        plain += median_ns(3, || {
            std::hint::black_box(engine.answer(&r.twig, Strategy::Auto));
        });
        traced += median_ns(3, || {
            std::hint::black_box(engine.answer_traced(&r.twig, Strategy::Auto));
        });
    }
    rec.layer("obs.traced_exec_ratio", traced / plain);
}

/// Entries harvested from the serving ROOTPATHS tree for the B+-tree
/// measurements.
const BTREE_KEYS: usize = 2_048;
const BTREE_BUILD_ENTRIES: usize = 100_000;

/// `btree.*`: point lookups and leaf walks on the serving ROOTPATHS
/// tree; bulk build and inserts on a harness-built tree of its entries.
pub fn btree(rec: &mut Ledger, engine: &SharedEngine) {
    let tree = engine.rootpaths().expect("every workload builds ROOTPATHS").tree();
    let stride = (tree.len() as usize / BTREE_KEYS).max(1);
    let keys: Vec<Vec<u8>> =
        tree.scan_all().step_by(stride).take(BTREE_KEYS).map(|(k, _)| k).collect();

    let counters = tree.pool().counters();
    let before = counters.page_reads();
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            ns(|| {
                for k in &keys {
                    std::hint::black_box(tree.get(k));
                }
            }) as f64
                / keys.len() as f64
        })
        .collect();
    rec.layer("btree.get_ns", median(&batches));
    rec.layer(
        "btree.pages_per_get",
        (counters.page_reads() - before) as f64 / (5 * keys.len()) as f64,
    );

    let scans: Vec<f64> = (0..3)
        .map(|_| {
            let mut entries = 0usize;
            let t = ns(|| entries = tree.scan_all().take(50_000).count());
            t as f64 / entries.max(1) as f64
        })
        .collect();
    rec.layer("btree.scan_ns_per_entry", median(&scans));

    let entries: Vec<(Vec<u8>, Vec<u8>)> = tree.scan_all().take(BTREE_BUILD_ENTRIES).collect();
    let mut built = None;
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let input = entries.clone();
            let pool = Arc::new(BufferPool::in_memory(4_096));
            let t = ns(|| built = Some(bulk_build(pool, BTreeOptions::default(), input)));
            t as f64 / entries.len() as f64
        })
        .collect();
    rec.layer("btree.bulk_build_ns_per_entry", median(&builds));

    let mut scratch = built.expect("three builds ran");
    let inserts: Vec<u64> = entries
        .iter()
        .step_by((entries.len() / 1_000).max(1))
        .map(|(k, v)| {
            // `k ++ 0x00` sorts directly after `k` and is not in the tree.
            let mut fresh = k.clone();
            fresh.push(0);
            ns(|| {
                std::hint::black_box(scratch.insert(&fresh, v));
            })
        })
        .collect();
    rec.layer("btree.insert_us", median_u64(&inserts) / 1e3);
}

/// `storage.fetch_*` and `storage.cow_fork_us` on the serving
/// ROOTPATHS pool. Clears that pool's cache; call it after everything
/// that wants it warm.
pub fn storage(rec: &mut Ledger, engine: &SharedEngine, nproc: usize) {
    let pool: &BufferPool =
        engine.rootpaths().expect("every workload builds ROOTPATHS").tree().pool();
    let resident = (pool.num_pages() as usize).min(pool.capacity() / 2).clamp(1, 1_024);
    let round = |pool: &BufferPool| {
        for p in 0..resident as u32 {
            std::hint::black_box(pool.fetch(PageId(p))[0]);
        }
    };
    let rounds = |pool: &BufferPool| -> f64 {
        round(pool); // make the pages resident
        let per_fetch: Vec<f64> =
            (0..20).map(|_| ns(|| round(pool)) as f64 / resident as f64).collect();
        median(&per_fetch)
    };
    rec.layer("storage.fetch_hit_ns", rounds(pool));
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nproc).map(|_| scope.spawn(|| rounds(pool))).collect();
        handles.into_iter().map(|h| h.join().expect("fetch thread panicked")).collect()
    });
    rec.layer("storage.fetch_hit_ns_mt", per_thread.iter().sum::<f64>() / per_thread.len() as f64);

    pool.clear_cache();
    let misses: Vec<u64> = (0..pool.num_pages().min(512))
        .map(|p| {
            ns(|| {
                std::hint::black_box(pool.fetch(PageId(p))[0]);
            })
        })
        .collect();
    rec.layer("storage.fetch_miss_us", median_u64(&misses) / 1e3);

    let mut forks = Vec::new();
    let fork_ns: Vec<u64> = (0..20)
        .map(|_| ns(|| forks.push(pool.cow_fork().expect("no writer holds a page"))))
        .collect();
    rec.layer("storage.cow_fork_us", median_u64(&fork_ns) / 1e3);
}

/// `rel.*`: the id-list codec and key encoder over the root-path id
/// lists of the dataset's own nodes — the lists the indexes store.
pub fn codec(rec: &mut Ledger, forest: &XmlForest) {
    let stride = (forest.node_count() / 2_048).max(1);
    let nodes: Vec<_> = forest.iter_nodes().step_by(stride).collect();
    let lists: Vec<Vec<u64>> =
        nodes.iter().map(|&n| forest.root_path_ids(n).iter().map(|id| id.0).collect()).collect();
    let ids: usize = lists.iter().map(Vec::len).sum();

    let mut encoded = Vec::new();
    let enc: Vec<f64> = (0..5)
        .map(|_| {
            ns(|| {
                encoded = lists.iter().map(|l| encode_idlist(IdListCodec::Delta, l)).collect();
            }) as f64
                / ids as f64
        })
        .collect();
    rec.layer("rel.idlist_encode_ns_per_id", median(&enc));
    let dec: Vec<f64> = (0..5)
        .map(|_| {
            ns(|| {
                for bytes in &encoded {
                    std::hint::black_box(decode_idlist(IdListCodec::Delta, bytes));
                }
            }) as f64
                / ids as f64
        })
        .collect();
    rec.layer("rel.idlist_decode_ns_per_id", median(&dec));

    // A ROOTPATHS-shaped key: the schema path's tags, then the value.
    let paths: Vec<(Vec<u64>, &str)> = nodes
        .iter()
        .map(|&n| {
            let tags = forest.root_path_tags(n).iter().map(|t| u64::from(t.0)).collect();
            (tags, forest.value_str(n).unwrap_or(""))
        })
        .collect();
    let keys: Vec<f64> = (0..5)
        .map(|_| {
            ns(|| {
                for (tags, value) in &paths {
                    let mut key = KeyBuf::new();
                    for t in tags {
                        key.push_u64(*t);
                    }
                    key.push_str(value);
                    std::hint::black_box(key.finish());
                }
            }) as f64
                / paths.len() as f64
        })
        .collect();
    rec.layer("rel.key_encode_ns", median(&keys));
}

/// `service.overhead_us` and `service.result_hit_us`: what the service
/// adds around an execution, and what a result-cache hit costs.
pub fn service(
    rec: &mut Ledger,
    uncached: &TwigService,
    cached: &TwigService,
    requests: &[Request],
) {
    let overhead: Vec<f64> = requests
        .iter()
        .filter_map(|r| {
            let (c, p) = uncached.with_engine(|e| e.compile(&r.twig)).ok()?;
            let through = median_ns(5, || {
                std::hint::black_box(uncached.execute(&r.twig, Strategy::Auto).ok());
            });
            let direct = uncached.with_engine(|e| {
                median_ns(5, || {
                    std::hint::black_box(e.answer_compiled(&c, &p, Strategy::Auto));
                })
            });
            Some(through - direct)
        })
        .collect();
    rec.layer("service.overhead_us", median(&overhead) / 1e3);

    let hits: Vec<f64> = requests
        .iter()
        .map(|r| {
            let _ = cached.execute(&r.twig, Strategy::Auto); // fill
            median_ns(5, || {
                let a = cached.execute(&r.twig, Strategy::Auto);
                debug_assert!(a.is_ok_and(|a| a.from_cache));
            })
        })
        .collect();
    rec.layer("service.result_hit_us", median(&hits) / 1e3);
}

fn wire_request(r: &Request) -> WireRequest {
    WireRequest::Query {
        index: INDEX.to_owned(),
        xpath: r.xpath.clone(),
        strategy: "auto".to_owned(),
    }
}

/// Request and response through the codec: encode, then decode what a
/// frame would carry.
fn codec_round_trip(req: &WireRequest, resp: &Response, request_id: u64) {
    let (opcode, payload) = req.encode_enveloped(TraceContext { request_id, sample: false });
    std::hint::black_box(WireRequest::decode_enveloped(&Frame { opcode, payload }).ok());
    let (opcode, payload) = resp.encode_enveloped(request_id);
    std::hint::black_box(Response::decode_enveloped(&Frame { opcode, payload }).ok());
}

/// Nanoseconds to write `frames` to memory and read them back.
fn frame_round_trip(frames: &[(u8, Vec<u8>)]) -> u64 {
    let mut wire = Vec::with_capacity(frames.iter().map(|(_, p)| p.len() + 16).sum());
    ns(|| {
        for (opcode, payload) in frames {
            write_frame(&mut wire, *opcode, payload).expect("write to memory");
        }
        let mut cursor = Cursor::new(&wire);
        for _ in frames {
            std::hint::black_box(read_frame(&mut cursor).ok());
        }
    })
}

/// `net.ping_rtt_us`, the codec and framing rows: the wire layer on
/// the workload's real answers, without the executor.
pub fn net(rec: &mut Ledger, stack: &Stack, requests: &[Request]) {
    let mut client = Client::connect(stack.addr()).expect("connect to loopback server");
    let pings: Vec<u64> = (0..500).map(|_| ns(|| client.ping().expect("ping"))).collect();
    rec.layer("net.ping_rtt_us", median_u64(&pings) / 1e3);

    let exchanges: Vec<(WireRequest, Response)> = requests
        .iter()
        .map(|r| {
            let req = wire_request(r);
            let resp = handle_request_ctx(&stack.catalog, &req, &RequestCtx::default());
            (req, resp)
        })
        .collect();
    let ids: usize = exchanges
        .iter()
        .map(|(_, resp)| match resp {
            Response::Answer { ids, .. } => ids.len(),
            _ => 0,
        })
        .sum();

    let req_ns: Vec<f64> = exchanges
        .iter()
        .map(|(req, _)| {
            median_ns(9, || {
                let (opcode, payload) =
                    req.encode_enveloped(TraceContext { request_id: 1, sample: false });
                std::hint::black_box(
                    WireRequest::decode_enveloped(&Frame { opcode, payload }).ok(),
                );
            })
        })
        .collect();
    rec.layer("net.req_codec_ns", median(&req_ns));

    // Encoded once: the payloads give the byte count and the frames.
    let frames: Vec<(u8, Vec<u8>)> =
        exchanges.iter().map(|(_, resp)| resp.encode_enveloped(1)).collect();
    let bytes: usize = frames.iter().map(|(_, payload)| payload.len()).sum();
    let resp_ns: f64 = exchanges
        .iter()
        .map(|(_, resp)| {
            median_ns(5, || {
                let (opcode, payload) = resp.encode_enveloped(1);
                std::hint::black_box(Response::decode_enveloped(&Frame { opcode, payload }).ok());
            })
        })
        .sum();
    rec.layer("net.resp_codec_ns_per_id", resp_ns / ids.max(1) as f64);
    rec.layer("net.bytes_per_id", bytes as f64 / ids.max(1) as f64);

    let frame_ns: Vec<f64> = frames
        .chunks(1)
        .map(|frame| {
            let samples: Vec<u64> = (0..5).map(|_| frame_round_trip(frame)).collect();
            median_u64(&samples)
        })
        .collect();
    rec.layer("net.frame_rw_ns", median(&frame_ns));
}

/// Requests of the schedule replayed through every door by the traced
/// run; the bulk requests follow them.
pub const REPLAY_SAMPLE: usize = 200;
const REPLAY_RUN_IN: usize = 50;

/// The traced replay: the sampled requests enter every door from the
/// outside in — `Client::query`, `handle_request_ctx`, `parse_xpath`,
/// `TwigService::execute`, `QueryEngine::compile`, `answer_compiled`,
/// the response codec, the framing — one span per call. The sample goes
/// through one door at a time, back to back, because that is how the
/// workload's own callers use a door; interleaving the doors per
/// request leaves each of them cold (a loopback round trip measured
/// 85 µs that way against 22 µs in the closed loop). Records the
/// `self_us.*` rows and the rows that are differences between doors;
/// returns every span.
pub fn replay(
    rec: &mut Ledger,
    w: &Workload,
    stack: &Stack,
    requests: &[Request],
    schedule: &[u32],
    bulk: &[u32],
    epoch: Instant,
) -> Vec<Span> {
    let mut client = Client::connect(stack.addr()).expect("connect to loopback server");
    let svc = &stack.svc;
    // The schedule's first requests, then every bulk request (once
    // more, where the schedule already holds them).
    let sample: Vec<&Request> = schedule
        .iter()
        .cycle()
        .take(REPLAY_SAMPLE)
        .chain(bulk)
        .map(|&request| &requests[request as usize])
        .collect();
    let wire: Vec<WireRequest> = sample.iter().map(|r| wire_request(r)).collect();

    // A new connection's first round trips time the server spawning
    // its thread, not the door; let them pass.
    for r in sample.iter().take(REPLAY_RUN_IN) {
        std::hint::black_box(client.query(INDEX, &r.xpath, "auto").ok());
    }
    let query: Vec<(u64, u64)> = sample
        .iter()
        .map(|r| {
            let started = epoch.elapsed().as_nanos() as u64;
            let t = ns(|| {
                std::hint::black_box(client.query(INDEX, &r.xpath, "auto").ok());
            });
            (started, t)
        })
        .collect();
    let dispatch: Vec<(u64, Response)> = wire
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let ctx = RequestCtx { request_id: i as u64 + 1, sample: false, peer: "replay".into() };
            let mut resp = None;
            let t = ns(|| resp = Some(handle_request_ctx(&stack.catalog, req, &ctx)));
            (t, resp.expect("dispatch ran"))
        })
        .collect();
    let parse: Vec<u64> = sample
        .iter()
        .map(|r| {
            ns(|| {
                std::hint::black_box(parse_xpath(&r.xpath).ok());
            })
        })
        .collect();
    // What `execute` did decides which inner doors it went through: a
    // result-cache hit never reaches the executor, and a plan-cache hit
    // never plans.
    let execute: Vec<(u64, bool, bool)> = sample
        .iter()
        .map(|r| {
            let plan_misses = svc.stats().plan_cache.misses;
            let mut executed = false;
            let t = ns(|| {
                executed = svc.execute(&r.twig, Strategy::Auto).is_ok_and(|a| !a.from_cache);
            });
            (t, executed, svc.stats().plan_cache.misses > plan_misses)
        })
        .collect();
    let plan: Vec<(u64, Option<(CompiledTwig, QueryPlan)>)> = sample
        .iter()
        .map(|r| {
            let mut compiled = None;
            let t = ns(|| compiled = svc.with_engine(|e| e.compile(&r.twig)).ok());
            (t, compiled)
        })
        .collect();
    let exec: Vec<u64> = plan
        .iter()
        .zip(&execute)
        .map(|((_, compiled), (_, executed, _))| match compiled {
            Some((c, p)) if *executed => ns(|| {
                svc.with_engine(|e| std::hint::black_box(e.answer_compiled(c, p, Strategy::Auto)));
            }),
            _ => 0,
        })
        .collect();

    let mut all = Vec::new();
    let mut selfs: Vec<Vec<f64>> = vec![Vec::new(); spans::NAMES.len()];
    let (mut transport, mut transport_bulk, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..sample.len() {
        let request_id = i as u64 + 1;
        let (started, t_query) = query[i];
        let (t_dispatch, resp) = &dispatch[i];
        let (t_execute, executed, planned) = execute[i];
        let t_codec = ns(|| {
            codec_round_trip(&wire[i], resp, request_id);
        });
        let t_frame = frame_round_trip(&[
            wire[i].encode_enveloped(TraceContext { request_id, sample: false }),
            resp.encode_enveloped(request_id),
        ]);

        let mut tree = Tree::new(request_id, spans::NET_CLIENT_QUERY, started, t_query);
        tree.child(0, spans::NET_FRAME_RW, t_frame);
        tree.child(0, spans::NET_RESP_CODEC, t_codec);
        let d = tree.child(0, spans::NET_DISPATCH, *t_dispatch);
        tree.child(d, spans::CORE_PARSE_XPATH, parse[i]);
        let e = tree.child(d, spans::SERVICE_EXECUTE, t_execute);
        if executed {
            if planned {
                tree.child(e, spans::OPT_PLAN, plan[i].0);
            }
            tree.child(e, spans::CORE_EXEC, exec[i]);
        }
        let request_spans = tree.finish();
        let mut request_selfs = vec![0.0; spans::NAMES.len()];
        for (name, self_ns) in spans::self_times(&request_spans) {
            let at = spans::NAMES.iter().position(|n| *n == name).expect("known span name");
            request_selfs[at] += self_ns as f64;
        }
        for (bucket, v) in selfs.iter_mut().zip(request_selfs) {
            bucket.push(v);
        }
        transport.push(t_query.saturating_sub(*t_dispatch) as f64);
        if i >= REPLAY_SAMPLE {
            transport_bulk.push(t_query.saturating_sub(*t_dispatch) as f64);
        }
        overhead.push(t_dispatch.saturating_sub(t_execute + parse[i]) as f64);
        all.extend(request_spans);
    }

    // The workload's own door is where its untraced latency is taken;
    // the self times from that door inward should add up to it.
    let door_from = match w.door {
        Door::Wire => 0,
        Door::InProc => {
            spans::NAMES.iter().position(|n| *n == spans::SERVICE_EXECUTE).expect("known name")
        }
    };
    let mut door_sum = 0.0;
    for (i, (name, bucket)) in spans::NAMES.iter().zip(&selfs).enumerate() {
        let self_us = median(bucket) / 1e3;
        rec.layer(&format!("self_us.{name}"), self_us);
        if i >= door_from {
            door_sum += self_us;
        }
    }
    rec.layer("trace.door_self_sum_us", door_sum);
    rec.layer("net.transport_us", median(&transport) / 1e3);
    rec.layer("net.transport_bulk_us", median(&transport_bulk) / 1e3);
    rec.layer("net.dispatch_overhead_us", median(&overhead) / 1e3);
    all
}
