//! Set-up: generate the forest, compute the oracle, then do the
//! program's own work before the first request — build, persist, attach
//! through the catalog, bind the server — and time that work.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use xtwig_core::engine::EngineOptions;
use xtwig_core::{parse_xpath, QueryEngine};
use xtwig_datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
use xtwig_net::{Server, ServerHandle};
use xtwig_service::{Catalog, CatalogOptions, ServiceOptions, TwigService};
use xtwig_xml::{naive, TwigPattern, XmlForest};

use crate::workload::{self, checksum, Dataset, Fingerprint, Workload};

/// Catalog name the persisted index is served under.
pub const INDEX: &str = "bench";

/// The generated document and what producing it cost the harness.
pub struct Data {
    pub forest: Arc<XmlForest>,
    pub nodes: u64,
    pub datagen_s: f64,
}

/// Seed of the generated documents. The document is part of a
/// workload's definition, like its scale: `--seed` orders the requests
/// and names the writer's values, but does not move the data. (With a
/// per-run document the median request of `twig_inproc` cost 79 µs on
/// one seed and 122 µs on the next — the optimizer picks by data — and
/// no bound narrower than that could be declared.)
const DATA_SEED: u64 = 0x5EED;

pub fn generate(w: &Workload, scale: f64) -> Data {
    let start = Instant::now();
    let mut forest = XmlForest::new();
    let seed = DATA_SEED;
    let nodes = match w.dataset {
        Dataset::Xmark => generate_xmark(&mut forest, XmarkConfig { scale, seed }).nodes,
        Dataset::Dblp => generate_dblp(&mut forest, DblpConfig { scale, seed }).nodes,
    };
    Data { forest: Arc::new(forest), nodes, datagen_s: start.elapsed().as_secs_f64() }
}

/// One request with the answer the program must give.
pub struct Request {
    pub xpath: String,
    pub twig: TwigPattern,
    pub expect: Fingerprint,
}

/// Parses the workload's XPath strings and computes each expected
/// fingerprint from `naive::select` on the same forest. Returns the
/// requests and the oracle's wall time.
pub fn requests(w: &Workload, forest: &XmlForest) -> (Vec<Request>, f64) {
    let start = Instant::now();
    let list = workload::xpaths(w)
        .into_iter()
        .map(|xpath| {
            let twig = parse_xpath(&xpath).expect("workload request parses");
            let expect = checksum(naive::select(forest, &twig).into_iter().map(|n| n.0));
            Request { xpath, twig, expect }
        })
        .collect();
    (list, start.elapsed().as_secs_f64())
}

/// Splits the request indices into the callers' mix and the bulk
/// requests: those with at least [`workload::BULK_ANSWER_IDS`] ids, or
/// — on a document too small to have any — the largest answer alone.
/// With `bulk_apart` the two are disjoint; otherwise bulk requests stay
/// in the mix and are only marked.
pub fn split_bulk(w: &Workload, requests: &[Request]) -> (Vec<u32>, Vec<u32>) {
    let all = 0..requests.len() as u32;
    let count = |i: &u32| requests[*i as usize].expect.count;
    let mut bulk: Vec<u32> =
        all.clone().filter(|i| count(i) >= workload::BULK_ANSWER_IDS).collect();
    if bulk.is_empty() {
        bulk.extend(all.clone().max_by_key(count));
    }
    let mix = all.filter(|i| !(w.bulk_apart && bulk.contains(i))).collect();
    (mix, bulk)
}

/// What the program did before it could take its first request.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    pub persist_s: f64,
    /// Catalog attach: `TwigService::open` with digest verification.
    pub attach_s: f64,
    /// Server bind and accept-thread start (wire door only).
    pub bind_s: f64,
    pub file_bytes: u64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.persist_s + self.attach_s + self.bind_s
    }
}

/// A loopback server on its accept thread.
pub struct Serving {
    pub handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

/// The serving stack of one run. Dropping it stops the server, joins
/// its threads and deletes the index file.
pub struct Stack {
    pub catalog: Arc<Catalog>,
    pub svc: Arc<TwigService>,
    pub serving: Option<Serving>,
    pub index_path: PathBuf,
    pub times: SetupTimes,
}

fn service_options(result_cache: usize) -> ServiceOptions {
    // The load generator dispatches on its own threads (`execute`); the
    // queued door's worker pool stays at its minimum of one idle thread.
    ServiceOptions { workers: 1, result_cache_capacity: result_cache, ..Default::default() }
}

impl Stack {
    /// Builds `w`'s strategies over `forest`, persists them to
    /// `index_path`, attaches the file through a fresh catalog and, when
    /// `serve`, binds a server on an ephemeral loopback port.
    pub fn set_up(w: &Workload, forest: &Arc<XmlForest>, index_path: &Path, serve: bool) -> Stack {
        let mut times = SetupTimes::default();

        let t = Instant::now();
        let engine = QueryEngine::build(
            forest.clone(),
            EngineOptions {
                strategies: w.strategies.to_vec(),
                pool_pages: w.pool_pages,
                ..Default::default()
            },
        );
        times.build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let report = engine.persist(index_path).expect("persist index");
        times.persist_s = t.elapsed().as_secs_f64();
        times.file_bytes = report.file_bytes;
        drop(engine);

        let t = Instant::now();
        let catalog = Arc::new(Catalog::new(CatalogOptions {
            service: service_options(w.result_cache),
            ..Default::default()
        }));
        catalog.register(INDEX, index_path);
        let svc = catalog.get(INDEX).expect("attach persisted index");
        times.attach_s = t.elapsed().as_secs_f64();

        let serving = serve.then(|| {
            let t = Instant::now();
            let server = Server::bind("127.0.0.1:0", catalog.clone()).expect("bind loopback");
            let handle = server.handle().expect("server handle");
            let thread = std::thread::spawn(move || server.run());
            times.bind_s = t.elapsed().as_secs_f64();
            Serving { handle, thread }
        });

        Stack { catalog, svc, serving, index_path: index_path.to_owned(), times }
    }

    /// A second service over the same file with the other result-cache
    /// setting: the traced run needs both a real execution and a cache
    /// hit for every request, whatever the workload configures.
    pub fn complement(&self, w: &Workload) -> TwigService {
        let cache = if w.result_cache == 0 { 1_024 } else { 0 };
        TwigService::open(&self.index_path, service_options(cache)).expect("reopen index")
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.serving.as_ref().expect("stack was set up without a server").handle.addr()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(serving) = self.serving.take() {
            serving.handle.stop();
            match serving.thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("server exited with {e}"),
                Err(_) => eprintln!("server thread panicked"),
            }
        }
        let _ = std::fs::remove_file(&self.index_path);
    }
}
