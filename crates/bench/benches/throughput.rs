//! Perf-5: multi-query throughput. A fixed batch of 64 prepared-query
//! evaluations over the `eval_scaling` corpus (balanced depth-8
//! trees), scheduled through `Engine::eval_batch_on` on pools of 1, 2
//! and 8 workers, against the plain sequential loop — queries/sec is
//! `64 / (ns_per_iter · 1e-9)`, and the `pool8 / seq` ratio is the
//! batch-throughput scaling factor the parallel evaluation layer
//! exists for. `eval_many_docs` (one query fanned over 8 documents)
//! rides along.
//!
//! Caveat for cross-machine comparisons: a pool can only scale to the
//! cores that exist. On a single-core container every pool size
//! measures (sequential + scheduling overhead); the recorded baseline
//! states the machine's core count alongside the numbers.

use axml::{Engine, EvalOptions, Pool, PreparedQuery, SemiringKind};
use axml_bench::balanced_tree;
use axml_semiring::NatPoly;
use axml_uxml::Forest;
use criterion::{criterion_group, criterion_main, Criterion};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Instant;

const N_DOCS: usize = 8;
const BATCH: usize = 64;

struct Workload {
    engine: Engine,
    queries: Vec<PreparedQuery>,
}

fn workload() -> Workload {
    let engine = Engine::new();
    for i in 0..N_DOCS {
        engine.insert_forest(
            &format!("S{i}"),
            Forest::unit(balanced_tree::<NatPoly>(8, 2)),
        );
    }
    let queries = (0..N_DOCS)
        .map(|i| {
            engine
                .prepare(&format!("element out {{ $S{i}//c }}"))
                .expect("prepares")
        })
        .collect();
    Workload { engine, queries }
}

/// 64 entries: 8 documents × a rotating semiring mix (symbolic ℕ[X]
/// plus three specialized kinds — the steady-state server shape where
/// every artifact and specialization is already cached).
fn batch(w: &Workload) -> Vec<(&PreparedQuery, EvalOptions)> {
    const KINDS: [SemiringKind; 4] = [
        SemiringKind::NatPoly,
        SemiringKind::Nat,
        SemiringKind::Tropical,
        SemiringKind::Why,
    ];
    (0..BATCH)
        .map(|j| {
            (
                &w.queries[j % N_DOCS],
                EvalOptions::new().semiring(KINDS[j % KINDS.len()]),
            )
        })
        .collect()
}

fn throughput(c: &mut Criterion) {
    let w = workload();
    let entries = batch(&w);
    // Warm every (document × kind) specialization and per-kind artifact
    // cache so the measurement is steady-state evaluation only.
    for r in w.engine.eval_batch_on(&Pool::new(1), &entries) {
        r.expect("warmup evaluates");
    }

    let mut g = c.benchmark_group("throughput");
    g.bench_function("batch64/seq", |b| {
        b.iter(|| {
            let results: Vec<_> = entries.iter().map(|(q, o)| q.eval(&w.engine, *o)).collect();
            assert_eq!(results.len(), BATCH);
            results
        })
    });
    for workers in [1usize, 2, 8] {
        let pool = Pool::new(workers);
        g.bench_function(format!("batch64/pool{workers}"), |b| {
            b.iter(|| {
                let results = w.engine.eval_batch_on(&pool, &entries);
                assert_eq!(results.len(), BATCH);
                results
            })
        });
    }

    // One prepared query fanned over every document.
    let q = w.engine.prepare("element out { $D//c }").expect("prepares");
    let names: Vec<String> = (0..N_DOCS).map(|i| format!("S{i}")).collect();
    let docs: Vec<&str> = names.iter().map(String::as_str).collect();
    let pool8 = Pool::new(8);
    g.bench_function("many_docs8/seq", |b| {
        b.iter(|| {
            docs.iter()
                .map(|d| {
                    let aliases: Vec<(&str, &str)> =
                        q.free_vars().iter().map(|v| (v.as_str(), *d)).collect();
                    q.eval_with(&w.engine, EvalOptions::new(), &aliases, None)
                })
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("many_docs8/pool8", |b| {
        b.iter(|| {
            w.engine
                .eval_many_docs_on(&pool8, &q, &docs, EvalOptions::new())
        })
    });
    g.finish();
}

/// Document churn: edit-then-eval through `Engine::edit_document` (the
/// incremental path — spine-only interning, Δ-fact propagation on the
/// shredded route, fingerprint-memoized re-walks on the direct route)
/// against reparse-then-eval (`load_document` with the full edited
/// text — the only option before the edit API existed). Corpus: one
/// depth-6 branching-3 balanced tree (1093 logical nodes); the
/// `edit1pct` scenario splices a height-1 subtree (4 nodes, ~0.4% of
/// the document), `edit10pct` a height-4 subtree (121 nodes, ~11%).
/// Each sample times one edit (or reload) **plus** one evaluation of
/// `$S//c`, alternating between two same-size splice payloads so the
/// document stays in steady state.
///
/// Records: `churn/incremental_vs_full/{route}_{scenario}/{edit_eval,
/// reparse_eval}` (wall-clock, median-normalized like the compute
/// benches) and `…/cost_ratio_x1000` — the incremental cost as a
/// per-mille fraction of the full cost (machine-independent, exempt
/// from normalization; ≤200 means the edit path is ≥5× faster, and a
/// *rise* past the gate threshold fails CI).
fn churn(c: &mut Criterion) {
    let _ = c; // hand-measured: each sample is one edit+eval round trip
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_mode = args.iter().any(|a| a == "--test");
    if let Some(filter) = args.iter().rfind(|a| !a.starts_with("--")) {
        if !"churn/incremental_vs_full".contains(filter.as_str()) {
            return;
        }
    }

    /// A balanced splice payload with labels disjoint from the
    /// corpus's (`tag` makes the two alternating variants distinct);
    /// like the corpus, the first leaf under each parent is a `c` so
    /// the benched query keeps matching inside the spliced region.
    fn variant(height: u32, branching: u32, tag: u32) -> axml_uxml::Tree<NatPoly> {
        fn build(h: u32, b: u32, tag: u32, idx: u32) -> axml_uxml::Tree<NatPoly> {
            use axml_semiring::Semiring as _;
            if h == 0 {
                return if idx == 0 {
                    axml_uxml::Tree::leaf("c")
                } else {
                    axml_uxml::Tree::leaf(axml_uxml::Label::new(&format!("w{tag}_{idx}")))
                };
            }
            let mut kids = Forest::new();
            for i in 0..b {
                kids.insert(build(h - 1, b, tag, i), NatPoly::one());
            }
            axml_uxml::Tree::new(axml_uxml::Label::new(&format!("v{tag}_{h}_{idx}")), kids)
        }
        build(height, branching, tag, 0)
    }

    let base = balanced_tree::<NatPoly>(6, 3);
    let base_text = base.to_string();
    const QUERY: &str = "$S//c";

    for (scenario, path, height) in [
        ("edit1pct", "/0/0/0/0/0/0", 1u32),
        ("edit10pct", "/0/0/0", 4),
    ] {
        let scripts: Vec<String> = (0..2)
            .map(|tag| format!("splice {path} {}", variant(height, 3, tag)))
            .collect();
        // The reparse side's inputs: the full text of the document one
        // splice away from base, one per payload variant.
        let full_texts: Vec<String> = scripts
            .iter()
            .map(|s| {
                let e = Engine::new();
                e.insert_forest("S", Forest::unit(base.clone()));
                e.edit_document_text("S", s).expect("splice applies");
                let doc = e.document("S").expect("document exists");
                let entries = doc.iter_document();
                assert_eq!(entries.len(), 1, "corpus is single-rooted");
                entries[0].0.to_string()
            })
            .collect();

        for route in [axml::Route::Direct, axml::Route::Shredded] {
            let opts = EvalOptions::new().semiring(SemiringKind::Nat).route(route);

            let inc = Engine::new();
            inc.insert_forest("S", Forest::unit(base.clone()));
            let q_inc = inc.prepare(QUERY).expect("prepares");
            let full = Engine::new();
            full.load_document("S", &base_text).expect("corpus loads");
            let q_full = full.prepare(QUERY).expect("prepares");

            let (warmup, samples) = if test_mode { (2, 2) } else { (6, 40) };
            // Warm to steady state: the incremental engine needs one
            // edited version before its memo/fixpoint state engages.
            for i in 0..warmup {
                inc.edit_document_text("S", &scripts[i % 2]).expect("edits");
                q_inc.eval(&inc, opts).expect("evaluates");
                full.load_document("S", &full_texts[i % 2])
                    .expect("reloads");
                q_full.eval(&full, opts).expect("evaluates");
            }

            let measure = |label: &str, f: &mut dyn FnMut(usize)| {
                let mut ns: Vec<f64> = (0..samples)
                    .map(|i| {
                        let t = Instant::now();
                        f(i);
                        t.elapsed().as_nanos() as f64
                    })
                    .collect();
                ns.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
                let mean = ns.iter().sum::<f64>() / ns.len() as f64;
                let p50 = ns[(ns.len() - 1) / 2];
                criterion::record(
                    &format!(
                        "churn/incremental_vs_full/{}_{scenario}/{label}",
                        route.name()
                    ),
                    mean,
                    p50,
                    ns[0],
                    ns[ns.len() - 1],
                    samples,
                );
                mean
            };
            let inc_mean = measure("edit_eval", &mut |i| {
                inc.edit_document_text("S", &scripts[i % 2]).expect("edits");
                q_inc.eval(&inc, opts).expect("evaluates");
            });
            let full_mean = measure("reparse_eval", &mut |i| {
                full.load_document("S", &full_texts[i % 2])
                    .expect("reloads");
                q_full.eval(&full, opts).expect("evaluates");
            });

            let ratio_x1000 = (1000.0 * inc_mean / full_mean).round();
            criterion::record(
                &format!(
                    "churn/incremental_vs_full/{}_{scenario}/cost_ratio_x1000",
                    route.name()
                ),
                ratio_x1000,
                ratio_x1000,
                ratio_x1000,
                ratio_x1000,
                samples,
            );
        }
    }
}

/// The streaming cursor against one-shot materialization, on a wide
/// result (512 distinct top-level pieces, `Nat`, direct route):
/// `collect` is the full-drain cost of `eval_stream` (its overhead
/// over `materialized` is the channel + producer-thread tax), and
/// `first_piece` is the latency win the cursor exists for — time until
/// the first `(tree, annotation)` pair is in hand, dropping the cursor
/// (and cancelling the producer) immediately after. `wide2000/encode_*`
/// time push-mode evaluation plus the JSON encode of every piece.
fn eval_stream(c: &mut Criterion) {
    let engine = Engine::new();
    // Distinct labels: identical trees would merge into one K-set piece.
    let body: String = (0..512).map(|i| format!("b{i} {{x{i}}} ")).collect();
    engine
        .load_document("W", &format!("<a> {body} </a>"))
        .expect("loads the wide document");
    let q = engine.prepare("$W/*").expect("prepares");
    let opts = EvalOptions::new().semiring(SemiringKind::Nat);
    q.eval(&engine, opts).expect("warms the caches");

    let mut g = c.benchmark_group("eval_stream");
    g.bench_function("wide512/materialized", |b| {
        b.iter(|| q.eval(&engine, opts).expect("evaluates"))
    });
    g.bench_function("wide512/collect", |b| {
        b.iter(|| {
            q.eval_stream(&engine, opts)
                .expect("streams")
                .collect_result()
                .expect("collects")
        })
    });
    g.bench_function("wide512/first_piece", |b| {
        b.iter(|| {
            let mut cursor = q.eval_stream(&engine, opts).expect("streams");
            cursor
                .next()
                .expect("a wide result has pieces")
                .expect("ok")
        })
    });

    // The per-piece encode layer on its own: `eval_each` over the
    // 2000 pieces of `$W2000/*` (the wide document of the server
    // benchmark), each rendered into one buffer as the server's
    // response sink renders it — no socket, no HTTP framing.
    let body: String = (0..2000)
        .map(|i| {
            let l = if i % 2 == 0 { "b" } else { "c" };
            format!("<{l} {{x{i}}}> k{i} {{y{i}}} </{l}> ")
        })
        .collect();
    engine
        .load_document("W2000", &format!("<w> {body} </w>"))
        .expect("loads the wide document");
    let q = engine.prepare("$W2000/*").expect("prepares");
    for (name, kind) in [
        ("wide2000/encode_nat", SemiringKind::Nat),
        ("wide2000/encode_natpoly", SemiringKind::NatPoly),
    ] {
        let opts = EvalOptions::new().semiring(kind);
        let mut json = axml::json::Json::new();
        let mut buf = Vec::new();
        g.bench_function(name, |b| {
            b.iter(|| {
                buf.clear();
                q.eval_each(&engine, opts, &[], None, |p| {
                    buf.push(b',');
                    json.append_to(&mut buf, |j| p.write_json(j));
                    Ok(())
                })
                .expect("evaluates");
                buf.len()
            })
        });
    }
    g.finish();
}

/// The HTTP front end's loopback round trip: one keep-alive
/// connection issuing `POST /eval?handle=…` for the Fig 1 query, each
/// request timed individually so tail latency is visible. Unlike the
/// in-process benches above, every sample includes request parsing,
/// registry lookup, evaluation on the server's pool, and the chunked
/// streaming write — the end-to-end cost a network client pays.
///
/// Records go through `criterion::record` with explicit p50/p99
/// alongside the mean (`server/loopback_eval/{mean,p50,p99}`); the
/// regression gate exempts `server/*` from median normalization the
/// same way it exempts the `storage/*` counts.
fn server_loopback(c: &mut Criterion) {
    let _ = c; // measured by hand: per-request latencies, not b.iter()
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_mode = args.iter().any(|a| a == "--test");
    if let Some(filter) = args.iter().rfind(|a| !a.starts_with("--")) {
        if !"server/loopback_eval".contains(filter.as_str()) {
            return;
        }
    }

    let engine = Arc::new(Engine::new());
    engine.insert_forest("S", axml_bench::fig1_source());
    let mut server = axml_server::start(axml_server::ServerConfig::default(), engine)
        .expect("loopback server starts");

    let mut conn = std::net::TcpStream::connect(server.addr()).expect("connects");
    conn.set_nodelay(true).expect("nodelay");
    let handle = {
        let body = axml_bench::FIG1_QUERY.as_bytes();
        let response = roundtrip(
            &mut conn,
            &format!(
                "POST /prepare HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                body.len()
            ),
            body,
        );
        let text = String::from_utf8(response).expect("prepare response is UTF-8");
        text.split("\"handle\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("prepare returns a handle")
            .to_owned()
    };

    let head =
        format!("POST /eval?handle={handle}&semiring=nat HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    let (warmup, samples) = if test_mode { (1, 1) } else { (20, 200) };
    for _ in 0..warmup {
        roundtrip(&mut conn, &head, b"");
    }
    let mut latencies_ns: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            let body = roundtrip(&mut conn, &head, b"");
            let ns = t.elapsed().as_nanos() as f64;
            assert!(!body.is_empty(), "eval response has a body");
            ns
        })
        .collect();
    server.shutdown();

    latencies_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mean = latencies_ns.iter().sum::<f64>() / latencies_ns.len() as f64;
    let pct = |p: f64| latencies_ns[((latencies_ns.len() - 1) as f64 * p) as usize];
    let (p50, p99) = (pct(0.50), pct(0.99));
    let (min, max) = (latencies_ns[0], latencies_ns[latencies_ns.len() - 1]);
    criterion::record("server/loopback_eval/mean", mean, p50, min, max, samples);
    criterion::record("server/loopback_eval/p50", p50, p50, p50, p50, samples);
    criterion::record("server/loopback_eval/p99", p99, p99, p99, p99, samples);
}

/// Time-to-first-chunk against time-to-last-byte on a wide streamed
/// result (400 distinct pieces): the gap between
/// `server/first_byte_latency/first_chunk` and `…/last_byte` is the
/// wall-clock the streaming `/eval` endpoint hands back to the client
/// — the first piece is on the wire while the evaluation is still
/// producing the rest. Hand-measured per request like
/// [`server_loopback`]; `server/*` records are exempt from median
/// normalization in the regression gate.
fn server_first_byte(c: &mut Criterion) {
    let _ = c; // measured by hand: split timestamps inside one response
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_mode = args.iter().any(|a| a == "--test");
    if let Some(filter) = args.iter().rfind(|a| !a.starts_with("--")) {
        if !"server/first_byte_latency".contains(filter.as_str()) {
            return;
        }
    }

    let engine = Arc::new(Engine::new());
    let body: String = (0..400).map(|i| format!("b{i} {{x{i}}} ")).collect();
    engine
        .load_document("W", &format!("<a> {body} </a>"))
        .expect("loads the wide document");
    let mut server = axml_server::start(axml_server::ServerConfig::default(), engine)
        .expect("loopback server starts");

    let mut conn = std::net::TcpStream::connect(server.addr()).expect("connects");
    conn.set_nodelay(true).expect("nodelay");
    let head = "POST /eval?semiring=nat HTTP/1.1\r\nContent-Length: 4\r\n\r\n";
    let (warmup, samples) = if test_mode { (1, 1) } else { (20, 200) };
    for _ in 0..warmup {
        roundtrip_timed(&mut conn, head, b"$W/*");
    }
    let mut firsts: Vec<f64> = Vec::with_capacity(samples);
    let mut lasts: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let (first_ns, last_ns) = roundtrip_timed(&mut conn, head, b"$W/*");
        assert!(first_ns <= last_ns);
        firsts.push(first_ns);
        lasts.push(last_ns);
    }
    server.shutdown();

    for (name, mut ns) in [("first_chunk", firsts), ("last_byte", lasts)] {
        ns.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let mean = ns.iter().sum::<f64>() / ns.len() as f64;
        let p50 = ns[(ns.len() - 1) / 2];
        let (min, max) = (ns[0], ns[ns.len() - 1]);
        criterion::record(
            &format!("server/first_byte_latency/{name}"),
            mean,
            p50,
            min,
            max,
            samples,
        );
    }
}

/// Mixed cheap/expensive load on a 2-worker server pool — the
/// tail-latency-isolation scenario scope-affine scheduling exists for.
/// Cheap requests are PosBool direct evals over a small document;
/// expensive ones run the NatPoly shredded fixpoint over a deep one.
/// One background client hammers the expensive handle continuously
/// while the foreground client times cheap requests, first in
/// isolation and then under the mixed load.
///
/// Records `server/mixed_load/{cheap_p50,cheap_p99,expensive_mean}`
/// (nanoseconds, machine-dependent, hand-measured like
/// [`server_loopback`]) plus `server/mixed_load/cheap_p99_interference`
/// — mixed-load cheap p99 divided by isolated cheap p99 from the same
/// process, a dimensionless ratio that transfers across machines the
/// way the `churn/` ratios do. Interference ≈ 1 means an expensive
/// stranger's fixpoint cannot capture a cheap request's critical path;
/// the pre-affinity scheduler measured multiples of that. `server/*`
/// records are exempt from median normalization in the regression
/// gate.
fn server_mixed_load(c: &mut Criterion) {
    let _ = c; // measured by hand: per-request latencies under load
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_mode = args.iter().any(|a| a == "--test");
    if let Some(filter) = args.iter().rfind(|a| !a.starts_with("--")) {
        if !"server/mixed_load".contains(filter.as_str()) {
            return;
        }
    }

    let engine = Arc::new(Engine::new());
    let (levels, width) = if test_mode { (8, 12) } else { (48, 96) };
    let big: String = {
        let mut s = String::new();
        for l in 0..levels {
            s.push_str(&format!("<a {{x{l}}}> "));
            for w in 0..width {
                s.push_str(&format!("c {{y{l}_{w}}} "));
            }
        }
        for _ in 0..levels {
            s.push_str("</a> ");
        }
        s
    };
    let small: String = {
        let body: String = (0..96).map(|w| format!("c {{v{w}}} ")).collect();
        format!("<r> {body} </r>")
    };
    engine.load_document("BIG", &big).expect("loads BIG");
    engine.load_document("SMALL", &small).expect("loads SMALL");
    let config = axml_server::ServerConfig {
        pool_workers: 2,
        ..Default::default()
    };
    let mut server = axml_server::start(config, engine).expect("loopback server starts");
    let addr = server.addr();

    let prepare = |conn: &mut std::net::TcpStream, query: &str| -> String {
        let body = query.as_bytes();
        let response = roundtrip(
            conn,
            &format!(
                "POST /prepare HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                body.len()
            ),
            body,
        );
        let text = String::from_utf8(response).expect("prepare response is UTF-8");
        text.split("\"handle\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("prepare returns a handle")
            .to_owned()
    };
    let mut conn = std::net::TcpStream::connect(addr).expect("connects");
    conn.set_nodelay(true).expect("nodelay");
    let cheap_handle = prepare(&mut conn, "$SMALL//c");
    let expensive_handle = prepare(&mut conn, "$BIG//c");
    let cheap_head = format!(
        "POST /eval?handle={cheap_handle}&semiring=posbool HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
    );
    let expensive_head = format!(
        "POST /eval?handle={expensive_handle}&semiring=natpoly&route=shredded&parallelism=2 \
         HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
    );

    let (warmup, samples) = if test_mode { (1, 2) } else { (20, 200) };
    let measure_cheap = |conn: &mut std::net::TcpStream| -> Vec<f64> {
        (0..samples)
            .map(|_| {
                let t = Instant::now();
                let body = roundtrip(conn, &cheap_head, b"");
                let ns = t.elapsed().as_nanos() as f64;
                assert!(!body.is_empty(), "cheap eval response has a body");
                ns
            })
            .collect()
    };
    let pct = |ns: &[f64], p: f64| {
        let mut sorted = ns.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        sorted[((sorted.len() - 1) as f64 * p) as usize]
    };

    // Phase 1 — isolation: the cheap request's cost with the pool to
    // itself, the denominator of the interference ratio.
    for _ in 0..warmup {
        roundtrip(&mut conn, &cheap_head, b"");
        roundtrip(&mut conn, &expensive_head, b"");
    }
    let isolated = measure_cheap(&mut conn);

    // Phase 2 — mixed: an expensive client loops back-to-back on its
    // own connection while the cheap client re-measures.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let expensive_client = {
        let stop = Arc::clone(&stop);
        let head = expensive_head.clone();
        let mut conn = std::net::TcpStream::connect(addr).expect("connects");
        conn.set_nodelay(true).expect("nodelay");
        std::thread::spawn(move || {
            let mut latencies_ns = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let t = Instant::now();
                let body = roundtrip(&mut conn, &head, b"");
                latencies_ns.push(t.elapsed().as_nanos() as f64);
                assert!(!body.is_empty(), "expensive eval response has a body");
            }
            latencies_ns
        })
    };
    let mixed = measure_cheap(&mut conn);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let expensive_ns = expensive_client.join().expect("expensive client finished");
    server.shutdown();

    let cheap_p50 = pct(&mixed, 0.50);
    let cheap_p99 = pct(&mixed, 0.99);
    let expensive_mean = expensive_ns.iter().sum::<f64>() / expensive_ns.len().max(1) as f64;
    let interference = cheap_p99 / pct(&isolated, 0.99);
    criterion::record(
        "server/mixed_load/cheap_p50",
        cheap_p50,
        cheap_p50,
        cheap_p50,
        cheap_p50,
        samples,
    );
    criterion::record(
        "server/mixed_load/cheap_p99",
        cheap_p99,
        cheap_p99,
        cheap_p99,
        cheap_p99,
        samples,
    );
    criterion::record(
        "server/mixed_load/expensive_mean",
        expensive_mean,
        expensive_mean,
        expensive_mean,
        expensive_mean,
        expensive_ns.len(),
    );
    criterion::record(
        "server/mixed_load/cheap_p99_interference",
        interference,
        interference,
        interference,
        interference,
        samples,
    );
}

/// Like [`roundtrip`], but returns `(time to the end of the first data
/// chunk, time to the last body byte)` in nanoseconds, both measured
/// from the moment the request is fully written.
fn roundtrip_timed(conn: &mut std::net::TcpStream, head: &str, body: &[u8]) -> (f64, f64) {
    conn.write_all(head.as_bytes())
        .expect("writes request head");
    conn.write_all(body).expect("writes request body");
    let t = Instant::now();
    let mut buf = Vec::new();
    let mut one = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        assert_eq!(conn.read(&mut one).expect("reads head"), 1, "EOF in head");
        buf.push(one[0]);
    }
    let head_text = String::from_utf8_lossy(&buf);
    assert!(head_text.starts_with("HTTP/1.1 200"), "{head_text}");
    assert!(
        head_text
            .to_ascii_lowercase()
            .contains("transfer-encoding: chunked"),
        "streamed eval responses are chunked"
    );
    let mut first_chunk_ns: Option<f64> = None;
    loop {
        let mut line = Vec::new();
        while !line.ends_with(b"\r\n") {
            assert_eq!(conn.read(&mut one).expect("reads size"), 1, "EOF in chunk");
            line.push(one[0]);
        }
        let size_txt = String::from_utf8_lossy(&line);
        let size = usize::from_str_radix(size_txt.trim(), 16).expect("chunk size");
        let mut chunk = vec![0u8; size + 2]; // data + CRLF
        conn.read_exact(&mut chunk).expect("reads chunk");
        if size == 0 {
            let last_ns = t.elapsed().as_nanos() as f64;
            return (first_chunk_ns.expect("at least one data chunk"), last_ns);
        }
        if first_chunk_ns.is_none() {
            first_chunk_ns = Some(t.elapsed().as_nanos() as f64);
        }
    }
}

/// Write one request, read one complete response (de-chunked when the
/// server streams), return the body bytes.
fn roundtrip(conn: &mut std::net::TcpStream, head: &str, body: &[u8]) -> Vec<u8> {
    conn.write_all(head.as_bytes())
        .expect("writes request head");
    conn.write_all(body).expect("writes request body");
    let mut buf = Vec::new();
    let mut one = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        assert_eq!(conn.read(&mut one).expect("reads head"), 1, "EOF in head");
        buf.push(one[0]);
    }
    let head_text = String::from_utf8_lossy(&buf);
    assert!(head_text.starts_with("HTTP/1.1 200"), "{head_text}");
    if head_text
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        let mut out = Vec::new();
        loop {
            let mut line = Vec::new();
            while !line.ends_with(b"\r\n") {
                assert_eq!(conn.read(&mut one).expect("reads size"), 1, "EOF in chunk");
                line.push(one[0]);
            }
            let size_txt = String::from_utf8_lossy(&line);
            let size = usize::from_str_radix(size_txt.trim(), 16).expect("chunk size");
            let mut chunk = vec![0u8; size + 2]; // data + CRLF
            conn.read_exact(&mut chunk).expect("reads chunk");
            if size == 0 {
                return out;
            }
            chunk.truncate(size);
            out.extend_from_slice(&chunk);
        }
    }
    let len: usize = head_text
        .to_ascii_lowercase()
        .split("content-length:")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .expect("content-length");
    let mut out = vec![0u8; len];
    conn.read_exact(&mut out).expect("reads body");
    out
}

criterion_group!(
    benches,
    throughput,
    churn,
    eval_stream,
    server_loopback,
    server_first_byte,
    server_mixed_load
);
criterion_main!(benches);
