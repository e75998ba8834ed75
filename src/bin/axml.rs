//! `axml` — command-line runner for K-UXQuery over annotated documents.
//!
//! ```console
//! axml query  --semiring natpoly --route differential --doc data.axml 'element r { $S//c }'
//! axml parse  --semiring nat     --doc data.axml
//! axml shred  --doc data.axml    '//c'
//! axml worlds --doc data.axml
//! ```
//!
//! Documents use the annotated text format (`<a {x1}> b {y} </a>`);
//! the document is bound to `$S` (and also to `$T`, `$d`, `$doc` for
//! convenience with the paper's variable names). Queries run through
//! the [`axml::Engine`] facade: any of its semirings, any evaluation
//! route, and optionally provenance-first evaluation.

use annotated_xml::prelude::*;
use annotated_xml::uxml::print::pretty;
use axml::json::{result_json, value_json, Json};
use axml::{Engine, EvalOptions, Route, SemiringKind, StorageStats};
use axml_uxml::{parse_forest, ParseAnnotation};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("axml: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  axml query  [--semiring S] [--route R] [--provenance-first] \\
              [--format text|json] [--stream] [--stats] \\
              [--memory-budget NODES] (--doc FILE | --text DOC) QUERY
  axml edit   (--doc FILE | --text DOC) (--script FILE | --ops TEXT) \\
              [--semiring S] [--route R] [--provenance-first] \\
              [--format text|json] [--stats] [QUERY]
  axml parse  [--semiring S] (--doc FILE | --text DOC)
  axml shred  (--doc FILE | --text DOC) PATH     # //c or /a/b style
  axml worlds (--doc FILE | --text DOC)          # possible worlds (ℕ[X] docs)
  axml serve  [--addr HOST:PORT] [--pool N] [--max-inflight M] \\
              [--max-prepared Q] [--doc FILE | --text DOC]  # HTTP/1.1 query server

query semirings: natpoly (default) | nat | posbool | tropical | why | trio | prob
                 (also bool | clearance, direct route only)
parse semirings: natpoly (default) | nat | bool | clearance | posbool
routes:          direct (default) | via-nrc | shredded | differential
formats:         text (default) | json — machine-consumable query results
streaming:       --stream prints result pieces as they are produced
                 (requires --format json; bytes identical to one-shot);
                 --memory-budget caps evaluation memory in nodes
stats:           --stats appends a stats line after the result (the global
                 pool's lane queues and execution counters, and the
                 engine's incremental counters: memo hits/misses and the
                 memo_entries gauge, the interned label/variable
                 counts, and the arena compaction gauges; one JSON
                 object with --format json);
                 `edit` accepts it too
edit:            applies a line-based edit script (splice | relabel |
                 insert | delete | reannotate, child-index paths, one op
                 per line) through the engine's incremental edit path,
                 prints the edited document and edit stats; with a QUERY
                 it then evaluates against the edited engine, so the
                 delta-propagated / memoized re-evaluation paths engage
serve:           --addr default 127.0.0.1:8787; --pool 0 = one worker per
                 core; --max-inflight default 64 (further connections get
                 503); --max-prepared default 1024 (LRU-evicted beyond);
                 a --doc/--text document preloads as $S/$T/$d/$doc";

struct Opts {
    semiring: String,
    route: String,
    provenance_first: bool,
    format: OutputFormat,
    stream: bool,
    stats: bool,
    memory_budget: Option<usize>,
    doc: Option<String>,
    script: Option<String>,
    addr: String,
    pool: usize,
    max_inflight: usize,
    max_prepared: usize,
    rest: Vec<String>,
}

impl Opts {
    /// The document text, for the commands that require one.
    fn doc(&self) -> Result<&str, String> {
        self.doc
            .as_deref()
            .ok_or_else(|| "a document is required (--doc FILE or --text DOC)".into())
    }
}

#[derive(Clone, Copy, PartialEq)]
enum OutputFormat {
    Text,
    Json,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut semiring = "natpoly".to_owned();
    let mut route = "direct".to_owned();
    let mut provenance_first = false;
    let mut format = OutputFormat::Text;
    let mut stream = false;
    let mut stats = false;
    let mut memory_budget: Option<usize> = None;
    let mut doc: Option<String> = None;
    let mut script: Option<String> = None;
    let mut addr = "127.0.0.1:8787".to_owned();
    let mut pool = 0usize;
    let mut max_inflight = 64usize;
    let mut max_prepared = axml::REGISTRY_DEFAULT_CAPACITY;
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--semiring" => {
                semiring = args.get(i + 1).ok_or("--semiring needs a value")?.clone();
                i += 2;
            }
            "--route" => {
                route = args.get(i + 1).ok_or("--route needs a value")?.clone();
                i += 2;
            }
            "--provenance-first" => {
                provenance_first = true;
                i += 1;
            }
            "--stream" => {
                stream = true;
                i += 1;
            }
            "--stats" => {
                stats = true;
                i += 1;
            }
            "--memory-budget" => {
                memory_budget = Some(
                    args.get(i + 1)
                        .ok_or("--memory-budget needs a node count")?
                        .parse()
                        .map_err(|e| format!("bad --memory-budget value: {e}"))?,
                );
                i += 2;
            }
            "--format" => {
                format = match args.get(i + 1).map(String::as_str) {
                    Some("text") => OutputFormat::Text,
                    Some("json") => OutputFormat::Json,
                    Some(other) => return Err(format!("unknown format {other:?} (text | json)")),
                    None => return Err("--format needs a value (text | json)".into()),
                };
                i += 2;
            }
            "--doc" => {
                let path = args.get(i + 1).ok_or("--doc needs a file path")?;
                doc = Some(
                    std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?,
                );
                i += 2;
            }
            "--text" => {
                doc = Some(args.get(i + 1).ok_or("--text needs a document")?.clone());
                i += 2;
            }
            "--script" => {
                let path = args.get(i + 1).ok_or("--script needs a file path")?;
                script = Some(
                    std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?,
                );
                i += 2;
            }
            "--ops" => {
                script = Some(
                    args.get(i + 1)
                        .ok_or("--ops needs edit-script text")?
                        .clone(),
                );
                i += 2;
            }
            "--addr" => {
                addr = args.get(i + 1).ok_or("--addr needs HOST:PORT")?.clone();
                i += 2;
            }
            "--pool" => {
                pool = args
                    .get(i + 1)
                    .ok_or("--pool needs a worker count")?
                    .parse()
                    .map_err(|e| format!("bad --pool value: {e}"))?;
                i += 2;
            }
            "--max-inflight" => {
                max_inflight = args
                    .get(i + 1)
                    .ok_or("--max-inflight needs a connection count")?
                    .parse()
                    .map_err(|e| format!("bad --max-inflight value: {e}"))?;
                i += 2;
            }
            "--max-prepared" => {
                max_prepared = args
                    .get(i + 1)
                    .ok_or("--max-prepared needs a query count")?
                    .parse()
                    .map_err(|e| format!("bad --max-prepared value: {e}"))?;
                i += 2;
            }
            other => {
                rest.push(other.to_owned());
                i += 1;
            }
        }
    }
    Ok(Opts {
        semiring,
        route,
        provenance_first,
        format,
        stream,
        stats,
        memory_budget,
        doc,
        script,
        addr,
        pool,
        max_inflight,
        max_prepared,
        rest,
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, tail)) = args.split_first() else {
        return Err("no command given".into());
    };
    match cmd.as_str() {
        "query" => {
            let opts = parse_opts(tail)?;
            let q = opts.rest.join(" ");
            if q.is_empty() {
                return Err("query text required".into());
            }
            query_cmd(&opts, &q)
        }
        "edit" => {
            let opts = parse_opts(tail)?;
            edit_cmd(&opts)
        }
        "parse" => {
            let opts = text_only(parse_opts(tail)?, "parse")?;
            dispatch_semiring(&opts.semiring, opts.doc()?, ParseCmd)
        }
        "shred" => {
            let opts = text_only(parse_opts(tail)?, "shred")?;
            let path = opts.rest.join("");
            shred_cmd(opts.doc()?, &path)
        }
        "worlds" => {
            let opts = text_only(parse_opts(tail)?, "worlds")?;
            worlds_cmd(opts.doc()?)
        }
        "serve" => serve_cmd(&text_only(parse_opts(tail)?, "serve")?),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Commands that only have a text rendering must say so instead of
/// silently ignoring `--format json`.
fn text_only(opts: Opts, cmd: &str) -> Result<Opts, String> {
    if opts.format != OutputFormat::Text {
        return Err(format!(
            "--format json is only supported by `query` (`{cmd}` output is text-only)"
        ));
    }
    Ok(opts)
}

fn dispatch_semiring(name: &str, doc: &str, f: impl SemiringDispatch) -> Result<(), String> {
    match name {
        "natpoly" => f.call::<NatPoly>(doc),
        "nat" => f.call::<Nat>(doc),
        "bool" => f.call::<bool>(doc),
        "clearance" => f.call::<Clearance>(doc),
        "posbool" => f.call::<PosBool>(doc),
        other => Err(format!("unknown semiring {other:?} (see usage)")),
    }
}

/// Closure-with-generic-method pattern: the command body runs at the
/// semiring chosen at runtime.
trait SemiringDispatch {
    fn call<K: Semiring + ParseAnnotation>(self, doc: &str) -> Result<(), String>;
}

/// Run a query through the engine facade: one symbolic document load,
/// runtime semiring + route selection. Semirings whose documents are
/// not ℕ\[X\]-representable (`bool`, `clearance`, and PosBool documents
/// written in DNF syntax) keep the pre-facade static path.
fn query_cmd(opts: &Opts, query: &str) -> Result<(), String> {
    let stats = query_result(opts, query)?;
    if opts.stats {
        print_stats(opts.format, &stats);
    }
    Ok(())
}

/// `--stats`: the counters after the result — the global pool's lane
/// queues and execution counters (all zero when the evaluation never
/// touched the pool: sequential mode, tiny inputs), the engine's
/// incremental counters (all zero when nothing was edited), the
/// process's interned label/variable counts and the engine's arena
/// compaction gauges. Separate from the result so its bytes stay
/// identical with and without the flag: four text lines, or one JSON
/// object.
fn print_stats(format: OutputFormat, stats: &StorageStats) {
    let (incr, c) = (&stats.incr, &stats.compaction);
    let s = axml::scheduler_stats();
    // Process-wide intern-pool sizes (names are never freed).
    let labels = axml_uxml::Label::interned_count();
    let vars = axml_semiring::Var::interned_count();
    match format {
        OutputFormat::Text => {
            println!(
                "scheduler: workers={} lanes={} queued(cheap/normal/expensive)={}/{}/{} \
             executed(owned/helped/stolen/injected)={}/{}/{}/{} max_queue_residency_ns={}",
                s.workers,
                s.lanes,
                s.queued_cheap,
                s.queued_normal,
                s.queued_expensive,
                s.owned,
                s.helped,
                s.stolen,
                s.injected,
                s.max_queue_residency_ns
            );
            println!(
                "incremental: edits={} incremental_evals={} fallbacks={} \
                 memo_hits={} memo_misses={} memo_entries={}",
                incr.edits_applied,
                incr.incremental_evals,
                incr.full_fallbacks,
                incr.memo_hits,
                incr.memo_misses,
                incr.memo_entries
            );
            println!("interned: labels={labels} vars={vars}");
            let memos: Vec<String> = c
                .image_memo_entries
                .iter()
                .map(|(kind, n)| format!("{kind}:{n}"))
                .collect();
            println!(
                "compaction: live_subtrees={} subtrees_dropped={} compactions={} \
                 last_pause_us={} image_memo_entries={}",
                c.live_subtrees,
                c.subtrees_dropped,
                c.compactions,
                c.last_pause_us,
                memos.join(",")
            );
        }
        OutputFormat::Json => {
            let mut j = Json::new();
            j.begin_obj();
            j.key("scheduler");
            axml::json::scheduler_json(&mut j, &s);
            j.key("incremental");
            axml::json::incremental_json(&mut j, incr);
            j.key("interned_labels");
            j.int(labels as u64);
            j.key("interned_vars");
            j.int(vars as u64);
            j.key("compaction");
            axml::json::compaction_json(&mut j, c);
            j.end_obj();
            println!("{}", j.finish());
        }
    }
}

/// Run the query and print its result; returns the engine's storage
/// stats (an empty engine's on the static paths, which have none).
fn query_result(opts: &Opts, query: &str) -> Result<StorageStats, String> {
    let no_engine = |()| Engine::new().storage_stats();
    match opts.semiring.as_str() {
        "bool" => return static_query::<bool>(opts, query).map(no_engine),
        "clearance" => return static_query::<Clearance>(opts, query).map(no_engine),
        _ => {}
    }
    let semiring: SemiringKind = opts.semiring.parse()?;
    let route: Route = opts.route.parse()?;
    let forest = match parse_forest::<NatPoly>(opts.doc()?) {
        Ok(f) => f,
        // A PosBool document using `{x | y&z}` / `{true}` annotations
        // isn't an ℕ[X] document; query it in PosBool directly.
        Err(_) if semiring == SemiringKind::PosBool => {
            return static_query::<PosBool>(opts, query).map(no_engine)
        }
        Err(e) => return Err(e.to_string()),
    };
    let engine = Engine::new();
    // Bind the document under all the variable names the paper uses.
    for name in ["S", "T", "d", "doc"] {
        engine.insert_forest(name, forest.clone());
    }
    let mut eval_opts = EvalOptions::new().semiring(semiring).route(route);
    if opts.provenance_first {
        eval_opts = eval_opts.provenance_first();
    }
    if let Some(nodes) = opts.memory_budget {
        eval_opts = eval_opts.memory_budget(nodes);
    }
    if opts.stream {
        stream_query(&engine, query, eval_opts, opts.format)?;
    } else {
        let out = engine.run(query, eval_opts).map_err(|e| e.to_string())?;
        match opts.format {
            OutputFormat::Text => println!("{out}"),
            OutputFormat::Json => println!("{}", result_json(query, &eval_opts, &out)),
        }
    }
    Ok(engine.storage_stats())
}

/// `axml edit`: load the document, apply the edit script through
/// [`axml::Engine::edit_document_text`] — the same incremental path
/// `PATCH /documents/{name}` uses — and print the edited document plus
/// the edit stats. With a trailing QUERY the command then evaluates it
/// against the edited engine, so the evaluation takes the
/// delta-propagated (shredded) or fingerprint-memoized (direct/via-NRC)
/// re-evaluation paths rather than starting from scratch.
fn edit_cmd(opts: &Opts) -> Result<(), String> {
    let script = opts
        .script
        .as_deref()
        .ok_or("an edit script is required (--script FILE or --ops TEXT)")?;
    let forest = parse_forest::<NatPoly>(opts.doc()?).map_err(|e| e.to_string())?;
    let engine = Engine::new();
    engine.insert_forest("S", forest);
    let stats = engine
        .edit_document_text("S", script)
        .map_err(|e| e.to_string())?;
    let edited = engine.document("S").expect("document was just edited");
    // The other paper aliases bind the *edited* content, so a query
    // over $T/$d/$doc sees the same document as $S.
    for name in ["T", "d", "doc"] {
        engine.insert_forest(name, (*edited).clone());
    }

    let query = opts.rest.join(" ");
    match opts.format {
        OutputFormat::Text => {
            print!("{}", pretty(&edited));
            println!(
                "edit: version {} | {} op(s) | {} spine node(s) interned | {} fact(s) retired | {} fact(s) added",
                stats.version,
                stats.ops_applied,
                stats.spine_nodes_interned,
                stats.facts_retired,
                stats.facts_added
            );
        }
        OutputFormat::Json => {
            let mut j = Json::new();
            j.begin_obj();
            j.key("document");
            j.str(&edited.to_string());
            j.key("version");
            j.int(stats.version);
            j.key("ops_applied");
            j.int(stats.ops_applied as u64);
            j.key("spine_nodes_interned");
            j.int(stats.spine_nodes_interned as u64);
            j.key("facts_retired");
            j.int(stats.facts_retired);
            j.key("facts_added");
            j.int(stats.facts_added);
            j.end_obj();
            println!("{}", j.finish());
        }
    }
    if !query.is_empty() {
        edit_query(opts, &engine, &query)?;
    }
    if opts.stats {
        print_stats(opts.format, &engine.storage_stats());
    }
    Ok(())
}

/// The QUERY of `axml edit`, evaluated against the edited engine.
fn edit_query(opts: &Opts, engine: &Engine, query: &str) -> Result<(), String> {
    let semiring: SemiringKind = opts.semiring.parse()?;
    let route: Route = opts.route.parse()?;
    let mut eval_opts = EvalOptions::new().semiring(semiring).route(route);
    if opts.provenance_first {
        eval_opts = eval_opts.provenance_first();
    }
    if let Some(nodes) = opts.memory_budget {
        eval_opts = eval_opts.memory_budget(nodes);
    }
    let out = engine.run(query, eval_opts).map_err(|e| e.to_string())?;
    match opts.format {
        OutputFormat::Text => println!("{out}"),
        OutputFormat::Json => println!("{}", result_json(query, &eval_opts, &out)),
    }
    Ok(())
}

/// `query --stream`: evaluate with [`axml::PreparedQuery::eval_each`]
/// on this thread and print each top-level piece the moment it is
/// pushed, flushing as we go — where the plan streams its root shape
/// the first piece appears before the evaluation has finished. The
/// concatenated output is byte-identical to the one-shot
/// `--format json` rendering; a mid-stream error (tripped deadline or
/// memory budget) leaves the JSON unterminated and exits nonzero, so
/// truncation is always detectable.
fn stream_query(
    engine: &Engine,
    query: &str,
    eval_opts: EvalOptions,
    format: OutputFormat,
) -> Result<(), String> {
    use std::io::Write as _;
    if format != OutputFormat::Json {
        return Err("--stream requires --format json (text output is one-shot)".into());
    }
    let prepared = engine.prepare(query).map_err(|e| e.to_string())?;
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    let mut emit = |s: &str| {
        w.write_all(s.as_bytes())
            .and_then(|()| w.flush())
            .map_err(|e| format!("cannot write to stdout: {e}"))
    };
    emit(&axml::json::result_header(query, &eval_opts))?;
    let mut open_set = false;
    let mut failed = None;
    let pushed = prepared.eval_each(engine, eval_opts, &[], None, |p| {
        let sep = if open_set { "," } else { "[" };
        open_set = true;
        emit(sep).and_then(|()| emit(&p.json())).map_err(|e| {
            failed = Some(e);
            axml::SinkClosed
        })
    });
    if let Some(e) = failed {
        return Err(e);
    }
    match pushed.map_err(|e| e.to_string())? {
        Some(scalar) => {
            let mut j = Json::new();
            axml::json::result_value_json(&mut j, &scalar);
            emit(&j.finish())?;
        }
        // A set with no pieces pushes nothing at all, so it prints `[]`.
        None => emit(if open_set { "]" } else { "[]" })?,
    }
    emit("}\n")
}

/// Run the HTTP server (see `axml-server`): bind, optionally preload
/// one document under all the paper's variable names, serve until the
/// process is killed.
fn serve_cmd(opts: &Opts) -> Result<(), String> {
    let engine = Arc::new(Engine::new());
    if let Some(doc) = &opts.doc {
        let forest = parse_forest::<NatPoly>(doc).map_err(|e| e.to_string())?;
        for name in ["S", "T", "d", "doc"] {
            engine.insert_forest(name, forest.clone());
        }
    }
    let config = axml_server::ServerConfig {
        addr: opts.addr.clone(),
        pool_workers: opts.pool,
        max_inflight: opts.max_inflight,
        max_prepared: opts.max_prepared,
        ..Default::default()
    };
    let server = axml_server::start(config, engine).map_err(|e| e.to_string())?;
    println!("axml-server listening on http://{}", server.addr());
    // No in-process signal handling in std: serve until killed. The
    // handle must stay alive (dropping it would shut the server down).
    loop {
        std::thread::park();
    }
}

/// The compile-time-`K` path: direct evaluation only, for document
/// formats the ℕ\[X\] engine store cannot hold.
fn static_query<K: Semiring + ParseAnnotation + std::fmt::Display>(
    opts: &Opts,
    query: &str,
) -> Result<(), String> {
    if opts.route != "direct" || opts.provenance_first {
        return Err(format!(
            "--route/--provenance-first need an ℕ[X]-annotated document; \
             --semiring {} with this document supports the direct route only",
            opts.semiring
        ));
    }
    let forest = parse_forest::<K>(opts.doc()?).map_err(|e| e.to_string())?;
    let bindings: Vec<(&str, Value<K>)> = ["S", "T", "d", "doc"]
        .iter()
        .map(|n| (*n, Value::Set(forest.clone())))
        .collect();
    let out = run_query::<K>(query, &bindings).map_err(|e| e.to_string())?;
    match opts.format {
        OutputFormat::Text => println!("{out}"),
        OutputFormat::Json => {
            let mut j = Json::new();
            j.begin_obj();
            j.key("query");
            j.str(query);
            j.key("semiring");
            j.str(&opts.semiring);
            j.key("route");
            j.str("direct");
            j.key("mode");
            j.str("in-semiring"); // the static path rejects --provenance-first
            j.key("result");
            value_json(&mut j, &out);
            j.end_obj();
            println!("{}", j.finish());
        }
    }
    Ok(())
}

struct ParseCmd;
impl SemiringDispatch for ParseCmd {
    fn call<K: Semiring + ParseAnnotation>(self, doc: &str) -> Result<(), String> {
        let forest = parse_forest::<K>(doc).map_err(|e| e.to_string())?;
        print!("{}", pretty(&forest));
        Ok(())
    }
}

fn shred_cmd(doc: &str, path: &str) -> Result<(), String> {
    let forest = parse_forest::<NatPoly>(doc).map_err(|e| e.to_string())?;
    let steps = parse_path_steps(path)?;
    let raw = annotated_xml::relational::shredded_eval_path(
        &forest,
        &annotated_xml::uxquery::path::PathQuery::from_steps(&steps),
        &annotated_xml::uxml::Exec::default(),
    )
    .map_err(|e| e.to_string())?;
    println!("E' (raw, with garbage):\n{raw}");
    let clean = annotated_xml::relational::garbage_collect(&raw);
    let decoded = annotated_xml::relational::decode(&clean).ok_or("result is not forest-shaped")?;
    println!("decoded:\n{}", pretty(&decoded));
    Ok(())
}

fn worlds_cmd(doc: &str) -> Result<(), String> {
    let forest = parse_forest::<NatPoly>(doc).map_err(|e| e.to_string())?;
    let mut worlds: Vec<_> = annotated_xml::worlds::mod_bool(&forest)
        .into_iter()
        .collect();
    // deterministic display order (the set's internal order is
    // process-dependent); one render per world, reused for sorting
    worlds.sort_by_cached_key(|w| w.to_string());
    println!("{} possible world(s):", worlds.len());
    for (i, w) in worlds.iter().enumerate() {
        println!("--- world {} ---", i + 1);
        print!("{}", pretty(w));
    }
    Ok(())
}

/// Parse an XPath-ish step chain: `//c`, `/a/b`, `/descendant::x/...`.
fn parse_path_steps(src: &str) -> Result<Vec<axml_core::Step>, String> {
    use axml_core::{Axis, NodeTest, Step};
    let mut steps = Vec::new();
    let mut rest = src.trim();
    while !rest.is_empty() {
        let (axis_default, after) = if let Some(r) = rest.strip_prefix("//") {
            (Axis::Descendant, r)
        } else if let Some(r) = rest.strip_prefix('/') {
            (Axis::Child, r)
        } else {
            return Err(format!("expected '/' or '//' at {rest:?}"));
        };
        let end = after.find('/').unwrap_or(after.len());
        let (token, next) = after.split_at(end);
        let (axis, test_txt) = match token.split_once("::") {
            Some(("self", t)) => (Axis::SelfAxis, t),
            Some(("child", t)) => (Axis::Child, t),
            Some(("descendant", t)) => (Axis::Descendant, t),
            Some(("strict-descendant", t)) => (Axis::StrictDescendant, t),
            Some((ax, _)) => return Err(format!("unknown axis {ax:?}")),
            None => (axis_default, token),
        };
        let test = if test_txt == "*" {
            NodeTest::Wildcard
        } else if !test_txt.is_empty() {
            NodeTest::Label(axml_uxml::Label::new(test_txt))
        } else {
            return Err("empty node test".into());
        };
        steps.push(Step { axis, test });
        rest = next;
    }
    if steps.is_empty() {
        return Err("empty path".into());
    }
    Ok(steps)
}
