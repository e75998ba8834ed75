//! Perf-regression gate for the criterion-shim benchmarks.
//!
//! Reads a fresh benchmark summary (the JSON-lines file the shim
//! appends to `$CRITERION_JSON`, or a normalized JSON array), compares
//! every benchmark's mean against the first checked-in baseline that
//! knows it, and fails — exit code 1 — when any mean regressed by more
//! than the threshold. Used by the `bench-regression` CI job and
//! runnable locally:
//!
//! ```text
//! CRITERION_JSON=/tmp/bench.jsonl cargo bench -p axml-bench
//! cargo run --release -p axml-bench --bin bench_regression -- \
//!     --new /tmp/bench.jsonl \
//!     --baseline BENCH_pr2.json --baseline BENCH_baseline.json \
//!     --threshold 0.25 --write-normalized BENCH_pr3.json
//! ```
//!
//! The build environment has no serde; the two flat JSON shapes the
//! shim and the checked-in baselines use are parsed by hand below.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One benchmark summary record (the shim's output shape).
#[derive(Clone, Debug)]
struct Rec {
    id: String,
    mean_ns: f64,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: u64,
}

fn main() -> ExitCode {
    let mut new_path: Option<String> = None;
    let mut baselines: Vec<String> = Vec::new();
    let mut threshold = 0.25f64;
    let mut normalized_out: Option<String> = None;
    let mut median_normalize = false;
    let mut storage_stats = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--new" => new_path = Some(value("--new")),
            "--baseline" => baselines.push(value("--baseline")),
            "--threshold" => {
                threshold = value("--threshold")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad --threshold: {e}")))
            }
            "--write-normalized" => normalized_out = Some(value("--write-normalized")),
            "--median-normalize" => median_normalize = true,
            "--storage-stats" => storage_stats = true,
            "--help" | "-h" => {
                println!(
                    "usage: bench_regression --new FILE [--baseline FILE]... \
                     [--threshold 0.25] [--median-normalize] [--storage-stats] \
                     [--write-normalized FILE]"
                );
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let new_path = new_path.unwrap_or_else(|| die("--new FILE is required"));
    let mut fresh = load(&new_path);
    if fresh.is_empty() {
        die(&format!("no benchmark records in {new_path}"));
    }
    if storage_stats {
        fresh.extend(storage_records());
    }

    // Baselines: first file listed that knows an id wins.
    let baseline_recs: Vec<(String, BTreeMap<String, Rec>)> = baselines
        .iter()
        .map(|p| {
            let map = load(p).into_iter().map(|r| (r.id.clone(), r)).collect();
            (p.clone(), map)
        })
        .collect();

    if let Some(path) = normalized_out {
        write_normalized(&path, &fresh);
        println!("normalized summary written to {path}");
    }

    // Pair each fresh record with the first baseline that knows it.
    let paired: Vec<(&Rec, Option<(&str, &Rec)>)> = fresh
        .iter()
        .map(|rec| {
            let base = baseline_recs
                .iter()
                .find_map(|(file, map)| map.get(&rec.id).map(|r| (file.as_str(), r)));
            (rec, base)
        })
        .collect();

    // With --median-normalize, divide every ratio by the median ratio
    // across all compared benchmarks: a *uniformly* slower or faster
    // machine (baselines are recorded on dev hardware, CI runners
    // differ) cancels out, while a genuine single-benchmark regression
    // still stands against its peers. Deterministic count records
    // (`storage/...`) are machine-independent, so they neither enter
    // the median pool nor get divided by the scale below.
    let mut ratios: Vec<f64> = paired
        .iter()
        .filter(|(rec, _)| !is_count(&rec.id))
        .filter_map(|(rec, base)| base.map(|(_, old)| rec.mean_ns / old.mean_ns))
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let scale = if median_normalize && !ratios.is_empty() {
        ratios[ratios.len() / 2].max(f64::MIN_POSITIVE)
    } else {
        1.0
    };
    if median_normalize {
        println!("machine-speed scale (median ratio vs baselines): {scale:.2}x");
    }

    let mut regressions = Vec::new();
    let mut compared = 0usize;
    println!(
        "{:<55} {:>12} {:>12} {:>8}  verdict",
        "benchmark", "baseline ns", "new ns", "ratio"
    );
    for (rec, base) in &paired {
        match base {
            None => println!(
                "{:<55} {:>12} {:>12.1} {:>8}  new (no baseline)",
                rec.id, "-", rec.mean_ns, "-"
            ),
            Some((file, old)) => {
                compared += 1;
                let ratio = rec.mean_ns / old.mean_ns / if is_count(&rec.id) { 1.0 } else { scale };
                let verdict = if ratio > 1.0 + threshold {
                    regressions.push((rec.id.clone(), old.mean_ns, rec.mean_ns, ratio));
                    "REGRESSED"
                } else if ratio < 0.8 {
                    "improved"
                } else {
                    "ok"
                };
                println!(
                    "{:<55} {:>12.1} {:>12.1} {:>8.2}  {verdict} (vs {file})",
                    rec.id, old.mean_ns, rec.mean_ns, ratio
                );
            }
        }
    }
    println!(
        "\n{} benchmarks, {} compared against baselines, {} regression(s) \
         (threshold: +{:.0}%{})",
        fresh.len(),
        compared,
        regressions.len(),
        threshold * 100.0,
        if median_normalize {
            ", median-normalized"
        } else {
            ""
        }
    );
    if regressions.is_empty() {
        ExitCode::SUCCESS
    } else {
        for (id, old, new, ratio) in &regressions {
            eprintln!("REGRESSION: {id}: {old:.1} ns -> {new:.1} ns ({ratio:.2}x)");
        }
        ExitCode::FAILURE
    }
}

fn die(msg: &str) -> ! {
    eprintln!("bench_regression: {msg}");
    std::process::exit(2)
}

/// Records exempt from machine-speed normalization, compared against
/// baselines at the same threshold but neither entering the median
/// pool nor divided by the scale: deterministic count records
/// (`storage/...`, node/dedup statistics — machine-independent by
/// construction) and the server loopback latencies (`server/...`,
/// dominated by syscall/scheduling overhead that does not track CPU
/// speed the way the compute benches setting the median do), plus the
/// churn cost ratios (`…/cost_ratio_x1000`, a per-mille
/// incremental-vs-full quotient — machine speed divides out of the
/// quotient by construction).
fn is_count(id: &str) -> bool {
    id.starts_with("storage/") || id.starts_with("server/") || id.ends_with("/cost_ratio_x1000")
}

/// Synthesize count records for the shared-subtree corpus: logical node
/// count, distinct subtree count after content addressing, and the
/// dedup ratio ×1000. `mean_ns` carries the count (the comparison
/// machinery is unit-agnostic); a dedup regression — the arena storing
/// more distinct subtrees for the same corpus — fails the gate like any
/// latency regression.
fn storage_records() -> Vec<Rec> {
    let stats = axml_bench::shared_corpus_stats(16);
    // distinct subtrees per 1000 logical nodes: *lower* is better, so a
    // dedup regression raises it and the ratio>threshold gate catches it
    // (the inverse "sharing factor" would flag improvements instead).
    let distinct_per_1000 = 1000 * stats.distinct_subtrees / stats.logical_nodes.max(1);
    let count = |name: &str, value: usize| Rec {
        id: format!("storage/shared_corpus16/{name}"),
        mean_ns: value as f64,
        median_ns: value as f64,
        min_ns: value as f64,
        max_ns: value as f64,
        samples: 1,
    };
    vec![
        count("logical_nodes", stats.logical_nodes),
        count("distinct_subtrees", stats.distinct_subtrees),
        count("child_edges", stats.child_edges),
        count("distinct_per_1000_logical", distinct_per_1000),
    ]
}

/// Load records from a JSON array or JSON-lines file. Duplicate ids
/// keep the *last* record (reruns append to `$CRITERION_JSON`).
fn load(path: &str) -> Vec<Rec> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let mut by_id: BTreeMap<String, usize> = BTreeMap::new();
    let mut out: Vec<Rec> = Vec::new();
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        path,
    };
    p.skip_ws_and(b"[,]");
    while p.pos < p.bytes.len() {
        let rec = p.object();
        match by_id.get(&rec.id) {
            Some(&i) => out[i] = rec,
            None => {
                by_id.insert(rec.id.clone(), out.len());
                out.push(rec);
            }
        }
        p.skip_ws_and(b"[,]");
    }
    out
}

/// A parser exactly as strong as the shim's flat output needs.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a str,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> ! {
        die(&format!(
            "{}: byte {}: expected {what}",
            self.path, self.pos
        ))
    }

    fn skip_ws_and(&mut self, extra: &[u8]) {
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos].is_ascii_whitespace() || extra.contains(&self.bytes[self.pos]))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) {
        self.skip_ws_and(b"");
        if self.bytes.get(self.pos) != Some(&b) {
            self.fail(&format!("{:?}", b as char));
        }
        self.pos += 1;
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return s;
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(&c @ (b'"' | b'\\' | b'/')) => s.push(c as char),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        _ => self.fail("escape"),
                    }
                    self.pos += 1;
                }
                Some(&c) => {
                    s.push(c as char);
                    self.pos += 1;
                }
                None => self.fail("closing quote"),
            }
        }
    }

    fn number(&mut self) -> f64 {
        self.skip_ws_and(b"");
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| self.fail("number"))
    }

    fn object(&mut self) -> Rec {
        self.expect(b'{');
        let mut rec = Rec {
            id: String::new(),
            mean_ns: f64::NAN,
            median_ns: f64::NAN,
            min_ns: f64::NAN,
            max_ns: f64::NAN,
            samples: 0,
        };
        loop {
            self.skip_ws_and(b",");
            if self.bytes.get(self.pos) == Some(&b'}') {
                self.pos += 1;
                break;
            }
            let key = self.string();
            self.expect(b':');
            match key.as_str() {
                "id" => rec.id = self.string(),
                "mean_ns" => rec.mean_ns = self.number(),
                "median_ns" => rec.median_ns = self.number(),
                "min_ns" => rec.min_ns = self.number(),
                "max_ns" => rec.max_ns = self.number(),
                "samples" => rec.samples = self.number() as u64,
                _ => {
                    // unknown key: skip one scalar value
                    self.skip_ws_and(b"");
                    if self.bytes.get(self.pos) == Some(&b'"') {
                        self.string();
                    } else {
                        self.number();
                    }
                }
            }
        }
        if rec.id.is_empty() || !rec.mean_ns.is_finite() {
            self.fail("record with id and mean_ns");
        }
        rec
    }
}

/// Write the canonical pretty-printed array format of the checked-in
/// `BENCH_*.json` files (string escaping via the shared no-serde
/// writer, `axml::json`).
fn write_normalized(path: &str, recs: &[Rec]) {
    let mut out = String::from("[\n");
    for (i, r) in recs.iter().enumerate() {
        out.push_str(&format!(
            "  {{\n    \"id\": {},\n    \"mean_ns\": {:.1},\n    \"median_ns\": {:.1},\n    \"min_ns\": {:.1},\n    \"max_ns\": {:.1},\n    \"samples\": {}\n  }}{}\n",
            axml::json::string(&r.id),
            r.mean_ns,
            r.median_ns,
            r.min_ns,
            r.max_ns,
            r.samples,
            if i + 1 == recs.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    std::fs::write(path, out).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
}
