//! `axml query --format json` end-to-end: the output must be one line
//! of well-formed JSON with the documented shape, across the engine
//! path and the static-semiring fallbacks.

use std::process::Command;

fn run_axml(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_axml"))
        .args(args)
        .output()
        .expect("axml binary runs");
    assert!(
        out.status.success(),
        "axml {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// A whole-value JSON well-formedness check: brackets balance outside
/// strings, strings terminate, no trailing garbage. (No serde in this
/// environment; this is the same hand-rolled level of validation the
/// bench-regression parser applies.)
fn assert_well_formed_json(text: &str) {
    let line = text.trim();
    let bytes = line.as_bytes();
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut escaped = false;
    let mut closed_at = None;
    for (i, &b) in bytes.iter().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close at byte {i} in {line}");
                if depth == 0 {
                    closed_at = Some(i);
                }
            }
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string in {line}");
    assert_eq!(depth, 0, "unbalanced brackets in {line}");
    assert_eq!(
        closed_at,
        Some(bytes.len() - 1),
        "trailing garbage in {line}"
    );
}

#[test]
fn engine_route_emits_json() {
    let out = run_axml(&[
        "query",
        "--format",
        "json",
        "--semiring",
        "nat",
        "--route",
        "differential",
        "--text",
        "<a {z}> <b {x1}> d {y1} </b> <c {x2}> d {y2} e {y3} </c> </a>",
        "element p { $S/*/* }",
    ]);
    assert_well_formed_json(&out);
    for needle in [
        "\"query\":",
        "\"semiring\":\"nat\"",
        "\"route\":\"differential\"",
        "\"result\":",
        "\"label\":\"d\",\"annotation\":\"2\"",
    ] {
        assert!(out.contains(needle), "missing {needle} in {out}");
    }
}

#[test]
fn symbolic_annotations_are_strings() {
    let out = run_axml(&[
        "query",
        "--format",
        "json",
        "--text",
        "<a> b {2*x + y} </a>",
        "$S/b",
    ]);
    assert_well_formed_json(&out);
    assert!(out.contains("\"annotation\":\"y + 2*x\""), "{out}");
}

#[test]
fn static_semiring_fallbacks_emit_json() {
    // PosBool DNF documents and the bool/clearance semirings bypass
    // the ℕ[X] engine store; `--format json` must cover them too.
    for (semiring, doc) in [
        ("posbool", "<a> b {x | y&z} </a>"),
        ("bool", "<a> b </a>"),
        ("clearance", "<a> b {C} </a>"),
    ] {
        let out = run_axml(&[
            "query",
            "--format",
            "json",
            "--semiring",
            semiring,
            "--text",
            doc,
            "$S/b",
        ]);
        assert_well_formed_json(&out);
        assert!(out.contains("\"label\":\"b\""), "{semiring}: {out}");
    }
}

#[test]
fn text_only_commands_reject_json() {
    // parse/shred/worlds have no JSON rendering; asking for one must
    // error, not silently emit text into a JSON consumer.
    for cmd in ["parse", "shred", "worlds"] {
        let mut args = vec![cmd, "--format", "json", "--text", "<a> b {x} </a>"];
        if cmd == "shred" {
            args.push("//b");
        }
        let out = Command::new(env!("CARGO_BIN_EXE_axml"))
            .args(&args)
            .output()
            .expect("axml binary runs");
        assert!(!out.status.success(), "{cmd} --format json must fail");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("text-only"),
            "{cmd} error names the limitation"
        );
    }
}

#[test]
fn unknown_format_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_axml"))
        .args(["query", "--format", "yaml", "--text", "a", "$S"])
        .output()
        .expect("axml binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown format"));
}

#[test]
fn stats_flag_appends_a_scheduler_line() {
    // `--stats` appends a separate scheduler-counters line; the result
    // line itself must stay byte-identical to a run without the flag.
    let base = run_axml(&[
        "query",
        "--format",
        "json",
        "--semiring",
        "nat",
        "--text",
        "<a {z}> b {x} c {y} </a>",
        "$S/*",
    ]);
    let out = run_axml(&[
        "query",
        "--format",
        "json",
        "--stats",
        "--semiring",
        "nat",
        "--text",
        "<a {z}> b {x} c {y} </a>",
        "$S/*",
    ]);
    let mut lines = out.lines();
    let result = lines.next().expect("result line");
    let stats = lines.next().expect("stats line");
    assert_eq!(result, base.trim_end(), "--stats must not alter the result");
    assert_well_formed_json(stats);
    for needle in [
        "\"scheduler\":",
        "\"workers\":",
        "\"lanes\":",
        "\"queued_cheap\":",
        "\"queued_normal\":",
        "\"queued_expensive\":",
        "\"queued_deques\":",
        "\"executed_owned\":",
        "\"executed_helped\":",
        "\"executed_stolen\":",
        "\"executed_injected\":",
        "\"max_queue_residency_ns\":",
        "\"interned_labels\":",
        "\"interned_vars\":",
        "\"compaction\":",
        "\"live_subtrees\":",
        "\"subtrees_dropped\":",
        "\"compactions\":",
        "\"last_pause_us\":",
        "\"image_memo_entries\":{\"nat\":",
    ] {
        assert!(stats.contains(needle), "missing {needle} in {stats}");
    }
    // The compaction gauges follow every earlier key, and the query's
    // ℕ read left one image-memo entry per distinct subtree.
    assert!(stats.find("\"compaction\":") > stats.find("\"interned_vars\":"));
    assert!(stats.contains("\"live_subtrees\":3"), "{stats}");
    assert!(stats.contains("\"nat\":3"), "{stats}");

    // Text mode gets a human-readable line with the same counters.
    let out = run_axml(&[
        "query",
        "--stats",
        "--semiring",
        "nat",
        "--text",
        "<a {z}> b {x} </a>",
        "$S/b",
    ]);
    assert!(out.contains("scheduler: workers="), "{out}");
    assert!(out.contains("interned: labels="), "{out}");
    assert!(out.contains("compaction: live_subtrees=2 "), "{out}");
}

#[test]
fn edit_applies_scripts_and_reports_stats() {
    // Text mode: edited document + a stats line + the query result.
    let out = run_axml(&[
        "edit",
        "--text",
        "<a {z}> <b {x1}> d {y1} </b> </a>",
        "--ops",
        "insert /0 c {w}\nreannotate /0/0/0 3",
        "--semiring",
        "nat",
        "$S//c",
    ]);
    assert!(out.contains("c {w}"), "{out}");
    assert!(out.contains("edit: version 1 | 2 op(s)"), "{out}");
    assert!(out.trim_end().ends_with("(c)"), "{out}");

    // JSON mode: one stats object, then the standard result object.
    let out = run_axml(&[
        "edit",
        "--format",
        "json",
        "--text",
        "<a {z}> <b {x1}> d {y1} </b> </a>",
        "--ops",
        "delete /0/0",
        "--semiring",
        "nat",
        "--route",
        "shredded",
        "$S//d",
    ]);
    let mut lines = out.lines();
    let stats = lines.next().expect("stats line");
    let result = lines.next().expect("result line");
    assert_well_formed_json(stats);
    assert_well_formed_json(result);
    assert!(stats.contains("\"version\":1"), "{stats}");
    assert!(stats.contains("\"ops_applied\":1"), "{stats}");
    assert!(result.contains("\"route\":\"shredded\""), "{result}");

    // A bad script is a clean error, not a panic.
    let out = Command::new(env!("CARGO_BIN_EXE_axml"))
        .args(["edit", "--text", "<a> b </a>", "--ops", "delete /7"])
        .output()
        .expect("axml binary runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("out of range"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `query --stream` pushes the pieces straight to stdout as the
/// evaluation produces them; the bytes must equal the one-shot
/// `--format json` output for a set, a scalar (element constructor) and
/// an empty set, on the direct, via-NRC and shredded routes. Where a
/// route rejects the query (the shredded route and an element
/// constructor), both forms fail with the same error.
#[test]
fn stream_output_is_byte_identical_to_one_shot_json() {
    let doc = "<a {z}> <b {x1}> d {y1} </b> <c {x2}> d {y2} e {y3} </c> </a>";
    for query in ["$S/*", "element p { $S/*/* }", "$S/zzz"] {
        for route in ["direct", "via-nrc", "shredded"] {
            let args = |stream: bool| {
                let mut a = vec!["query", "--format", "json", "--route", route, "--text", doc];
                if stream {
                    a.push("--stream");
                }
                a.push(query);
                Command::new(env!("CARGO_BIN_EXE_axml"))
                    .args(a)
                    .output()
                    .expect("axml binary runs")
            };
            let (one_shot, streamed) = (args(false), args(true));
            let at = format!("{query} via {route}");
            if route == "shredded" && query.starts_with("element") {
                assert!(
                    !one_shot.status.success() && !streamed.status.success(),
                    "{at}"
                );
                assert_eq!(one_shot.stderr, streamed.stderr, "{at}");
                continue;
            }
            assert!(
                one_shot.status.success() && streamed.status.success(),
                "{at}"
            );
            let text = String::from_utf8(streamed.stdout.clone()).expect("utf-8 output");
            assert_well_formed_json(&text);
            assert_eq!(
                String::from_utf8_lossy(&one_shot.stdout),
                text,
                "{at}: --stream differs from one-shot json"
            );
        }
    }
}
