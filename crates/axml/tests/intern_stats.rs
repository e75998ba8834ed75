//! The intern-pool gauges of `StorageStats`.
//!
//! Interned label and variable names are never freed, so a workload
//! that mints fresh labels grows the pool for good; `interned_labels`
//! is how an operator sees that. The pools are process-global, so this
//! binary holds a single test: no concurrent test can intern a name
//! between the two readings.

use axml::Engine;

#[test]
fn a_fresh_label_splice_raises_interned_labels_by_one() {
    let engine = Engine::new();
    engine
        .load_document("S", "<a {z}> <b {x1}> c {y1} </b> c </a>")
        .unwrap();
    let before = engine.storage_stats();
    engine
        .edit_document_text(
            "S",
            "splice /0/0 <gauge_fresh_label> c {y1} </gauge_fresh_label>",
        )
        .unwrap();
    let after = engine.storage_stats();
    assert_eq!(after.interned_labels, before.interned_labels + 1);
    assert_eq!(after.interned_vars, before.interned_vars);

    // Splicing the same label again mints nothing.
    engine
        .edit_document_text(
            "S",
            "splice /0/0 <gauge_fresh_label> c </gauge_fresh_label>",
        )
        .unwrap();
    assert_eq!(
        engine.storage_stats().interned_labels,
        after.interned_labels
    );
}
