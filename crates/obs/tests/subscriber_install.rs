//! End-to-end macro → subscriber wiring: installs a [`ChromeTraceWriter`]
//! as the process-wide subscriber and checks that `span!`/`event!`
//! deliver names, categories, and fields into a valid trace.
//!
//! Installation is process-global and permanent, so this file holds a
//! **single** `#[test]`; every other obs test drives writers directly.

use std::sync::Arc;

use taxilight_obs::chrome::ChromeTraceWriter;
use taxilight_obs::json::{parse, validate_chrome_trace, Json};
use taxilight_obs::{
    event, set_subscriber, set_track_name, span, with_subscriber, Field, FieldValue,
};

#[test]
fn macros_reach_installed_subscriber() {
    let writer = Arc::new(ChromeTraceWriter::new());
    set_subscriber(writer.clone()).expect("first install must succeed");
    assert!(
        set_subscriber(Arc::new(ChromeTraceWriter::new())).is_err(),
        "second install must be rejected"
    );

    set_track_name(|| "main".to_string());
    {
        let outer = span!("engine.light", light = 42u64);
        assert!(outer.is_active());
        {
            let _inner = span!("stage.cycle");
            event!("plan", result = "hit", len = 3600usize);
        }
        event!("light.done", light = 42u64, estimate = 98.5f64, ok = true);
        // Closed early with end fields: exactly one end, carrying them.
        let counted = span!("cycle.fold", samples = 7usize);
        counted.end_with(&[Field { key: "folds", value: FieldValue::U64(13) }]);
    }
    with_subscriber(|s| s.flush());

    let json = writer.to_json();
    let doc = parse(&json).expect("trace must be valid JSON");
    let summary = validate_chrome_trace(&doc).expect("trace must validate");
    assert_eq!(summary.spans, 3);
    assert_eq!(summary.instants, 2);
    assert_eq!(summary.named_tracks, 1);

    // Categories come from the call site's module_path!() and args carry
    // the field values.
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let light_begin = events
        .iter()
        .find(|e| {
            e.get("name").and_then(Json::as_str) == Some("engine.light")
                && e.get("ph").and_then(Json::as_str) == Some("B")
        })
        .expect("engine.light begin present");
    assert_eq!(light_begin.get("cat").and_then(Json::as_str), Some("subscriber_install"));
    assert_eq!(
        light_begin.get("args").and_then(|a| a.get("light")).and_then(Json::as_f64),
        Some(42.0)
    );
    let done = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("light.done"))
        .expect("light.done instant present");
    assert_eq!(done.get("args").and_then(|a| a.get("estimate")).and_then(Json::as_f64), Some(98.5));
    assert_eq!(done.get("args").and_then(|a| a.get("ok")), Some(&Json::Bool(true)));
    let fold_ends: Vec<&Json> = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(Json::as_str) == Some("cycle.fold")
                && e.get("ph").and_then(Json::as_str) == Some("E")
        })
        .collect();
    assert_eq!(fold_ends.len(), 1, "end_with must close the span exactly once");
    assert_eq!(
        fold_ends[0].get("args").and_then(|a| a.get("folds")).and_then(Json::as_f64),
        Some(13.0)
    );
}
