//! The correctness gate: the daemon's answers against the offline replay
//! of exactly the bytes and connections it received.

use taxilight_core::ScheduleView;
use taxilight_roadnet::graph::LightId;

use crate::client::{json_f64, json_str, json_u64};
use crate::e2e::{Answer, E2e};
use crate::replay::Replay;

/// Checks one `/schedule` answer against the oracle's view of the
/// version it carries (or the final view for an answer without one).
fn check_answer(oracle: &Replay, answer: &Answer) -> Result<(), String> {
    let version = json_u64(&answer.body, "version");
    let view: ScheduleView = match version {
        Some(v) => {
            oracle.views.get(&v).cloned().ok_or(format!("version {v} never fired offline"))?
        }
        None => oracle.view(),
    };
    let light = answer.light;
    match (view.schedule(LightId(light)), answer.status) {
        (None, 404) => Ok(()),
        (Some(s), 200) => {
            let bits = |k: &str| json_f64(&answer.body, k).map(f64::to_bits);
            let exact = [
                ("cycle_s", s.cycle_s),
                ("red_s", s.red_s),
                ("green_s", s.green_s),
                ("red_start_s", s.red_start_s),
                ("snr", s.snr),
            ]
            .into_iter()
            .all(|(k, v)| bits(k) == Some(v.to_bits()));
            if exact && json_u64(&answer.body, "samples") == Some(s.samples as u64) {
                Ok(())
            } else {
                Err(format!("light {light}: daemon {} vs replay {s:?}", answer.body))
            }
        }
        (expected, status) => Err(format!(
            "light {light}: daemon answered {status} {} but the replay {}",
            answer.body,
            if expected.is_some() { "has a schedule" } else { "has none" }
        )),
    }
}

/// Every divergence between the daemon's end state and the oracle after
/// both connections; empty when they agree.
pub fn divergences(e2e: &E2e, oracle: &Replay, warm_n: usize) -> Vec<String> {
    let mut out = Vec::new();
    let view = oracle.view();
    let stats = &e2e.final_stats;
    let digest = format!("{:#018x}", view.digest());
    if json_u64(stats, "version") != Some(view.version())
        || json_str(stats, "digest") != Some(&digest)
    {
        out.push(format!(
            "final /stats {stats} vs replay version {} digest {digest}",
            view.version()
        ));
    }
    if oracle.records != (warm_n + e2e.sent) as u64 {
        out.push(format!(
            "replay decoded {} records of {} sent",
            oracle.records,
            warm_n + e2e.sent
        ));
    }
    if oracle.bad_lines != e2e.bad_lines {
        out.push(format!(
            "daemon rejected {} lines, the replay {}",
            e2e.bad_lines, oracle.bad_lines
        ));
    }
    if let Some((predicted, fired)) = oracle.clock_mismatch {
        out.push(format!("round clock predicted {predicted} rounds, the engine fired {fired}"));
    }
    if oracle.views.len() as u64 != e2e.rounds_expected {
        out.push(format!(
            "replay fired {} rounds, the feed makes {} due",
            oracle.views.len(),
            e2e.rounds_expected
        ));
    }
    for answer in &e2e.answers {
        if answer.status != 0 {
            if let Err(e) = check_answer(oracle, answer) {
                out.push(e);
            }
        }
    }
    out
}
