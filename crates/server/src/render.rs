//! Result-entry rendering shared by `relmax query` and `relmax serve`.
//!
//! Both front ends emit the same `"results":[…]` JSON array, built by the
//! same code — which is what lets the black-box suite byte-compare a
//! server response against CLI output for the same workload, seed, and
//! budget. Pairwise entries exist only on the wire (the workload file
//! format has no pairwise line), but render here alongside the rest.

use crate::json;
use crate::state::batch_query;
use relmax_gen::workload::QuerySpec;
use relmax_sampling::{BatchEstimate, BatchQuery, Estimate};
use relmax_ugraph::NodeId;

fn node_array(nodes: &[NodeId]) -> String {
    json::array(nodes.iter().map(|n| n.0.to_string()))
}

/// One workload-query result as a JSON object — the exact shape `relmax
/// query --format json` prints per entry. `max_hops` is the *effective*
/// hop bound for this run (CLI `--max-hops` or the `% max-hops`
/// directive); the entry renders the query [`batch_query`] resolves under
/// it, so a bounded `st` prints as `st_within` and a bounded `set` carries
/// its bound.
pub fn result_entry(q: &QuerySpec, max_hops: Option<u32>, r: &BatchEstimate) -> String {
    match (batch_query(q, max_hops), r) {
        (BatchQuery::St(s, t), BatchEstimate::Scalar(e)) => format!(
            "{{\"kind\":\"st\",\"s\":{},\"t\":{},\"reliability\":{},{}}}",
            s.0,
            t.0,
            json::num(e.value),
            json::estimate_fields(e),
        ),
        (BatchQuery::StWithin(s, t, d), BatchEstimate::Scalar(e)) => format!(
            "{{\"kind\":\"st_within\",\"s\":{},\"t\":{},\"max_hops\":{d},\"reliability\":{},{}}}",
            s.0,
            t.0,
            json::num(e.value),
            json::estimate_fields(e),
        ),
        (BatchQuery::Set(sources, targets, bound), BatchEstimate::Scalar(e)) => {
            let hops = match bound {
                Some(d) => format!("\"max_hops\":{d},"),
                None => String::new(),
            };
            format!(
                "{{\"kind\":\"set\",\"sources\":{},\"targets\":{},{hops}\"reliability\":{},{}}}",
                node_array(&sources),
                node_array(&targets),
                json::num(e.value),
                json::estimate_fields(e),
            )
        }
        (BatchQuery::TopK(s, k), BatchEstimate::Ranking(pairs)) => {
            let (z, early) = r.sampling_effort();
            format!(
                "{{\"kind\":\"topk\",\"s\":{},\"k\":{k},\"samples_used\":{z},\"stopped_early\":{early},\"targets\":{}}}",
                s.0,
                json::array(pairs.iter().map(|(v, e)| format!(
                    "{{\"node\":{},\"reliability\":{},{}}}",
                    v.0,
                    json::num(e.value),
                    json::estimate_fields(e),
                ))),
            )
        }
        (BatchQuery::Hops(s, t), BatchEstimate::Hops(h)) => format!(
            "{{\"kind\":\"hops\",\"s\":{},\"t\":{},\"reliability\":{},\"expected_hops\":{},\"hop_sum\":{},{}}}",
            s.0,
            t.0,
            json::num(h.reliability.value),
            json::num(h.expected_hops),
            h.hop_sum,
            json::estimate_fields(&h.reliability),
        ),
        (q @ (BatchQuery::From(v) | BatchQuery::To(v)), BatchEstimate::Vector(estimates)) => {
            let (kind, node) = (q.shape(), v.0);
            let (nonzero, mean, max) = r.summary();
            let (z, early) = r.sampling_effort();
            format!(
                "{{\"kind\":\"{kind}\",\"node\":{node},\"nonzero\":{nonzero},\"mean\":{},\"max\":{},\"max_stderr\":{},\"samples_used\":{z},\"stopped_early\":{early},\"values\":{}}}",
                json::num(mean),
                json::num(max),
                json::num(r.max_stderr()),
                json::array(estimates.iter().map(|e| json::num(e.value)))
            )
        }
        (q, r) => unreachable!("{q:?} cannot yield a {r:?}"),
    }
}

/// A pairwise result as a JSON object (wire-only query kind):
/// `values[i][j]` estimates `R(sources[i], targets[j])`.
pub fn pairwise_entry(sources: &[NodeId], targets: &[NodeId], matrix: &[Vec<Estimate>]) -> String {
    let all = || matrix.iter().flatten();
    let z = all().map(|e| e.samples_used).max().unwrap_or(0);
    let early = all().any(|e| e.stopped_early);
    let max_stderr = all().map(|e| e.stderr).fold(0.0f64, f64::max);
    format!(
        "{{\"kind\":\"pairwise\",\"sources\":{},\"targets\":{},\"max_stderr\":{},\"samples_used\":{z},\"stopped_early\":{early},\"values\":{}}}",
        json::array(sources.iter().map(|n| n.0.to_string())),
        json::array(targets.iter().map(|n| n.0.to_string())),
        json::num(max_stderr),
        json::array(
            matrix
                .iter()
                .map(|row| json::array(row.iter().map(|e| json::num(e.value))))
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn st_entry_shape_is_pinned() {
        let e = Estimate::exact(1.0);
        let entry = result_entry(
            &QuerySpec::St(NodeId(0), NodeId(3)),
            None,
            &BatchEstimate::Scalar(e),
        );
        assert_eq!(
            entry,
            "{\"kind\":\"st\",\"s\":0,\"t\":3,\"reliability\":1,\"stderr\":0,\"ci_low\":1,\"ci_high\":1,\"samples_used\":0,\"stopped_early\":false}"
        );
    }

    #[test]
    fn st_within_entry_shape_is_pinned() {
        let e = Estimate::exact(1.0);
        let entry = result_entry(
            &QuerySpec::St(NodeId(0), NodeId(3)),
            Some(4),
            &BatchEstimate::Scalar(e),
        );
        assert_eq!(
            entry,
            "{\"kind\":\"st_within\",\"s\":0,\"t\":3,\"max_hops\":4,\"reliability\":1,\"stderr\":0,\"ci_low\":1,\"ci_high\":1,\"samples_used\":0,\"stopped_early\":false}"
        );
    }

    #[test]
    fn set_entry_shape_is_pinned() {
        let e = Estimate::exact(0.0);
        let q = QuerySpec::Set(vec![NodeId(0), NodeId(1)], vec![NodeId(3)]);
        assert_eq!(
            result_entry(&q, None, &BatchEstimate::Scalar(e)),
            "{\"kind\":\"set\",\"sources\":[0,1],\"targets\":[3],\"reliability\":0,\"stderr\":0,\"ci_low\":0,\"ci_high\":0,\"samples_used\":0,\"stopped_early\":false}"
        );
        assert_eq!(
            result_entry(&q, Some(2), &BatchEstimate::Scalar(e)),
            "{\"kind\":\"set\",\"sources\":[0,1],\"targets\":[3],\"max_hops\":2,\"reliability\":0,\"stderr\":0,\"ci_low\":0,\"ci_high\":0,\"samples_used\":0,\"stopped_early\":false}"
        );
    }

    #[test]
    fn topk_entry_shape_is_pinned() {
        let pairs = vec![
            (NodeId(2), Estimate::exact(1.0)),
            (NodeId(1), Estimate::exact(0.0)),
        ];
        let entry = result_entry(
            &QuerySpec::TopK(NodeId(0), 2),
            // A hop bound never applies to rankings.
            Some(3),
            &BatchEstimate::Ranking(pairs),
        );
        assert_eq!(
            entry,
            "{\"kind\":\"topk\",\"s\":0,\"k\":2,\"samples_used\":0,\"stopped_early\":false,\"targets\":[{\"node\":2,\"reliability\":1,\"stderr\":0,\"ci_low\":1,\"ci_high\":1,\"samples_used\":0,\"stopped_early\":false},{\"node\":1,\"reliability\":0,\"stderr\":0,\"ci_low\":0,\"ci_high\":0,\"samples_used\":0,\"stopped_early\":false}]}"
        );
    }

    #[test]
    fn hops_entry_shape_is_pinned() {
        let h = relmax_sampling::HopsEstimate::from_moments(32, 80, 64, 0.05, false);
        let entry = result_entry(
            &QuerySpec::Hops(NodeId(0), NodeId(3)),
            Some(3), // ignored: hops queries are never bounded
            &BatchEstimate::Hops(h),
        );
        assert!(
            entry.starts_with(
                "{\"kind\":\"hops\",\"s\":0,\"t\":3,\"reliability\":0.5,\"expected_hops\":2.5,\"hop_sum\":80,"
            ),
            "{entry}"
        );
        assert!(entry.contains("\"samples_used\":64"), "{entry}");
    }

    #[test]
    fn pairwise_entry_shape_is_pinned() {
        let m = vec![vec![Estimate::exact(1.0), Estimate::exact(0.0)]];
        let entry = pairwise_entry(&[NodeId(4)], &[NodeId(4), NodeId(5)], &m);
        assert_eq!(
            entry,
            "{\"kind\":\"pairwise\",\"sources\":[4],\"targets\":[4,5],\"max_stderr\":0,\"samples_used\":0,\"stopped_early\":false,\"values\":[[1,0]]}"
        );
    }
}
