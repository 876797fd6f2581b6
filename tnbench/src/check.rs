//! The answer check: a run's first answers must equal those of a solo
//! in-process runtime serving the same sequence one request at a time.
//!
//! Every serving path in the repository promises answers that are a pure
//! function of the model, the serving seed, the frame, and the request's
//! sequence number (per tenant on a packed chip). Fusion, sharding,
//! the wire, and timing must not move a single vote.

use tn_serve::{Backpressure, ServeRuntime, SubmitRequest};
use truenorth::prelude::*;

use crate::load::{Answer, Req};
use crate::setup::Workload;

/// Answers compared per tenant model.
const CHECKED: usize = 256;

/// Compare the first [`CHECKED`] answers of each tenant against a solo
/// reference. Returns the number compared, or a description of the first
/// mismatch.
pub fn check_answers(
    workload: &Workload,
    specs: &[NetworkDeploySpec],
    pool: &[Vec<f32>],
    reqs: &[Req],
    answers: &[Answer],
) -> Result<usize, String> {
    let packed = specs.len() > 1;
    let mut compared = 0;
    for (m, spec) in specs.iter().enumerate() {
        // (reference seq, pool row, answer) for this tenant's answers.
        let mut keyed: Vec<(u64, usize, &Answer)> = if packed {
            // A packed tenant's k-th submission is served like the k-th
            // request of a solo runtime; the generator submits from one
            // thread, so k follows the request order.
            let mut tenant_index = vec![0u64; reqs.len()];
            let mut k = 0;
            for (i, r) in reqs.iter().enumerate() {
                if r.model == m {
                    tenant_index[i] = k;
                    k += 1;
                }
            }
            answers
                .iter()
                .filter(|a| reqs[a.index].model == m)
                .map(|a| (tenant_index[a.index], reqs[a.index].row, a))
                .collect()
        } else {
            answers
                .iter()
                .map(|a| (a.seq, reqs[a.index].row, a))
                .collect()
        };
        keyed.sort_by_key(|k| k.0);
        keyed.truncate(CHECKED);
        if keyed.is_empty() {
            return Err(format!("model {m}: no answers to check"));
        }
        let mut cfg = workload.serve_config(false);
        cfg.workers = 1;
        cfg.backpressure = Backpressure::Block;
        let reference = ServeRuntime::new(spec, cfg).map_err(|e| e.to_string())?;
        for (seq, row, got) in keyed {
            let want = reference
                .submit(SubmitRequest::new(pool[row].clone()).at_seq(seq))
                .and_then(|h| h.wait())
                .map_err(|e| format!("reference failed: {e}"))?;
            if want.predicted != got.predicted || want.votes != got.votes {
                return Err(format!(
                    "model {m}, request {} (seq {seq}): served class {} votes {:?}, \
                     solo reference class {} votes {:?}",
                    got.index, got.predicted, got.votes, want.predicted, want.votes
                ));
            }
            compared += 1;
        }
        reference.shutdown();
    }
    Ok(compared)
}
