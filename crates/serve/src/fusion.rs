//! Cross-request SQL fusion: identical concurrent requests share one drive.
//!
//! The plan cache already proves *semantic* identity — two requests with the
//! same canonical fingerprint resolve to the same prepared statement — but
//! until this module each of them still drove the plan separately. Under
//! duplicate-heavy traffic (dashboards, retry storms, fan-in frontends) that
//! is pure waste: N identical drives produce N identical result batches.
//!
//! Fusion closes the gap per scheduler tick: when a worker dequeues a SQL
//! job, it drains every *queued* SQL job with the same canonical fingerprint
//! (up to [`crate::ServerConfig::fusion_max_group`], no straggler wait —
//! only work that is already queued may join), drives the prepared plan
//! **once**, and fans the shared result out to every member. Result batches
//! hold `Arc`'d columns, so the fan-out clones are reference bumps, not data
//! copies; latency and queue-wait samples are still recorded per request.
//!
//! The fused group key is `(fingerprint, catalog_epoch, registry_epoch)` *by
//! construction*: members are grouped on the fingerprint alone, and the one
//! drive executes under a single session read lock, which pins one
//! catalog/registry epoch pair for the whole group. A registration
//! (write-lock) can only land before or after the fused drive — never
//! between two members — so a fused group cannot span an epoch change.
//!
//! `ServerConfig::sql_fusion = false` is the one-drive-per-request oracle
//! the parity suites compare against.

use crate::error::Result;
use crate::qos::QosQueue;
use crate::server::{respond, Job, JobKind, Response, ServerInner};
use raven_core::PredictionOutput;
use std::sync::Arc;

/// Drain every queued SQL job whose canonical fingerprint matches the
/// leader's into `group` (leader already at index 0), up to `cap` members
/// total. Draining crosses tenant lanes: a fused member piggybacks on the
/// leader's already-scheduled drive, so fusing strictly reduces the work
/// every other tenant waits behind.
pub(crate) fn drain_duplicates(
    queue: &mut QosQueue<Job>,
    canonical: Arc<String>,
    cap: usize,
    group: &mut Vec<Job>,
) {
    queue.drain_matching(
        cap,
        |j| matches!(j.kind, JobKind::Sql { .. }) && j.canonical == canonical,
        group,
    );
}

/// Deliver one drive's outcome to every member of a fused group. Each member
/// gets its own response (an `Arc`-level clone of the shared batches) and its
/// own latency sample; the group size feeds `fused_group_size_p95` and
/// members of groups ≥ 2 count into `sql_requests_fused`.
pub(crate) fn fan_out(inner: &ServerInner, group: Vec<Job>, result: Result<PredictionOutput>) {
    inner.metrics.record_fused_group(group.len());
    for job in group {
        let shared = result.clone().map(|out| Response::Sql(Box::new(out)));
        respond(inner, job, shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::QosConfig;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Instant;

    fn sql_job(tenant: &str, canonical: &str) -> Job {
        let (tx, _rx) = mpsc::channel();
        Job {
            kind: JobKind::Sql {
                sql: canonical.to_string(),
            },
            canonical: Arc::new(canonical.to_string()),
            group: None,
            tenant: Arc::from(tenant),
            enqueued: Instant::now(),
            tx,
        }
    }

    fn point_job(tenant: &str, canonical: &str) -> Job {
        let (tx, _rx) = mpsc::channel();
        Job {
            kind: JobKind::Point {
                sql: canonical.to_string(),
                row: vec![],
            },
            canonical: Arc::new(canonical.to_string()),
            group: Some(Arc::new(format!("{canonical}|"))),
            tenant: Arc::from(tenant),
            enqueued: Instant::now(),
            tx,
        }
    }

    #[test]
    fn drains_only_same_fingerprint_sql_jobs_across_tenants() {
        let mut q: QosQueue<Job> = QosQueue::new(&QosConfig::default());
        let push = |q: &mut QosQueue<Job>, j: Job| {
            let t = j.tenant.clone();
            assert!(q.push(&t, j).is_ok());
        };
        push(&mut q, sql_job("a", "Q1"));
        push(&mut q, sql_job("b", "Q1"));
        push(&mut q, sql_job("a", "Q2")); // different fingerprint: stays
        push(&mut q, point_job("a", "Q1")); // point job: never fuses with SQL
        push(&mut q, sql_job("c", "Q1"));

        let leader = sql_job("lead", "Q1");
        let canonical = leader.canonical.clone();
        let mut group = vec![leader];
        drain_duplicates(&mut q, canonical, 64, &mut group);
        assert_eq!(group.len(), 4, "leader + 3 queued duplicates");
        assert!(group
            .iter()
            .all(|j| j.canonical.as_str() == "Q1" && matches!(j.kind, JobKind::Sql { .. })));
        // the non-matching jobs are still queued
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn group_cap_bounds_a_tick() {
        let mut q: QosQueue<Job> = QosQueue::new(&QosConfig::default());
        for _ in 0..10 {
            let j = sql_job("a", "Q");
            let t = j.tenant.clone();
            assert!(q.push(&t, j).is_ok());
        }
        let leader = sql_job("a", "Q");
        let canonical = leader.canonical.clone();
        let mut group = vec![leader];
        drain_duplicates(&mut q, canonical, 4, &mut group);
        assert_eq!(group.len(), 4);
        assert_eq!(q.len(), 7);
    }
}
