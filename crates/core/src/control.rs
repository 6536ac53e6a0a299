//! Run control: cancellation tokens, deadlines and checkpoint plans for
//! the `_with` driver entry points.
//!
//! A [`RunControl`] bundles the three interruption concerns the slab
//! driver honors **between slabs** (never mid-kernel), whatever the
//! source and sink of the run — plus the two windows on its grid, a row
//! window ([`RunControl::with_shard`]) and a column band
//! ([`RunControl::with_band`]):
//!
//! * a shared [`CancelToken`] — trip it from a signal handler, a service
//!   request scope, or a test, and the dynamic scheduler stops handing
//!   out slabs at the next chunk boundary;
//! * a monotonic [`Deadline`] — the driver converts expiry into a token
//!   trip (reason `"deadline exceeded"`), so everything downstream reacts
//!   to one mechanism;
//! * a [`CheckpointPlan`] — where and how often to persist completed
//!   slabs, and optionally a parsed [`CheckpointState`] to resume from.
//!
//! Cancellation surfaces as [`crate::LdError::Cancelled`] carrying the
//! reason and the completed-slab count; with a checkpoint plan a final
//! snapshot is flushed before that error returns, so the run is always
//! resumable.

use crate::checkpoint::{CheckpointSink, CheckpointState};
use crate::shard::SlabRange;
pub use ld_parallel::{CancelToken, Deadline};

/// How often — and where — a run persists its completed slabs, plus the
/// optional prior state to resume from.
pub struct CheckpointPlan<'a> {
    pub(crate) sink: &'a dyn CheckpointSink,
    /// Write after this many newly completed slabs (`K`); `usize::MAX`
    /// disables the count trigger (final flush still happens).
    pub(crate) every_slabs: usize,
    /// Also write when this much wall time passed since the last write.
    pub(crate) every_secs: Option<f64>,
    pub(crate) resume: Option<CheckpointState>,
}

impl std::fmt::Debug for CheckpointPlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointPlan")
            .field("every_slabs", &self.every_slabs)
            .field("every_secs", &self.every_secs)
            .field("resume", &self.resume.as_ref().map(|r| r.records.len()))
            .finish_non_exhaustive()
    }
}

impl<'a> CheckpointPlan<'a> {
    /// A plan writing to `sink` every 16 completed slabs (and always once
    /// more on cancellation).
    pub fn new(sink: &'a dyn CheckpointSink) -> Self {
        Self {
            sink,
            every_slabs: 16,
            every_secs: None,
            resume: None,
        }
    }

    /// Sets the slab-count trigger `K` (clamped to ≥ 1): a checkpoint is
    /// written whenever `K` slabs completed since the last write.
    pub fn every_slabs(mut self, k: usize) -> Self {
        self.every_slabs = k.max(1);
        self
    }

    /// Adds a wall-clock trigger `T`: also write when `T` seconds passed
    /// since the last write (checked when a slab completes — the trigger
    /// cannot fire mid-kernel).
    pub fn every_secs(mut self, secs: f64) -> Self {
        self.every_secs = Some(secs.max(0.0));
        self
    }

    /// Resumes from a previously parsed checkpoint: its header is
    /// validated against the input and configuration, its completed slabs
    /// are replayed into the output, and the driver re-enters at the first
    /// incomplete slab. The resumed triangle is bit-identical to an
    /// uninterrupted run.
    pub fn resume_from(mut self, state: CheckpointState) -> Self {
        self.resume = Some(state);
        self
    }
}

/// Interruption controls threaded through the `_with` drivers
/// ([`crate::LdEngine::try_stat_matrix_with`] and friends). The default
/// value is fully inert: no token, no deadline, no checkpointing — the
/// plain `try_` entry points use exactly that.
#[derive(Debug, Default)]
pub struct RunControl<'a> {
    pub(crate) token: Option<CancelToken>,
    pub(crate) deadline: Option<Deadline>,
    pub(crate) checkpoint: Option<CheckpointPlan<'a>>,
    pub(crate) shard: Option<SlabRange>,
    pub(crate) band: Option<usize>,
}

impl<'a> RunControl<'a> {
    /// An inert control: never cancels, never checkpoints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes `token`: when it (or an ancestor) trips, the run stops at
    /// the next slab boundary with [`crate::LdError::Cancelled`]. The
    /// token is cheaply cloned (shared state).
    pub fn with_token(mut self, token: &CancelToken) -> Self {
        self.token = Some(token.clone());
        self
    }

    /// Imposes a monotonic deadline; expiry trips the run's token with
    /// reason `"deadline exceeded"`. Because the caller's token is never
    /// tripped by the driver, a deadline on one run cannot cancel sibling
    /// runs sharing the same token.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a checkpoint plan (periodic persistence + optional
    /// resume). Only the packed-matrix sink supports checkpointing —
    /// the row visitor hands slabs to the caller instead of
    /// keeping them, so there is nothing for the engine to persist.
    pub fn with_checkpoint(mut self, plan: CheckpointPlan<'a>) -> Self {
        self.checkpoint = Some(plan);
        self
    }

    /// Restricts the run to one shard: only the slabs in `range` (indices
    /// on the run's global slab grid) are computed, checkpointed and
    /// counted. The drivers validate the range against the actual slab
    /// grid and reject resume snapshots whose spans fall outside it; the
    /// packed driver leaves out-of-shard triangle entries at zero. See
    /// [`crate::shard`] for the plan/merge machinery built on top.
    pub fn with_shard(mut self, range: SlabRange) -> Self {
        self.shard = Some(range);
        self
    }

    /// Restricts the run to the column band `w`: row `i` keeps columns
    /// `i ..= i + w` — the column window of the grid [`with_shard`] cuts a
    /// row window from. Only the row-slab visitor
    /// ([`crate::LdEngine::try_stat_rows_with`]) takes a band; its slabs then
    /// hold `≤ w + 1` values per row, every source streams only the columns
    /// the band touches, and scratch and the budget model follow the strip
    /// width `slab + w` instead of `n`. Values are bit-identical to the
    /// same pairs of an unbanded run. The packed triangle stores every
    /// pair and rejects a band with [`crate::LdError::InvalidConfig`].
    ///
    /// [`with_shard`]: RunControl::with_shard
    pub fn with_band(mut self, w: usize) -> Self {
        self.band = Some(w);
        self
    }

    /// The shard restriction, if any.
    pub fn shard(&self) -> Option<SlabRange> {
        self.shard
    }

    /// The observed token, if any.
    pub fn token(&self) -> Option<&CancelToken> {
        self.token.as_ref()
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// The run-scoped token the driver should poll: the caller's token
    /// when only external cancellation is possible; a *child* of it (or a
    /// fresh token) whenever the driver itself may trip — deadline expiry
    /// or a failing checkpoint sink — so an internal trip never cancels
    /// sibling runs sharing the caller's token; `None` when the control
    /// is fully inert.
    pub(crate) fn run_token(&self) -> Option<CancelToken> {
        let internal_trips = self.deadline.is_some() || self.checkpoint.is_some();
        match (&self.token, internal_trips) {
            (Some(t), true) => Some(t.child()),
            (Some(t), false) => Some(t.clone()),
            (None, true) => Some(CancelToken::new()),
            (None, false) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MemorySink;
    use std::time::Duration;

    #[test]
    fn default_is_inert() {
        let c = RunControl::new();
        assert!(c.token().is_none());
        assert!(c.deadline().is_none());
        assert!(c.checkpoint.is_none());
        assert!(c.shard().is_none());
        assert!(c.band.is_none());
        assert!(c.run_token().is_none());
    }

    #[test]
    fn run_token_shares_caller_token_without_deadline() {
        let t = CancelToken::new();
        let c = RunControl::new().with_token(&t);
        let rt = c.run_token().expect("token present");
        t.cancel_with_reason("outer");
        assert!(rt.is_cancelled());
        assert_eq!(rt.reason().as_deref(), Some("outer"));
    }

    #[test]
    fn deadline_gets_a_child_token_that_does_not_bubble_up() {
        let t = CancelToken::new();
        let c = RunControl::new()
            .with_token(&t)
            .with_deadline(Deadline::after(Duration::from_secs(3600)));
        let rt = c.run_token().expect("token present");
        rt.cancel_with_reason("deadline exceeded");
        assert!(!t.is_cancelled(), "driver trip must not cancel the caller");
        // but the caller still cancels the run
        let rt2 = c.run_token().expect("token present");
        t.cancel();
        assert!(rt2.is_cancelled());
    }

    #[test]
    fn plan_builder_clamps_and_records() {
        let sink = MemorySink::new();
        let p = CheckpointPlan::new(&sink).every_slabs(0).every_secs(-1.0);
        assert_eq!(p.every_slabs, 1);
        assert_eq!(p.every_secs, Some(0.0));
        let dbg = format!("{p:?}");
        assert!(dbg.contains("CheckpointPlan"));
    }
}
