//! The engine's lifetime counters: one [`Counters`] set per simulator.
//!
//! Every count the engine keeps — request lifecycle outcomes, audit
//! anomalies, fault events, re-issues and queue work — lives here and
//! is never reset. A window (one
//! interval, one benchmark phase) is the [`delta`](Counters::delta)
//! between two snapshots, and a fleet total is a fieldwise
//! [`merge`](Counters::merge).
//!
//! The queue work counts ([`WorkCounters`]) exist because host time
//! cannot prove an asymptotic claim on a noisy machine, and it cannot
//! split one `advance_to` into its parts. For each queue operation class
//! they count how often it ran and how many queued entries it visited
//! (scanned, summed, moved, removed, or reached through the request
//! index). Like every count here they depend only on the simulated
//! inputs, never on the host, so tests may assert on them.

use crate::metrics::RetryStats;

/// How often one operation class ran, and the queue entries it touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCount {
    /// Operations run.
    pub events: u64,
    /// Queued entries visited across those operations.
    pub entries: u64,
}

impl OpCount {
    /// Mean entries touched per operation (0 when none ran).
    #[must_use]
    pub fn per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.entries as f64 / self.events as f64
        }
    }
}

/// Lifetime work counts of one simulator's queue operations (never
/// reset; take a [`delta`](Self::delta) between two snapshots to count a
/// window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkCounters {
    /// Dispatch pricing: one event per placement decision (a stage's
    /// dispatch or a hedge copy's); entries visited to price device
    /// backlogs, to locate a hedge's primary, or to move a stolen entry.
    pub dispatch: OpCount,
    /// Batch formation: one event per batch start attempt on a device
    /// with queued work; entries visited to gate and form the batch.
    pub batch: OpCount,
    /// Cancellation: one event per request abort or hedge-loser sweep;
    /// entries visited to find and remove the victims.
    pub cancel: OpCount,
    /// Margin walk: one event per downstream-margin pass of the dynamic
    /// chooser; entries visited to price the devices' backlogs.
    pub margin: OpCount,
}

/// Lifetime counts of one simulator (never reset; take a
/// [`delta`](Self::delta) between two snapshots to count a window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Requests ever enqueued.
    pub admitted: usize,
    /// Requests that completed every kernel stage.
    pub completed: usize,
    /// Requests abandoned at their deadline.
    pub timed_out: usize,
    /// Requests failed after exhausting their retry budget.
    pub failed: usize,
    /// Requests abandoned by a node drain.
    pub cancelled: usize,
    /// Completion events ignored as stale (see
    /// [`AuditReport::stale_completions`](crate::AuditReport)).
    pub stale_completions: usize,
    /// Terminal transitions attempted on an already-terminal request.
    pub double_terminal: usize,
    /// Events popped with a timestamp behind the clock.
    pub clock_regressions: usize,
    /// Fault events applied: fail-stops and slowdowns of healthy
    /// devices, recoveries of failed ones.
    pub fault_events: usize,
    /// Fail-stops applied (a subset of `fault_events`).
    pub fail_stops: usize,
    /// Re-issue ledger: fail-stop retries, exhausted budgets, hedges,
    /// steals.
    pub retry: RetryStats,
    /// Queue operation work.
    pub work: WorkCounters,
}

/// Give a counter struct `delta` and `merge`, field by field: plain
/// counts first, then nested counter structs after a `;`.
macro_rules! fieldwise {
    ($t:ty: $($f:ident),* $(; $($n:ident),+)?) => {
        impl $t {
            /// Counts accrued since the `earlier` snapshot of the same
            /// source.
            ///
            /// # Panics
            /// Panics (in debug builds) if `earlier` is not an earlier
            /// snapshot.
            #[must_use]
            pub fn delta(&self, earlier: &Self) -> Self {
                Self {
                    $($f: self.$f - earlier.$f,)*
                    $($($n: self.$n.delta(&earlier.$n),)+)?
                }
            }

            /// Add `other`'s counts into these (e.g. to total a fleet's
            /// nodes).
            pub fn merge(&mut self, other: &Self) {
                $(self.$f += other.$f;)*
                $($(self.$n.merge(&other.$n);)+)?
            }
        }
    };
}

fieldwise!(OpCount: events, entries);
fieldwise!(WorkCounters: ; dispatch, batch, cancel, margin);
fieldwise!(RetryStats:
    device_retries, exhausted, redistributed, hedges_fired, hedge_wins, steals);
fieldwise!(Counters:
    admitted, completed, timed_out, failed, cancelled, stale_completions, double_terminal,
    clock_regressions, fault_events, fail_stops; retry, work);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_merge_are_fieldwise() {
        let a = WorkCounters {
            dispatch: OpCount {
                events: 2,
                entries: 10,
            },
            ..WorkCounters::default()
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(
            b.dispatch,
            OpCount {
                events: 4,
                entries: 20
            }
        );
        assert_eq!(b.delta(&a), a);
        assert!((a.dispatch.per_event() - 5.0).abs() < 1e-12);
        assert_eq!(a.cancel.per_event(), 0.0);

        let c = Counters {
            admitted: 3,
            completed: 2,
            timed_out: 1,
            fault_events: 2,
            fail_stops: 1,
            retry: RetryStats {
                device_retries: 4,
                steals: 1,
                ..RetryStats::default()
            },
            work: a,
            ..Counters::default()
        };
        let mut d = c;
        d.merge(&c);
        assert_eq!(
            (
                d.admitted,
                d.completed,
                d.timed_out,
                d.fault_events,
                d.fail_stops
            ),
            (6, 4, 2, 4, 2)
        );
        assert_eq!((d.retry.device_retries, d.retry.steals), (8, 2));
        assert_eq!(d.work, b);
        assert_eq!(d.delta(&c), c);
        assert_eq!(c.delta(&c), Counters::default());
    }
}
