//! Deterministic work counters of the engine's queue operations.
//!
//! Host time cannot prove an asymptotic claim on a noisy machine, and it
//! cannot split one `advance_to` into its parts. These counters can: for
//! each queue operation class they count how often it ran and how many
//! queued entries it visited (scanned, summed, moved, removed, or reached
//! through the request index). They depend only on the simulated inputs,
//! never on the host, so tests may assert on them.

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

    fn delta(&self, earlier: &Self) -> Self {
        Self {
            events: self.events - earlier.events,
            entries: self.entries - earlier.entries,
        }
    }

    fn merge(&mut self, other: &Self) {
        self.events += other.events;
        self.entries += other.entries;
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

impl WorkCounters {
    /// Counts accrued since the `earlier` snapshot of the same simulator.
    ///
    /// # Panics
    /// Panics (in debug builds) if `earlier` is not an earlier snapshot.
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        Self {
            dispatch: self.dispatch.delta(&earlier.dispatch),
            batch: self.batch.delta(&earlier.batch),
            cancel: self.cancel.delta(&earlier.cancel),
            margin: self.margin.delta(&earlier.margin),
        }
    }

    /// Add `other`'s counts into these (e.g. to total a fleet's nodes).
    pub fn merge(&mut self, other: &Self) {
        self.dispatch.merge(&other.dispatch);
        self.batch.merge(&other.batch);
        self.cancel.merge(&other.cancel);
        self.margin.merge(&other.margin);
    }
}

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
    }
}
