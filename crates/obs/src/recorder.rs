//! The [`Recorder`] sink trait and its two implementations: the no-op
//! [`NullRecorder`] (zero cost beyond one branch at each emission site)
//! and the shared in-memory [`MemRecorder`].

use std::sync::{Arc, Mutex, PoisonError};

use crate::event::{Event, Sample};

/// Sink for telemetry events. Emission sites in the simulator, runtime,
/// and cluster guard event construction behind [`Recorder::enabled`],
/// so a disabled recorder costs one branch and builds nothing.
///
/// Implementations must be deterministic: given the same sequence of
/// `record` calls they must produce the same observable state. They must
/// not read clocks or randomness.
pub trait Recorder: std::fmt::Debug + Send {
    /// Record `event` at sim time `t_ms`.
    fn record(&mut self, t_ms: f64, event: Event);

    /// Whether emission sites should bother constructing events.
    fn enabled(&self) -> bool {
        true
    }

    /// Tag this handle with a track id (cluster node index + 1; 0 is the
    /// single-node / cluster-driver track). Default: ignored.
    fn set_track(&mut self, track: u32) {
        let _ = track;
    }

    /// Clone into a boxed trait object (clone-box pattern, so structs
    /// holding `Box<dyn Recorder>` can stay `#[derive(Clone)]`).
    fn box_clone(&self) -> Box<dyn Recorder>;
}

impl Clone for Box<dyn Recorder> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Recorder that drops every event. [`Recorder::enabled`] returns
/// `false`, so emission sites skip event construction entirely — a run
/// with a `NullRecorder` is bit-identical to a run with no recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&mut self, _t_ms: f64, _event: Event) {}

    fn enabled(&self) -> bool {
        false
    }

    fn box_clone(&self) -> Box<dyn Recorder> {
        Box::new(*self)
    }
}

#[derive(Debug)]
struct MemState {
    seq: u64,
    samples: Vec<Sample>,
    cap: usize,
    dropped: u64,
}

/// In-memory recorder. Clones share one buffer: the caller keeps a
/// handle to read samples back while passing clones (with distinct
/// tracks) into the simulator, runtime, or cluster nodes. A single
/// buffer-global sequence number orders events across tracks in
/// emission order — nodes run sequentially inside an interval while
/// recording, so that order is deterministic. It is not sim-time order:
/// node j's whole interval is recorded before node j + 1's.
///
/// The buffer is capped ([`MemRecorder::with_limit`]; the default cap is
/// 1 << 22 samples ≈ enough for the experiment figures) and counts
/// overflow in [`MemRecorder::dropped`] rather than reallocating without
/// bound — the cap cut is deterministic because the sequence is.
#[derive(Debug, Clone)]
pub struct MemRecorder {
    state: Arc<Mutex<MemState>>,
    track: u32,
}

impl Default for MemRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MemRecorder {
    /// Default buffer cap, in samples.
    pub const DEFAULT_LIMIT: usize = 1 << 22;

    /// New empty recorder with the default cap.
    #[must_use]
    pub fn new() -> Self {
        Self::with_limit(Self::DEFAULT_LIMIT)
    }

    /// New empty recorder holding at most `cap` samples.
    #[must_use]
    pub fn with_limit(cap: usize) -> Self {
        Self {
            state: Arc::new(Mutex::new(MemState {
                seq: 0,
                samples: Vec::new(),
                cap,
                dropped: 0,
            })),
            track: 0,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the recorded samples, in emission (`seq`) order.
    #[must_use]
    pub fn samples(&self) -> Vec<Sample> {
        self.lock().samples.clone()
    }

    /// Number of samples held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().samples.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().samples.is_empty()
    }

    /// Events dropped because the buffer cap was reached.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// This handle's track id.
    #[must_use]
    pub fn track(&self) -> u32 {
        self.track
    }

    /// A clone of this handle tagged with `track` (shares the buffer).
    #[must_use]
    pub fn on_track(&self, track: u32) -> Self {
        Self {
            state: Arc::clone(&self.state),
            track,
        }
    }
}

impl Recorder for MemRecorder {
    fn record(&mut self, t_ms: f64, event: Event) {
        let mut st = self.lock();
        let seq = st.seq;
        st.seq += 1;
        if st.samples.len() < st.cap {
            st.samples.push(Sample {
                t_ms,
                seq,
                track: self.track,
                event,
            });
        } else {
            st.dropped += 1;
        }
    }

    fn set_track(&mut self, track: u32) {
        self.track = track;
    }

    fn box_clone(&self) -> Box<dyn Recorder> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(1.0, Event::Shed { count: 1 });
        let b: Box<dyn Recorder> = r.box_clone();
        assert!(!b.enabled());
    }

    #[test]
    fn mem_recorder_clones_share_buffer_and_sequence() {
        let root = MemRecorder::new();
        let mut a = root.on_track(1);
        let mut b = root.on_track(2);
        a.record(5.0, Event::Shed { count: 1 });
        b.record(5.0, Event::Shed { count: 2 });
        a.record(6.0, Event::Shed { count: 3 });
        let s = root.samples();
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.iter().map(|x| x.seq).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "buffer-global sequence"
        );
        assert_eq!(s.iter().map(|x| x.track).collect::<Vec<_>>(), vec![1, 2, 1]);
    }

    #[test]
    fn mem_recorder_cap_counts_drops() {
        let root = MemRecorder::with_limit(2);
        let mut h = root.on_track(0);
        for i in 0..5 {
            h.record(f64::from(i), Event::Shed { count: 1 });
        }
        assert_eq!(root.len(), 2);
        assert_eq!(root.dropped(), 3);
    }
}
