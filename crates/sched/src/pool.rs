use poly_device::DeviceKind;
use std::fmt;

/// Index of a device within a [`Pool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// The accelerator pool of one leaf node: an ordered list of device kinds
/// (e.g. one GPU and five FPGAs for the Setting-I Heter-Poly node).
///
/// The scheduler only needs each device's kind; the concrete performance
/// comes from the per-kernel design spaces, and runtime state (occupancy,
/// loaded bitstream) lives in the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pool {
    kinds: Vec<DeviceKind>,
}

impl Pool {
    /// Pool from an explicit kind list.
    #[must_use]
    pub fn new(kinds: &[DeviceKind]) -> Self {
        Self {
            kinds: kinds.to_vec(),
        }
    }

    /// Pool from any ordered kind sequence, kept in that order
    /// ([`Pool::heterogeneous`] builds on it).
    #[must_use]
    pub fn from_kinds(kinds: impl IntoIterator<Item = DeviceKind>) -> Self {
        Self {
            kinds: kinds.into_iter().collect(),
        }
    }

    /// Pool with `gpus` GPUs followed by `fpgas` FPGAs.
    ///
    /// ```rust
    /// use poly_sched::Pool;
    /// let p = Pool::heterogeneous(1, 5);
    /// assert_eq!(p.len(), 6);
    /// ```
    #[must_use]
    pub fn heterogeneous(gpus: usize, fpgas: usize) -> Self {
        let kinds = std::iter::repeat_n(DeviceKind::Gpu, gpus)
            .chain(std::iter::repeat_n(DeviceKind::Fpga, fpgas));
        Self::from_kinds(kinds)
    }

    /// Device kinds in id order.
    #[must_use]
    pub fn kinds(&self) -> &[DeviceKind] {
        &self.kinds
    }

    /// Kind of one device.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn kind(&self, id: DeviceId) -> DeviceKind {
        self.kinds[id.0]
    }

    /// Number of devices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the pool has no devices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Number of devices of `kind`.
    #[must_use]
    pub fn count(&self, kind: DeviceKind) -> usize {
        self.kinds.iter().filter(|&&k| k == kind).count()
    }

    /// Ids of the devices of `kind`.
    pub fn devices_of(&self, kind: DeviceKind) -> impl Iterator<Item = DeviceId> + '_ {
        self.kinds
            .iter()
            .enumerate()
            .filter(move |(_, &k)| k == kind)
            .map(|(i, _)| DeviceId(i))
    }

    /// Whether the pool contains at least one device of `kind`.
    #[must_use]
    pub fn has(&self, kind: DeviceKind) -> bool {
        self.count(kind) > 0
    }

    /// The capability subset keeping devices for which `keep` holds —
    /// the single degradation primitive [`without_device`](Self::without_device)
    /// and [`subset`](Self::subset) are both expressed through. Ids
    /// compact (the surviving devices renumber from 0), matching what a
    /// backend would advertise after losing hardware.
    fn retained(&self, keep: impl Fn(usize) -> bool) -> Self {
        Self::from_kinds(
            self.kinds
                .iter()
                .enumerate()
                .filter(|&(i, _)| keep(i))
                .map(|(_, &k)| k),
        )
    }

    /// The pool with device `id` removed — the degraded pool after a
    /// fail-stop. Returns `self` unchanged if `id` is out of range.
    #[must_use]
    pub fn without_device(&self, id: DeviceId) -> Self {
        self.retained(|i| i != id.0)
    }

    /// The pool restricted to devices whose `healthy` flag is set (missing
    /// entries count as healthy) — what remains to plan against after an
    /// arbitrary set of failures.
    #[must_use]
    pub fn subset(&self, healthy: &[bool]) -> Self {
        self.retained(|i| healthy.get(i).copied().unwrap_or(true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heterogeneous_layout() {
        let p = Pool::heterogeneous(2, 3);
        assert_eq!(p.count(DeviceKind::Gpu), 2);
        assert_eq!(p.count(DeviceKind::Fpga), 3);
        assert_eq!(p.kind(DeviceId(0)), DeviceKind::Gpu);
        assert_eq!(p.kind(DeviceId(4)), DeviceKind::Fpga);
    }

    #[test]
    fn devices_of_filters_by_kind() {
        let p = Pool::heterogeneous(1, 2);
        let fpgas: Vec<DeviceId> = p.devices_of(DeviceKind::Fpga).collect();
        assert_eq!(fpgas, vec![DeviceId(1), DeviceId(2)]);
    }

    #[test]
    fn empty_pool() {
        let p = Pool::new(&[]);
        assert!(p.is_empty());
        assert!(!p.has(DeviceKind::Gpu));
    }

    #[test]
    fn without_device_degrades_pool() {
        let p = Pool::heterogeneous(1, 2);
        let no_gpu = p.without_device(DeviceId(0));
        assert_eq!(no_gpu.count(DeviceKind::Gpu), 0);
        assert_eq!(no_gpu.count(DeviceKind::Fpga), 2);
        // Out-of-range removal is a no-op.
        assert_eq!(p.without_device(DeviceId(99)), p);
        // Chained failures can empty the pool entirely.
        let none = no_gpu
            .without_device(DeviceId(0))
            .without_device(DeviceId(0));
        assert!(none.is_empty());
    }

    #[test]
    fn subset_keeps_healthy_devices() {
        let p = Pool::heterogeneous(2, 3);
        let degraded = p.subset(&[false, true, true, false, true]);
        assert_eq!(degraded.count(DeviceKind::Gpu), 1);
        assert_eq!(degraded.count(DeviceKind::Fpga), 2);
        // Missing entries count as healthy; an all-true mask is identity.
        assert_eq!(p.subset(&[false]), Pool::heterogeneous(1, 3));
        assert_eq!(p.subset(&[true; 5]), p);
        assert_eq!(p.subset(&[]), p);
    }

    #[test]
    fn without_device_on_unknown_id_is_identity() {
        let p = Pool::heterogeneous(1, 2);
        // First out-of-range id and a far-out one both leave every device
        // in place, ids unshifted.
        assert_eq!(p.without_device(DeviceId(3)), p);
        assert_eq!(p.without_device(DeviceId(usize::MAX)), p);
        assert_eq!(
            p.without_device(DeviceId(3)).kind(DeviceId(0)),
            DeviceKind::Gpu
        );
        // The empty pool has no valid id at all.
        let empty = Pool::new(&[]);
        assert_eq!(empty.without_device(DeviceId(0)), empty);
    }

    #[test]
    fn without_device_removes_last_of_a_kind() {
        // Removing the only GPU leaves an FPGA-only pool that reports the
        // platform as absent — what the optimizer re-plans against after
        // the failure.
        let p = Pool::heterogeneous(1, 2);
        let no_gpu = p.without_device(DeviceId(0));
        assert!(!no_gpu.has(DeviceKind::Gpu));
        assert!(no_gpu.devices_of(DeviceKind::Gpu).next().is_none());
        assert_eq!(no_gpu.len(), 2);
        // Device ids compact: the former d1 (FPGA) is now d0.
        assert_eq!(no_gpu.kind(DeviceId(0)), DeviceKind::Fpga);
        // Removing the only FPGA of a 1-FPGA pool likewise empties the kind.
        let one_fpga = Pool::heterogeneous(2, 1);
        let no_fpga = one_fpga.without_device(DeviceId(2));
        assert!(!no_fpga.has(DeviceKind::Fpga));
        assert_eq!(no_fpga.count(DeviceKind::Gpu), 2);
    }

    #[test]
    fn from_kinds_preserves_order_and_matches_heterogeneous() {
        let kinds = [DeviceKind::Gpu, DeviceKind::Fpga, DeviceKind::Fpga];
        let p = Pool::from_kinds(kinds);
        assert_eq!(p.kinds(), &kinds);
        assert_eq!(p, Pool::heterogeneous(1, 2));
        // An interleaved (non-heterogeneous) layout round-trips too.
        let mixed = [DeviceKind::Fpga, DeviceKind::Gpu, DeviceKind::Fpga];
        assert_eq!(Pool::from_kinds(mixed).kinds(), &mixed);
        assert!(Pool::from_kinds([]).is_empty());
    }

    #[test]
    fn subset_with_all_false_mask_is_empty() {
        let p = Pool::heterogeneous(2, 3);
        let none = p.subset(&[false; 5]);
        assert!(none.is_empty());
        assert_eq!(none.len(), 0);
        assert!(!none.has(DeviceKind::Gpu));
        assert!(!none.has(DeviceKind::Fpga));
        // Subset of the empty pool stays empty regardless of the mask.
        assert!(Pool::new(&[]).subset(&[true, false]).is_empty());
    }
}
