//! The [`Wms`] facade: the paper's Section 2 interface over the page-map
//! index.

use crate::monitor::{Monitor, MonitorId, Notification, WmsError};
use crate::pagemap::PageMap;
use std::collections::HashMap;

/// Maximum notifications retained in the buffer; the count keeps
/// incrementing past this (debugging sessions care about the first few
/// hits, statistics about the count).
const NOTIFICATION_CAP: usize = 10_000;

/// Operation counters, exposed for tests and the harness. Per-instance
/// and always counting, with telemetry on or off; the `wms.*` registry
/// counters mirror them through the gated macros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WmsCounters {
    /// `InstallMonitor` calls.
    pub installs: u64,
    /// `RemoveMonitor` calls.
    pub removes: u64,
    /// `check_write` calls (lookups).
    pub lookups: u64,
    /// Checks that hit at least one monitor.
    pub hits: u64,
}

/// The write monitor service: install/remove monitors, check writes,
/// collect notifications.
///
/// This is the software WMS used directly by the TrapPatch and CodePatch
/// strategies; NativeHardware and VirtualMemory consult it from their
/// fault handlers.
#[derive(Debug, Clone, Default)]
pub struct Wms {
    map: PageMap,
    live: HashMap<MonitorId, Monitor>,
    by_range: HashMap<(u32, u32), Vec<MonitorId>>,
    next: u64,
    counters: WmsCounters,
    notifications: Vec<Notification>,
    notification_count: u64,
}

impl Wms {
    /// An empty service.
    pub fn new() -> Self {
        Wms::default()
    }

    /// Installs a monitor over `[ba, ea)` — the paper's
    /// `InstallMonitor(BA, EA)`.
    ///
    /// # Errors
    ///
    /// [`WmsError::EmptyRange`] when `ba >= ea`.
    pub fn install(&mut self, ba: u32, ea: u32) -> Result<MonitorId, WmsError> {
        let m = Monitor::new(ba, ea)?;
        let id = MonitorId(self.next);
        self.next += 1;
        self.map.install(id, m);
        self.live.insert(id, m);
        self.by_range.entry((ba, ea)).or_default().push(id);
        self.counters.installs += 1;
        databp_telemetry::count!("wms.installs");
        databp_telemetry::gauge_add!("wms.monitors.active", 1);
        Ok(id)
    }

    /// Removes monitor `id`.
    ///
    /// # Errors
    ///
    /// [`WmsError::UnknownMonitor`] when `id` is not installed.
    pub fn remove(&mut self, id: MonitorId) -> Result<(), WmsError> {
        let m = self.live.remove(&id).ok_or(WmsError::UnknownMonitor(id))?;
        self.map.remove(id, m);
        if let Some(v) = self.by_range.get_mut(&(m.ba, m.ea)) {
            v.retain(|x| *x != id);
            if v.is_empty() {
                self.by_range.remove(&(m.ba, m.ea));
            }
        }
        self.counters.removes += 1;
        databp_telemetry::count!("wms.removes");
        databp_telemetry::gauge_add!("wms.monitors.active", -1);
        Ok(())
    }

    /// Removes one monitor installed with exactly the range `[ba, ea)` —
    /// the paper's `RemoveMonitor(BA, EA)`.
    ///
    /// # Errors
    ///
    /// [`WmsError::NoSuchRange`] when no installed monitor has that
    /// range.
    pub fn remove_range(&mut self, ba: u32, ea: u32) -> Result<(), WmsError> {
        let id = self
            .by_range
            .get(&(ba, ea))
            .and_then(|v| v.last().copied())
            .ok_or(WmsError::NoSuchRange { ba, ea })?;
        self.remove(id)
    }

    /// Checks a write against the active monitors; on a (byte-exact) hit,
    /// records a [`Notification`] and returns true.
    pub fn check_write(&mut self, ba: u32, ea: u32, pc: u32) -> bool {
        self.counters.lookups += 1;
        databp_telemetry::count!("wms.lookups");
        // Fast word-granular bitmap test first (the timed operation),
        // byte-exact confirmation second.
        if self.map.lookup(ba, ea) && self.map.hit_exact(ba, ea) {
            self.counters.hits += 1;
            databp_telemetry::count!("wms.hits");
            self.notification_count += 1;
            if self.notifications.len() < NOTIFICATION_CAP {
                self.notifications.push(Notification { ba, ea, pc });
            }
            return true;
        }
        false
    }

    /// Pure lookup without notification (used for preliminary checks).
    pub fn would_hit(&self, ba: u32, ea: u32) -> bool {
        self.map.lookup(ba, ea) && self.map.hit_exact(ba, ea)
    }

    /// Number of installed monitors.
    pub fn active_monitors(&self) -> usize {
        self.live.len()
    }

    /// Buffered notifications (the first 10 000 only; see
    /// [`Wms::notification_count`] for the true total).
    pub fn notifications(&self) -> &[Notification] {
        &self.notifications
    }

    /// Total notifications delivered, including any beyond the buffer
    /// cap.
    pub fn notification_count(&self) -> u64 {
        self.notification_count
    }

    /// Operation counters.
    pub fn counters(&self) -> WmsCounters {
        self.counters
    }

    /// Drains the notification buffer.
    pub fn take_notifications(&mut self) -> Vec<Notification> {
        std::mem::take(&mut self.notifications)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_check_remove_lifecycle() {
        let mut w = Wms::new();
        let id = w.install(0x100, 0x110).unwrap();
        assert_eq!(w.active_monitors(), 1);
        assert!(w.check_write(0x100, 0x104, 0x10));
        assert!(!w.check_write(0x110, 0x114, 0x14));
        w.remove(id).unwrap();
        assert!(!w.check_write(0x100, 0x104, 0x18));
        assert_eq!(w.counters().installs, 1);
        assert_eq!(w.counters().removes, 1);
        assert_eq!(w.counters().lookups, 3);
        assert_eq!(w.counters().hits, 1);
    }

    #[test]
    fn notifications_record_pc_and_range() {
        let mut w = Wms::new();
        w.install(0x100, 0x104).unwrap();
        w.check_write(0x100, 0x104, 0xabcd);
        assert_eq!(
            w.notifications(),
            &[Notification {
                ba: 0x100,
                ea: 0x104,
                pc: 0xabcd
            }]
        );
        assert_eq!(w.notification_count(), 1);
        let drained = w.take_notifications();
        assert_eq!(drained.len(), 1);
        assert!(w.notifications().is_empty());
        assert_eq!(w.notification_count(), 1);
    }

    #[test]
    fn remove_range_picks_matching_monitor() {
        let mut w = Wms::new();
        w.install(0x100, 0x110).unwrap();
        w.install(0x200, 0x210).unwrap();
        w.remove_range(0x100, 0x110).unwrap();
        assert!(!w.would_hit(0x100, 0x104));
        assert!(w.would_hit(0x200, 0x204));
        assert_eq!(
            w.remove_range(0x100, 0x110),
            Err(WmsError::NoSuchRange {
                ba: 0x100,
                ea: 0x110
            })
        );
    }

    #[test]
    fn duplicate_ranges_remove_one_at_a_time() {
        let mut w = Wms::new();
        w.install(0x100, 0x110).unwrap();
        w.install(0x100, 0x110).unwrap();
        w.remove_range(0x100, 0x110).unwrap();
        assert!(w.would_hit(0x100, 0x104), "one duplicate still active");
        w.remove_range(0x100, 0x110).unwrap();
        assert!(!w.would_hit(0x100, 0x104));
    }

    #[test]
    fn errors_for_bad_operations() {
        let mut w = Wms::new();
        assert!(w.install(8, 8).is_err());
        assert_eq!(
            w.remove(MonitorId(99)),
            Err(WmsError::UnknownMonitor(MonitorId(99)))
        );
    }

    #[test]
    fn would_hit_does_not_notify() {
        let mut w = Wms::new();
        w.install(0x100, 0x104).unwrap();
        assert!(w.would_hit(0x100, 0x104));
        assert_eq!(w.notification_count(), 0);
        assert_eq!(w.counters().lookups, 0);
    }

    #[test]
    fn notification_buffer_caps_but_count_continues() {
        let mut w = Wms::new();
        w.install(0x100, 0x104).unwrap();
        for i in 0..(NOTIFICATION_CAP as u64 + 50) {
            w.check_write(0x100, 0x104, i as u32);
        }
        assert_eq!(w.notifications().len(), NOTIFICATION_CAP);
        assert_eq!(w.notification_count(), NOTIFICATION_CAP as u64 + 50);
    }
}
