//! Resolution-ownership fixture (clean): the ack path resolves the put
//! through its owning table, which records `PutAcked` under its own lock;
//! naming the event outside an emit (a checker match arm) is fine.

impl Service {
    pub fn on_ack(&self, id: u32, src: usize) {
        self.obs.emit(EventKind::AckRx, u64::from(id), [src as u64, 0]);
        if !self.unacked.ack(id) {
            self.obs.emit(EventKind::DupSuppressed, u64::from(id), [src as u64, 1]);
        }
    }

    pub fn is_put_resolution(kind: EventKind) -> bool {
        matches!(kind, EventKind::PutAcked | EventKind::PutAbandon)
    }
}
