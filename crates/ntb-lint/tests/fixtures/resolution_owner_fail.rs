//! Resolution-ownership fixture (failing): the put is retired (and
//! `quiet` woken) before its resolution is recorded, so a trace taken as
//! soon as `quiet` returns can miss the `PutAcked`.

impl Service {
    pub fn on_ack(&self, id: u32, src: usize) {
        self.obs.emit(EventKind::AckRx, u64::from(id), [src as u64, 0]);
        if self.unacked.ack(id) {
            self.obs.emit(EventKind::PutAcked, u64::from(id), [src as u64, 0]);
        }
    }
}
