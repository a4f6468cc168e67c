//! Covered counterpart of `badapp`: justified dirty writes and a type
//! that the fixture sanitize matrix exercises — no diagnostics.

use super::badapp::Recorder;

pub struct GoodApp {
    labels: Vec<u32>,
}

impl GoodApp {
    pub fn relax(&mut self, node: usize, label: u32, rec: &mut Recorder) { //~ dead-pub
        if label < self.labels[node] {
            self.labels[node] = label;
            // dirty: monotone min — racing writers converge to the same value
            rec.write_dirty(node as u64);
        }
    }
}
