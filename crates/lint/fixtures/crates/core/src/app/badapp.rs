//! dirty-justify + sanitize-coverage fixture: an app with an unjustified
//! benign-race claim, whose type appears in no sanitize matrix.

pub struct BadApp {
    //~^ sanitize-coverage
    dist: Vec<i32>,
    level: i32,
}

impl BadApp {
    pub fn filter(&mut self, neighbor: usize, rec: &mut Recorder) -> bool { //~ dead-pub
        if self.dist[neighbor] == -1 {
            self.dist[neighbor] = self.level + 1;
            rec.write_dirty(neighbor as u64); //~ dirty-justify
            return true;
        }
        false
    }

    pub fn justified(&mut self, neighbor: usize, rec: &mut Recorder) { //~ dead-pub
        // dirty: every racing parent stores the same level
        rec.write_dirty(neighbor as u64);
    }
}

pub struct Recorder {
    ops: u64,
}

impl Recorder {
    pub fn write_dirty(&mut self, addr: u64) {
        self.ops += addr;
    }
}
