//! dead-pub fixture: public functions with and without a non-test caller.

pub fn read_only_by_its_unit_test() -> u32 { //~ dead-pub
    1
}

pub fn called_from_an_example() -> u32 {
    2
}

pub(crate) fn crate_visible_only() -> u32 {
    3
}

// sage-lint: allow(dead-pub) — kept for a caller that has since landed
//~^ stale-allow
pub fn called_from_an_example_too() -> u32 {
    4
}

pub struct Host;
pub struct Accel;

// two test-only namesakes: neither definition counts as a use of the other
impl Host {
    pub fn reset_twin(&mut self) {} //~ dead-pub
}

impl Accel {
    pub fn reset_twin(&mut self) {} //~ dead-pub
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums() {
        assert_eq!(read_only_by_its_unit_test() + crate_visible_only(), 4);
        Host.reset_twin();
        Accel.reset_twin();
    }
}
