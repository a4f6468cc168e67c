//! unordered-reduce fixture: completion-order channel merges.

use std::sync::mpsc::Receiver;

pub fn merge_first_come(rx: &Receiver<(usize, u64)>, totals: &mut [u64]) { //~ dead-pub
    while let Ok((shard, value)) = rx.recv() {
        //~^ unordered-reduce
        totals[shard % totals.len()] += value;
    }
}

pub fn spawn_and_collect(n: usize) -> u64 { //~ dead-pub
    let (tx, rx) = std::sync::mpsc::channel(); //~ unordered-reduce
    for i in 0..n {
        let tx = tx.clone();
        std::thread::spawn(move || tx.send(i as u64));
    }
    drop(tx);
    let mut sum = 0;
    while let Ok(v) = rx.try_recv() {
        //~^ unordered-reduce
        sum += v;
    }
    sum
}
