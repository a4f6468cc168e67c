//! The one experiment binary. With no flag it runs the paper's evaluation
//! (every table and figure of §7) and optionally writes a Markdown report;
//! `--only <name>` runs a single entry of `experiments::ALL`, including the
//! extension studies.
//!
//! ```text
//! SAGE_SCALE=1.0 SAGE_SOURCES=3 SAGE_ROUNDS=30 \
//!     cargo run --release -p sage-bench --bin all_experiments -- [--only NAME] [report.md]
//! ```

use sage_bench::experiments::{Experiment, ALL};
use sage_bench::BenchConfig;
use std::process::exit;
use std::time::Instant;

fn usage() -> ! {
    let names: Vec<&str> = ALL.iter().map(|e| e.name).collect();
    eprintln!(
        "usage: all_experiments [--only NAME] [report.md]\n  NAME: {}",
        names.join(" | ")
    );
    exit(2)
}

fn main() {
    let mut only = None;
    let mut report_path = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--only" => {
                let name = argv.next().unwrap_or_else(|| usage());
                let Some(e) = ALL.iter().find(|e| e.name == name) else {
                    eprintln!("unknown experiment {name:?}");
                    usage()
                };
                only = Some(e);
            }
            flag if flag.starts_with('-') => usage(),
            path if report_path.is_none() => report_path = Some(path.to_string()),
            _ => usage(),
        }
    }
    let selected: Vec<&Experiment> = match only {
        Some(e) => vec![e],
        None => ALL.iter().filter(|e| e.paper).collect(),
    };

    let cfg = BenchConfig::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    });
    let mut md = String::new();
    md.push_str(&format!(
        "# SAGE evaluation suite\n\nscale {}, {} sources, {} reordering rounds\n\n",
        cfg.scale, cfg.sources, cfg.rounds
    ));
    let t0 = Instant::now();
    for (i, e) in selected.iter().enumerate() {
        eprintln!(
            "[{}/{}] {} ({:.0?} elapsed) ...",
            i + 1,
            selected.len(),
            e.name,
            t0.elapsed()
        );
        for t in (e.run)(&cfg) {
            println!("{}", t.to_text());
            md.push_str(&t.to_markdown());
            md.push('\n');
        }
    }
    eprintln!("done in {:.0?}", t0.elapsed());

    if let Some(path) = report_path {
        std::fs::write(&path, md).expect("write report");
        eprintln!("markdown report written to {path}");
    }
}
