//! Integration: the experiment harness regenerates every table/figure at
//! test scale and the headline *shapes* of the paper hold. Every figure runs
//! through the `experiments::ALL` registry that `all_experiments` drives, so
//! these tests also cover the registry's wiring.

use sage_bench::experiments::{AppKind, ALL};
use sage_bench::{BenchConfig, ExpTable};

/// Run the registry entry `name` at test scale; every entry must produce at
/// least one table, each with rows.
fn run(name: &str) -> Vec<ExpTable> {
    let e = ALL
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} is not registered"));
    let tables = (e.run)(&BenchConfig::test_config());
    assert!(!tables.is_empty(), "{name} produced no table");
    for t in &tables {
        assert!(
            !t.rows.is_empty(),
            "{name}: table {:?} has no rows",
            t.title
        );
    }
    tables
}

/// The single table of a one-table experiment.
fn run_one(name: &str) -> ExpTable {
    let mut tables = run(name);
    assert_eq!(tables.len(), 1, "{name} is a single table");
    tables.remove(0)
}

#[test]
fn registry_names_and_paper_order() {
    // equal to a list of distinct names, so also unique
    let names: Vec<&str> = ALL.iter().map(|e| e.name).collect();
    assert_eq!(
        names,
        [
            "table1",
            "fig6",
            "table2",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "table3",
            "ablation_extra",
            "ooc_ablation",
            "dynamic_graphs",
        ]
    );
    let paper: Vec<&str> = ALL.iter().filter(|e| e.paper).map(|e| e.name).collect();
    assert_eq!(
        paper,
        ["table1", "fig6", "table2", "fig7", "fig8", "fig9", "fig10", "table3"]
    );
}

#[test]
fn extension_studies_produce_tables() {
    for name in ALL.iter().filter(|e| !e.paper).map(|e| e.name) {
        run(name);
    }
}

#[test]
fn table1_lists_all_datasets() {
    let t = run_one("table1");
    assert_eq!(t.rows.len(), 5);
    let names: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(
        names,
        vec!["uk-2002", "brain", "ljournal", "twitter", "friendster"]
    );
}

#[test]
fn fig6_reordering_tables_complete() {
    let tables = run("fig6");
    assert_eq!(tables.len(), 3);
    for t in &tables {
        assert_eq!(t.rows.len(), 5);
        for r in &t.rows {
            for cell in &r[1..] {
                let v: f64 = cell.parse().expect("numeric GTEPS cell");
                assert!(v > 0.0, "all configurations must traverse");
            }
        }
    }
}

#[test]
fn table2_sage_round_is_cheapest() {
    let t = run_one("table2");
    // SAGE per-round must be the cheapest column on the skewed graphs
    for r in &t.rows {
        if r[0] == "twitter" || r[0] == "friendster" {
            let parse = |s: &str| -> f64 {
                let (num, unit) = s.split_once(' ').unwrap();
                let x: f64 = num.parse().unwrap();
                match unit {
                    "s" => x,
                    "ms" => x * 1e-3,
                    "us" => x * 1e-6,
                    _ => panic!("unit {unit}"),
                }
            };
            let gorder = parse(&r[3]);
            let sage = parse(&r[4]);
            assert!(
                sage < gorder,
                "{}: SAGE/round ({sage}s) must undercut Gorder ({gorder}s)",
                r[0]
            );
        }
    }
}

#[test]
fn fig7_sage_competitive_everywhere() {
    let tables = run("fig7");
    // per the paper: SAGE is always the best or highly competitive — check
    // SAGE+self-reordering is at least 40% of the best bar on every row of
    // the BFS table
    let bfs = &tables[0];
    for r in &bfs.rows {
        let vals: Vec<f64> = r[1..].iter().map(|c| c.parse().unwrap()).collect();
        let best = vals.iter().copied().fold(0.0f64, f64::max);
        let sage_with = vals[vals.len() - 1];
        assert!(
            sage_with >= 0.4 * best,
            "{}: SAGE ({sage_with}) should be competitive with best ({best})",
            r[0]
        );
    }
    // and the CPU baseline never wins
    for t in &tables {
        for r in &t.rows {
            let vals: Vec<f64> = r[1..].iter().map(|c| c.parse().unwrap()).collect();
            let ligra = vals[0].max(vals[1]);
            let best = vals.iter().copied().fold(0.0f64, f64::max);
            assert!(ligra < best, "{}: Ligra must not be the fastest", r[0]);
        }
    }
}

#[test]
fn fig8_sage_beats_subway_on_social_graphs() {
    let t = run_one("fig8");
    for r in &t.rows {
        if r[0] == "brain" {
            assert!(r[1].contains("n/a"));
            continue;
        }
        let subway: f64 = r[1].parse().unwrap();
        let sage: f64 = r[2].parse().unwrap();
        assert!(
            sage > subway * 0.5,
            "{}: SAGE-OOC ({sage}) should be at least competitive with Subway ({subway})",
            r[0]
        );
    }
}

#[test]
fn fig9_all_cells_populated() {
    let t = run_one("fig9");
    assert_eq!(t.rows.len(), 5);
    for r in &t.rows {
        for cell in &r[1..] {
            let v: f64 = cell.parse().unwrap();
            assert!(v > 0.0);
        }
    }
}

#[test]
fn fig10_tp_and_rts_improve_on_twitter() {
    let tables = run("fig10");
    let bfs = &tables[0];
    let twitter = bfs.rows.iter().find(|r| r[0] == "twitter").unwrap();
    let base: f64 = twitter[1].parse().unwrap();
    let tp: f64 = twitter[2].parse().unwrap();
    let rts: f64 = twitter[3].parse().unwrap();
    assert!(
        tp > base,
        "Tiled Partitioning must improve the skewed baseline: {base} -> {tp}"
    );
    assert!(
        rts > tp,
        "Resident Tile Stealing must improve on TP: {tp} -> {rts}"
    );
}

#[test]
fn table3_overhead_within_paper_range() {
    let t = run_one("table3");
    for r in &t.rows {
        for cell in &r[1..] {
            let pct: f64 = cell
                .split('(')
                .nth(1)
                .and_then(|s| s.strip_suffix("%)"))
                .unwrap()
                .parse()
                .unwrap();
            // Table 3 reports 0.3%..19%
            assert!(
                (0.0..=20.0).contains(&pct),
                "overhead {pct}% out of plausible range in {}",
                r[0]
            );
        }
    }
}

#[test]
fn appkinds_enumerate_paper_apps() {
    let names: Vec<&str> = AppKind::ALL.iter().map(AppKind::name).collect();
    assert_eq!(names, vec!["BFS", "BC", "PR"]);
}
