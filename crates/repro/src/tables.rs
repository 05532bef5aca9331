//! Regeneration of the paper's tables.

use crate::output::{out_dir, section, write_csv};
use crate::RunScale;
use tcp_testbed::experiment::{run_table2_supervised, ExperimentResult};
use tcp_testbed::hosts::HOSTS;
use tcp_testbed::paths::TABLE2_PATHS;
use tcp_testbed::supervisor::SupervisorConfig;
use tcp_trace::table::{format_table, TableRow};

/// Table I: the host registry.
pub fn table1() {
    section("Table I — Domains and Operating Systems of Hosts");
    println!("{:<12} {:<18} Operating System", "Receiver", "Domain");
    let mut rows = Vec::new();
    for h in HOSTS {
        println!("{:<12} {:<18} {}", h.name, h.domain, h.os.label());
        rows.push(format!("{},{},{}", h.name, h.domain, h.os.label()));
    }
    write_csv(&out_dir(), "table1", "receiver,domain,os", &rows);
}

/// Table II: 24 hour-long connections, analyzed from the simulated traces,
/// printed next to the paper's numbers. Returns the measured rows.
pub fn table2(scale: &RunScale) -> Vec<TableRow> {
    section("Table II — Summary Data from 1 h Traces (simulated testbed)");
    // Scale the horizon (benches use a shorter one); counts are then
    // extrapolation-free but comparable in *rate* terms.
    let mut specs = TABLE2_PATHS.to_vec();
    if scale.hour_secs < 3600.0 {
        eprintln!("  (reduced horizon: {} s per trace)", scale.hour_secs);
    }
    // run_table2_supervised runs the paper's full hour; reduced scales run
    // each spec directly. Supervised rows may carry holes (failed paths);
    // those are rendered explicitly instead of aborting the table.
    let results: Vec<Option<ExperimentResult>> = if (scale.hour_secs - 3600.0).abs() < 1.0 {
        let report = run_table2_supervised(&specs, scale.seed, &SupervisorConfig::default());
        if !report.is_complete() {
            eprintln!("  partial campaign: {}", report.summary());
        }
        report.rows.into_iter().map(|row| row.result).collect()
    } else {
        specs
            .iter()
            .map(|s| {
                tcp_testbed::experiment::run_serial_100s(s, 1, scale.seed)
                    .into_iter()
                    .next() // one run was requested; Some by construction
            })
            .collect()
    };
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (spec, slot) in specs.iter_mut().zip(&results) {
        let Some(result) = slot else {
            // Explicit hole: the supervised experiment failed; the paper
            // row is still printed for reference below.
            println!(
                "{:<8} {:<12} — no data (experiment failed; see campaign summary)",
                spec.sender, spec.receiver
            );
            csv.push(format!("{},{},,,,,,,,,,,,,,,,", spec.sender, spec.receiver));
            continue;
        };
        // Streamed analysis: the campaign never materialized these traces.
        let timing_rtt = result.timing().and_then(|t| t.mean_rtt);
        let row = TableRow::from_analysis(
            spec.sender,
            spec.receiver,
            result.analysis(),
            timing_rtt.unwrap_or(spec.rtt),
            result.ground_t0.unwrap_or(spec.t0),
        );
        csv.push(format!(
            "{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{},{},{},{:.3},{:.3}",
            row.sender,
            row.receiver,
            row.packets_sent,
            row.loss_indications,
            row.td,
            row.timeouts[0],
            row.timeouts[1],
            row.timeouts[2],
            row.timeouts[3],
            row.timeouts[4].max(row.timeouts[5]),
            row.timeouts[5],
            row.rtt,
            row.t0,
            spec.paper_packets,
            spec.paper_loss,
            spec.paper_td,
            spec.rtt,
            spec.t0
        ));
        rows.push(row);
    }
    println!("{}", format_table(&rows));
    println!("Paper reference rows (same order):");
    for spec in TABLE2_PATHS {
        println!(
            "{:<8} {:<12} {:>8} {:>6} {:>5}   RTT {:.3}  T0 {:.3}",
            spec.sender,
            spec.receiver,
            spec.paper_packets,
            spec.paper_loss,
            spec.paper_td,
            spec.rtt,
            spec.t0
        );
    }
    // The paper's headline observation, checked on *our* data:
    let to_dominant = rows.iter().filter(|r| r.timeout_fraction() > 0.5).count();
    println!(
        "\nTimeout-dominated traces: {}/{} (paper: majority in all traces)",
        to_dominant,
        rows.len()
    );
    write_csv(
        &out_dir(),
        "table2",
        "sender,receiver,packets,loss,td,t0,t1,t2,t3,t4,t5plus,rtt,timeout,paper_packets,paper_loss,paper_td,paper_rtt,paper_t0",
        &csv,
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_quick_scale_produces_all_rows() {
        std::env::set_var("REPRO_OUT", std::env::temp_dir().join("repro-table-test"));
        let rows = table2(&RunScale::quick());
        assert_eq!(rows.len(), 24);
        assert!(rows.iter().all(|r| r.packets_sent > 0));
        std::env::remove_var("REPRO_OUT");
    }
}
