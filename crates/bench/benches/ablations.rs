//! Ablation benchmarks for the design choices DESIGN.md calls out: model
//! fidelity tiers (accuracy-per-cost), exact vs approximate Q̂, and the
//! loss-process menagerie's effect on simulated TCP (Bernoulli vs the
//! paper's round-correlated model vs Gilbert–Elliott bursts).
//!
//! These are *measurement* benches: besides timing, they print the
//! accuracy side of the trade-off once per run.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pftk_model::params::ModelParams;
use pftk_model::sendrate::{approx_model, full_model, td_only};
use pftk_model::timeout::{q_hat_approx, q_hat_exact};
use pftk_model::units::LossProb;
use std::sync::Once;
use tcp_sim::connection::Connection;
use tcp_sim::loss::{Bernoulli, GilbertElliott, LossKind, RoundCorrelated};
use tcp_sim::time::SimDuration;

static PRINT_ACCURACY: Once = Once::new();

fn print_accuracy_tables() {
    // Model-tier accuracy against the rounds simulator at a moderate point.
    let params = ModelParams::new(0.2, 2.0, 2, 32).unwrap();
    let p = 0.03;
    let mut sim = tcp_sim::rounds::RoundsSim::new(
        tcp_sim::rounds::RoundsConfig {
            p,
            rtt: 0.2,
            t0: 2.0,
            b: 2,
            wmax: 32,
            ..tcp_sim::rounds::RoundsConfig::default()
        },
        11,
    );
    sim.run_for(300_000.0);
    let truth = sim.send_rate();
    let lp = LossProb::new(p).unwrap();
    eprintln!("\n[ablation] model fidelity at p=0.03 (rounds-sim truth {truth:.2} pkt/s):");
    for (name, v) in [
        ("full (32)", full_model(lp, &params)),
        ("approx (33)", approx_model(lp, &params)),
        ("td-only (20)", td_only(lp, &params)),
    ] {
        eprintln!(
            "  {name:<12} {v:>7.2} pkt/s  ({:+.1}% vs sim)",
            100.0 * (v - truth) / truth
        );
    }
    // Q̂ exact vs 3/w.
    eprintln!(
        "[ablation] Q-hat at p=0.03: w=8 exact {:.3} vs approx {:.3}; w=16 {:.3} vs {:.3}",
        q_hat_exact(lp, 8.0),
        q_hat_approx(8.0),
        q_hat_exact(lp, 16.0),
        q_hat_approx(16.0)
    );
}

fn bench_model_tiers(c: &mut Criterion) {
    PRINT_ACCURACY.call_once(print_accuracy_tables);
    let params = ModelParams::new(0.2, 2.0, 2, 32).unwrap();
    let lp = LossProb::new(0.03).unwrap();
    let mut group = c.benchmark_group("ablation_model_tiers");
    group.bench_function("full_eq32", |b| {
        b.iter(|| full_model(black_box(lp), &params))
    });
    group.bench_function("approx_eq33", |b| {
        b.iter(|| approx_model(black_box(lp), &params))
    });
    group.bench_function("td_only_eq20", |b| {
        b.iter(|| td_only(black_box(lp), &params))
    });
    group.finish();
}

fn run_with(loss: LossKind, seed: u64) -> u64 {
    let mut conn = Connection::builder().rtt(0.1).loss(loss).seed(seed).build();
    conn.run_for(SimDuration::from_secs_f64(120.0));
    conn.stats().packets_sent
}

fn bench_loss_processes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_loss_process");
    group.sample_size(10);
    for (name, mk) in [
        ("bernoulli", 0usize),
        ("round_correlated", 1),
        ("gilbert_elliott", 2),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &mk, |b, &mk| {
            b.iter(|| {
                let loss: LossKind = match mk {
                    0 => Bernoulli::new(0.02).into(),
                    1 => RoundCorrelated::new(0.02).into(),
                    _ => GilbertElliott::from_rate_and_burst(0.02, 4.0).into(),
                };
                black_box(run_with(loss, 3))
            })
        });
    }
    group.finish();
}

fn bench_tcp_variants(c: &mut Criterion) {
    use tcp_sim::cc::CcAlgorithm;
    use tcp_sim::reno::sender::{RenoStyle, SenderConfig};
    let mut group = c.benchmark_group("ablation_tcp_variant");
    group.sample_size(10);
    // NewReno is the Reno style under the NewReno law.
    for (name, style, cc) in [
        ("Tahoe", RenoStyle::Tahoe, CcAlgorithm::Reno),
        ("Reno", RenoStyle::Reno, CcAlgorithm::Reno),
        ("NewReno", RenoStyle::Reno, CcAlgorithm::NewReno),
        ("Sack", RenoStyle::Sack, CcAlgorithm::Reno),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(style, cc),
            |b, &(style, cc)| {
                b.iter(|| {
                    let sender = SenderConfig {
                        style,
                        cc,
                        rwnd: 32,
                        ..SenderConfig::default()
                    };
                    let mut conn = Connection::builder()
                        .rtt(0.1)
                        .loss(Box::new(RoundCorrelated::new(0.02)))
                        .sender_config(sender)
                        .seed(3)
                        .build();
                    conn.run_for(SimDuration::from_secs_f64(120.0));
                    black_box(conn.stats().packets_sent)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_model_tiers,
    bench_loss_processes,
    bench_tcp_variants
);
criterion_main!(benches);
