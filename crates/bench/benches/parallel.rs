//! The parallel multi-seed engine at its two grains: restart fan-out
//! inside one `route` call, and circuit fan-out in the batch APIs (whose
//! workers run each circuit's restarts inline). The loops of single calls
//! get only the restart fan-out, so the batch rows show what the coarser
//! grain adds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sabre::{transpile_batch, SabreConfig, SabreRouter, TranspileOptions};
use sabre_benchgen::{qft, random};
use sabre_circuit::Circuit;
use sabre_topology::devices;

/// A corpus of medium circuits, the shape of a transpilation-service queue.
fn corpus(len: usize) -> Vec<Circuit> {
    (0..len)
        .map(|i| match i % 3 {
            0 => qft::qft(10 + (i % 4) as u32),
            1 => random::random_circuit(14, 160, 0.7, i as u64),
            _ => random::random_circuit(10, 120, 0.5, 1000 + i as u64),
        })
        .collect()
}

/// Restart fan-out within a single `route` call.
fn bench_multi_seed_single_circuit(c: &mut Criterion) {
    let device = devices::ibm_q20_tokyo();
    let mut group = c.benchmark_group("multi_seed_routing");
    group.sample_size(10);
    let circuit = random::random_circuit(16, 300, 0.7, 42);
    for restarts in [8usize, 16] {
        let config = SabreConfig {
            num_restarts: restarts,
            ..SabreConfig::paper()
        };
        let router = SabreRouter::new(device.graph().clone(), config).unwrap();
        group.bench_with_input(BenchmarkId::new("route", restarts), &circuit, |b, circ| {
            b.iter(|| router.route(circ).unwrap().added_gates())
        });
    }
    group.finish();
}

/// Whole-corpus routing through one shared router.
fn bench_route_batch(c: &mut Criterion) {
    let device = devices::ibm_q20_tokyo();
    let router = SabreRouter::new(device.graph().clone(), SabreConfig::paper()).unwrap();
    let mut group = c.benchmark_group("route_batch");
    group.sample_size(10);
    for len in [8usize, 32] {
        let circuits = corpus(len);
        group.bench_with_input(
            BenchmarkId::new("route_loop", len),
            &circuits,
            |b, circs| {
                b.iter(|| {
                    circs
                        .iter()
                        .map(|c| router.route(c).unwrap().added_gates())
                        .sum::<usize>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("parallel_batch", len),
            &circuits,
            |b, circs| {
                b.iter(|| {
                    router
                        .route_batch(circs)
                        .into_iter()
                        .map(|r| r.unwrap().added_gates())
                        .sum::<usize>()
                })
            },
        );
    }
    group.finish();
}

/// Full pipeline (route + decompose + optimize) over a corpus.
fn bench_transpile_batch(c: &mut Criterion) {
    let device = devices::ibm_q20_tokyo();
    let options = TranspileOptions::default();
    let mut group = c.benchmark_group("transpile_batch");
    group.sample_size(10);
    let circuits = corpus(16);
    group.bench_with_input(
        BenchmarkId::from_parameter(circuits.len()),
        &circuits,
        |b, circs| {
            b.iter(|| {
                transpile_batch(circs, device.graph(), &options)
                    .unwrap()
                    .into_iter()
                    .map(|r| r.unwrap().circuit.num_gates())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("transpile_loop", circuits.len()),
        &circuits,
        |b, circs| {
            b.iter(|| {
                circs
                    .iter()
                    .map(|c| {
                        sabre::transpile(c, device.graph(), &options)
                            .unwrap()
                            .circuit
                            .num_gates()
                    })
                    .sum::<usize>()
            })
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_multi_seed_single_circuit,
    bench_route_batch,
    bench_transpile_batch
);
criterion_main!(benches);
