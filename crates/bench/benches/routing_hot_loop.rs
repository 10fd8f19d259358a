//! Per-search-step throughput of the routing hot loop: the incremental
//! engine (`route_pass` — delta-scored candidates over a persistent
//! `SearchState`) against the retained reference implementation
//! (`reference_route_pass` — full `O(|F|+|E|)` re-summation per candidate
//! plus per-step allocations).
//!
//! Both engines emit bit-identical routings (`tests/hot_loop_equivalence.rs`),
//! so they execute the same number of search steps on the same workload —
//! wall-clock ratio **is** the per-step ratio. The claim is ≥3× on
//! grid10x10 with deep synthetic circuits; README §Performance records
//! the measured numbers. `grid33x33_sparse` runs the sparse row engine,
//! where most steps take the in-place clean-step path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sabre::reference::reference_route_pass;
use sabre::router::route_pass;
use sabre::{Layout, SabreConfig};
use sabre_benchgen::random;
use sabre_circuit::Circuit;
use sabre_topology::{devices, CouplingGraph, WeightedDistanceMatrix};

/// One routed workload: everything both engines consume, pre-built so the
/// timed section is exactly one traversal.
struct Workload {
    label: &'static str,
    circuit: Circuit,
    graph: CouplingGraph,
    dist: WeightedDistanceMatrix,
    config: SabreConfig,
}

impl Workload {
    fn new(label: &'static str, graph: CouplingGraph, num_qubits: u32, gates: usize) -> Self {
        let circuit = random::random_circuit(num_qubits, gates, 0.9, 7);
        let dist = WeightedDistanceMatrix::hops(&graph);
        Workload {
            label,
            circuit,
            graph,
            dist,
            config: SabreConfig::fast(),
        }
    }

    fn route_incremental(&self) -> usize {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        route_pass(
            &self.circuit,
            &self.graph,
            &self.dist,
            Layout::identity(self.graph.num_qubits()),
            &self.config,
            &mut rng,
        )
        .search_steps
    }

    fn route_reference(&self) -> usize {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        reference_route_pass(
            &self.circuit,
            &self.graph,
            &self.dist,
            Layout::identity(self.graph.num_qubits()),
            &self.config,
            &mut rng,
        )
        .search_steps
    }
}

fn workloads() -> Vec<Workload> {
    vec![
        // The tentpole configuration: 100-qubit grid, deep circuit, wide
        // front layers — where per-candidate re-summation hurts most.
        Workload::new(
            "grid10x10_deep",
            devices::grid(10, 10).graph().clone(),
            80,
            4_000,
        ),
        Workload::new(
            "grid10x10_medium",
            devices::grid(10, 10).graph().clone(),
            60,
            800,
        ),
        Workload::new(
            "tokyo_deep",
            devices::ibm_q20_tokyo().graph().clone(),
            18,
            2_000,
        ),
        // Past the dense threshold (sparse hop rows): 200 qubits on
        // grid 33×33, where most SWAPs leave the front layer unchanged,
        // so the step check below also covers the clean-step path.
        Workload::new(
            "grid33x33_sparse",
            devices::grid(33, 33).graph().clone(),
            200,
            500,
        ),
    ]
}

fn bench_hot_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_hot_loop");
    group.sample_size(10);
    for w in workloads() {
        // Same steps on both engines (bit-identical contract) — checked
        // here so a divergence can never silently skew the comparison.
        assert_eq!(
            w.route_incremental(),
            w.route_reference(),
            "{}: engines disagree on search effort",
            w.label
        );
        group.bench_with_input(BenchmarkId::new("incremental", w.label), &w, |b, w| {
            b.iter(|| w.route_incremental())
        });
        group.bench_with_input(BenchmarkId::new("reference", w.label), &w, |b, w| {
            b.iter(|| w.route_reference())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hot_loop);
criterion_main!(benches);
