//! Same seed ⇒ identical simulated metrics and counts, and heap counters
//! that agree to within hash-table noise (`HashMap`'s per-instance random
//! state decides where tombstones fall, hence when a table rehashes).
//! One test only: the counting allocator is process-wide, and a second test
//! thread would allocate into the same counters.

use kollaps_benchmark::heap::Counting;
use kollaps_benchmark::run::{self, Budget};
use kollaps_benchmark::workloads::{Spec, WORKLOADS};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn deterministic_metrics_repeat_exactly() {
    for name in WORKLOADS {
        let spec = Spec::generate(name, 1, 10).expect("known workload");
        let end_to_end = run::end_to_end(std::slice::from_ref(&spec), Budget::Passes(2)).remove(0);
        assert!(
            end_to_end.repeatable,
            "{name}: digest changed between repetitions"
        );
        let accuracy = end_to_end.metrics["goodput_accuracy_pct"];
        assert!(
            accuracy.median > 0.0,
            "{name}: goodput_accuracy_pct is zero"
        );
        assert_eq!(
            accuracy.q1, accuracy.q3,
            "{name}: accuracy differs between repetitions"
        );
        let heap = end_to_end.metrics["peak_heap_mb"];
        assert!(heap.median > 0.0, "{name}: peak_heap_mb is zero");
        assert!(heap.spread() < 1e-3, "{name}: peak_heap_mb {heap:?}");
        let layers = run::per_layer(&spec, Budget::Passes(2));
        for (metric, unit) in kollaps_benchmark::catalog::PER_LAYER {
            let q = layers.metrics[metric];
            if unit == "count" {
                assert_eq!(q.q1, q.q3, "{name}: {metric} differs between passes");
            } else if metric.starts_with("alloc.") {
                assert!(q.spread() < 1e-3, "{name}: {metric} {q:?}");
            }
        }
    }
}
