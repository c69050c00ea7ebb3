//! Table I: number of parallel regions and region calls per NPB3.2-OMP
//! benchmark, with the call counts *measured* through ORA fork events (the
//! same mechanism a collector would use), next to the paper's values.

use collector::{report, RuntimeHandle, StreamingTracer};
use omprt::OpenMp;
use ora_bench::Scale;
use ora_trace::{MemorySink, TraceConfig};
use workloads::{NpbClass, NpbKernel};

const PAPER: [(&str, u64, u64); 8] = [
    ("BT", 11, 1_014),
    ("EP", 3, 3),
    ("SP", 14, 3_618),
    ("MG", 10, 1_281),
    ("FT", 9, 112),
    ("CG", 15, 2_212),
    ("LU-HP", 16, 298_959),
    ("LU", 9, 518),
];

fn main() {
    let scale = Scale::from_args();
    let class = scale.npb_class();
    println!("Table I — parallel regions per NPB3.2-OMP benchmark");
    println!("measured class: {class:?} (call counts scale; structure is invariant)\n");

    let mut rows = Vec::new();
    for (kernel, (name, paper_regions, paper_calls)) in NpbKernel::all().iter().zip(PAPER) {
        let rt = OpenMp::with_threads(2);
        let handle = RuntimeHandle::discover_named(rt.symbol_name()).unwrap();
        let tracer =
            StreamingTracer::attach(handle, TraceConfig::default(), MemorySink::new()).unwrap();
        kernel.run(&rt, class);
        let measured_calls = tracer.region_calls();
        tracer.finish().unwrap();

        rows.push(vec![
            name.to_string(),
            paper_regions.to_string(),
            kernel.region_count().to_string(),
            paper_calls.to_string(),
            kernel.region_calls(NpbClass::Bsim).to_string(),
            measured_calls.to_string(),
        ]);
        assert_eq!(
            measured_calls,
            kernel.region_calls(class),
            "{name}: fork events must equal the kernel's region calls"
        );
    }

    println!(
        "{}",
        report::table(
            &[
                "benchmark",
                "# regions (paper)",
                "# regions (ours)",
                "# calls (paper, B)",
                "# calls (ours, B-sim)",
                "# calls (measured via ORA forks)",
            ],
            rows
        )
    );
    println!("every measured count equals the kernel's structural count at the chosen class");
}
