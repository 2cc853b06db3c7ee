//! Regenerates **Table III**: hardware metrics of the three evaluation
//! GPUs, as encoded in the simulator's device presets, with the derived
//! quantities the analysis model uses (ridge point, NCU-locked peak).

use gpu_sim::device::{a100_ncu_locked, paper_devices};
use nm_bench::TextTable;

fn main() {
    nm_bench::switches("usage: table3_hardware", []);
    println!("== Table III: hardware metrics ==\n");
    let devs = paper_devices();
    let mut t = TextTable::new(&["metric", "A100 80G", "RTX 3090", "RTX 4090"]);
    let row = |name: &str, f: &dyn Fn(&gpu_sim::DeviceConfig) -> String| {
        let mut cells = vec![name.to_string()];
        for d in &devs {
            cells.push(f(d));
        }
        cells
    };
    t.row(&row("Boost Clock (MHz)", &|d| {
        format!("{:.0}", d.clock_mhz)
    }));
    t.row(&row("Peak FP32 TFLOPS", &|d| {
        format!("{:.1}", d.peak_fp32_tflops())
    }));
    t.row(&row("Number of SMs", &|d| d.sm_count.to_string()));
    t.row(&row("Register File / SM (KB)", &|d| {
        (d.register_file_per_sm / 1024).to_string()
    }));
    t.row(&row("FP32 Cores / SM", &|d| {
        d.fp32_cores_per_sm.to_string()
    }));
    t.row(&row("FP32 FLOPs / clock / SM", &|d| {
        d.fp32_flops_per_clock_per_sm.to_string()
    }));
    t.row(&row("L1/Shared / SM (KB)", &|d| {
        (d.l1_shared_per_sm / 1024).to_string()
    }));
    t.row(&row("L2 Cache (MB)", &|d| (d.l2_bytes >> 20).to_string()));
    t.row(&row("DRAM (GB)", &|d| (d.dram_bytes >> 30).to_string()));
    t.row(&row("DRAM BW (GB/s)", &|d| {
        format!("{:.0}", d.dram_bw / 1e9)
    }));
    t.row(&row("Ridge (FLOP/B)", &|d| {
        format!("{:.1}", d.ridge_flops_per_byte())
    }));
    t.print();

    let locked = a100_ncu_locked();
    println!(
        "\nNCU-locked A100 (Fig. 10): clock {:.0} MHz -> peak {:.1} TFLOPS",
        locked.clock_mhz,
        locked.peak_fp32_tflops()
    );
}
