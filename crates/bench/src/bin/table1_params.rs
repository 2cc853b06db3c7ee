//! Regenerates **Table I** (recommended blocking parameters, with the
//! quantities the paper derives from them) and **Table II** (the A–F test
//! shapes with their size classes and `Para_Init_Table` assignments).

use gpu_sim::device::a100_80g;
use nm_analysis::cmar::{cmar, tile_registers, LdsWidth};
use nm_bench::spd;
use nm_bench::TextTable;
use nm_kernels::params::{derive_blocking, BlockingParams};
use nm_workloads::levels::benchmark_levels;
use nm_workloads::shapes::table_ii;

fn main() {
    nm_bench::switches("usage: table1_params", []);
    println!("== Table I: recommended blocking parameters ==\n");
    let mut t = TextTable::new(&[
        "class",
        "ms",
        "ns",
        "mr",
        "nr",
        "mt",
        "nt",
        "threads",
        "warps",
        "CMAR(LDS.128)",
        "regs(tile)",
    ]);
    for (label, p) in BlockingParams::table_i() {
        t.row(&[
            label.to_string(),
            p.ms.to_string(),
            p.ns.to_string(),
            p.mr.to_string(),
            p.nr.to_string(),
            p.mt.to_string(),
            p.nt.to_string(),
            p.threads().to_string(),
            p.warps().to_string(),
            spd(cmar(p.mt, p.nt, LdsWidth::Lds128)),
            tile_registers(p.mt, p.nt).to_string(),
        ]);
    }
    t.print();

    println!("\n== derived ks/ws on the A100 (Eq. 4/5), k = 4096 ==\n");
    let dev = a100_80g();
    let mut t = TextTable::new(&["class", "sparsity", "ks", "ws", "qs", "smem(V3)"]);
    for (label, p) in BlockingParams::table_i() {
        for cfg in benchmark_levels() {
            let b = derive_blocking(&dev, p, cfg, 4096, true, true).expect("blocking");
            t.row(&[
                label.to_string(),
                format!("{:.1}%", cfg.sparsity() * 100.0),
                b.ks.to_string(),
                b.ws.to_string(),
                b.qs.to_string(),
                format!("{} B", b.smem_bytes),
            ]);
        }
    }
    t.print();

    println!("\n== Table II: evaluation shapes ==\n");
    let mut t = TextTable::new(&["label", "m", "n", "k", "class", "Para_Init_Table"]);
    for s in table_ii() {
        let assigned = BlockingParams::para_init_table(s.m, s.n);
        let name = BlockingParams::table_i()
            .iter()
            .find(|(_, p)| *p == assigned)
            .map(|(n, _)| *n)
            .unwrap_or("?");
        t.row(&[
            s.label.to_string(),
            s.m.to_string(),
            s.n.to_string(),
            s.k.to_string(),
            s.size_class().to_string(),
            name.to_string(),
        ]);
    }
    t.print();
}
