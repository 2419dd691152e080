//! Wall-clock microbenchmarks of the packed bipolar and SIMD `i8` and
//! `f32` host kernels against their scalar references (each pinned
//! bit-exact before timing), and writes the machine-readable `BENCH_kernels.json`
//! baseline at the repository root. See
//! `hd_bench::experiments::fig_kernels_report`.

fn main() {
    let (table, report) = hd_bench::experiments::fig_kernels_report();
    table.emit("fig_kernels");
    match hd_bench::report::write_bench_report("kernels", &report.to_json()) {
        Ok(path) => println!("(report written to {})", path.display()),
        Err(e) => {
            eprintln!("error: could not write BENCH_kernels.json: {e}");
            std::process::exit(1);
        }
    }
}
