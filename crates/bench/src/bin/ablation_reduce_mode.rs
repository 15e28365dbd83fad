//! Ablation study: reduce mode. Pass --quick for a smaller run.
fn main() {
    let scale = cc_bench::Scale::from_args();
    cc_bench::emit(
        &cc_bench::ablation_reduce_mode(scale),
        "ablation_reduce_mode",
    );
}
