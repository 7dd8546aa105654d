//! `nbkv-bench <id>`: regenerate one table or figure, `all` of the
//! paper's evaluation, or the pinned `regress` sets (see the crate docs).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match nbkv_bench::parse_args(&args) {
        Ok(target) => target.run(),
        Err(e) => {
            eprintln!("nbkv-bench: {e}");
            std::process::exit(2);
        }
    }
}
