//! Regenerates the experiment implemented by
//! [`uqsim_bench::experiments::retry_storm`].

fn main() {
    if let Err(e) = uqsim_bench::experiments::retry_storm::run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
