fn main() {
    std::process::exit(spbench::cli::main(std::env::args().skip(1).collect()));
}
