//! `origin-perfbench`: the end-to-end runs (`--trace 0`), on the system
//! allocator, so the rounds pay for no allocation counting.

fn main() {
    origin_perfbench::main(false);
}
