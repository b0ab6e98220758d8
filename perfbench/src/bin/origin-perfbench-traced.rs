//! `origin-perfbench-traced`: the traced run (`--trace 1`). Its counting
//! global allocator gives every span its allocation count.

#[global_allocator]
static ALLOC: origin_perfbench::sys::CountingAlloc = origin_perfbench::sys::CountingAlloc;

fn main() {
    origin_perfbench::main(true);
}
