//! How many heap blocks, and how many bytes, building, cloning and decoding
//! a [`Value`] or an [`Args`] costs.
//!
//! A list of at most one value lives inline, so those cases allocate
//! nothing; a longer list owns one block of exactly its size, and so does a
//! string or a list value.  The counting allocator is this test binary's
//! `#[global_allocator]`, and it counts per thread, so tests running beside
//! each other do not see each other's blocks.

use aeon_types::codec::{self, Wire, WireReader};
use aeon_types::{args, Args, ContextId, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Counts one block of `size` bytes on this thread.
fn count(size: usize) {
    let _ = BLOCKS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// thread-local counters are `const`-initialised `Cell`s, which allocate
// nothing on access.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The blocks `f` allocates (a reallocation counts as one), and its result.
fn blocks<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let (n, _, out) = blocks_and_bytes(f);
    (n, out)
}

/// The blocks `f` allocates, the bytes it asks for in them (a reallocation
/// counts as one block of its new size), and its result.
fn blocks_and_bytes<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let before = (BLOCKS.with(Cell::get), BYTES.with(Cell::get));
    let out = std::hint::black_box(f());
    let after = (BLOCKS.with(Cell::get), BYTES.with(Cell::get));
    (after.0 - before.0, after.1 - before.1, out)
}

#[test]
fn a_list_of_at_most_one_value_allocates_nothing() {
    assert_eq!(blocks(|| args![]).0, 0);
    assert_eq!(blocks(|| args![7i64]).0, 0);
    assert_eq!(blocks(|| args![ContextId::new(3)]).0, 0);

    let one = args![7i64];
    let (n, copy) = blocks(|| one.clone());
    assert_eq!((n, copy), (0, one));
}

#[test]
fn decoding_a_one_int_list_allocates_nothing() {
    let mut bytes = Vec::new();
    args![42i64].put(&mut bytes);
    let (n, decoded) = blocks(|| <Args as Wire>::get(&mut WireReader::new(&bytes)));
    assert_eq!(n, 0);
    assert_eq!(decoded.unwrap(), args![42i64]);
}

#[test]
fn a_longer_list_owns_one_exact_block() {
    let three = args![1i64, 2i64, 3i64];
    let (n, copy) = blocks(|| three.clone());
    assert_eq!(n, 1);
    assert_eq!(copy, three);
    assert_eq!(blocks(|| args![1i64, Value::Null, true]).0, 1);
}

#[test]
fn a_three_value_list_is_one_block_of_72_bytes() {
    let ctx = ContextId::new(3);
    let (n, bytes, _) = blocks_and_bytes(|| args![ctx, ctx, 7i64]);
    assert_eq!(3 * std::mem::size_of::<Value>(), 72);
    assert_eq!((n, bytes), (1, 72));
}

#[test]
fn a_string_is_one_block_built_or_decoded() {
    let (n, bytes, gold) = blocks_and_bytes(|| Value::from("gold"));
    assert_eq!((n, bytes), (1, 4));
    let encoded = codec::encode(&gold);
    let (n, bytes, decoded) = blocks_and_bytes(|| codec::decode(&encoded));
    assert_eq!((n, bytes), (1, 4));
    assert_eq!(decoded.unwrap(), gold);
}

#[test]
fn decoding_a_list_of_three_ints_is_one_exact_block() {
    let list = Value::from(vec![1i64, 2, 3]);
    let encoded = codec::encode(&list);
    let (n, bytes, decoded) = blocks_and_bytes(|| codec::decode(&encoded));
    assert_eq!((n, bytes), (1, 3 * std::mem::size_of::<Value>()));
    assert_eq!(decoded.unwrap(), list);
}
