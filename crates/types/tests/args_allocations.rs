//! How many heap blocks, and how many bytes, building, cloning and decoding
//! a [`Value`] or an [`Args`] costs — and that every byte is given back.
//!
//! A list of at most one value lives inline and an empty string, byte
//! string or list points at a shared static header, so those cases allocate
//! nothing; anything longer owns one block that holds its length (8 bytes)
//! and then its items.  The counting allocator is this test binary's
//! `#[global_allocator]`.  It counts per thread, so tests running beside
//! each other do not see each other's blocks, and besides the blocks and
//! bytes asked for it keeps the bytes live on the thread: `+size` on an
//! allocation, `-layout.size()` on a free.  A case that ends where it began
//! leaked nothing and freed every block with the layout it was allocated
//! with.

use aeon_types::codec::{self, Wire, WireReader};
use aeon_types::{args, Args, ContextId, ThinBytes, ThinList, ThinStr, Value};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};

struct Counting;

thread_local! {
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Counts one block of `size` bytes on this thread.
fn count(size: usize) {
    let _ = BLOCKS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size));
}

/// Moves this thread's live balance by `delta` bytes.
fn live(delta: isize) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// thread-local counters are `const`-initialised `Cell`s, which allocate
// nothing on access.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as isize));
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        live(new_size as isize - layout.size() as isize);
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

/// Runs `f`, drops what it returns, and checks that the thread holds
/// exactly the bytes it held before: nothing leaked, and every block was
/// freed with the size it was allocated with.
fn balanced<T>(what: &str, f: impl FnOnce() -> T) {
    let before = LIVE.with(Cell::get);
    drop(std::hint::black_box(f()));
    let after = LIVE.with(Cell::get);
    assert_eq!(after, before, "{what}: {} bytes left live", after - before);
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
fn an_empty_string_byte_string_or_list_allocates_nothing() {
    assert_eq!(blocks(|| Value::from("")).0, 0);
    assert_eq!(blocks(|| Value::from(String::new())).0, 0);
    assert_eq!(blocks(|| Value::from(Vec::<u8>::new())).0, 0);
    assert_eq!(blocks(|| Value::from(Vec::<Value>::new())).0, 0);
    assert_eq!(blocks(|| Value::List(std::iter::empty().collect())).0, 0);
    assert_eq!(blocks(ThinStr::default).0, 0);
    assert_eq!(blocks(ThinBytes::default).0, 0);
    assert_eq!(blocks(ThinList::default).0, 0);

    for empty in [
        Value::from(""),
        Value::Bytes(ThinBytes::default()),
        Value::List(ThinList::default()),
    ] {
        assert_eq!(blocks(|| empty.clone()).0, 0, "{empty:?}");
        let encoded = codec::encode(&empty);
        let (n, decoded) = blocks(|| codec::decode(&encoded));
        assert_eq!((n, decoded.unwrap()), (0, empty));
    }
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
fn a_three_value_list_is_one_block_of_56_bytes() {
    let ctx = ContextId::new(3);
    let (n, bytes, _) = blocks_and_bytes(|| args![ctx, ctx, 7i64]);
    assert_eq!(8 + 3 * std::mem::size_of::<Value>(), 56);
    assert_eq!((n, bytes), (1, 56));
}

#[test]
fn a_string_is_one_block_built_or_decoded() {
    let (n, bytes, gold) = blocks_and_bytes(|| Value::from("gold"));
    assert_eq!((n, bytes), (1, 12));
    let encoded = codec::encode(&gold);
    let (n, bytes, decoded) = blocks_and_bytes(|| codec::decode(&encoded));
    assert_eq!((n, bytes), (1, 12));
    assert_eq!(decoded.unwrap(), gold);
}

#[test]
fn decoding_a_list_of_three_ints_is_one_exact_block() {
    let list = Value::from(vec![1i64, 2, 3]);
    let encoded = codec::encode(&list);
    let (n, bytes, decoded) = blocks_and_bytes(|| codec::decode(&encoded));
    assert_eq!((n, bytes), (1, 56));
    assert_eq!(decoded.unwrap(), list);
}

#[test]
fn a_list_truncated_in_its_third_value_is_refused_and_freed() {
    let list = Value::from(vec!["first", "second", "third"]);
    let encoded = codec::encode(&list);
    // Cut inside the third string's bytes: the list block and the first two
    // strings are built before the decoder runs out.
    let cut = &encoded[..encoded.len() - 2];
    balanced("truncated list", || {
        let (n, decoded) = blocks(|| codec::decode(cut));
        assert!(decoded.is_err(), "{decoded:?}");
        assert_eq!(n, 4, "the list block, two strings and the error's message");
    });
    // The same inside an argument list, which reads a long list into its
    // block too.
    let mut framed = Vec::new();
    args!["first", "second", "third"].put(&mut framed);
    let cut = &framed[..framed.len() - 2];
    balanced("truncated args", || {
        assert!(<Args as Wire>::get(&mut WireReader::new(cut)).is_err());
    });
}

/// `items` values, of which the third ends the iteration with a panic that
/// does not run the panic hook (which may allocate for itself).
fn panics_at_the_third(items: usize) -> impl Iterator<Item = Value> {
    (0..items).map(|i| {
        if i == 2 {
            panic::resume_unwind(Box::new("the third value"));
        }
        Value::from(format!("value {i}"))
    })
}

#[test]
fn a_collect_that_panics_halfway_frees_what_it_built() {
    fn unwinds<T>(f: impl FnOnce() -> T) {
        assert!(panic::catch_unwind(AssertUnwindSafe(f)).is_err());
    }
    balanced("ThinList, exact length", || {
        unwinds(|| panics_at_the_third(5).collect::<ThinList>())
    });
    balanced("ThinList, unknown length", || {
        unwinds(|| {
            panics_at_the_third(5)
                .filter(|_| true)
                .collect::<ThinList>()
        })
    });
    balanced("Args", || {
        unwinds(|| panics_at_the_third(5).collect::<Args>())
    });
    balanced("ThinBytes", || {
        unwinds(|| {
            (0..5u8)
                .map(|b| match b {
                    2 => panic::resume_unwind(Box::new("the third byte")),
                    b => b,
                })
                .collect::<ThinBytes>()
        })
    });
}

#[test]
fn an_iterator_that_misstates_its_length_is_still_collected_exactly() {
    /// Says it has `claimed` items and yields `actual`.
    struct Liar {
        claimed: usize,
        actual: std::ops::Range<i64>,
    }
    impl Iterator for Liar {
        type Item = Value;
        fn next(&mut self) -> Option<Value> {
            self.actual.next().map(|i| Value::from(format!("v{i}")))
        }
        fn size_hint(&self) -> (usize, Option<usize>) {
            (self.claimed, Some(self.claimed))
        }
    }
    for (claimed, actual) in [(3, 0..5), (5, 0..3), (0, 0..2), (2, 0..0)] {
        let expected: Vec<Value> = actual
            .clone()
            .map(|i| Value::from(format!("v{i}")))
            .collect();
        balanced("a lying iterator", || {
            let list: ThinList = Liar { claimed, actual }.collect();
            assert_eq!(&*list, expected.as_slice(), "claimed {claimed}");
        });
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Float),
        "[a-z]{0,16}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::from),
        any::<u64>().prop_map(|r| Value::ContextRef(ContextId::new(r))),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..8).prop_map(Value::from),
            proptest::collection::btree_map("[a-z]{1,8}", inner, 0..8).prop_map(Value::map),
        ]
    })
}

/// `value` built again through the public constructors: strings and byte
/// strings from their slices, lists by collecting, maps from pairs.
fn rebuild(value: &Value) -> Value {
    match value {
        Value::Str(s) => Value::Str(ThinStr::from(&**s)),
        Value::Bytes(b) => Value::Bytes(b.iter().copied().collect()),
        Value::List(items) => Value::List(items.iter().map(rebuild).collect()),
        Value::Map(map) => Value::map(map.iter().map(|(k, v)| (k.as_str(), rebuild(v)))),
        scalar => scalar.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 64 } else { 5_000 }
    ))]

    /// Building, cloning, comparing, encoding and decoding any value, and
    /// any argument list of such values, then dropping it all, leaves the
    /// thread holding what it held.
    #[test]
    fn every_value_and_argument_list_gives_back_every_byte(
        values in proptest::collection::vec(arb_value(), 0..6)
    ) {
        balanced("values", || {
            for value in &values {
                let built = rebuild(value);
                let copy = built.clone();
                assert_eq!(&copy, value);
                let decoded = codec::decode(&codec::encode(&copy)).unwrap();
                assert_eq!(&decoded, value);
            }
        });
        balanced("args", || {
            let args = Args::new(values.iter().map(rebuild).collect());
            let collected: Args = values.iter().cloned().collect();
            let copy = args.clone();
            assert!(args == collected && copy == args);
            let mut framed = Vec::new();
            copy.put(&mut framed);
            let decoded = <Args as Wire>::get(&mut WireReader::new(&framed)).unwrap();
            assert_eq!(decoded, args);
            assert_eq!(decoded.into_inner(), values);
        });
    }
}
