//! What waiting for one answer costs in heap blocks.
//!
//! An event's handle, a remote call and a control round trip each wait on a
//! one-shot reply (`aeon_runtime::reply`): one block that holds the state,
//! the value and the parked waiter.  A bounded channel of capacity one used
//! to carry each of them in two: a 640 B channel and a slot buffer of the
//! value's size.  On the thread that submits events to the runtime, a
//! `Session` `submit` + `wait` of `get_gold` allocated 984 B in 6 blocks per
//! event with the channel, the largest its 640 B, and allocates 192 B in 3
//! with the reply: the method's name (8 B), the pool task (104 B) and the
//! reply (80 B), which the one `EventHandle` holds itself.
//!
//! The counting allocator is this test binary's `#[global_allocator]`.  It
//! counts blocks, bytes and the largest block per thread, and — while a
//! test arms it — every block of at least [`LARGE`] bytes on any thread.
//! The tests take one lock, so that no other test allocates in an armed
//! window.

use aeon::prelude::*;
use aeon::runtime::reply::reply;
use aeon_apps::bank::{deploy_bank, register_bank_factories, BankWorldConfig};
use aeon_apps::game::{deploy_game, game_class_graph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A block this large anywhere in the process fails the armed window.
const LARGE: usize = 512;

struct Counting;

thread_local! {
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static LARGEST_ANYWHERE: AtomicUsize = AtomicUsize::new(0);

/// Counts one block of `size` bytes on this thread, and in the process
/// when it is large and a window is armed.
fn count(size: usize) {
    let _ = BLOCKS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
    if size >= LARGE && ARMED.load(Ordering::Relaxed) {
        LARGE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        LARGEST_ANYWHERE.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// thread-local counters are `const`-initialised `Cell`s and the rest are
// atomics, none of which allocates.
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

static SERIAL: Mutex<()> = Mutex::new(());

/// What `f` allocated on this thread.
#[derive(Debug)]
struct Spent {
    blocks: usize,
    bytes: usize,
    largest: usize,
}

fn spent_on_this_thread<T>(f: impl FnOnce() -> T) -> (Spent, T) {
    LARGEST.with(|n| n.set(0));
    let before = (BLOCKS.with(Cell::get), BYTES.with(Cell::get));
    let out = std::hint::black_box(f());
    let spent = Spent {
        blocks: BLOCKS.with(Cell::get) - before.0,
        bytes: BYTES.with(Cell::get) - before.1,
        largest: LARGEST.with(Cell::get),
    };
    (spent, out)
}

/// The blocks of at least [`LARGE`] bytes any thread allocated while `f`
/// ran, and the largest of them.
fn large_blocks_anywhere(f: impl FnOnce()) -> (usize, usize) {
    LARGE_BLOCKS.store(0, Ordering::SeqCst);
    LARGEST_ANYWHERE.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    (
        LARGE_BLOCKS.load(Ordering::SeqCst),
        LARGEST_ANYWHERE.load(Ordering::SeqCst),
    )
}

#[test]
fn a_reply_for_an_event_outcome_is_one_block() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (spent, (tx, rx)) = spent_on_this_thread(reply::<Result<Value>>);
    // The `Arc`'s two counts, the mutex word, and the state, which is no
    // larger than the outcome itself.
    let expected = 16 + 8 + std::mem::size_of::<Result<Value>>();
    assert_eq!((spent.blocks, spent.bytes), (1, expected), "{spent:?}");
    assert_eq!(expected, 80);

    // Sending, and taking what was sent, allocates nothing more.
    let (spent, got) = spent_on_this_thread(|| {
        tx.send(Ok(Value::from(7i64))).unwrap();
        rx.wait().unwrap()
    });
    assert_eq!(spent.blocks, 0, "{spent:?}");
    assert_eq!(got, Ok(Value::from(7i64)));
}

#[test]
fn a_runtime_submit_and_wait_allocates_no_large_block_on_the_submitting_thread() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let runtime = AeonRuntime::builder()
        .servers(2)
        .class_graph(game_class_graph())
        .build()
        .unwrap();
    let world = deploy_game(&runtime, 2, 2).unwrap();
    let player = world.players[0][0];
    let session = runtime.session();
    let submit_and_wait = || {
        session
            .submit_event(player, "get_gold", args![1])
            .unwrap()
            .wait()
            .unwrap();
    };
    for _ in 0..1_000 {
        submit_and_wait();
    }
    let events = 2_000;
    let (spent, ()) = spent_on_this_thread(|| {
        for _ in 0..events {
            submit_and_wait();
        }
    });
    runtime.shutdown();
    // 984 B per event, one block of them 640 B, with a bounded channel;
    // 192 B in blocks of at most 104 B with the reply: the method's name,
    // the pool task and the reply, and nothing between the handle and it.
    assert_eq!(spent.blocks, 3 * events, "{spent:?}");
    assert!(spent.largest < 256, "{spent:?}");
    assert!(
        spent.bytes <= 300 * events,
        "{} B per event",
        spent.bytes / events
    );
}

#[test]
fn a_cluster_remote_call_allocates_no_large_block_anywhere() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let cluster = Cluster::builder().servers(2).build().unwrap();
    register_bank_factories(&cluster);
    let config = BankWorldConfig {
        branches: 1,
        accounts_per_branch: 2,
        shared_pairs: 0,
        shared_accounts: 0,
        initial_balance: 1_000_000,
    };
    let world = deploy_bank(&cluster, &config).unwrap();
    let branch = world.branches[0];
    let (from, to) = (world.accounts[0], world.accounts[1]);
    // Both accounts on the server the branch is not on: each transfer is
    // two remote calls.
    let home = cluster.placement_of(branch).unwrap();
    let away = cluster.servers().into_iter().find(|s| *s != home).unwrap();
    for account in [from, to] {
        cluster.migrate_context(account, away).unwrap();
    }
    let session = cluster.session();
    let transfer = || {
        session
            .call(branch, "transfer", args![from, to, 1i64])
            .unwrap();
    };
    for _ in 0..500 {
        transfer();
    }
    let (large, largest) = large_blocks_anywhere(|| {
        for _ in 0..1_000 {
            transfer();
        }
    });
    cluster.shutdown();
    // Two blocks of 640 B per remote call and one per event with a bounded
    // channel; none with the reply.
    assert_eq!(
        large, 0,
        "{large} blocks of ≥ {LARGE} B, the largest {largest} B"
    );
}
