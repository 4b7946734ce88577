//! A one-shot reply: one sender, one receiver, one value.
//!
//! Every event and every cross-server call waits for exactly one answer —
//! an event's outcome, a remote call's reply, a control acknowledgement.
//! [`reply`] makes the pair that carries it: a [`Replier`] that sends the
//! value once and a [`Reply`] that waits for it.
//!
//! # Cost model
//!
//! * **One block.**  The pair shares one `Arc` allocation that holds the
//!   state, the value and the parked waiter: the `Arc`'s two counts, a
//!   mutex word, and a state no larger than the value (its tags sit in bit
//!   patterns the value never uses), so 24 + `size_of::<T>()` bytes.  That
//!   is 80 B for an event's `Result<Value>` (an `EventHandle`, on every
//!   backend) and for a directory RPC's answer, 128 B for a remote call's
//!   outcome and 144 B for a `ClusterMessage` acknowledgement.  A
//!   bounded channel of capacity one was two blocks: 640 B of channel plus
//!   a slot buffer of the value's size.
//! * **Who wakes whom.**  The receiver looks at the slot before it parks;
//!   a value already there costs two uncontended lock round trips and no
//!   system call — the common case on the channel transport, where the
//!   receiving handler often answers inside the `send` that asked.  Only a
//!   receiver that found the slot empty leaves its [`Thread`] in it and
//!   parks.  The sender stores the value, releases the lock, and unparks
//!   that thread — the only system call on the path — and only if it is
//!   there: a send to a receiver that has not started waiting wakes nobody.
//!   The wake comes after the lock is released, so the woken receiver does
//!   not block on it again.
//! * **Why a parked thread, not a `Condvar`.**  The two measured the same
//!   when woken only for a parked receiver (≈ 70 ns a same-thread send +
//!   wait, ≈ 2 µs a cross-thread round trip, 2-vCPU host), and the thread
//!   handle lives in the state, so the block is a word smaller.  What costs
//!   is notifying on every send: that is a futex system call even when
//!   nobody waits, 255–290 ns per same-thread send + wait, paid by every
//!   reply answered inside the `send` that asked.
//!
//! Either side may leave first.  An unsent [`Replier`] that is dropped
//! closes the reply ([`Closed`]); a [`Reply`] that is dropped, or that gave
//! up waiting, makes a later [`Replier::send`] hand the value back.  The
//! value is dropped exactly once, by whichever side ends up holding it.

use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// What the slot holds.
enum State<T> {
    /// Nothing sent; nobody waiting.
    Empty,
    /// The receiver found the slot empty and parked on this thread.
    Parked(Thread),
    /// The value, not yet taken.
    Sent(T),
    /// Done: the value was taken, or one side left.
    Closed,
}

type Slot<T> = Mutex<State<T>>;

/// The reply was closed without a value: the [`Replier`] was dropped unsent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

/// Why [`Reply::wait_timeout`] returned without a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// No value arrived in time; a later send hands its value back.
    Timeout,
    /// The [`Replier`] was dropped unsent.
    Closed,
}

/// Creates a one-shot reply: the sending and the receiving half.
pub fn reply<T>() -> (Replier<T>, Reply<T>) {
    let slot = Arc::new(Mutex::new(State::Empty));
    (
        Replier {
            slot: Some(Arc::clone(&slot)),
        },
        Reply { slot: Some(slot) },
    )
}

/// The sending half of a [`reply`]: sends at most one value.
pub struct Replier<T> {
    /// `None` once sent, so that dropping it afterwards closes nothing.
    slot: Option<Arc<Slot<T>>>,
}

impl<T> Replier<T> {
    /// Sends the value, waking the receiver if it is parked.
    ///
    /// # Errors
    ///
    /// Hands `value` back when the receiver is gone (dropped, or timed out).
    pub fn send(mut self, value: T) -> Result<(), T> {
        let slot = self.slot.take().expect("a replier sends once");
        let mut state = slot.lock();
        if matches!(*state, State::Closed) {
            return Err(value);
        }
        let before = std::mem::replace(&mut *state, State::Sent(value));
        drop(state);
        if let State::Parked(waiter) = before {
            waiter.unpark();
        }
        Ok(())
    }
}

impl<T> Drop for Replier<T> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            let before = std::mem::replace(&mut *slot.lock(), State::Closed);
            if let State::Parked(waiter) = before {
                waiter.unpark();
            }
        }
    }
}

impl<T> std::fmt::Debug for Replier<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Replier")
    }
}

/// The receiving half of a [`reply`]: waits for the one value.
pub struct Reply<T> {
    /// `None` once the wait is over, so that dropping it afterwards does
    /// not lock again.
    slot: Option<Arc<Slot<T>>>,
}

impl<T> Reply<T> {
    /// Blocks until the value arrives.
    ///
    /// # Errors
    ///
    /// [`Closed`] when the [`Replier`] was dropped unsent.
    pub fn wait(self) -> Result<T, Closed> {
        self.wait_until(None).map_err(|_| Closed)
    }

    /// Blocks up to `timeout` for the value.
    ///
    /// # Errors
    ///
    /// [`WaitError::Timeout`] when none came in time (the reply is closed,
    /// so a later send hands its value back), [`WaitError::Closed`] when
    /// the [`Replier`] was dropped unsent.
    pub fn wait_timeout(self, timeout: Duration) -> Result<T, WaitError> {
        self.wait_until(Some(Instant::now() + timeout))
    }

    fn wait_until(mut self, deadline: Option<Instant>) -> Result<T, WaitError> {
        let slot = self.slot.take().expect("a reply is waited for once");
        let mut state = slot.lock();
        loop {
            match std::mem::replace(&mut *state, State::Closed) {
                State::Sent(value) => return Ok(value),
                State::Closed => return Err(WaitError::Closed),
                State::Empty => *state = State::Parked(thread::current()),
                // Woken early (a spurious wake-up, or an unpark meant for an
                // earlier wait of this thread): still parked, unless time is
                // up — then the reply stays closed.
                parked @ State::Parked(_) => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(WaitError::Timeout);
                    }
                    *state = parked;
                }
            }
            drop(state);
            match deadline {
                None => thread::park(),
                Some(d) => thread::park_timeout(d.saturating_duration_since(Instant::now())),
            }
            state = slot.lock();
        }
    }
}

impl<T> Drop for Reply<T> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            // A value nobody will take is dropped here, after the lock.
            let before = std::mem::replace(&mut *slot.lock(), State::Closed);
            drop(before);
        }
    }
}

impl<T> std::fmt::Debug for Reply<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Reply")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts its drops in the shared counter.
    #[derive(Debug)]
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_value_sent_before_the_wait_is_there() {
        let (tx, rx) = reply();
        tx.send(7).unwrap();
        assert_eq!(rx.wait(), Ok(7));
        let (tx, rx) = reply();
        tx.send("late").unwrap();
        assert_eq!(rx.wait_timeout(Duration::from_millis(1)), Ok("late"));
    }

    /// Spins until the receiver of `tx`'s reply has parked.
    fn until_parked<T>(tx: &Replier<T>) {
        let slot = tx.slot.as_ref().expect("unsent");
        while !matches!(*slot.lock(), State::Parked(_)) {
            thread::yield_now();
        }
    }

    #[test]
    fn a_value_sent_from_another_thread_wakes_the_waiter() {
        let (tx, rx) = reply();
        let sender = thread::spawn(move || {
            until_parked(&tx);
            tx.send(String::from("woken")).unwrap();
        });
        assert_eq!(rx.wait().unwrap(), "woken");
        sender.join().unwrap();

        let (tx, rx) = reply();
        let sender = thread::spawn(move || {
            until_parked(&tx);
            tx.send(11u8).unwrap();
        });
        assert_eq!(rx.wait_timeout(Duration::from_secs(10)), Ok(11));
        sender.join().unwrap();
    }

    #[test]
    fn an_unsent_replier_that_is_dropped_closes_the_reply() {
        let (tx, rx) = reply::<u32>();
        drop(tx);
        assert_eq!(rx.wait(), Err(Closed));

        let (tx, rx) = reply::<u32>();
        drop(tx);
        assert_eq!(
            rx.wait_timeout(Duration::from_secs(10)),
            Err(WaitError::Closed)
        );

        // Dropped while the receiver is parked: it is woken, not left to
        // sit out its time-out.
        let (tx, rx) = reply::<u32>();
        let dropper = thread::spawn(move || {
            until_parked(&tx);
            drop(tx);
        });
        let started = Instant::now();
        assert_eq!(
            rx.wait_timeout(Duration::from_secs(10)),
            Err(WaitError::Closed)
        );
        assert!(started.elapsed() < Duration::from_secs(5));
        dropper.join().unwrap();
    }

    #[test]
    fn a_send_to_a_dropped_receiver_hands_the_value_back() {
        let (tx, rx) = reply();
        drop(rx);
        assert_eq!(tx.send(5), Err(5));
    }

    #[test]
    fn a_timed_out_reply_refuses_a_late_send_and_drops_the_value_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = reply::<Counted>();
        assert!(matches!(
            rx.wait_timeout(Duration::from_millis(5)),
            Err(WaitError::Timeout)
        ));
        let back = tx.send(Counted(Arc::clone(&drops))).unwrap_err();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(back);
        assert_eq!(drops.load(Ordering::SeqCst), 1);

        // Sent but never taken: the receiver's drop drops it, once.
        let (tx, rx) = reply::<Counted>();
        tx.send(Counted(Arc::clone(&drops))).unwrap();
        drop(rx);
        assert_eq!(drops.load(Ordering::SeqCst), 2);

        // Taken: the receiver owns it, the slot keeps nothing.
        let (tx, rx) = reply::<Counted>();
        tx.send(Counted(Arc::clone(&drops))).unwrap();
        let value = rx.wait().unwrap();
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        drop(value);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn each_half_is_a_pointer_and_the_state_costs_nothing_beside_the_value() {
        use aeon_types::{Result, Value};
        use std::mem::size_of;
        type Outcome = Result<Value>;
        assert_eq!(size_of::<Replier<Outcome>>(), 8);
        assert_eq!(size_of::<Reply<Outcome>>(), 8);
        assert_eq!(size_of::<State<Outcome>>(), size_of::<Outcome>());
        assert_eq!(size_of::<Slot<Outcome>>(), 8 + size_of::<Outcome>());
    }

    /// Many threads at once, each pair racing its own sender, receiver,
    /// time-out and drops: every value is received or handed back, every
    /// close is seen as one, and every value is dropped exactly once.
    #[test]
    fn many_threads_race_every_outcome() {
        let rounds = if cfg!(debug_assertions) { 200 } else { 2_000 };
        let drops = Arc::new(AtomicUsize::new(0));
        let made = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let drops = Arc::clone(&drops);
                let made = Arc::clone(&made);
                thread::spawn(move || {
                    for i in 0..rounds {
                        let (tx, rx) = reply::<Counted>();
                        let case = (t + i) % 4;
                        let sender = {
                            let drops = Arc::clone(&drops);
                            let made = Arc::clone(&made);
                            thread::spawn(move || {
                                if i % 3 == 0 {
                                    thread::yield_now();
                                }
                                if case == 3 {
                                    drop(tx);
                                    return;
                                }
                                made.fetch_add(1, Ordering::SeqCst);
                                let _ = tx.send(Counted(drops));
                            })
                        };
                        match case {
                            0 => assert!(rx.wait().is_ok()),
                            1 => match rx.wait_timeout(Duration::from_micros(50)) {
                                Ok(_) | Err(WaitError::Timeout) => {}
                                Err(WaitError::Closed) => panic!("closed without a drop"),
                            },
                            2 => drop(rx),
                            _ => assert!(rx.wait().is_err()),
                        }
                        sender.join().unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(drops.load(Ordering::SeqCst), made.load(Ordering::SeqCst));
    }
}
