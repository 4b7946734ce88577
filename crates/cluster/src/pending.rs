//! The requests an endpoint waits on: one table per endpoint — the gateway,
//! each node — under correlation tokens the table allocates itself.
//!
//! Every correlated message of the protocol is answered exactly once: a
//! routed event by its `Done`, a `Host` by its `HostAck`, a `Call` by its
//! `CallReply`, a `MetricsReq` by its `MetricsAck`, a `DirReq` by its
//! `DirAck`.  The sender opens a token here and puts it in the request; the
//! token the answer carries ([`ClusterMessage::answers`], or a `Done`'s)
//! finds the waiter again.  [`Pending::round_trip`] is the one way to send
//! a request and wait for its answer.
//!
//! A table closes when its endpoint stops (a node's `Shutdown` or crash,
//! the gateway's teardown): every waiter still in it is dropped, which a
//! round trip and an event handle both read as
//! [`AeonError::RuntimeShutdown`] at once, and every later open is refused
//! with that error.

use crate::message::ClusterMessage;
use aeon_net::Network;
use aeon_runtime::reply::{reply, Replier, WaitError};
use aeon_runtime::ShardedExecutor;
use aeon_types::{AeonError, ClientId, Result, ServerId, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Duration;

/// What waits under a token.
pub(crate) enum Waiter {
    /// A round trip, for the answer itself.
    Answer(Replier<ClusterMessage>),
    /// A routed event, for its `Done`: the issuing client (inherited by the
    /// event's sub-events) and the handle's reply.
    Event(Option<ClientId>, Replier<Result<Value>>),
}

/// One endpoint's open requests.
pub(crate) struct Pending {
    /// The endpoint, which sends the request of every round trip.
    id: ServerId,
    network: Network<ClusterMessage>,
    table: Mutex<Table>,
}

struct Table {
    /// The last token handed out.
    last: u64,
    /// What waits under each open token; `None` once the table closed.
    open: Option<HashMap<u64, Waiter>>,
}

impl Pending {
    /// An empty table for the endpoint `id` on `network`.
    pub(crate) fn new(id: ServerId, network: Network<ClusterMessage>) -> Self {
        Self {
            id,
            network,
            table: Mutex::new(Table {
                last: 0,
                open: Some(HashMap::new()),
            }),
        }
    }

    /// Opens a fresh token for `waiter`.
    ///
    /// # Errors
    ///
    /// [`AeonError::RuntimeShutdown`] once the table closed; `waiter` is
    /// dropped.
    pub(crate) fn open(&self, waiter: Waiter) -> Result<u64> {
        let mut table = self.table.lock();
        let Table { last, open } = &mut *table;
        let open = open.as_mut().ok_or(AeonError::RuntimeShutdown)?;
        *last += 1;
        open.insert(*last, waiter);
        Ok(*last)
    }

    /// Takes what waits under `token`, if anything still does.
    pub(crate) fn take(&self, token: u64) -> Option<Waiter> {
        self.table.lock().open.as_mut()?.remove(&token)
    }

    /// Hands `answer` to the round trip waiting under the token it carries.
    /// An answer nobody waits for any more — its round trip timed out, or
    /// the table closed — is dropped.
    pub(crate) fn complete(&self, answer: ClusterMessage) {
        let waiter = answer.answers().and_then(|token| self.take(token));
        if let Some(Waiter::Answer(reply)) = waiter {
            let _ = reply.send(answer);
        }
    }

    /// Closes the table: every open wait reads
    /// [`AeonError::RuntimeShutdown`] at once, and every later open is
    /// refused.
    pub(crate) fn close(&self) {
        // Dropped after the guard, so that no waiter wakes into the lock.
        let open = self.table.lock().open.take();
        drop(open);
    }

    /// Sends the request `request` builds around a fresh token to `to` and
    /// waits up to `timeout` for the answer.  A worker of `pool` announces
    /// the wait with [`ShardedExecutor::block_in_place`], unless the answer
    /// came back inside the send: taking it is no wait.
    ///
    /// # Errors
    ///
    /// The send's error (the token is forgotten), `timed_out()` after
    /// `timeout`, and [`AeonError::RuntimeShutdown`] when the table is or
    /// gets closed.
    pub(crate) fn round_trip(
        &self,
        to: ServerId,
        request: impl FnOnce(u64) -> ClusterMessage,
        pool: Option<&ShardedExecutor>,
        timeout: Duration,
        timed_out: impl FnOnce() -> AeonError,
    ) -> Result<ClusterMessage> {
        let (tx, rx) = reply();
        let token = self.open(Waiter::Answer(tx))?;
        if let Err(error) = self.network.send_from(self.id, to, request(token)) {
            self.take(token);
            return Err(error);
        }
        let wait = || rx.wait_timeout(timeout);
        let answer = match pool {
            Some(pool) if self.is_open(token) => pool.block_in_place(wait),
            _ => wait(),
        };
        match answer {
            Ok(answer) => Ok(answer),
            Err(WaitError::Closed) => Err(AeonError::RuntimeShutdown),
            Err(WaitError::Timeout) => {
                self.take(token);
                Err(timed_out())
            }
        }
    }

    fn is_open(&self, token: u64) -> bool {
        let table = self.table.lock();
        table
            .open
            .as_ref()
            .is_some_and(|open| open.contains_key(&token))
    }
}

/// The error for an answer of another kind than its request asks for: a
/// peer that breaks the protocol.
pub(crate) fn unexpected(answer: &ClusterMessage) -> AeonError {
    AeonError::internal(format!("unexpected answer {answer:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::gateway_id;
    use aeon_net::Endpoint;
    use aeon_types::EventId;
    use std::sync::Arc;
    use std::time::Instant;

    /// A table for the gateway id, and a server that takes every request
    /// into its mailbox and answers none.
    fn silent_peer() -> (Pending, Endpoint<ClusterMessage>) {
        let network = Network::new();
        let peer = network.register(ServerId::new(1));
        (Pending::new(gateway_id(), network), peer)
    }

    fn call_reply(corr: u64) -> ClusterMessage {
        ClusterMessage::CallReply {
            corr,
            result: Ok(Value::Null),
            participants: Vec::new(),
            sub_events: Vec::new(),
        }
    }

    #[test]
    fn an_answer_nobody_waits_for_is_dropped() {
        let (pending, peer) = silent_peer();
        let mut asked = None;
        let timed_out = pending.round_trip(
            peer.id(),
            |corr| {
                asked = Some(corr);
                ClusterMessage::MetricsReq { corr }
            },
            None,
            Duration::from_millis(10),
            || AeonError::EventAborted {
                event: EventId::new(1),
                reason: "late".into(),
            },
        );
        assert!(matches!(timed_out, Err(AeonError::EventAborted { .. })));
        let corr = asked.expect("the request was built");
        // The call's reply arrives after the call gave up: nothing waits
        // under its token any more, and a token is never handed out twice.
        pending.complete(call_reply(corr));
        assert!(pending.take(corr).is_none());
        let (tx, rx) = reply();
        let next = pending.open(Waiter::Answer(tx)).unwrap();
        assert_ne!(next, corr);
        pending.complete(call_reply(corr));
        assert!(pending.take(next).is_some(), "a stale answer took a waiter");
        assert!(rx.wait().is_err());
    }

    #[test]
    fn closing_answers_every_open_wait_once_with_runtime_shutdown() {
        let (pending, peer) = silent_peer();
        let pending = Arc::new(pending);
        let waits: Vec<_> = (0..3)
            .map(|_| {
                let pending = Arc::clone(&pending);
                std::thread::spawn(move || {
                    let request = |corr| ClusterMessage::MetricsReq { corr };
                    pending.round_trip(
                        ServerId::new(1),
                        request,
                        None,
                        Duration::from_secs(60),
                        || AeonError::internal("timed out"),
                    )
                })
            })
            .collect();
        // Every request is out, so every wait is open.
        let tokens: Vec<u64> = (0..3)
            .map(|_| match peer.recv().unwrap() {
                ClusterMessage::MetricsReq { corr } => corr,
                other => panic!("not a request: {other:?}"),
            })
            .collect();
        let (tx, event) = reply::<Result<Value>>();
        pending.open(Waiter::Event(None, tx)).unwrap();
        let closed = Instant::now();
        pending.close();
        for wait in waits {
            assert_eq!(
                wait.join().unwrap().unwrap_err(),
                AeonError::RuntimeShutdown
            );
        }
        assert!(event.wait().is_err(), "the event handle's reply is closed");
        assert!(closed.elapsed() < Duration::from_secs(5));
        // Nothing is left to answer a second time.
        for token in tokens {
            assert!(pending.take(token).is_none());
        }
        pending.close();
    }

    #[test]
    fn an_open_after_close_is_refused() {
        let (pending, peer) = silent_peer();
        pending.close();
        let (tx, _rx) = reply();
        assert_eq!(
            pending.open(Waiter::Answer(tx)).unwrap_err(),
            AeonError::RuntimeShutdown
        );
        let request = |corr| ClusterMessage::MetricsReq { corr };
        let refused = pending.round_trip(peer.id(), request, None, Duration::from_secs(60), || {
            AeonError::internal("timed out")
        });
        assert_eq!(refused.unwrap_err(), AeonError::RuntimeShutdown);
        assert!(
            peer.try_recv().unwrap().is_none(),
            "a refused request was sent"
        );
    }
}
