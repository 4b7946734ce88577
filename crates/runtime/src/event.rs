//! Event descriptors and completion handles.

use crate::reply::{reply, Replier, Reply, WaitError};
use aeon_types::{AccessMode, AeonError, Args, ClientId, ContextId, EventId, Result, Value};
use std::time::{Duration, Instant};

/// A client request to execute `method` on `target` as an atomic event.
#[derive(Debug, Clone)]
pub struct EventRequest {
    /// Unique event id assigned by the runtime.
    pub id: EventId,
    /// The client that issued the event (if any; sub-events inherit their
    /// creator's client).
    pub client: Option<ClientId>,
    /// The context on which the event lands.
    pub target: ContextId,
    /// Method to execute at the target.
    pub method: String,
    /// Arguments of the method.
    pub args: Args,
    /// Read-only or exclusive execution.
    pub mode: AccessMode,
}

impl EventRequest {
    /// The identity the event interpreter runs this request under.
    pub(crate) fn meta(&self) -> crate::invocation::EventMeta {
        crate::invocation::EventMeta {
            id: self.id,
            client: self.client,
            mode: self.mode,
        }
    }
}

/// The result of an event's execution, delivered to the [`EventHandle`].
#[derive(Debug, Clone)]
pub struct EventOutcome {
    /// The event this outcome belongs to.
    pub event: EventId,
    /// The value returned by the target method, or the error that aborted
    /// the event.
    pub result: Result<Value>,
    /// Wall-clock latency from submission to completion.
    pub latency: Duration,
}

/// A handle on a submitted event; resolves when the event completes.
#[derive(Debug)]
pub struct EventHandle {
    event: EventId,
    submitted: Instant,
    reply: Reply<EventOutcome>,
}

impl EventHandle {
    /// Creates the `(replier, handle)` pair for an event.
    pub(crate) fn new(event: EventId) -> (Replier<EventOutcome>, EventHandle) {
        let (tx, rx) = reply();
        (
            tx,
            EventHandle {
                event,
                submitted: Instant::now(),
                reply: rx,
            },
        )
    }

    /// The id of the event being awaited.
    pub fn event_id(&self) -> EventId {
        self.event
    }

    /// Time elapsed since the event was submitted.
    pub fn elapsed(&self) -> Duration {
        self.submitted.elapsed()
    }

    /// Blocks until the event completes and returns its result value.
    ///
    /// # Errors
    ///
    /// Propagates the event's own error, or [`AeonError::RuntimeShutdown`]
    /// if the runtime was torn down before completion.
    pub fn wait(self) -> Result<Value> {
        self.wait_outcome().and_then(|outcome| outcome.result)
    }

    /// Blocks until the event completes and returns the full outcome
    /// (including measured latency).
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::RuntimeShutdown`] if the runtime was torn down
    /// before completion.
    pub fn wait_outcome(self) -> Result<EventOutcome> {
        self.reply.wait().map_err(|_| AeonError::RuntimeShutdown)
    }

    /// Waits up to `timeout` for the event; `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::RuntimeShutdown`] if the runtime was torn down
    /// before completion.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Option<EventOutcome>> {
        match self.reply.wait_timeout(timeout) {
            Ok(outcome) => Ok(Some(outcome)),
            Err(WaitError::Timeout) => Ok(None),
            Err(WaitError::Closed) => Err(AeonError::RuntimeShutdown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_receives_outcome() {
        let (tx, handle) = EventHandle::new(EventId::new(7));
        assert_eq!(handle.event_id(), EventId::new(7));
        tx.send(EventOutcome {
            event: EventId::new(7),
            result: Ok(Value::from(3i64)),
            latency: Duration::from_millis(1),
        })
        .unwrap();
        assert_eq!(handle.wait().unwrap(), Value::from(3i64));
    }

    #[test]
    fn handle_propagates_event_errors() {
        let (tx, handle) = EventHandle::new(EventId::new(8));
        tx.send(EventOutcome {
            event: EventId::new(8),
            result: Err(AeonError::app("boom")),
            latency: Duration::ZERO,
        })
        .unwrap();
        assert!(matches!(handle.wait(), Err(AeonError::Application(_))));
    }

    #[test]
    fn dropped_sender_is_reported_as_shutdown() {
        let (tx, handle) = EventHandle::new(EventId::new(9));
        drop(tx);
        assert!(matches!(handle.wait(), Err(AeonError::RuntimeShutdown)));
    }

    #[test]
    fn wait_timeout_returns_none_when_pending() {
        let (_tx, handle) = EventHandle::new(EventId::new(10));
        let res = handle.wait_timeout(Duration::from_millis(5)).unwrap();
        assert!(res.is_none());
    }
}
