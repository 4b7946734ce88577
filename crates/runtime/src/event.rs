//! Event requests and the one completion handle of every backend.

use crate::reply::{reply, Replier, Reply, WaitError};
use aeon_types::{AccessMode, AeonError, Args, ClientId, ContextId, EventId, Result, Value};
use std::time::Duration;

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

/// A handle on a submitted event, resolved by [`EventHandle::wait`]: the
/// event's id and the one-shot reply its backend answers.  Every
/// [`Session`](crate::Session) returns this one type, so code written
/// against the trait never sees which backend executed the event.
#[derive(Debug)]
pub struct EventHandle {
    event: EventId,
    reply: Reply<Result<Value>>,
    /// How long [`EventHandle::wait`] waits: `None` in process, where an
    /// answer always comes; a bound where a lost message could withhold it.
    bound: Option<Duration>,
}

impl EventHandle {
    /// The `(replier, handle)` pair for an event, for the backend that
    /// executes it; `bound` is how long [`EventHandle::wait`] waits.
    pub fn new(event: EventId, bound: Option<Duration>) -> (Replier<Result<Value>>, Self) {
        let (tx, reply) = reply();
        (
            tx,
            Self {
                event,
                reply,
                bound,
            },
        )
    }

    /// A handle on an event that already ran (the simulator executes at
    /// submission).
    pub fn ready(event: EventId, result: Result<Value>) -> Self {
        let (tx, handle) = Self::new(event, None);
        let _ = tx.send(result);
        handle
    }

    /// The id the backend assigned to the event.
    pub fn event_id(&self) -> EventId {
        self.event
    }

    /// Blocks until the event completes and returns its result.
    ///
    /// # Errors
    ///
    /// * The event's own error (application errors, aborts).
    /// * [`AeonError::RuntimeShutdown`] when the deployment shut down
    ///   before the event completed.
    /// * [`AeonError::EventAborted`] when the backend's bound passes first
    ///   (the cluster's, e.g. because the hosting server crashed).
    pub fn wait(self) -> Result<Value> {
        match self.bound {
            Some(bound) => self.wait_timeout(bound),
            None => self.reply.wait().unwrap_or(Err(AeonError::RuntimeShutdown)),
        }
    }

    /// Waits up to `timeout` for the event to complete.
    ///
    /// # Errors
    ///
    /// Those of [`EventHandle::wait`], with [`AeonError::EventAborted`]
    /// when `timeout` passes first.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Value> {
        match self.reply.wait_timeout(timeout) {
            Ok(result) => result,
            Err(WaitError::Closed) => Err(AeonError::RuntimeShutdown),
            Err(WaitError::Timeout) => Err(AeonError::EventAborted {
                event: self.event,
                reason: "no completion received before the timeout".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_receives_result() {
        let (tx, handle) = EventHandle::new(EventId::new(7), None);
        assert_eq!(handle.event_id(), EventId::new(7));
        tx.send(Ok(Value::from(3i64))).unwrap();
        assert_eq!(handle.wait().unwrap(), Value::from(3i64));
    }

    #[test]
    fn handle_propagates_event_errors() {
        let (tx, handle) = EventHandle::new(EventId::new(8), None);
        tx.send(Err(AeonError::app("boom"))).unwrap();
        assert!(matches!(handle.wait(), Err(AeonError::Application(_))));
    }

    #[test]
    fn dropped_sender_is_reported_as_shutdown() {
        let (tx, handle) = EventHandle::new(EventId::new(9), Some(Duration::from_secs(5)));
        drop(tx);
        assert!(matches!(handle.wait(), Err(AeonError::RuntimeShutdown)));
    }

    #[test]
    fn a_bound_that_passes_aborts_the_event() {
        let (_tx, handle) = EventHandle::new(EventId::new(10), Some(Duration::from_millis(5)));
        assert!(matches!(
            handle.wait(),
            Err(AeonError::EventAborted { event, .. }) if event == EventId::new(10)
        ));
        let (_tx, handle) = EventHandle::new(EventId::new(11), None);
        assert!(matches!(
            handle.wait_timeout(Duration::from_millis(5)),
            Err(AeonError::EventAborted { .. })
        ));
    }

    #[test]
    fn ready_handle_returns_result() {
        let handle = EventHandle::ready(EventId::new(1), Ok(Value::from(7i64)));
        assert_eq!(handle.event_id(), EventId::new(1));
        assert_eq!(handle.wait().unwrap(), Value::from(7i64));
    }
}
