//! Byte representation of [`ClusterMessage`] for socket transports.
//!
//! Every protocol message is lowered to an [`aeon_types::Value`] (a tagged
//! positional list per variant) and encoded with the workspace codec
//! (`aeon_types::codec`), so the TCP transport ships exactly the same data
//! model that snapshots and migration payloads already use.  The lowering
//! is total: every variant — including structured [`AeonError`]s inside
//! `Result` fields — survives a round trip bit-for-bit, which is what lets
//! a cluster run as N OS processes with no semantic drift from the
//! in-process channel deployment.

use crate::message::{ClusterMessage, DirOp, DirReply, EventDescriptor, FreezeMember, NodeMetrics};
use aeon_net::WireMessage;
use aeon_runtime::SubEvent;
use aeon_types::{
    codec, AccessMode, AeonError, Args, ClientId, ContextId, EventId, Result, ServerId, Value,
};

/// Bytes of the TCP frame header (`u32` length + `u32` from + `u32` to).
const FRAME_OVERHEAD: u64 = 12;

/// Encoded size of `message` on the wire, including the frame header.  The
/// channel transport uses this as its sizer so `NetworkStats` byte counters
/// agree between channel and TCP runs of the same workload.
pub(crate) fn message_wire_len(message: &ClusterMessage) -> u64 {
    FRAME_OVERHEAD + codec::encoded_len(&to_value(message)) as u64
}

impl WireMessage for ClusterMessage {
    fn encode_wire(&self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(64);
        self.encode_wire_into(&mut out)?;
        Ok(out)
    }

    fn encode_wire_into(&self, out: &mut Vec<u8>) -> Result<()> {
        codec::encode_into(&to_value(self), out);
        Ok(())
    }

    fn decode_wire(bytes: &[u8]) -> Result<Self> {
        from_value(codec::decode(bytes)?)
    }
}

// -- encoding ---------------------------------------------------------------

fn tagged(tag: &str, mut fields: Vec<Value>) -> Value {
    let mut items = Vec::with_capacity(fields.len() + 1);
    items.push(Value::Str(tag.to_string()));
    items.append(&mut fields);
    Value::List(items)
}

fn vu64(x: u64) -> Value {
    // Bit-exact through i64: ids and correlation tokens may use bit 63.
    Value::Int(x as i64)
}

fn vsrv(s: ServerId) -> Value {
    vu64(u64::from(s.raw()))
}

fn vctx(c: ContextId) -> Value {
    Value::ContextRef(c)
}

fn vevt(e: EventId) -> Value {
    vu64(e.raw())
}

fn vmode(m: AccessMode) -> Value {
    Value::Bool(m.is_read_only())
}

fn vargs(a: &Args) -> Value {
    Value::List(a.iter().cloned().collect())
}

fn vopt(inner: Option<Value>) -> Value {
    Value::List(inner.into_iter().collect())
}

fn vclient(c: Option<ClientId>) -> Value {
    vopt(c.map(|c| vu64(c.raw())))
}

fn vresult<T>(r: &Result<T>, enc: impl FnOnce(&T) -> Value) -> Value {
    match r {
        Ok(v) => Value::List(vec![Value::Bool(true), enc(v)]),
        Err(e) => Value::List(vec![Value::Bool(false), verr(e)]),
    }
}

fn verr(e: &AeonError) -> Value {
    match e {
        AeonError::ContextNotFound(c) => tagged("ContextNotFound", vec![vctx(*c)]),
        AeonError::ServerNotFound(s) => tagged("ServerNotFound", vec![vsrv(*s)]),
        AeonError::EventNotFound(ev) => tagged("EventNotFound", vec![vevt(*ev)]),
        AeonError::CycleDetected { from, to } => {
            tagged("CycleDetected", vec![vctx(*from), vctx(*to)])
        }
        AeonError::ClassCycleDetected { description } => {
            tagged("ClassCycleDetected", vec![Value::Str(description.clone())])
        }
        AeonError::OwnershipViolation {
            caller,
            callee,
            detail,
        } => tagged(
            "OwnershipViolation",
            vec![
                vctx(*caller),
                vctx(*callee),
                vopt(detail.clone().map(Value::Str)),
            ],
        ),
        AeonError::AnalysisRejected { errors, report } => tagged(
            "AnalysisRejected",
            vec![vu64(*errors as u64), Value::Str(report.clone())],
        ),
        AeonError::ReadOnlyViolation { context, method } => tagged(
            "ReadOnlyViolation",
            vec![vctx(*context), Value::Str(method.clone())],
        ),
        AeonError::UnknownMethod { class, method } => tagged(
            "UnknownMethod",
            vec![Value::Str(class.clone()), Value::Str(method.clone())],
        ),
        AeonError::BadArguments { method, reason } => tagged(
            "BadArguments",
            vec![Value::Str(method.clone()), Value::Str(reason.clone())],
        ),
        AeonError::Application(msg) => tagged("Application", vec![Value::Str(msg.clone())]),
        AeonError::Panicked { reason } => tagged("Panicked", vec![Value::Str(reason.clone())]),
        AeonError::MigrationInProgress(c) => tagged("MigrationInProgress", vec![vctx(*c)]),
        AeonError::MigrationFailed { context, reason } => tagged(
            "MigrationFailed",
            vec![vctx(*context), Value::Str(reason.clone())],
        ),
        AeonError::SnapshotFailed { context, reason } => tagged(
            "SnapshotFailed",
            vec![vctx(*context), Value::Str(reason.clone())],
        ),
        AeonError::RuntimeShutdown => tagged("RuntimeShutdown", vec![]),
        AeonError::Storage(msg) => tagged("Storage", vec![Value::Str(msg.clone())]),
        AeonError::EventAborted { event, reason } => tagged(
            "EventAborted",
            vec![vevt(*event), Value::Str(reason.clone())],
        ),
        AeonError::SendQueueFull { peer } => tagged("SendQueueFull", vec![vsrv(*peer)]),
        AeonError::Codec(msg) => tagged("Codec", vec![Value::Str(msg.clone())]),
        AeonError::Config(msg) => tagged("Config", vec![Value::Str(msg.clone())]),
        AeonError::Internal(msg) => tagged("Internal", vec![Value::Str(msg.clone())]),
        // `AeonError` is non_exhaustive: lower unknown future variants to a
        // displayable Internal rather than failing the whole message.
        other => tagged("Internal", vec![Value::Str(other.to_string())]),
    }
}

fn vdesc(e: &EventDescriptor) -> Value {
    Value::List(vec![
        vevt(e.id),
        vclient(e.client),
        vu64(e.corr),
        vctx(e.target),
        Value::Str(e.method.clone()),
        vargs(&e.args),
        vmode(e.mode),
    ])
}

fn vsub(s: &SubEvent) -> Value {
    Value::List(vec![
        vctx(s.target),
        Value::Str(s.method.clone()),
        vargs(&s.args),
        vmode(s.mode),
    ])
}

fn vmember(m: &FreezeMember) -> Value {
    Value::List(vec![vctx(m.context), vopt(m.restore.clone())])
}

fn vmetrics(m: &NodeMetrics) -> Value {
    Value::List(vec![
        vsrv(m.server),
        vu64(m.context_count as u64),
        vu64(m.queue_depth),
        vu64(m.events_executed),
        vu64(m.exec_micros),
        vhist(&m.latency),
    ])
}

/// Histograms ship sparsely: summary scalars plus `(bucket, count)` pairs
/// for the non-empty buckets only, so an idle node's report stays small.
fn vhist(h: &aeon_types::LatencyHistogram) -> Value {
    let buckets: Vec<Value> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, n)| **n > 0)
        .map(|(i, n)| Value::List(vec![vu64(i as u64), vu64(*n)]))
        .collect();
    Value::List(vec![
        vu64(h.count),
        vu64(h.total_micros),
        vu64(h.min_micros),
        vu64(h.max_micros),
        Value::List(buckets),
    ])
}

fn vdirop(op: &DirOp) -> Value {
    match op {
        DirOp::PlacementOf(c) => tagged("PlacementOf", vec![vctx(*c)]),
        DirOp::SetPlacement(c, s) => tagged("SetPlacement", vec![vctx(*c), vsrv(*s)]),
        DirOp::MayCall(a, b) => tagged("MayCall", vec![vctx(*a), vctx(*b)]),
        DirOp::ClassOf(c) => tagged("ClassOf", vec![vctx(*c)]),
        DirOp::ChildrenOf { parent, class } => tagged(
            "ChildrenOf",
            vec![vctx(*parent), vopt(class.clone().map(Value::Str))],
        ),
        DirOp::AddEdge(a, b) => tagged("AddEdge", vec![vctx(*a), vctx(*b)]),
        DirOp::RemoveEdge(a, b) => tagged("RemoveEdge", vec![vctx(*a), vctx(*b)]),
        DirOp::CreateOwned { owner, class } => {
            tagged("CreateOwned", vec![vctx(*owner), Value::Str(class.clone())])
        }
    }
}

fn vdirreply(r: &DirReply) -> Value {
    match r {
        DirReply::Unit => tagged("Unit", vec![]),
        DirReply::Flag(b) => tagged("Flag", vec![Value::Bool(*b)]),
        DirReply::Server(s) => tagged("Server", vec![vsrv(*s)]),
        DirReply::Context(c) => tagged("Context", vec![vctx(*c)]),
        DirReply::Contexts(cs) => tagged(
            "Contexts",
            vec![Value::List(cs.iter().copied().map(vctx).collect())],
        ),
        DirReply::Class(s) => tagged("Class", vec![Value::Str(s.clone())]),
    }
}

fn to_value(message: &ClusterMessage) -> Value {
    match message {
        ClusterMessage::Host {
            corr,
            context,
            class,
            state,
            escrow,
        } => tagged(
            "Host",
            vec![
                vu64(*corr),
                vctx(*context),
                Value::Str(class.clone()),
                state.clone(),
                vu64(*escrow),
            ],
        ),
        ClusterMessage::HostAck {
            corr,
            context,
            result,
        } => tagged(
            "HostAck",
            vec![
                vu64(*corr),
                vctx(*context),
                vresult(result, |()| Value::Null),
            ],
        ),
        ClusterMessage::DirReq { corr, from, op } => {
            tagged("DirReq", vec![vu64(*corr), vsrv(*from), vdirop(op)])
        }
        ClusterMessage::DirAck { corr, reply } => {
            tagged("DirAck", vec![vu64(*corr), vresult(reply, vdirreply)])
        }
        ClusterMessage::Act { event, sequencer } => {
            tagged("Act", vec![vdesc(event), vctx(*sequencer)])
        }
        ClusterMessage::Exec { event, sequencer } => tagged(
            "Exec",
            vec![
                vdesc(event),
                vopt(sequencer.map(|(s, c)| Value::List(vec![vsrv(s), vctx(c)]))),
            ],
        ),
        ClusterMessage::ExecCertified { event } => tagged("ExecCertified", vec![vdesc(event)]),
        ClusterMessage::Call {
            event,
            mode,
            client,
            caller,
            target,
            method,
            args,
            reply_to,
            corr,
        } => tagged(
            "Call",
            vec![
                vevt(*event),
                vmode(*mode),
                vclient(*client),
                vctx(*caller),
                vctx(*target),
                Value::Str(method.clone()),
                vargs(args),
                vsrv(*reply_to),
                vu64(*corr),
            ],
        ),
        ClusterMessage::CallReply {
            corr,
            result,
            participants,
            sub_events,
        } => tagged(
            "CallReply",
            vec![
                vu64(*corr),
                vresult(result, Clone::clone),
                Value::List(participants.iter().copied().map(vsrv).collect()),
                Value::List(sub_events.iter().map(vsub).collect()),
            ],
        ),
        ClusterMessage::Release { event } => tagged("Release", vec![vevt(*event)]),
        ClusterMessage::Done {
            corr,
            event,
            result,
            sub_events,
        } => tagged(
            "Done",
            vec![
                vu64(*corr),
                vevt(*event),
                vresult(result, Clone::clone),
                Value::List(sub_events.iter().map(vsub).collect()),
            ],
        ),
        ClusterMessage::Prepare { corr, context } => {
            tagged("Prepare", vec![vu64(*corr), vctx(*context)])
        }
        ClusterMessage::PrepareAck { corr, context } => {
            tagged("PrepareAck", vec![vu64(*corr), vctx(*context)])
        }
        ClusterMessage::Stop { corr, context, to } => {
            tagged("Stop", vec![vu64(*corr), vctx(*context), vsrv(*to)])
        }
        ClusterMessage::StopAck { corr, context } => {
            tagged("StopAck", vec![vu64(*corr), vctx(*context)])
        }
        ClusterMessage::Migrate { corr, context, to } => {
            tagged("Migrate", vec![vu64(*corr), vctx(*context), vsrv(*to)])
        }
        ClusterMessage::Install {
            corr,
            context,
            class,
            state,
            from,
        } => tagged(
            "Install",
            vec![
                vu64(*corr),
                vctx(*context),
                Value::Str(class.clone()),
                state.clone(),
                vsrv(*from),
            ],
        ),
        ClusterMessage::InstallAck {
            corr,
            context,
            result,
        } => tagged(
            "InstallAck",
            vec![vu64(*corr), vctx(*context), vresult(result, |n| vu64(*n))],
        ),
        ClusterMessage::FreezeReq {
            corr,
            freeze,
            members,
            capture,
        } => tagged(
            "FreezeReq",
            vec![
                vu64(*corr),
                vevt(*freeze),
                Value::List(members.iter().map(vmember).collect()),
                Value::Bool(*capture),
            ],
        ),
        ClusterMessage::FreezeAck { corr, result } => tagged(
            "FreezeAck",
            vec![
                vu64(*corr),
                vresult(result, |triples| {
                    Value::List(
                        triples
                            .iter()
                            .map(|(c, class, state)| {
                                Value::List(vec![
                                    vctx(*c),
                                    Value::Str(class.clone()),
                                    state.clone(),
                                ])
                            })
                            .collect(),
                    )
                }),
            ],
        ),
        ClusterMessage::ThawReq { freeze } => tagged("ThawReq", vec![vevt(*freeze)]),
        ClusterMessage::MetricsReq { corr } => tagged("MetricsReq", vec![vu64(*corr)]),
        ClusterMessage::MetricsAck { corr, metrics } => {
            tagged("MetricsAck", vec![vu64(*corr), vmetrics(metrics)])
        }
        ClusterMessage::Shutdown => tagged("Shutdown", vec![]),
    }
}

// -- decoding ---------------------------------------------------------------

fn bad(msg: impl std::fmt::Display) -> AeonError {
    AeonError::Codec(format!("wire: {msg}"))
}

/// Positional cursor over an encoded variant's field list.
struct Fields {
    items: std::vec::IntoIter<Value>,
}

impl Fields {
    fn of(value: Value) -> Result<Self> {
        match value {
            Value::List(items) => Ok(Self {
                items: items.into_iter(),
            }),
            other => Err(bad(format!("expected list, got {other:?}"))),
        }
    }

    fn next(&mut self) -> Result<Value> {
        self.items.next().ok_or_else(|| bad("truncated field list"))
    }

    fn u64(&mut self) -> Result<u64> {
        match self.next()? {
            Value::Int(i) => Ok(i as u64),
            other => Err(bad(format!("expected int, got {other:?}"))),
        }
    }

    fn string(&mut self) -> Result<String> {
        match self.next()? {
            Value::Str(s) => Ok(s),
            other => Err(bad(format!("expected string, got {other:?}"))),
        }
    }

    fn bool(&mut self) -> Result<bool> {
        match self.next()? {
            Value::Bool(b) => Ok(b),
            other => Err(bad(format!("expected bool, got {other:?}"))),
        }
    }

    fn ctx(&mut self) -> Result<ContextId> {
        match self.next()? {
            Value::ContextRef(c) => Ok(c),
            other => Err(bad(format!("expected context ref, got {other:?}"))),
        }
    }

    fn srv(&mut self) -> Result<ServerId> {
        Ok(ServerId::new(self.u64()? as u32))
    }

    fn evt(&mut self) -> Result<EventId> {
        Ok(EventId::new(self.u64()?))
    }

    fn mode(&mut self) -> Result<AccessMode> {
        Ok(if self.bool()? {
            AccessMode::ReadOnly
        } else {
            AccessMode::Exclusive
        })
    }

    fn args(&mut self) -> Result<Args> {
        match self.next()? {
            Value::List(items) => Ok(Args::new(items)),
            other => Err(bad(format!("expected args list, got {other:?}"))),
        }
    }

    fn opt(&mut self) -> Result<Option<Value>> {
        match self.next()? {
            Value::List(mut items) => match items.len() {
                0 => Ok(None),
                1 => Ok(items.pop()),
                n => Err(bad(format!("option cell with {n} items"))),
            },
            other => Err(bad(format!("expected option cell, got {other:?}"))),
        }
    }

    fn list(&mut self) -> Result<Vec<Value>> {
        match self.next()? {
            Value::List(items) => Ok(items),
            other => Err(bad(format!("expected list, got {other:?}"))),
        }
    }

    fn done(mut self) -> Result<()> {
        match self.items.next() {
            None => Ok(()),
            Some(extra) => Err(bad(format!("trailing field {extra:?}"))),
        }
    }
}

/// Splits a tagged list into its tag and remaining fields.
fn untag(value: Value) -> Result<(String, Fields)> {
    let mut fields = Fields::of(value)?;
    let tag = fields.string()?;
    Ok((tag, fields))
}

fn dresult<T>(value: Value, dec: impl FnOnce(Value) -> Result<T>) -> Result<Result<T>> {
    let mut fields = Fields::of(value)?;
    let ok = fields.bool()?;
    let payload = fields.next()?;
    fields.done()?;
    if ok {
        Ok(Ok(dec(payload)?))
    } else {
        Ok(Err(derr(payload)?))
    }
}

fn derr(value: Value) -> Result<AeonError> {
    let (tag, mut f) = untag(value)?;
    let err = match tag.as_str() {
        "ContextNotFound" => AeonError::ContextNotFound(f.ctx()?),
        "ServerNotFound" => AeonError::ServerNotFound(f.srv()?),
        "EventNotFound" => AeonError::EventNotFound(f.evt()?),
        "CycleDetected" => AeonError::CycleDetected {
            from: f.ctx()?,
            to: f.ctx()?,
        },
        "ClassCycleDetected" => AeonError::ClassCycleDetected {
            description: f.string()?,
        },
        "OwnershipViolation" => AeonError::OwnershipViolation {
            caller: f.ctx()?,
            callee: f.ctx()?,
            detail: match f.opt()? {
                None => None,
                Some(Value::Str(s)) => Some(s),
                Some(other) => return Err(bad(format!("expected detail string, got {other:?}"))),
            },
        },
        "AnalysisRejected" => AeonError::AnalysisRejected {
            errors: f.u64()? as usize,
            report: f.string()?,
        },
        "ReadOnlyViolation" => AeonError::ReadOnlyViolation {
            context: f.ctx()?,
            method: f.string()?,
        },
        "UnknownMethod" => AeonError::UnknownMethod {
            class: f.string()?,
            method: f.string()?,
        },
        "BadArguments" => AeonError::BadArguments {
            method: f.string()?,
            reason: f.string()?,
        },
        "Application" => AeonError::Application(f.string()?),
        "Panicked" => AeonError::Panicked {
            reason: f.string()?,
        },
        "MigrationInProgress" => AeonError::MigrationInProgress(f.ctx()?),
        "MigrationFailed" => AeonError::MigrationFailed {
            context: f.ctx()?,
            reason: f.string()?,
        },
        "SnapshotFailed" => AeonError::SnapshotFailed {
            context: f.ctx()?,
            reason: f.string()?,
        },
        "RuntimeShutdown" => AeonError::RuntimeShutdown,
        "Storage" => AeonError::Storage(f.string()?),
        "EventAborted" => AeonError::EventAborted {
            event: f.evt()?,
            reason: f.string()?,
        },
        "SendQueueFull" => AeonError::SendQueueFull { peer: f.srv()? },
        "Codec" => AeonError::Codec(f.string()?),
        "Config" => AeonError::Config(f.string()?),
        "Internal" => AeonError::Internal(f.string()?),
        other => return Err(bad(format!("unknown error kind {other}"))),
    };
    f.done()?;
    Ok(err)
}

fn dclient(value: Option<Value>) -> Result<Option<ClientId>> {
    match value {
        None => Ok(None),
        Some(Value::Int(i)) => Ok(Some(ClientId::new(i as u64))),
        Some(other) => Err(bad(format!("expected client id, got {other:?}"))),
    }
}

fn ddesc(value: Value) -> Result<EventDescriptor> {
    let mut f = Fields::of(value)?;
    let desc = EventDescriptor {
        id: f.evt()?,
        client: dclient(f.opt()?)?,
        corr: f.u64()?,
        target: f.ctx()?,
        method: f.string()?,
        args: f.args()?,
        mode: f.mode()?,
    };
    f.done()?;
    Ok(desc)
}

fn dsub(value: Value) -> Result<SubEvent> {
    let mut f = Fields::of(value)?;
    let sub = SubEvent {
        target: f.ctx()?,
        method: f.string()?,
        args: f.args()?,
        mode: f.mode()?,
    };
    f.done()?;
    Ok(sub)
}

fn dmember(value: Value) -> Result<FreezeMember> {
    let mut f = Fields::of(value)?;
    let member = FreezeMember {
        context: f.ctx()?,
        restore: f.opt()?,
    };
    f.done()?;
    Ok(member)
}

fn dmetrics(value: Value) -> Result<NodeMetrics> {
    let mut f = Fields::of(value)?;
    let metrics = NodeMetrics {
        server: f.srv()?,
        context_count: f.u64()? as usize,
        queue_depth: f.u64()?,
        events_executed: f.u64()?,
        exec_micros: f.u64()?,
        latency: dhist(f.next()?)?,
    };
    f.done()?;
    Ok(metrics)
}

fn dhist(value: Value) -> Result<aeon_types::LatencyHistogram> {
    let mut f = Fields::of(value)?;
    let mut hist = aeon_types::LatencyHistogram {
        count: f.u64()?,
        total_micros: f.u64()?,
        min_micros: f.u64()?,
        max_micros: f.u64()?,
        ..Default::default()
    };
    match f.next()? {
        Value::List(pairs) => {
            for pair in pairs {
                let mut p = Fields::of(pair)?;
                let bucket = p.u64()? as usize;
                let n = p.u64()?;
                p.done()?;
                if bucket >= hist.buckets.len() {
                    return Err(bad(format!("latency bucket {bucket} out of range")));
                }
                hist.buckets[bucket] = n;
            }
        }
        other => return Err(bad(format!("expected bucket list, got {other:?}"))),
    }
    f.done()?;
    Ok(hist)
}

fn ddirop(value: Value) -> Result<DirOp> {
    let (tag, mut f) = untag(value)?;
    let op = match tag.as_str() {
        "PlacementOf" => DirOp::PlacementOf(f.ctx()?),
        "SetPlacement" => DirOp::SetPlacement(f.ctx()?, f.srv()?),
        "MayCall" => DirOp::MayCall(f.ctx()?, f.ctx()?),
        "ClassOf" => DirOp::ClassOf(f.ctx()?),
        "ChildrenOf" => DirOp::ChildrenOf {
            parent: f.ctx()?,
            class: match f.opt()? {
                None => None,
                Some(Value::Str(s)) => Some(s),
                Some(other) => return Err(bad(format!("expected class name, got {other:?}"))),
            },
        },
        "AddEdge" => DirOp::AddEdge(f.ctx()?, f.ctx()?),
        "RemoveEdge" => DirOp::RemoveEdge(f.ctx()?, f.ctx()?),
        "CreateOwned" => DirOp::CreateOwned {
            owner: f.ctx()?,
            class: f.string()?,
        },
        other => return Err(bad(format!("unknown dir op {other}"))),
    };
    f.done()?;
    Ok(op)
}

fn ddirreply(value: Value) -> Result<DirReply> {
    let (tag, mut f) = untag(value)?;
    let reply = match tag.as_str() {
        "Unit" => DirReply::Unit,
        "Flag" => DirReply::Flag(f.bool()?),
        "Server" => DirReply::Server(f.srv()?),
        "Context" => DirReply::Context(f.ctx()?),
        "Contexts" => {
            let items = f.list()?;
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Value::ContextRef(c) => out.push(c),
                    other => return Err(bad(format!("expected context ref, got {other:?}"))),
                }
            }
            DirReply::Contexts(out)
        }
        "Class" => DirReply::Class(f.string()?),
        other => return Err(bad(format!("unknown dir reply {other}"))),
    };
    f.done()?;
    Ok(reply)
}

fn dsrv_list(items: Vec<Value>) -> Result<Vec<ServerId>> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Value::Int(i) => out.push(ServerId::new(i as u32)),
            other => return Err(bad(format!("expected server id, got {other:?}"))),
        }
    }
    Ok(out)
}

fn from_value(value: Value) -> Result<ClusterMessage> {
    let (tag, mut f) = untag(value)?;
    let message = match tag.as_str() {
        "Host" => ClusterMessage::Host {
            corr: f.u64()?,
            context: f.ctx()?,
            class: f.string()?,
            state: f.next()?,
            escrow: f.u64()?,
        },
        "HostAck" => ClusterMessage::HostAck {
            corr: f.u64()?,
            context: f.ctx()?,
            result: dresult(f.next()?, |_| Ok(()))?,
        },
        "DirReq" => ClusterMessage::DirReq {
            corr: f.u64()?,
            from: f.srv()?,
            op: ddirop(f.next()?)?,
        },
        "DirAck" => ClusterMessage::DirAck {
            corr: f.u64()?,
            reply: dresult(f.next()?, ddirreply)?,
        },
        "Act" => ClusterMessage::Act {
            event: ddesc(f.next()?)?,
            sequencer: f.ctx()?,
        },
        "Exec" => ClusterMessage::Exec {
            event: ddesc(f.next()?)?,
            sequencer: match f.opt()? {
                None => None,
                Some(cell) => {
                    let mut pair = Fields::of(cell)?;
                    let sequencer = (pair.srv()?, pair.ctx()?);
                    pair.done()?;
                    Some(sequencer)
                }
            },
        },
        "ExecCertified" => ClusterMessage::ExecCertified {
            event: ddesc(f.next()?)?,
        },
        "Call" => ClusterMessage::Call {
            event: f.evt()?,
            mode: f.mode()?,
            client: dclient(f.opt()?)?,
            caller: f.ctx()?,
            target: f.ctx()?,
            method: f.string()?,
            args: f.args()?,
            reply_to: f.srv()?,
            corr: f.u64()?,
        },
        "CallReply" => ClusterMessage::CallReply {
            corr: f.u64()?,
            result: dresult(f.next()?, Ok)?,
            participants: dsrv_list(f.list()?)?,
            sub_events: f.list()?.into_iter().map(dsub).collect::<Result<_>>()?,
        },
        "Release" => ClusterMessage::Release { event: f.evt()? },
        "Done" => ClusterMessage::Done {
            corr: f.u64()?,
            event: f.evt()?,
            result: dresult(f.next()?, Ok)?,
            sub_events: f.list()?.into_iter().map(dsub).collect::<Result<_>>()?,
        },
        "Prepare" => ClusterMessage::Prepare {
            corr: f.u64()?,
            context: f.ctx()?,
        },
        "PrepareAck" => ClusterMessage::PrepareAck {
            corr: f.u64()?,
            context: f.ctx()?,
        },
        "Stop" => ClusterMessage::Stop {
            corr: f.u64()?,
            context: f.ctx()?,
            to: f.srv()?,
        },
        "StopAck" => ClusterMessage::StopAck {
            corr: f.u64()?,
            context: f.ctx()?,
        },
        "Migrate" => ClusterMessage::Migrate {
            corr: f.u64()?,
            context: f.ctx()?,
            to: f.srv()?,
        },
        "Install" => ClusterMessage::Install {
            corr: f.u64()?,
            context: f.ctx()?,
            class: f.string()?,
            state: f.next()?,
            from: f.srv()?,
        },
        "InstallAck" => ClusterMessage::InstallAck {
            corr: f.u64()?,
            context: f.ctx()?,
            result: dresult(f.next()?, |v| match v {
                Value::Int(i) => Ok(i as u64),
                other => Err(bad(format!("expected byte count, got {other:?}"))),
            })?,
        },
        "FreezeReq" => ClusterMessage::FreezeReq {
            corr: f.u64()?,
            freeze: f.evt()?,
            members: f.list()?.into_iter().map(dmember).collect::<Result<_>>()?,
            capture: f.bool()?,
        },
        "FreezeAck" => ClusterMessage::FreezeAck {
            corr: f.u64()?,
            result: dresult(f.next()?, |v| {
                let Value::List(items) = v else {
                    return Err(bad("expected capture list"));
                };
                items
                    .into_iter()
                    .map(|item| {
                        let mut triple = Fields::of(item)?;
                        let out = (triple.ctx()?, triple.string()?, triple.next()?);
                        triple.done()?;
                        Ok(out)
                    })
                    .collect::<Result<_>>()
            })?,
        },
        "ThawReq" => ClusterMessage::ThawReq { freeze: f.evt()? },
        "MetricsReq" => ClusterMessage::MetricsReq { corr: f.u64()? },
        "MetricsAck" => ClusterMessage::MetricsAck {
            corr: f.u64()?,
            metrics: Box::new(dmetrics(f.next()?)?),
        },
        "Shutdown" => ClusterMessage::Shutdown,
        other => return Err(bad(format!("unknown message tag {other}"))),
    };
    f.done()?;
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{gateway_id, virtual_root};
    use proptest::prelude::*;

    fn cx(n: u64) -> ContextId {
        ContextId::new(n)
    }

    fn srv(n: u32) -> ServerId {
        ServerId::new(n)
    }

    fn evt(n: u64) -> EventId {
        EventId::new(n)
    }

    fn desc() -> EventDescriptor {
        EventDescriptor {
            id: evt(9),
            client: Some(ClientId::new(4)),
            corr: u64::MAX - 1,
            target: cx(7),
            method: "transfer".into(),
            args: Args::new(vec![Value::from(1i64), Value::Str("x".into())]),
            mode: AccessMode::Exclusive,
        }
    }

    fn sub() -> SubEvent {
        SubEvent {
            target: cx(3),
            method: "tick".into(),
            args: Args::empty(),
            mode: AccessMode::ReadOnly,
        }
    }

    fn roundtrip(message: &ClusterMessage) {
        let bytes = message.encode_wire().expect("encode");
        let back = ClusterMessage::decode_wire(&bytes).expect("decode");
        // Field-exact comparison through the (total) Value lowering.
        assert_eq!(to_value(&back), to_value(message), "{message:?}");
        assert_eq!(
            message_wire_len(message),
            bytes.len() as u64 + FRAME_OVERHEAD,
            "sizer must match the encoder for {message:?}"
        );
    }

    #[test]
    fn every_variant_round_trips() {
        let state = Value::map([
            ("balance", Value::from(10i64)),
            ("tags", Value::List(vec![Value::Bytes(vec![0xff, 0x00])])),
        ]);
        let messages = vec![
            ClusterMessage::Host {
                corr: 1,
                context: cx(2),
                class: "Account".into(),
                state: state.clone(),
                escrow: (1 << 63) | 7,
            },
            ClusterMessage::HostAck {
                corr: 1,
                context: cx(2),
                result: Ok(()),
            },
            ClusterMessage::HostAck {
                corr: 1,
                context: cx(2),
                result: Err(AeonError::Config("no factory for Account".into())),
            },
            ClusterMessage::DirReq {
                corr: 3,
                from: srv(1),
                op: DirOp::CreateOwned {
                    owner: cx(5),
                    class: "Item".into(),
                },
            },
            ClusterMessage::DirReq {
                corr: 3,
                from: srv(1),
                op: DirOp::ChildrenOf {
                    parent: virtual_root(),
                    class: Some("Player".into()),
                },
            },
            ClusterMessage::DirAck {
                corr: 3,
                reply: Ok(DirReply::Contexts(vec![cx(1), cx(2)])),
            },
            ClusterMessage::DirAck {
                corr: 3,
                reply: Err(AeonError::ownership(cx(1), cx(2))),
            },
            ClusterMessage::Act {
                event: desc(),
                sequencer: virtual_root(),
            },
            ClusterMessage::Exec {
                event: desc(),
                sequencer: Some((gateway_id(), cx(1))),
            },
            ClusterMessage::Exec {
                event: desc(),
                sequencer: None,
            },
            ClusterMessage::ExecCertified { event: desc() },
            ClusterMessage::Call {
                event: evt(9),
                mode: AccessMode::ReadOnly,
                client: None,
                caller: cx(1),
                target: cx(2),
                method: "peek".into(),
                args: Args::new(vec![Value::Null]),
                reply_to: srv(0),
                corr: 11,
            },
            ClusterMessage::CallReply {
                corr: 11,
                result: Ok(Value::Float(2.5)),
                participants: vec![srv(0), srv(3)],
                sub_events: vec![sub()],
            },
            ClusterMessage::CallReply {
                corr: 11,
                result: Err(AeonError::Panicked {
                    reason: "boom".into(),
                }),
                participants: vec![],
                sub_events: vec![],
            },
            ClusterMessage::Release { event: evt(9) },
            ClusterMessage::Done {
                corr: 12,
                event: evt(9),
                result: Ok(Value::Null),
                sub_events: vec![sub(), sub()],
            },
            ClusterMessage::Prepare {
                corr: 13,
                context: cx(4),
            },
            ClusterMessage::PrepareAck {
                corr: 13,
                context: cx(4),
            },
            ClusterMessage::Stop {
                corr: 14,
                context: cx(4),
                to: srv(2),
            },
            ClusterMessage::StopAck {
                corr: 14,
                context: cx(4),
            },
            ClusterMessage::Migrate {
                corr: 15,
                context: cx(4),
                to: srv(2),
            },
            ClusterMessage::Install {
                corr: 15,
                context: cx(4),
                class: "Room".into(),
                state,
                from: srv(0),
            },
            ClusterMessage::InstallAck {
                corr: 15,
                context: cx(4),
                result: Ok(321),
            },
            ClusterMessage::InstallAck {
                corr: 15,
                context: cx(4),
                result: Err(AeonError::MigrationFailed {
                    context: cx(4),
                    reason: "no factory".into(),
                }),
            },
            ClusterMessage::FreezeReq {
                corr: 17,
                freeze: evt(88),
                members: vec![
                    FreezeMember::freeze(virtual_root()),
                    FreezeMember::restore(cx(4), Value::Null),
                ],
                capture: true,
            },
            ClusterMessage::FreezeAck {
                corr: 17,
                result: Ok(vec![(cx(4), "Room".into(), Value::from(3i64))]),
            },
            ClusterMessage::FreezeAck {
                corr: 17,
                result: Err(AeonError::SnapshotFailed {
                    context: cx(4),
                    reason: "member busy".into(),
                }),
            },
            ClusterMessage::ThawReq { freeze: evt(88) },
            ClusterMessage::MetricsReq { corr: 18 },
            ClusterMessage::MetricsAck {
                corr: 18,
                metrics: Box::new(NodeMetrics {
                    server: srv(1),
                    context_count: 3,
                    queue_depth: 2,
                    events_executed: 40,
                    exec_micros: 12345,
                    latency: {
                        let mut h = aeon_types::LatencyHistogram::new();
                        h.record(120);
                        h.record(90_000);
                        h
                    },
                }),
            },
            ClusterMessage::Shutdown,
        ];
        for message in &messages {
            roundtrip(message);
        }
    }

    #[test]
    fn every_error_variant_survives_the_wire() {
        let errors = vec![
            AeonError::ContextNotFound(cx(1)),
            AeonError::ServerNotFound(srv(2)),
            AeonError::EventNotFound(evt(3)),
            AeonError::CycleDetected {
                from: cx(1),
                to: cx(2),
            },
            AeonError::ClassCycleDetected {
                description: "A -> B -> A".into(),
            },
            AeonError::ownership(cx(1), cx(2)),
            AeonError::OwnershipViolation {
                caller: cx(1),
                callee: cx(2),
                detail: Some("class Item may not own class Player".into()),
            },
            AeonError::AnalysisRejected {
                errors: 2,
                report: "AEON002 uncovered call edge\nAEON003 ro unsound".into(),
            },
            AeonError::ReadOnlyViolation {
                context: cx(1),
                method: "set".into(),
            },
            AeonError::UnknownMethod {
                class: "Room".into(),
                method: "warp".into(),
            },
            AeonError::BadArguments {
                method: "incr".into(),
                reason: "arity".into(),
            },
            AeonError::Application("declined".into()),
            AeonError::Panicked {
                reason: "oops".into(),
            },
            AeonError::MigrationInProgress(cx(1)),
            AeonError::MigrationFailed {
                context: cx(1),
                reason: "late".into(),
            },
            AeonError::SnapshotFailed {
                context: cx(1),
                reason: "torn".into(),
            },
            AeonError::RuntimeShutdown,
            AeonError::Storage("cas".into()),
            AeonError::EventAborted {
                event: evt(3),
                reason: "crash".into(),
            },
            AeonError::SendQueueFull { peer: srv(4) },
            AeonError::Codec("short".into()),
            AeonError::Config("bad".into()),
            AeonError::Internal("bug".into()),
        ];
        for err in errors {
            let message = ClusterMessage::Done {
                corr: 1,
                event: evt(1),
                result: Err(err.clone()),
                sub_events: vec![],
            };
            let bytes = message.encode_wire().unwrap();
            let ClusterMessage::Done { result, .. } = ClusterMessage::decode_wire(&bytes).unwrap()
            else {
                panic!("tag changed in flight");
            };
            assert_eq!(result.unwrap_err(), err);
        }
    }

    #[test]
    fn corrupt_payloads_are_rejected_not_panicked() {
        assert!(ClusterMessage::decode_wire(&[]).is_err());
        assert!(ClusterMessage::decode_wire(&[0xde, 0xad, 0xbe, 0xef]).is_err());
        // A well-formed Value that is not a tagged message.
        let bytes = codec::encode(&Value::from(5i64)).to_vec();
        assert!(ClusterMessage::decode_wire(&bytes).is_err());
        // Unknown tag.
        let bytes = codec::encode(&Value::List(vec![Value::Str("Nope".into())])).to_vec();
        assert!(ClusterMessage::decode_wire(&bytes).is_err());
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1.0e9f64..1.0e9).prop_map(Value::Float),
            "[a-z]{0,12}".prop_map(Value::Str),
            proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::Bytes),
            any::<u64>().prop_map(|n| Value::ContextRef(ContextId::new(n))),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
                proptest::collection::btree_map("[a-z]{1,6}", inner, 0..4).prop_map(Value::Map),
            ]
        })
    }

    proptest! {
        #[test]
        fn random_states_and_args_round_trip(
            state in arb_value(),
            args in proptest::collection::vec(arb_value(), 0..4),
            corr in any::<u64>(),
            ctx_raw in any::<u64>(),
        ) {
            let install = ClusterMessage::Install {
                corr,
                context: ContextId::new(ctx_raw),
                class: "Fuzz".into(),
                state: state.clone(),
                from: srv(1),
            };
            roundtrip(&install);
            let call = ClusterMessage::Call {
                event: evt(corr),
                mode: AccessMode::Exclusive,
                client: Some(ClientId::new(corr)),
                caller: cx(1),
                target: ContextId::new(ctx_raw),
                method: "m".into(),
                args: Args::new(args.clone()),
                reply_to: gateway_id(),
                corr,
            };
            roundtrip(&call);
            // The certified admission is its own tag, which `roundtrip`
            // compares: it must never decay into a plain `Exec`.
            let certified = ClusterMessage::ExecCertified {
                event: EventDescriptor {
                    id: evt(corr),
                    client: Some(ClientId::new(corr)),
                    corr,
                    target: ContextId::new(ctx_raw),
                    method: "m".into(),
                    args: Args::new(args),
                    mode: AccessMode::ReadOnly,
                },
            };
            roundtrip(&certified);
        }
    }
}
