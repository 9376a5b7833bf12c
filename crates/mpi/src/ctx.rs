//! The rank-side API of the MPI-flavoured baseline.
//!
//! Application code runs blocking-style on a dedicated thread per rank
//! (via [`allscale_des::ThreadActor`]); every call suspends the rank and
//! hands control to the coordinator, which accounts virtual time on the
//! shared network model.

use allscale_des::{SimDuration, ThreadCtx};
use allscale_region::wire::{self, Wire};

/// Requests a rank can issue to the coordinator.
pub enum MpiCall {
    /// Buffered send: returns once the message is handed to the NIC.
    Send {
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: u32,
        /// Serialized payload.
        bytes: Vec<u8>,
    },
    /// Blocking receive of a matching message.
    Recv {
        /// Source rank (matching is per (source, tag), FIFO).
        from: usize,
        /// Message tag.
        tag: u32,
    },
    /// Advance this rank's clock by a compute duration.
    Compute(SimDuration),
    /// Block until all ranks reach the barrier.
    Barrier,
    /// Read this rank's virtual clock.
    Now,
    /// All-reduce a vector of f64 (element-wise).
    AllReduce {
        /// Local contribution.
        vals: Vec<f64>,
        /// Reduction operator.
        op: ReduceOp,
    },
}

/// Reduction operators for [`MpiCall::AllReduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

/// Replies from the coordinator.
pub enum MpiReply {
    /// Acknowledge a send/compute/barrier.
    Ok,
    /// The rank's current virtual time.
    Time(allscale_des::SimTime),
    /// A received message's payload.
    Msg(Vec<u8>),
    /// The reduced vector.
    Reduced(Vec<f64>),
}

/// The per-rank context handed to SPMD application code.
pub struct RankCtx<'a, T> {
    pub(crate) inner: &'a ThreadCtx<MpiCall, MpiReply, T>,
    pub(crate) rank: usize,
    pub(crate) size: usize,
}

impl<T> RankCtx<'_, T> {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send an encodable value to `to` with `tag`.
    pub fn send<V: Wire>(&self, to: usize, tag: u32, value: &V) {
        let bytes = wire::encode(value);
        match self.inner.call(MpiCall::Send { to, tag, bytes }) {
            MpiReply::Ok => {}
            _ => unreachable!("protocol violation: send reply"),
        }
    }

    /// Receive a value from `from` with `tag` (blocking, FIFO per channel).
    pub fn recv<V: Wire>(&self, from: usize, tag: u32) -> V {
        match self.inner.call(MpiCall::Recv { from, tag }) {
            MpiReply::Msg(bytes) => {
                wire::decode(&bytes).expect("mpi payload deserialization")
            }
            _ => unreachable!("protocol violation: recv reply"),
        }
    }

    /// Combined send+receive with a partner rank (halo-exchange idiom;
    /// deadlock-free because sends are buffered).
    pub fn sendrecv<V: Wire, W: Wire>(&self, partner: usize, tag: u32, value: &V) -> W {
        self.send(partner, tag, value);
        self.recv(partner, tag)
    }

    /// Charge `dur` of local computation to this rank's clock.
    pub fn compute(&self, dur: SimDuration) {
        match self.inner.call(MpiCall::Compute(dur)) {
            MpiReply::Ok => {}
            _ => unreachable!("protocol violation: compute reply"),
        }
    }

    /// This rank's current virtual time (e.g. to exclude setup phases
    /// from measured windows).
    pub fn now(&self) -> allscale_des::SimTime {
        match self.inner.call(MpiCall::Now) {
            MpiReply::Time(t) => t,
            _ => unreachable!("protocol violation: now reply"),
        }
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        match self.inner.call(MpiCall::Barrier) {
            MpiReply::Ok => {}
            _ => unreachable!("protocol violation: barrier reply"),
        }
    }

    /// Element-wise all-reduce over all ranks.
    pub fn allreduce(&self, vals: Vec<f64>, op: ReduceOp) -> Vec<f64> {
        match self.inner.call(MpiCall::AllReduce { vals, op }) {
            MpiReply::Reduced(v) => v,
            _ => unreachable!("protocol violation: allreduce reply"),
        }
    }

    /// Scalar sum all-reduce.
    pub fn allreduce_sum(&self, v: f64) -> f64 {
        self.allreduce(vec![v], ReduceOp::Sum)[0]
    }

    /// Scalar max all-reduce.
    pub fn allreduce_max(&self, v: f64) -> f64 {
        self.allreduce(vec![v], ReduceOp::Max)[0]
    }

    /// Personalized all-to-all: element `i` of `outbox` goes to rank `i`;
    /// returns the inbox indexed by source rank. Built from point-to-point
    /// messages (ring schedule), like a small MPI_Alltoallv.
    pub fn alltoall<V: Wire>(&self, tag: u32, outbox: Vec<V>) -> Vec<V> {
        assert_eq!(outbox.len(), self.size, "one outbox entry per rank");
        let me = self.rank;
        let n = self.size;
        let mut inbox: Vec<Option<V>> = (0..n).map(|_| None).collect();
        let mut mine = None;
        for (dst, v) in outbox.into_iter().enumerate() {
            if dst == me {
                mine = Some(v);
            } else {
                self.send(dst, tag, &v);
            }
        }
        inbox[me] = mine;
        #[allow(clippy::needless_range_loop)] // rank order is the protocol
        for src in 0..n {
            if src != me {
                inbox[src] = Some(self.recv(src, tag));
            }
        }
        inbox.into_iter().map(|v| v.expect("all received")).collect()
    }
}
