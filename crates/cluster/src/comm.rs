//! Cluster runtime and message fabric.

use genbase_util::{Error, Result, SimClock};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Network cost model applied to every message **between simulated nodes
/// inside one benchmark cell**.
///
/// This is part of the benchmark's *cost model*, not of its plumbing: a
/// transfer charges `latency + bytes / bandwidth` simulated seconds to the
/// receiving node's [`SimClock`], and those seconds show up in the
/// figures as the paper's multi-node communication cost. It is unrelated
/// to the real TCP sockets of the distributed coordinator
/// (`genbase::coord`): coordinator/worker traffic moves work between real
/// processes, costs real wall-clock time, and is **never** charged to any
/// `SimClock` — which is why, under `--sim-only`, the rendered figures
/// are identical no matter how many workers ran the sweep. See
/// `ARCHITECTURE.md`, "Two network tiers".
#[derive(Debug, Clone, Copy)]
pub struct NetModel {
    /// Per-message startup latency in seconds.
    pub latency_s: f64,
    /// Link throughput in bytes per second.
    pub bandwidth_bps: f64,
}

impl NetModel {
    /// Paper-era gigabit Ethernet: 100 µs latency and the 1 Gbit/s line
    /// rate (125 MB/s *theoretical* — the model deliberately ignores
    /// framing/TCP overhead that keeps real links nearer 117 MB/s, since
    /// the paper's interconnect numbers are idealized the same way).
    pub fn gigabit() -> NetModel {
        NetModel {
            latency_s: 100e-6,
            bandwidth_bps: 125e6,
        }
    }

    /// Free network (tests that check math, not costs).
    pub fn free() -> NetModel {
        NetModel {
            latency_s: 0.0,
            bandwidth_bps: f64::INFINITY,
        }
    }

    /// Seconds charged for one message of `bytes`.
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

/// A simulated multi-node cluster.
pub struct Cluster {
    n: usize,
    net: NetModel,
}

/// Per-node handle passed to the node closure: rank, message endpoints and
/// the node's simulated network clock.
pub struct NodeCtx {
    rank: usize,
    n: usize,
    net: NetModel,
    /// `senders[to]` sends to node `to`.
    senders: Vec<Sender<Vec<u8>>>,
    /// `receivers[from]` receives from node `from`.
    receivers: Vec<Receiver<Vec<u8>>>,
    /// This node's simulated network time.
    pub sim: SimClock,
}

impl Cluster {
    /// Cluster of `n` nodes with the given network model.
    pub fn new(n: usize, net: NetModel) -> Cluster {
        assert!(n >= 1, "need at least one node");
        Cluster { n, net }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Run `f` on every node in parallel. Returns each node's result plus
    /// the maximum simulated network seconds across nodes (the critical
    /// path). Fails if any node fails, with the first error by rank that is
    /// not [`Error::HungUp`]: a node that fails drops its endpoints, so its
    /// peers hang up on it, and the cause is its own error, not theirs.
    pub fn run<R, F>(&self, f: F) -> Result<(Vec<R>, f64)>
    where
        R: Send,
        F: Fn(&mut NodeCtx) -> Result<R> + Sync,
    {
        // Build the full mesh: one channel per ordered (from, to) pair.
        let mut senders_by_node: Vec<Vec<Option<Sender<Vec<u8>>>>> = (0..self.n)
            .map(|_| (0..self.n).map(|_| None).collect())
            .collect();
        let mut receivers_by_node: Vec<Vec<Option<Receiver<Vec<u8>>>>> = (0..self.n)
            .map(|_| (0..self.n).map(|_| None).collect())
            .collect();
        for from in 0..self.n {
            for to in 0..self.n {
                let (tx, rx) = channel();
                senders_by_node[from][to] = Some(tx);
                receivers_by_node[to][from] = Some(rx);
            }
        }
        let mut ctxs: Vec<NodeCtx> = Vec::with_capacity(self.n);
        for (rank, (sends, recvs)) in senders_by_node
            .into_iter()
            .zip(receivers_by_node)
            .enumerate()
        {
            ctxs.push(NodeCtx {
                rank,
                n: self.n,
                net: self.net,
                senders: sends.into_iter().map(|s| s.expect("mesh built")).collect(),
                receivers: recvs.into_iter().map(|r| r.expect("mesh built")).collect(),
                sim: SimClock::new(),
            });
        }
        let sims: Vec<SimClock> = ctxs.iter().map(|c| c.sim.clone()).collect();
        let f_ref = &f;
        // Nodes rendezvous through blocking channel receives, so every node
        // must run on its own live thread — a capped task pool could park a
        // sender behind its receiver and deadlock. This is the one place
        // that spawns scoped OS threads instead of using the shared
        // runtime; compute *inside* a node still goes through the pool via
        // ExecOpts.threads.
        let results: Vec<Result<R>> = std::thread::scope(|s| {
            let handles: Vec<_> = ctxs
                .into_iter()
                .map(|mut ctx| s.spawn(move || f_ref(&mut ctx)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("node thread panicked"))
                .collect()
        });
        let mut out = Vec::with_capacity(self.n);
        let mut hung_up = None;
        for r in results {
            match r {
                Ok(r) => out.push(r),
                Err(e @ Error::HungUp { .. }) => {
                    hung_up.get_or_insert(e);
                }
                Err(e) => return Err(e),
            }
        }
        if let Some(e) = hung_up {
            return Err(e);
        }
        let max_sim = sims.iter().map(|s| s.total_secs()).fold(0.0, f64::max);
        Ok((out, max_sim))
    }
}

impl NodeCtx {
    /// This node's rank (0-based).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Cluster size.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Send raw bytes to `to`. Local sends are free (no network).
    pub fn send_bytes(&self, to: usize, bytes: Vec<u8>) -> Result<()> {
        if to != self.rank {
            self.sim.charge_transfer(
                bytes.len() as u64,
                self.net.latency_s,
                self.net.bandwidth_bps,
            );
        }
        self.senders[to]
            .send(bytes)
            .map_err(|_| Error::HungUp { node: to })
    }

    /// Receive raw bytes from `from`, charging the receive cost.
    pub fn recv_bytes(&self, from: usize) -> Result<Vec<u8>> {
        let bytes = self.receivers[from]
            .recv()
            .map_err(|_| Error::HungUp { node: from })?;
        if from != self.rank {
            self.sim.charge_transfer(
                bytes.len() as u64,
                self.net.latency_s,
                self.net.bandwidth_bps,
            );
        }
        Ok(bytes)
    }

    /// Send a float slice.
    pub fn send_f64s(&self, to: usize, data: &[f64]) -> Result<()> {
        self.send_bytes(to, encode_f64s(data))
    }

    /// Receive a float vector.
    pub fn recv_f64s(&self, from: usize) -> Result<Vec<f64>> {
        decode_f64s(&self.recv_bytes(from)?)
    }

    /// Broadcast a float slice from `root`; returns the data on every node.
    pub fn broadcast_f64s(&self, root: usize, data: &[f64]) -> Result<Vec<f64>> {
        if self.rank == root {
            for to in 0..self.n {
                if to != root {
                    self.send_f64s(to, data)?;
                }
            }
            Ok(data.to_vec())
        } else {
            self.recv_f64s(root)
        }
    }

    /// Gather per-node float slices to `root` (rank order); `None` elsewhere.
    pub fn gather_f64s(&self, root: usize, data: &[f64]) -> Result<Option<Vec<Vec<f64>>>> {
        if self.rank == root {
            let mut all = Vec::with_capacity(self.n);
            for from in 0..self.n {
                if from == root {
                    all.push(data.to_vec());
                } else {
                    all.push(self.recv_f64s(from)?);
                }
            }
            Ok(Some(all))
        } else {
            self.send_f64s(root, data)?;
            Ok(None)
        }
    }

    /// Element-wise sum across nodes; every node ends with the total
    /// (gather to node 0, reduce, broadcast — the rooted-collective pattern
    /// whose cost grows with node count).
    pub fn allreduce_sum(&self, data: &mut [f64]) -> Result<()> {
        if let Some(all) = self.gather_f64s(0, data)? {
            for part in &all[1..] {
                if part.len() != data.len() {
                    return Err(Error::invalid("allreduce length mismatch"));
                }
            }
            for i in 0..data.len() {
                data[i] = all.iter().map(|p| p[i]).sum();
            }
        }
        let total = self.broadcast_f64s(0, data)?;
        data.copy_from_slice(&total);
        Ok(())
    }
}

fn encode_f64s(data: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 8);
    for v in data {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

fn decode_f64s(bytes: &[u8]) -> Result<Vec<f64>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(Error::invalid("float buffer not a multiple of 8 bytes"));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_cluster() {
        let cluster = Cluster::new(1, NetModel::free());
        let (results, sim) = cluster.run(|ctx| Ok(ctx.rank() * 10)).unwrap();
        assert_eq!(results, vec![0]);
        assert_eq!(sim, 0.0);
    }

    #[test]
    fn point_to_point_messages() {
        let cluster = Cluster::new(3, NetModel::free());
        let (results, _) = cluster
            .run(|ctx| {
                // Ring: send rank to (rank+1) % n, receive from predecessor.
                let next = (ctx.rank() + 1) % ctx.n_nodes();
                let prev = (ctx.rank() + ctx.n_nodes() - 1) % ctx.n_nodes();
                ctx.send_f64s(next, &[ctx.rank() as f64])?;
                let got = ctx.recv_f64s(prev)?;
                Ok(got[0] as usize)
            })
            .unwrap();
        assert_eq!(results, vec![2, 0, 1]);
    }

    #[test]
    fn broadcast_reaches_all() {
        let cluster = Cluster::new(4, NetModel::free());
        let (results, _) = cluster
            .run(|ctx| {
                let data = if ctx.rank() == 0 {
                    vec![1.0, 2.0, 3.0]
                } else {
                    vec![]
                };
                ctx.broadcast_f64s(0, &data)
            })
            .unwrap();
        for r in results {
            assert_eq!(r, vec![1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let cluster = Cluster::new(3, NetModel::free());
        let (results, _) = cluster
            .run(|ctx| {
                let mine = vec![ctx.rank() as f64; ctx.rank() + 1];
                ctx.gather_f64s(0, &mine)
            })
            .unwrap();
        let root = results[0].as_ref().unwrap();
        assert_eq!(root.len(), 3);
        assert_eq!(root[0], vec![0.0]);
        assert_eq!(root[1], vec![1.0, 1.0]);
        assert_eq!(root[2], vec![2.0, 2.0, 2.0]);
        assert!(results[1].is_none());
        assert!(results[2].is_none());
    }

    #[test]
    fn allreduce_sums_everywhere() {
        let cluster = Cluster::new(4, NetModel::free());
        let (results, _) = cluster
            .run(|ctx| {
                let mut data = vec![ctx.rank() as f64, 1.0];
                ctx.allreduce_sum(&mut data)?;
                Ok(data)
            })
            .unwrap();
        for r in results {
            assert_eq!(r, vec![6.0, 4.0]); // 0+1+2+3, 1*4
        }
    }

    #[test]
    fn network_time_charged_and_scales() {
        let net = NetModel {
            latency_s: 0.001,
            bandwidth_bps: 1e6,
        };
        let run_with = |n: usize| {
            let cluster = Cluster::new(n, net);
            let (_, sim) = cluster
                .run(|ctx| {
                    let mut data = vec![1.0; 10_000]; // 80 KB
                    ctx.allreduce_sum(&mut data)?;
                    Ok(())
                })
                .unwrap();
            sim
        };
        assert_eq!(run_with(1), 0.0, "single node never touches the network");
        let two = run_with(2);
        let four = run_with(4);
        assert!(two > 0.0);
        assert!(
            four > two,
            "rooted collectives cost more with more nodes: {four} vs {two}"
        );
    }

    #[test]
    fn local_send_is_free() {
        let cluster = Cluster::new(2, NetModel::gigabit());
        let (results, _) = cluster
            .run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.send_f64s(0, &[5.0])?;
                    let got = ctx.recv_f64s(0)?;
                    assert_eq!(got, vec![5.0]);
                    Ok(ctx.sim.total_secs())
                } else {
                    Ok(0.0)
                }
            })
            .unwrap();
        assert_eq!(results[0], 0.0, "self-send must not charge network time");
    }

    #[test]
    fn a_failed_node_is_the_error_not_the_peer_that_waited_on_it() {
        let oom = Error::OutOfMemory {
            requested: 2048,
            budget: 1024,
        };
        let cluster = Cluster::new(3, NetModel::free());
        // Rank 0 waits on rank 2, which fails instead of sending; rank 1
        // finishes. Rank 0's hang-up comes first by rank, the cause last.
        let err = cluster
            .run(|ctx| match ctx.rank() {
                0 => ctx.recv_f64s(2).map(|_| ()),
                1 => Ok(()),
                _ => Err(oom.clone()),
            })
            .unwrap_err();
        assert_eq!(err, oom);
        // With no cause among the nodes, the hang-up itself is reported.
        let err = cluster
            .run(|ctx| match ctx.rank() {
                0 => ctx.recv_f64s(1).map(|_| ()),
                _ => Err(Error::HungUp { node: 0 }),
            })
            .unwrap_err();
        assert_eq!(err, Error::HungUp { node: 1 });
    }

    #[test]
    fn codec_round_trip() {
        let data = vec![1.5, -2.25, f64::MAX, 0.0];
        assert_eq!(decode_f64s(&encode_f64s(&data)).unwrap(), data);
        assert!(decode_f64s(&[0u8; 7]).is_err());
    }

    #[test]
    fn net_model_transfer_math() {
        let net = NetModel {
            latency_s: 0.01,
            bandwidth_bps: 1000.0,
        };
        assert!((net.transfer_secs(500) - 0.51).abs() < 1e-12);
        assert_eq!(NetModel::free().transfer_secs(1 << 30), 0.0);
    }
}
