//! The shared deployment descriptor: who the shard primaries are, which
//! replicas back each of them, and how clients identify themselves.
//!
//! A [`Topology`] is parsed **once** (usually from the operator's
//! `--peers` flag) and handed to every consumer — the
//! [`ShardRouter`](crate::ShardRouter), the [`Gather`](crate::Gather),
//! and the shard servers themselves — so every layer agrees on shard
//! order, replica sets, and consumer identity.
//!
//! # Spec syntax
//!
//! One entry per shard, comma-separated, in shard order. Each entry is
//! the shard primary's address optionally followed by `+`-joined
//! replica addresses:
//!
//! ```text
//! 127.0.0.1:7655+127.0.0.1:7665,127.0.0.1:7656+127.0.0.1:7666
//! ```
//!
//! describes two shards, each with one replica. [`Display`](fmt::Display)
//! renders the same syntax back, so a topology round-trips through its
//! spec.
//!
//! ```
//! use server::Topology;
//!
//! let topo = Topology::parse("a:1+a:2,b:1").unwrap();
//! assert_eq!(topo.shard_count(), 2);
//! assert_eq!(topo.primary(0), Some("a:1"));
//! assert_eq!(topo.replicas(0), ["a:2"]);
//! assert!(topo.replicas(1).is_empty());
//! assert_eq!(topo.to_string(), "a:1+a:2,b:1");
//! ```

use std::fmt;

use plus_store::wire::ReplicaRole;
use plus_store::{ReplicaStatus, MAX_REPLICAS, MAX_SHARDS};
use surrogate_core::shard::ShardMap;

use crate::error::ClientError;

/// One shard's sites: the writable primary and its read replicas, which
/// double as promotion candidates after the primary dies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSite {
    /// The shard primary's address.
    pub primary: String,
    /// The shard's replica addresses (may be empty).
    pub replicas: Vec<String>,
}

/// A parsed deployment descriptor: per-shard sites in shard order, plus
/// the consumer identity clients should dial with.
///
/// See the [module docs](self) for the spec syntax. The consumer
/// defaults to the empty string (the Public consumer) with no claims;
/// use [`with_consumer`](Self::with_consumer) to set both.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Topology {
    shards: Vec<ShardSite>,
    consumer: String,
    claims: Vec<String>,
}

impl Topology {
    /// Parses a spec string — see the [module docs](self) for syntax.
    ///
    /// Refused with a typed [`ClientError::BadTopology`]: an empty spec,
    /// an empty address anywhere in it, more than
    /// [`MAX_SHARDS`] shards, or more than [`MAX_REPLICAS`] replicas on
    /// one shard.
    pub fn parse(spec: &str) -> Result<Topology, ClientError> {
        let bad = |reason: String| ClientError::BadTopology(reason);
        if spec.trim().is_empty() {
            return Err(bad("empty topology spec".to_string()));
        }
        let mut shards = Vec::new();
        for (slot, entry) in spec.split(',').enumerate() {
            let mut addrs = entry.split('+').map(str::trim);
            let primary = addrs.next().unwrap_or("");
            if primary.is_empty() {
                return Err(bad(format!("shard {slot} has an empty primary address")));
            }
            let mut replicas = Vec::new();
            for addr in addrs {
                if addr.is_empty() {
                    return Err(bad(format!("shard {slot} has an empty replica address")));
                }
                replicas.push(addr.to_string());
            }
            if replicas.len() > MAX_REPLICAS as usize {
                return Err(bad(format!(
                    "shard {slot} names {} replicas, the wire caps at {MAX_REPLICAS}",
                    replicas.len()
                )));
            }
            shards.push(ShardSite {
                primary: primary.to_string(),
                replicas,
            });
        }
        if shards.len() > MAX_SHARDS as usize {
            return Err(bad(format!(
                "{} shards named, the wire caps at {MAX_SHARDS}",
                shards.len()
            )));
        }
        Ok(Topology {
            shards,
            consumer: String::new(),
            claims: Vec::new(),
        })
    }

    /// A topology of bare primaries (no replicas), in shard order.
    pub fn from_peers(
        peers: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<Topology, ClientError> {
        let shards: Vec<ShardSite> = peers
            .into_iter()
            .map(|p| ShardSite {
                primary: p.into(),
                replicas: Vec::new(),
            })
            .collect();
        if shards.is_empty() {
            return Err(ClientError::BadTopology("empty peer list".to_string()));
        }
        if shards.len() > MAX_SHARDS as usize {
            return Err(ClientError::BadTopology(format!(
                "{} shards named, the wire caps at {MAX_SHARDS}",
                shards.len()
            )));
        }
        if let Some(slot) = shards.iter().position(|s| s.primary.is_empty()) {
            return Err(ClientError::BadTopology(format!(
                "shard {slot} has an empty primary address"
            )));
        }
        Ok(Topology {
            shards,
            consumer: String::new(),
            claims: Vec::new(),
        })
    }

    /// Sets the consumer identity clients built from this topology dial
    /// with (empty = the Public consumer).
    pub fn with_consumer(
        mut self,
        consumer: impl Into<String>,
        claims: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        self.consumer = consumer.into();
        self.claims = claims.into_iter().map(Into::into).collect();
        self
    }

    /// How many shards the topology describes.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Whether the topology describes no shards at all (only possible
    /// via [`Default`]; parsing refuses empty specs).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The per-shard sites, in shard order.
    pub fn shards(&self) -> &[ShardSite] {
        &self.shards
    }

    /// Shard `slot`'s primary address, if the slot is in range.
    pub fn primary(&self, slot: u32) -> Option<&str> {
        self.shards.get(slot as usize).map(|s| s.primary.as_str())
    }

    /// Shard `slot`'s replica addresses (empty when out of range).
    pub fn replicas(&self, slot: u32) -> &[String] {
        self.shards
            .get(slot as usize)
            .map(|s| s.replicas.as_slice())
            .unwrap_or(&[])
    }

    /// Every shard's primary address, in shard order.
    pub fn primaries(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.primary.clone()).collect()
    }

    /// Every shard's replica addresses, in shard order — what a shard
    /// server announces in its `ShardStatus` answers.
    pub fn replica_table(&self) -> Vec<Vec<String>> {
        self.shards.iter().map(|s| s.replicas.clone()).collect()
    }

    /// Shard `slot`'s candidate addresses for resolving the writable
    /// endpoint: the primary first, then the replicas.
    pub fn candidates(&self, slot: u32) -> Vec<String> {
        let Some(site) = self.shards.get(slot as usize) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(1 + site.replicas.len());
        out.push(site.primary.clone());
        out.extend(site.replicas.iter().cloned());
        out
    }

    /// The consumer identity (empty = the Public consumer).
    pub fn consumer(&self) -> &str {
        &self.consumer
    }

    /// The predicate claims to present at handshake time.
    pub fn claims(&self) -> &[String] {
        &self.claims
    }

    /// The keyspace map this topology implies. Fails with
    /// [`ClientError::BadTopology`] on an empty topology.
    pub fn map(&self) -> Result<ShardMap, ClientError> {
        ShardMap::new(self.shard_count())
            .ok_or_else(|| ClientError::BadTopology("empty topology has no keyspace".to_string()))
    }
}

/// Resolves a site's current **writable primary**: dials `last_good`
/// first, then `candidates` in order (each address once), asks each for
/// its [`ReplicaStatus`] through `probe`, appends the `primary_addr`
/// breadcrumbs replicas leave — so a promoted node is found even when it
/// was never configured — and returns the first node that identifies as
/// a primary, with the address that answered and its status. Fails with
/// the last candidate's error when every one is down or read-only.
///
/// `probe` dials and handshakes one address; the gather's feeds and
/// [`ClientPool::writable`](crate::ClientPool::writable) share this walk
/// over their own connection types.
pub(crate) fn resolve_writable<'a, C>(
    last_good: Option<String>,
    candidates: impl IntoIterator<Item = &'a String>,
    mut probe: impl FnMut(&str) -> Result<(C, ReplicaStatus), String>,
) -> Result<(C, String, ReplicaStatus), String> {
    let push = |list: &mut Vec<String>, addr: String| {
        if !addr.is_empty() && !list.contains(&addr) {
            list.push(addr);
        }
    };
    let mut list: Vec<String> = Vec::new();
    if let Some(addr) = last_good {
        push(&mut list, addr);
    }
    for addr in candidates {
        push(&mut list, addr.clone());
    }
    let mut last_error = "no candidate addresses".to_string();
    let mut next = 0;
    while next < list.len() {
        let addr = list[next].clone();
        next += 1;
        match probe(&addr) {
            Ok((conn, status)) if status.role == ReplicaRole::Primary => {
                return Ok((conn, addr, status))
            }
            Ok((_, status)) => {
                last_error = format!("{addr}: read-only replica, not a primary");
                if let Some(hint) = status.primary_addr {
                    push(&mut list, hint);
                }
            }
            Err(e) => last_error = format!("{addr}: {e}"),
        }
    }
    Err(last_error)
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, site) in self.shards.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            f.write_str(&site.primary)?;
            for replica in &site.replicas {
                write!(f, "+{replica}")?;
            }
        }
        Ok(())
    }
}

impl std::str::FromStr for Topology {
    type Err = ClientError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Topology::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_primaries_and_replicas() {
        let topo = Topology::parse("a:1+a:2+a:3,b:1,c:1+c:2").unwrap();
        assert_eq!(topo.shard_count(), 3);
        assert_eq!(topo.primaries(), ["a:1", "b:1", "c:1"]);
        assert_eq!(topo.replicas(0), ["a:2", "a:3"]);
        assert!(topo.replicas(1).is_empty());
        assert_eq!(topo.candidates(2), ["c:1", "c:2"]);
        assert_eq!(
            topo.replica_table(),
            [
                vec!["a:2".to_string(), "a:3".into()],
                vec![],
                vec!["c:2".into()]
            ]
        );
        assert_eq!(topo.map().unwrap().count(), 3);
        assert_eq!(topo.to_string(), "a:1+a:2+a:3,b:1,c:1+c:2");
        assert_eq!("a:1+a:2+a:3,b:1,c:1+c:2".parse::<Topology>().unwrap(), topo);
    }

    #[test]
    fn refuses_malformed_specs() {
        for spec in ["", "  ", "a:1,,b:1", "a:1+,b:1", ",a:1"] {
            assert!(
                matches!(Topology::parse(spec), Err(ClientError::BadTopology(_))),
                "spec {spec:?} should be refused"
            );
        }
    }

    #[test]
    fn refuses_oversized_topologies() {
        let peers: Vec<String> = (0..=MAX_SHARDS).map(|i| format!("p{i}:1")).collect();
        assert!(matches!(
            Topology::from_peers(peers),
            Err(ClientError::BadTopology(_))
        ));
        let mut spec = String::from("p:1");
        for i in 0..=MAX_REPLICAS {
            spec.push_str(&format!("+r{i}:1"));
        }
        assert!(matches!(
            Topology::parse(&spec),
            Err(ClientError::BadTopology(_))
        ));
        assert!(matches!(
            Topology::from_peers(Vec::<String>::new()),
            Err(ClientError::BadTopology(_))
        ));
    }

    #[test]
    fn consumer_identity_rides_along() {
        let topo = Topology::parse("a:1")
            .unwrap()
            .with_consumer("analyst", ["clearance"]);
        assert_eq!(topo.consumer(), "analyst");
        assert_eq!(topo.claims(), ["clearance"]);
    }

    /// Drives [`resolve_writable`] with a scripted fleet instead of
    /// sockets. `fleet` maps an address to its answer: `P` a primary,
    /// `R` a replica with no hint, `R>addr` a replica pointing at
    /// `addr`; an address not in the fleet refuses the dial.
    #[test]
    fn resolver_walks_candidates_and_follows_breadcrumbs() {
        struct Case {
            name: &'static str,
            last_good: Option<&'static str>,
            candidates: &'static [&'static str],
            fleet: &'static [(&'static str, &'static str)],
            dialled: &'static [&'static str],
            outcome: Result<&'static str, &'static str>,
        }
        let cases = [
            Case {
                name: "configured primary answers first",
                last_good: None,
                candidates: &["p", "r1"],
                fleet: &[("p", "P"), ("r1", "R")],
                dialled: &["p"],
                outcome: Ok("p"),
            },
            Case {
                name: "last-good is dialled before the configured primary",
                last_good: Some("r1"),
                candidates: &["p", "r1"],
                fleet: &[("p", "P"), ("r1", "P")],
                dialled: &["r1"],
                outcome: Ok("r1"),
            },
            Case {
                name: "duplicates (and blanks) are dialled once",
                last_good: Some("p"),
                candidates: &["p", "", "r1", "r1", "p"],
                fleet: &[("r1", "R")],
                dialled: &["p", "r1"],
                outcome: Err("r1: read-only replica, not a primary"),
            },
            Case {
                name: "a replica's breadcrumb is appended and followed",
                last_good: None,
                candidates: &["p", "r1"],
                fleet: &[("r1", "R>promoted"), ("promoted", "P")],
                dialled: &["p", "r1", "promoted"],
                outcome: Ok("promoted"),
            },
            Case {
                name: "a breadcrumb to a known address is not re-dialled",
                last_good: None,
                candidates: &["p", "r1"],
                fleet: &[("p", "R>r1"), ("r1", "R>p")],
                dialled: &["p", "r1"],
                outcome: Err("r1: read-only replica, not a primary"),
            },
            Case {
                name: "an all-dead list returns the last dial error",
                last_good: Some("gone"),
                candidates: &["p", "r1"],
                fleet: &[],
                dialled: &["gone", "p", "r1"],
                outcome: Err("r1: connection refused"),
            },
            Case {
                name: "no candidates at all",
                last_good: None,
                candidates: &[],
                fleet: &[],
                dialled: &[],
                outcome: Err("no candidate addresses"),
            },
        ];
        for case in cases {
            let candidates: Vec<String> = case.candidates.iter().map(|a| a.to_string()).collect();
            let mut dialled: Vec<String> = Vec::new();
            let resolved =
                resolve_writable(case.last_good.map(str::to_string), &candidates, |addr| {
                    dialled.push(addr.to_string());
                    let (_, answer) = case
                        .fleet
                        .iter()
                        .find(|(a, _)| *a == addr)
                        .ok_or("connection refused")?;
                    let (role, hint) = match answer.split_once('>') {
                        None if *answer == "P" => (ReplicaRole::Primary, None),
                        None => (ReplicaRole::Replica, None),
                        Some((_, hint)) => (ReplicaRole::Replica, Some(hint.to_string())),
                    };
                    let status = ReplicaStatus {
                        role,
                        local_epoch: 0,
                        primary_epoch: 0,
                        term: 0,
                        connected: true,
                        last_error: None,
                        primary_addr: hint,
                    };
                    // The "connection" is the address that produced it.
                    Ok((addr.to_string(), status))
                });
            assert_eq!(dialled, case.dialled, "{}: dial order", case.name);
            match (resolved, case.outcome) {
                (Ok((conn, addr, status)), Ok(expected)) => {
                    assert_eq!(addr, expected, "{}", case.name);
                    assert_eq!(conn, expected, "{}: connection of the winner", case.name);
                    assert_eq!(status.role, ReplicaRole::Primary, "{}", case.name);
                }
                (Err(e), Err(expected)) => assert_eq!(e, expected, "{}", case.name),
                (got, want) => panic!("{}: got {got:?}, want {want:?}", case.name),
            }
        }
    }
}
