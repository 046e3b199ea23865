//! `spgraph` — inspect, protect, query, measure, and administer PLUS
//! stores: single snapshot files *or* durable write-ahead-logged store
//! directories.
//!
//! ```text
//! spgraph demo <snapshot>                      write the paper's Figure 1 example
//! spgraph demo <dir> --durable                 the same example as a durable store
//! spgraph info <store>                         counts, lattice, high-water set, epoch
//! spgraph protect <store> -p <predicate> [--strategy surrogate|hide|naive]
//!                                  [--dot <file>]   summarize/export an account
//! spgraph query <store> -p <predicate> --root <id> [--direction up|down|both]
//!                                  [--depth <n>] [--strategy <s>]   protected lineage
//! spgraph measure <store> -p <predicate> [--threshold <t>]
//!                                              utilities, opacity, risk report
//! spgraph checkpoint <dir>                     snapshot the log, prune segments
//! spgraph recover <dir> [--verify]             recover; report what was replayed,
//!                                              truncated, or pruned
//! spgraph serve <store> [--addr a:p] [--threads n] [--allow-checkpoint]
//!               [--allow-replication] [--churn <ops/s>] [--max-conns n]
//!               [--rate-limit req/s] [--metrics-addr a:p]
//!                                              serve the protected query
//!                                              surface over TCP (trust boundary)
//!                                              with admission control and an
//!                                              optional Prometheus endpoint
//! spgraph serve <dir> --replicate-from <addr> [--addr a:p] [--threads n]
//!               [--allow-replication] [--churn <ops/s>]
//!                                              serve as a READ REPLICA: tail the
//!                                              primary's WAL into <dir> and serve
//!                                              the same queries at a lagging epoch
//!                                              (--churn arms a standby writer that
//!                                              activates on promotion)
//! spgraph promote <dir | addr>                 promote a replica to primary: bump
//!                                              the fencing term (live via its
//!                                              server, or offline on its directory)
//! spgraph status <addr> [--wait] [--timeout <secs>]
//!                                              a server's status: role, epochs,
//!                                              lag, term, link health, then its
//!                                              shard slot, the shard primaries
//!                                              and replicas, per-shard epochs
//! spgraph serve <dir> --shard <i>/<n> [--peers spec] [--addr a:p] [...]
//!                                              serve as SHARD i of an n-way
//!                                              partitioned deployment: owns the ids
//!                                              ≡ i (mod n), accepts remote writes
//!                                              for them, refuses the rest with
//!                                              typed redirects (implies
//!                                              --allow-replication, which feeds
//!                                              the gather); a vacant <dir> is
//!                                              seeded with an empty Public store
//! spgraph serve <dir> --shard <i>/<n> --replicate-from <addr> [...]
//!                                              serve as shard i's standby: tail
//!                                              the shard primary's WAL, refuse
//!                                              writes with a redirect breadcrumb,
//!                                              flip to writable shard primary on
//!                                              `spgraph promote`
//! spgraph serve --gather --peers spec [--addr a:p] [...]
//!                                              serve cross-shard queries: follow
//!                                              every shard's feed, merge into one
//!                                              order-canonical graph, stamp each
//!                                              answer with the per-shard epoch
//!                                              vector; refuse (never truncate)
//!                                              while any shard feed is down; a
//!                                              spec entry's +replicas are the
//!                                              slot's failover candidates
//!
//! The --peers spec names the whole deployment, one comma-separated
//! entry per shard in shard order; each entry is the shard's primary
//! optionally followed by +-joined replicas:
//! `primary0+standby0,primary1+standby1,...`.
//! spgraph write <addr> --node <label> [-p <predicate>]
//! spgraph write <addr> --edge <from>,<to> [--kind <k>]
//!                                              one remote write (the server must
//!                                              allow it); mis-routed writes follow
//!                                              one WrongShard redirect
//! spgraph query --remote <addr> -p <predicate> --root <id> [...]
//!                                              the same lineage query, answered
//!                                              by a remote spgraph serve
//! ```
//!
//! `<store>` is a snapshot file or a durable store directory — directory
//! arguments are recovered via the write-ahead log before serving. All
//! commands route through the `AccountService` serving layer, the same
//! concurrent surface a deployment would put in front of the store;
//! `serve` binds that surface to a socket so the unprotected store never
//! leaves this process, and `query --remote` produces byte-identical
//! output to a local `query` against the same store state.
//! Argument parsing is deliberately dependency-free.

use std::process::ExitCode;
use std::sync::Arc;

use surrogate_parenthood::plus_store::{
    ingest, AccountService, Direction, IngestKinds, QueryRequest, Snapshot, Store,
};
use surrogate_parenthood::prelude::*;

/// CLI-level result: user-facing error strings.
type CliResult<T> = std::result::Result<T, String>;
use surrogate_parenthood::surrogate_core::dot::{account_to_dot, graph_to_dot};
use surrogate_parenthood::surrogate_core::hw::high_water_set;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  spgraph demo <snapshot | dir --durable>\n  spgraph info <store>\n  \
         spgraph protect <store> -p <predicate> [--strategy surrogate|hide|naive] [--dot <file>]\n  \
         spgraph query <store> -p <predicate> --root <id> [--direction up|down|both] [--depth <n>] [--strategy <s>]\n  \
         spgraph measure <store> -p <predicate> [--threshold <t>]\n  \
         spgraph checkpoint <dir>\n  spgraph recover <dir> [--verify]\n  \
         spgraph serve <store> [--addr <addr:port>] [--threads <n>] [--allow-checkpoint] [--allow-replication] [--churn <ops/s>]\n  \
         \u{20}             [--max-conns <n>] [--rate-limit <req/s>] [--metrics-addr <addr:port>]\n  \
         spgraph serve <dir> --replicate-from <addr:port> [--addr <addr:port>] [--threads <n>] [--allow-replication] [--churn <ops/s>]\n  \
         spgraph serve <dir> --shard <i>/<n> [--peers <primary[+replica...],...>] [--replicate-from <addr:port>] [--addr <addr:port>] [--threads <n>]\n  \
         spgraph serve --gather --peers <primary[+replica...],...> [--addr <addr:port>] [--threads <n>]\n  \
         spgraph promote <dir | addr:port>\n  \
         spgraph status <addr:port> [--wait] [--timeout <secs>]\n  \
         spgraph write <addr:port> (--node <label> [-p <predicate>] | --edge <from>,<to> [--kind input-to|generated-by|triggered-by|related])\n  \
         spgraph query --remote <addr:port> -p <predicate> --root <id> [--direction up|down|both] [--depth <n>] [--strategy <s>]\n\
         <store> is a snapshot file or a durable (write-ahead-logged) store directory"
    );
    ExitCode::from(2)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses the `--peers` deployment spec into a
/// [`Topology`](surrogate_parenthood::server::Topology); `None`
/// when the flag is absent. One comma-separated entry per shard, in
/// shard order; each entry is the shard's primary optionally followed
/// by `+`-joined replica addresses (the shard's failover candidates):
/// `primary0+replica0a+replica0b,primary1,...`.
fn parse_peers(args: &[String]) -> CliResult<Option<surrogate_parenthood::server::Topology>> {
    let Some(raw) = flag_value(args, "--peers") else {
        return Ok(None);
    };
    surrogate_parenthood::server::Topology::parse(&raw)
        .map(Some)
        .map_err(|e| format!("bad --peers {raw:?}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let result = match command.as_str() {
        "demo" => cmd_demo(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "protect" => cmd_protect(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "measure" => cmd_measure(&args[1..]),
        "checkpoint" => cmd_checkpoint(&args[1..]),
        "recover" => cmd_recover(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "promote" => cmd_promote(&args[1..]),
        "status" => cmd_status(&args[1..]),
        "write" => cmd_write(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Loads a snapshot file — or recovers a durable store directory,
/// read-only, so inspecting a store never mutates it (and is safe next
/// to a live writer) — and stands the serving layer up in front of it.
fn serve(args: &[String]) -> CliResult<(AccountService, String)> {
    let path = args.first().ok_or("missing store path")?;
    let store = if std::path::Path::new(path).is_dir() {
        Store::open_read_only(path).map_err(|e| format!("cannot load {path}: {e}"))?
    } else {
        Store::load(path).map_err(|e| format!("cannot load {path}: {e}"))?
    };
    Ok((AccountService::new(Arc::new(store)), path.clone()))
}

fn resolve_predicate(snapshot: &Snapshot, args: &[String]) -> CliResult<PrivilegeId> {
    let name = flag_value(args, "-p")
        .or_else(|| flag_value(args, "--predicate"))
        .ok_or("missing -p <predicate>")?;
    snapshot
        .lattice
        .by_name(&name)
        .ok_or_else(|| format!("unknown predicate {name:?}"))
}

fn resolve_strategy(args: &[String]) -> CliResult<Strategy> {
    match flag_value(args, "--strategy") {
        None => Ok(Strategy::Surrogate),
        Some(name) => Strategy::parse(&name).ok_or_else(|| format!("unknown strategy {name:?}")),
    }
}

/// Writes the paper's Figure 1 example (graph, lattice, scenario (d)
/// policy) as a snapshot — or, with `--durable`, as a durable store
/// directory whose appends are write-ahead logged.
fn cmd_demo(args: &[String]) -> CliResult<()> {
    let path = args.first().ok_or("missing snapshot path")?;
    let durable = args.iter().any(|a| a == "--durable");
    let fig = surrogate_parenthood::graphgen::Figure2::new(
        surrogate_parenthood::graphgen::Figure2Scenario::D,
    );
    let store = ingest(
        &fig.base.graph,
        &fig.base.lattice,
        &fig.markings,
        &fig.catalog,
        IngestKinds::default(),
    )
    .map_err(|e| e.to_string())?;
    if durable {
        store.save_durable(path).map_err(|e| e.to_string())?;
        // Opening attaches the write-ahead log, so the directory is
        // immediately ready for durable appends and `recover --verify`.
        Store::open(path).map_err(|e| e.to_string())?;
    } else {
        store.save(path).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote the Figure 1/2(d) example to {path}: {} nodes, {} edges{}",
        store.node_count(),
        store.edge_count(),
        if durable { " (durable)" } else { "" }
    );
    println!("try: spgraph info {path}");
    println!("     spgraph protect {path} -p High-2");
    println!("     spgraph query {path} -p High-2 --root 7 --direction up");
    println!("     spgraph measure {path} -p High-2");
    if durable {
        println!("     spgraph checkpoint {path}");
        println!("     spgraph recover {path} --verify");
    }
    Ok(())
}

/// Folds the write-ahead log into a fresh snapshot and prunes what it
/// supersedes.
fn cmd_checkpoint(args: &[String]) -> CliResult<()> {
    let dir = args.first().ok_or("missing store directory")?;
    let store = Store::open(dir).map_err(|e| format!("cannot open {dir}: {e}"))?;
    let stats = store.checkpoint().map_err(|e| e.to_string())?;
    println!(
        "checkpointed {dir} at clock {}: {} snapshot bytes, pruned {} segment(s) and {} snapshot(s)",
        stats.clock, stats.snapshot_bytes, stats.pruned_segments, stats.pruned_snapshots
    );
    Ok(())
}

/// Recovers a durable store directory and reports what recovery found;
/// with `--verify`, additionally proves the recovered state is
/// self-consistent and servable.
fn cmd_recover(args: &[String]) -> CliResult<()> {
    let dir = args.first().ok_or("missing store directory")?;
    let verify = args.iter().any(|a| a == "--verify");
    let (store, report) = Store::open_reporting(dir, Default::default())
        .map_err(|e| format!("cannot recover {dir}: {e}"))?;

    match &report.snapshot {
        Some((path, clock)) => println!(
            "recovered {dir} from snapshot {} (clock {clock})",
            path.display()
        ),
        None => println!("recovered {dir}"),
    }
    for path in &report.corrupt_snapshots {
        println!("  skipped corrupt snapshot {}", path.display());
    }
    println!(
        "  replayed {} record(s) from {} segment(s); clock {}",
        report.records_replayed, report.segments_scanned, report.clock
    );
    if let Some(t) = &report.truncated {
        println!(
            "  truncated {} at byte {} ({} byte(s) dropped): {}",
            t.segment.display(),
            t.offset,
            t.dropped_bytes,
            t.reason
        );
    }
    for path in &report.orphaned_segments {
        println!("  removed unreachable segment {}", path.display());
    }

    if verify {
        // Clock arithmetic: recovered clock = snapshot clock + replay.
        let snapshot_clock = report.snapshot.as_ref().map_or(0, |&(_, c)| c);
        if store.clock() != snapshot_clock + report.records_replayed {
            return Err(format!(
                "verify failed: clock {} != snapshot {} + {} replayed",
                store.clock(),
                snapshot_clock,
                report.records_replayed
            ));
        }
        // The recovered state re-encodes to a decodable, stable snapshot.
        let bytes = store.to_bytes();
        let reencoded = Store::from_bytes(&bytes)
            .map_err(|e| format!("verify failed: recovered state does not re-encode: {e}"))?;
        if reencoded.to_bytes() != bytes {
            return Err("verify failed: re-encoding is not stable".to_string());
        }
        // The recovered store materializes and serves a protected account
        // at the recovered epoch.
        let service = AccountService::new(Arc::new(store));
        let snapshot = service.snapshot();
        if snapshot.epoch() != reencoded.clock() {
            return Err("verify failed: serving epoch diverges from recovered clock".to_string());
        }
        let consumer = Consumer::public(&snapshot.lattice);
        let account = service
            .get_account(&consumer, &Strategy::Surrogate)
            .map_err(|e| format!("verify failed: cannot serve a public account: {e}"))?;
        println!(
            "verify: ok — epoch {}, {} node(s) materialized, {} visible to Public",
            snapshot.epoch(),
            snapshot.graph.node_count(),
            account.graph().node_count()
        );
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> CliResult<()> {
    let (service, path) = serve(args)?;
    let snapshot = service.snapshot();
    let store = service.store().expect("serve() fronts a live store");
    println!("snapshot {path}");
    println!(
        "  {} node records, {} edge records, {} policy statements (epoch {})",
        store.node_count(),
        store.edge_count(),
        store.policy_count(),
        snapshot.epoch()
    );
    println!("  predicates:");
    for p in snapshot.lattice.ids() {
        let dominated: Vec<&str> = snapshot
            .lattice
            .ids()
            .filter(|&q| q != p && snapshot.lattice.dominates(p, q))
            .map(|q| snapshot.lattice.name(q))
            .collect();
        println!(
            "    {} {}",
            snapshot.lattice.name(p),
            if dominated.is_empty() {
                String::new()
            } else {
                format!("(dominates {})", dominated.join(", "))
            }
        );
    }
    let hw = high_water_set(&snapshot.graph, &snapshot.lattice);
    let names: Vec<&str> = hw.iter().map(|&p| snapshot.lattice.name(p)).collect();
    println!("  high-water set: {{{}}}", names.join(", "));
    println!(
        "  connected: {}, acyclic: {}",
        snapshot.graph.is_connected(),
        snapshot.graph.is_acyclic()
    );
    let strategies: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
    println!("  strategies: {}", strategies.join(", "));
    Ok(())
}

fn cmd_protect(args: &[String]) -> CliResult<()> {
    let (service, _) = serve(args)?;
    let snapshot = service.snapshot();
    let predicate = resolve_predicate(&snapshot, args)?;
    let strategy = resolve_strategy(args)?;
    let account = service
        .protect(&[predicate], &strategy)
        .map_err(|e| e.to_string())?;
    println!(
        "protected account for {:?} ({strategy}), epoch {}:",
        snapshot.lattice.name(predicate),
        snapshot.epoch()
    );
    println!(
        "  {} of {} nodes visible ({} surrogate)",
        account.graph().node_count(),
        snapshot.graph.node_count(),
        account.surrogate_node_count()
    );
    println!(
        "  {} edges ({} surrogate)",
        account.graph().edge_count(),
        account.surrogate_edge_count()
    );
    println!(
        "  path utility {:.3}, node utility {:.3}",
        path_utility(&snapshot.graph, &account),
        node_utility(&snapshot.graph, &account)
    );
    if let Some(dot_path) = flag_value(args, "--dot") {
        std::fs::write(&dot_path, account_to_dot(&account, "protected account"))
            .map_err(|e| e.to_string())?;
        println!("  DOT written to {dot_path}");
    }
    if let Some(dot_path) = flag_value(args, "--dot-original") {
        std::fs::write(&dot_path, graph_to_dot(&snapshot.graph, "original"))
            .map_err(|e| e.to_string())?;
        println!("  original DOT written to {dot_path}");
    }
    Ok(())
}

/// The query flags shared by the local and remote paths: root,
/// direction, depth bound, strategy.
fn parse_query_shape(args: &[String]) -> CliResult<(u32, Direction, u32, Strategy)> {
    let root: u32 = flag_value(args, "--root")
        .ok_or("missing --root <record id>")?
        .parse()
        .map_err(|_| "bad --root: expected a record index".to_string())?;
    let direction = match flag_value(args, "--direction").as_deref() {
        None | Some("up") | Some("upstream") => Direction::Backward,
        Some("down") | Some("downstream") => Direction::Forward,
        Some("both") => Direction::Both,
        Some(other) => return Err(format!("unknown direction {other:?}")),
    };
    let max_depth: u32 = flag_value(args, "--depth")
        .map(|d| d.parse().map_err(|_| format!("bad depth {d:?}")))
        .transpose()?
        .unwrap_or(u32::MAX);
    let strategy = resolve_strategy(args)?;
    Ok((root, direction, max_depth, strategy))
}

/// Renders a lineage answer — one shared renderer, so a remote query is
/// byte-identical to a local one against the same store state.
fn print_lineage(
    root: u32,
    predicate_name: &str,
    strategy: Strategy,
    response: &surrogate_parenthood::plus_store::QueryResponse,
) {
    println!(
        "lineage of record {root} for {predicate_name:?} ({strategy}), epoch {}:",
        response.epoch
    );
    if response.rows.is_empty() {
        println!("  (root invisible to this consumer, or nothing reachable)");
    }
    for row in &response.rows {
        println!(
            "  depth {} | record {} | {}{}",
            row.depth,
            row.record.0,
            row.label,
            if row.surrogate { "  [surrogate]" } else { "" }
        );
    }
}

/// Protected lineage through the batch query API: what a consumer holding
/// the predicate actually sees upstream/downstream of a record. With
/// `--remote <addr>`, the same question is answered by an `spgraph serve`
/// across the wire instead of a locally opened store.
fn cmd_query(args: &[String]) -> CliResult<()> {
    if let Some(addr) = flag_value(args, "--remote") {
        return cmd_query_remote(&addr, args);
    }
    let (service, _) = serve(args)?;
    let snapshot = service.snapshot();
    let predicate = resolve_predicate(&snapshot, args)?;
    let (root, direction, max_depth, strategy) = parse_query_shape(args)?;

    let consumer = Consumer::new("spgraph", &snapshot.lattice, &[predicate]);
    let request = QueryRequest::new(
        surrogate_parenthood::plus_store::RecordId(root),
        direction,
        max_depth,
        strategy,
    )
    .with_predicate(predicate);
    let response = service
        .query(&consumer, &request)
        .map_err(|e| e.to_string())?;
    print_lineage(root, snapshot.lattice.name(predicate), strategy, &response);
    Ok(())
}

/// The remote arm of `query`: connect to an `spgraph serve`, claim the
/// predicate by name, resolve it against the handshake lattice, and
/// render through the same printer as the local arm.
fn cmd_query_remote(addr: &str, args: &[String]) -> CliResult<()> {
    let name = flag_value(args, "-p")
        .or_else(|| flag_value(args, "--predicate"))
        .ok_or("missing -p <predicate>")?;
    let (root, direction, max_depth, strategy) = parse_query_shape(args)?;
    let mut client = surrogate_parenthood::Client::connect(addr, "spgraph", &[name.as_str()])
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let predicate = client
        .predicate(&name)
        .ok_or_else(|| format!("unknown predicate {name:?}"))?;
    let request = QueryRequest::new(
        surrogate_parenthood::plus_store::RecordId(root),
        direction,
        max_depth,
        strategy,
    )
    .with_predicate(predicate);
    let response = client.query(&request).map_err(|e| e.to_string())?;
    print_lineage(root, &name, strategy, &response);
    Ok(())
}

/// Binds the protected query surface to a TCP socket: the trust
/// boundary. The unprotected store stays in this process; remote
/// consumers only ever receive protected `QueryResponse` rows.
///
/// With `--replicate-from`, this process is a **read replica** instead:
/// it tails the named primary's write-ahead log into its own durable
/// directory and re-serves the same queries at a coherent (possibly
/// lagging) epoch.
fn cmd_serve(args: &[String]) -> CliResult<()> {
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7654".to_string());
    let threads: Option<usize> = flag_value(args, "--threads")
        .map(|t| t.parse().map_err(|_| format!("bad --threads {t:?}")))
        .transpose()?;
    let mut config = surrogate_parenthood::server::ServerConfig::default();
    if let Some(threads) = threads {
        config.threads = threads.max(1);
    }
    if let Some(cap) = flag_value(args, "--max-conns") {
        config.max_conns = cap
            .parse::<usize>()
            .map_err(|_| format!("bad --max-conns {cap:?}"))?
            .max(1);
    }
    if let Some(rate) = flag_value(args, "--rate-limit") {
        let rate: u64 = rate
            .parse()
            .map_err(|_| format!("bad --rate-limit {rate:?}"))?;
        config.rate_limit = (rate > 0).then_some(rate);
    }
    if let Some(metrics) = flag_value(args, "--metrics-addr") {
        config.metrics_addr = Some(
            metrics
                .parse()
                .map_err(|_| format!("bad --metrics-addr {metrics:?}"))?,
        );
    }
    // Idle connections cost a file descriptor each; ask the kernel for
    // enough headroom to actually reach the configured cap. Best effort:
    // a refusal leaves the default limit, it does not stop the server.
    let fd_limit =
        surrogate_parenthood::server::raise_nofile_limit(config.max_conns as u64 + 512).ok();

    // A gather node owns no store: it follows every shard's replication
    // feed into an in-memory merged graph and serves cross-shard
    // queries over it.
    if args.iter().any(|a| a == "--gather") {
        let topology = parse_peers(args)?.ok_or(
            "--gather needs --peers <primary[+replica...],...> (one entry per shard, in shard order)",
        )?;
        let gather = Arc::new(
            surrogate_parenthood::server::Gather::start_topology(
                &topology,
                surrogate_parenthood::server::GatherConfig::default(),
            )
            .map_err(|e| format!("cannot start gather: {e}"))?,
        );
        let synced = gather.wait_synced(std::time::Duration::from_secs(10));
        config.role = surrogate_parenthood::server::Role::Gather {
            gather: gather.clone(),
        };
        let server = Server::bind(gather.service().clone(), &addr as &str, &config)
            .map_err(|e| format!("cannot bind {addr}: {e}"))?;
        println!(
            "gather over {} shard(s) [{topology}] serving on {} ({})",
            gather.shard_count(),
            server.local_addr(),
            if synced {
                "all feeds synced".to_string()
            } else {
                "still syncing; queries are refused until every feed connects".to_string()
            }
        );
        println!("read-only: writes are redirected to the owning shard");
        serve_forever(&server);
    }

    let path = args.first().ok_or("missing store path")?;

    // One shard node of a partitioned deployment: a durable store over
    // this shard's residue class, remote writes on, replication on (the
    // gather follows the shard feeds). With `--replicate-from` it is the
    // shard's standby instead: it tails the shard primary's WAL and
    // refuses writes (with a redirect breadcrumb) until promoted.
    if let Some(spec) = flag_value(args, "--shard") {
        let (index, count) = spec
            .split_once('/')
            .and_then(|(i, n)| Some((i.parse::<u32>().ok()?, n.parse::<u32>().ok()?)))
            .ok_or_else(|| format!("bad --shard {spec:?}: expected <i>/<n>, e.g. 0/2"))?;
        let partition = surrogate_parenthood::surrogate_core::shard::Partition::new(index, count)
            .ok_or_else(|| format!("bad --shard {spec:?}: need i < n and n > 0"))?;
        let topology = parse_peers(args)?.unwrap_or_default();
        // The gather follows this shard's WAL feed; without replication
        // the deployment has writes but no cross-shard reads.
        config.allow_replication = true;
        config.allow_remote_checkpoint = args.iter().any(|a| a == "--allow-checkpoint");

        // Shard replica: tail the shard primary, serve read-only,
        // flip to writable shard primary on `spgraph promote`.
        if let Some(primary) = flag_value(args, "--replicate-from") {
            let replica = surrogate_parenthood::Replica::start(&primary, path).map_err(|e| {
                format!("cannot replicate shard {index}/{count} from {primary}: {e}")
            })?;
            if replica.store().partition() != Some(partition) {
                return Err(format!(
                    "{primary} ships a store partitioned {:?}, not shard {index}/{count}: \
                     --replicate-from must name this shard's primary",
                    replica.store().partition()
                ));
            }
            let epoch = replica.epoch();
            config.role = surrogate_parenthood::server::Role::Shard {
                index,
                count,
                topology,
                feed: Some(replica.monitor()),
            };
            let server = Server::bind(replica.service().clone(), &addr as &str, &config)
                .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            println!(
                "shard {index}/{count} REPLICA of {primary} serving {path} on {} (epoch {epoch}, lag {})",
                server.local_addr(),
                replica.lag()
            );
            println!(
                "read-only until promoted (spgraph promote {}); writes are redirected to the primary",
                server.local_addr()
            );
            serve_forever(&server);
        }

        let store = if is_vacant(path) {
            Store::create_durable_partitioned(path, &["Public"], &[], Default::default(), partition)
                .map_err(|e| format!("cannot create shard store {path}: {e}"))?
        } else {
            let store = Store::open(path).map_err(|e| format!("cannot load {path}: {e}"))?;
            if store.partition() != Some(partition) {
                return Err(format!(
                    "{path} is partitioned {:?}, not shard {index}/{count}; a shard's slice is fixed at creation",
                    store.partition()
                ));
            }
            store
        };
        let service = Arc::new(AccountService::new(Arc::new(store)));
        let epoch = service.epoch();
        config.role = surrogate_parenthood::server::Role::Shard {
            index,
            count,
            topology,
            feed: None,
        };
        let server = Server::bind(service, &addr as &str, &config)
            .map_err(|e| format!("cannot bind {addr}: {e}"))?;
        println!(
            "shard {index}/{count} serving {path} on {} (epoch {epoch}, owns ids \u{2261} {index} mod {count})",
            server.local_addr()
        );
        println!(
            "remote writes on (trust-domain socket); point reads only — traversals go to a gather"
        );
        serve_forever(&server);
    }

    if let Some(primary) = flag_value(args, "--replicate-from") {
        if args.iter().any(|a| a == "--allow-checkpoint") {
            return Err("--allow-checkpoint applies to a primary, not a replica".to_string());
        }
        // Opting in up front lets a promoted replica feed rejoining
        // peers (and accept `spgraph promote`) without a restart.
        config.allow_replication = args.iter().any(|a| a == "--allow-replication");
        let standby_churn: Option<u64> = flag_value(args, "--churn")
            .map(|c| c.parse().map_err(|_| format!("bad --churn {c:?}")))
            .transpose()?;
        let replica = surrogate_parenthood::Replica::start(&primary, path)
            .map_err(|e| format!("cannot replicate from {primary}: {e}"))?;
        let epoch = replica.epoch();
        config.role = surrogate_parenthood::server::Role::Replica {
            feed: replica.monitor(),
        };
        let server = Server::bind(replica.service().clone(), &addr as &str, &config)
            .map_err(|e| format!("cannot bind {addr}: {e}"))?;
        println!(
            "replica of {primary} serving {path} on {} (epoch {epoch}, lag {}, {} worker threads)",
            server.local_addr(),
            replica.lag(),
            config.threads
        );
        println!("read-only: this replica applies the primary's log and serves queries");
        // A standby writer: inert while the node is a replica, it starts
        // appending the moment the node is promoted — so a failover
        // smoke can prove writes land on the new primary.
        if let Some(rate) = standby_churn.filter(|&r| r > 0) {
            let monitor = replica.monitor();
            let store = replica.store().clone();
            std::thread::spawn(move || {
                while !monitor.is_promoted() {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                // No Public predicate: nothing safe to append.
                if let Some(public) = store.predicate("Public") {
                    append_churn(&store, public, rate, "churn-promoted");
                }
            });
        }
        serve_forever(&server);
    }

    // Writable open (unlike the read-only inspection commands): a serving
    // process is the store's single attached writer, so remote
    // `Checkpoint` requests can fold the log.
    let store = if args.iter().any(|a| a == "--create") && is_vacant(path) {
        Store::create_durable(path, &["Public"], &[])
            .map_err(|e| format!("cannot create {path}: {e}"))?
    } else if std::path::Path::new(path).is_dir() {
        Store::open(path).map_err(|e| format!("cannot load {path}: {e}"))?
    } else {
        Store::load(path).map_err(|e| format!("cannot load {path}: {e}"))?
    };
    let store = Arc::new(store);
    let service = Arc::new(AccountService::new(store.clone()));
    // Remote checkpoints drive owner-side disk I/O; an operator must
    // opt in to expose them on the socket.
    config.allow_remote_checkpoint = args.iter().any(|a| a == "--allow-checkpoint");
    // Replication ships RAW records — owner-side trust domain only.
    config.allow_replication = args.iter().any(|a| a == "--allow-replication");
    // Remote writes mutate the store — same opt-in discipline.
    config.allow_remote_write = args.iter().any(|a| a == "--allow-write");
    let churn: Option<u64> = flag_value(args, "--churn")
        .map(|c| c.parse().map_err(|_| format!("bad --churn {c:?}")))
        .transpose()?;
    // Validate churn preconditions *before* binding: a server that
    // prints its banner and then dies on a usage error strands scripts
    // that background it after seeing the banner.
    let churn_writer = match churn.filter(|&r| r > 0) {
        Some(rate) => {
            if !store.is_durable() {
                return Err("--churn needs a durable store directory".to_string());
            }
            let public = store
                .predicate("Public")
                .ok_or("--churn needs a 'Public' predicate in the lattice")?;
            Some((rate, public))
        }
        None => None,
    };
    let epoch = service.epoch();
    let nodes = service.snapshot().graph.node_count();
    let server = Server::bind(service, &addr as &str, &config)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "serving {path} on {} (epoch {epoch}, {nodes} nodes, {} worker threads{}{})",
        server.local_addr(),
        config.threads,
        if config.allow_replication {
            ", replication on"
        } else {
            ""
        },
        if churn.is_some() { ", churn on" } else { "" },
    );
    println!("only protected query responses cross this socket; stop with ^C");
    println!(
        "admission: {} connections max{}{}",
        config.max_conns,
        match config.rate_limit {
            Some(rate) => format!(", {rate} req/s per consumer"),
            None => String::new(),
        },
        match fd_limit {
            Some(limit) => format!(", fd limit {limit}"),
            None => String::new(),
        },
    );
    if let Some((rate, public)) = churn_writer {
        std::thread::spawn(move || append_churn(&store, public, rate, "churn"));
    }
    serve_forever(&server);
}

/// Whether `path` is an empty or absent directory a store can be made in.
fn is_vacant(path: &str) -> bool {
    match std::fs::read_dir(path) {
        Ok(mut entries) => entries.next().is_none(),
        Err(_) => !std::path::Path::new(path).exists(),
    }
}

/// The tail every `serve` shape shares: the machine-parseable lines,
/// a flush, and then serving until killed. The worker threads own all
/// the work; this thread only keeps the process (and `server`) alive.
fn serve_forever(server: &Server) -> ! {
    // Machine-parseable: scripts resolve `--addr :0` from this line.
    println!("listening on {}", server.local_addr());
    if let Some(metrics) = server.metrics_local_addr() {
        println!("metrics listening on {metrics}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

/// A synthetic writer, for exercising replication under load (the CI
/// smokes drive it): appends `rate` Public nodes per second, labelled
/// `<prefix>-<i>`, from inside the single-writer process. Returns at the
/// first failed append (a poisoned log); the server keeps serving.
fn append_churn(store: &Store, public: PrivilegeId, rate: u64, prefix: &str) {
    use surrogate_parenthood::plus_store::NodeKind;
    let pause = std::time::Duration::from_nanos(1_000_000_000 / rate.min(1_000_000));
    for i in 0u64.. {
        let label = format!("{prefix}-{i}");
        let features = Features::new().with("churn", i as i64);
        if store
            .try_append_node(label, NodeKind::Data, features, public)
            .is_err()
        {
            return;
        }
        std::thread::sleep(pause);
    }
}

/// Promotes a replica to primary, durably bumping the fencing term so
/// frames from the deposed primary are refused from that instant on.
/// The target is either a live replica server's address (preferred: the
/// running process flips role in place) or a stopped replica's store
/// directory (offline bump; serve it writable afterwards).
fn cmd_promote(args: &[String]) -> CliResult<()> {
    let target = args
        .first()
        .ok_or("missing target: a replica server address or a stopped replica's store directory")?;
    if std::path::Path::new(target).is_dir() {
        let store =
            Store::open(target).map_err(|e| format!("cannot open {target} for promotion: {e}"))?;
        let term = store
            .promote_term()
            .map_err(|e| format!("cannot promote {target}: {e}"))?;
        println!("{target} promoted offline: fencing term {term}");
        println!("serve it writable (spgraph serve {target} ...) to accept appends");
    } else {
        let mut client = surrogate_parenthood::Client::connect(target as &str, "spgraph", &[])
            .map_err(|e| format!("cannot reach {target}: {e}"))?;
        let term = client
            .promote()
            .map_err(|e| format!("cannot promote {target}: {e}"))?;
        println!("{target} promoted: fencing term {term}, accepting writes");
    }
    Ok(())
}

/// Asks any server for its status: the replication block, then the
/// shard block. With `--wait`, polls until the server reports a
/// connected, fully caught-up state (lag 0).
fn cmd_status(args: &[String]) -> CliResult<()> {
    let addr = args.first().ok_or("missing server address")?;
    let wait = args.iter().any(|a| a == "--wait");
    let timeout_secs: u64 = flag_value(args, "--timeout")
        .map(|t| t.parse().map_err(|_| format!("bad --timeout {t:?}")))
        .transpose()?
        .unwrap_or(30);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(timeout_secs);
    let (status, shards) = loop {
        let answer = surrogate_parenthood::Client::connect(addr as &str, "spgraph", &[])
            .map_err(|e| format!("cannot reach {addr}: {e}"))
            .and_then(|mut client| client.status().map_err(|e| e.to_string()));
        match answer {
            Ok((status, shards)) => {
                let caught_up = status.connected && status.lag() == 0;
                if !wait || caught_up {
                    break (status, shards);
                }
                if std::time::Instant::now() >= deadline {
                    return Err(format!(
                        "timed out after {timeout_secs}s waiting for catch-up: \
                         epoch {} vs primary {} (lag {}), connected: {}{}",
                        status.local_epoch,
                        status.primary_epoch,
                        status.lag(),
                        status.connected,
                        status
                            .last_error
                            .as_deref()
                            .map(|e| format!(", last error: {e}"))
                            .unwrap_or_default()
                    ));
                }
            }
            Err(e) => {
                if !wait || std::time::Instant::now() >= deadline {
                    return Err(e);
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    };
    println!("{addr} is a {}", status.role);
    println!(
        "  epoch {} | primary epoch {} | lag {} | term {}",
        status.local_epoch,
        status.primary_epoch,
        status.lag(),
        status.term
    );
    if let Some(primary) = &status.primary_addr {
        println!("  primary: {primary}");
    }
    println!(
        "  link: {}",
        if status.connected {
            "connected"
        } else {
            "disconnected"
        }
    );
    if let Some(error) = &status.last_error {
        println!("  last error: {error}");
    }
    if shards.count == 0 {
        println!("{addr} is unsharded");
    } else {
        match shards.index {
            Some(index) => println!("{addr} is shard {index}/{}", shards.count),
            None => println!("{addr} is a gather over {} shard(s)", shards.count),
        }
    }
    for (slot, epoch) in shards.epochs.iter().enumerate() {
        let primary = shards
            .primaries
            .get(slot)
            .map(|p| format!("  primary: {p}"))
            .unwrap_or_default();
        let replicas = shards
            .replicas
            .get(slot)
            .filter(|r| !r.is_empty())
            .map(|r| format!("  replicas: {}", r.join(", ")))
            .unwrap_or_default();
        println!(
            "  shard {slot}: epoch {epoch}{}{primary}{replicas}",
            if shards.index == Some(slot as u32) {
                "  [this server]"
            } else {
                ""
            }
        );
    }
    Ok(())
}

/// One remote write: a node append or an edge append, sent to `addr`.
/// A `WrongShard` refusal that names the owner's address is followed
/// once (the redirect discipline [`server::ShardRouter`] applies
/// programmatically).
fn cmd_write(args: &[String]) -> CliResult<()> {
    use surrogate_parenthood::plus_store::{EdgeKind, NodeKind, RecordId, WriteOp};
    let addr = args.first().ok_or("missing server address")?;
    let mut client = surrogate_parenthood::Client::connect(addr as &str, "spgraph", &[])
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let op = if let Some(label) = flag_value(args, "--node") {
        let name = flag_value(args, "-p")
            .or_else(|| flag_value(args, "--predicate"))
            .unwrap_or_else(|| "Public".to_string());
        let lowest = client
            .predicate(&name)
            .ok_or_else(|| format!("unknown predicate {name:?}"))?;
        WriteOp::AppendNode {
            label,
            kind: NodeKind::Data,
            features: Features::new(),
            lowest,
        }
    } else if let Some(edge) = flag_value(args, "--edge") {
        let (from, to) = edge
            .split_once(',')
            .and_then(|(f, t)| Some((f.trim().parse::<u32>().ok()?, t.trim().parse::<u32>().ok()?)))
            .ok_or_else(|| format!("bad --edge {edge:?}: expected <from>,<to>"))?;
        let kind = match flag_value(args, "--kind").as_deref() {
            None | Some("generated-by") => EdgeKind::GeneratedBy,
            Some("input-to") => EdgeKind::InputTo,
            Some("triggered-by") => EdgeKind::TriggeredBy,
            Some("related") => EdgeKind::Related,
            Some(other) => return Err(format!("unknown edge kind {other:?}")),
        };
        WriteOp::AppendEdge {
            from: RecordId(from),
            to: RecordId(to),
            kind,
        }
    } else {
        return Err("write needs --node <label> or --edge <from>,<to>".to_string());
    };
    let (clock, id) = match client.write(op.clone()) {
        Ok(ack) => ack,
        Err(e) => {
            // A WrongShard refusal whose message is the owner's address
            // is a redirect: retry there, once.
            let target = match &e {
                surrogate_parenthood::server::ClientError::Remote(remote)
                    if remote.kind
                        == surrogate_parenthood::plus_store::WireErrorKind::WrongShard
                        && remote.message.contains(':') =>
                {
                    remote.message.clone()
                }
                _ => return Err(e.to_string()),
            };
            let mut owner = surrogate_parenthood::Client::connect(target.as_str(), "spgraph", &[])
                .map_err(|e| format!("cannot reach redirect target {target}: {e}"))?;
            println!("redirected to owning shard {target}");
            owner.write(op).map_err(|e| e.to_string())?
        }
    };
    match id {
        Some(id) => println!("appended node {} at clock {clock}", id.0),
        None => println!("applied at clock {clock}"),
    }
    Ok(())
}

fn cmd_measure(args: &[String]) -> CliResult<()> {
    let (service, _) = serve(args)?;
    let snapshot = service.snapshot();
    let predicate = resolve_predicate(&snapshot, args)?;
    let threshold: f64 = flag_value(args, "--threshold")
        .map(|t| t.parse().map_err(|_| format!("bad threshold {t:?}")))
        .transpose()?
        .unwrap_or(0.5);
    let model = OpacityModel::default();
    let account = service
        .protect(&[predicate], &Strategy::Surrogate)
        .map_err(|e| e.to_string())?;
    println!(
        "measures for {:?} (surrogate strategy):",
        snapshot.lattice.name(predicate)
    );
    println!(
        "  path utility {:.3}",
        path_utility(&snapshot.graph, &account)
    );
    println!(
        "  node utility {:.3}",
        node_utility(&snapshot.graph, &account)
    );
    match average_protected_opacity(&snapshot.graph, &account, model) {
        Some(avg) => {
            let min = min_protected_opacity(&snapshot.graph, &account, model).expect("same set");
            println!("  opacity over protected edges: avg {avg:.3}, worst {min:.3}");
        }
        None => println!("  no protected edges: nothing to infer"),
    }
    let risky = edges_at_risk(&snapshot.graph, &account, model, threshold);
    println!(
        "  {} protected edge(s) below the {threshold} opacity bar",
        risky.len()
    );
    for entry in risky.iter().take(10) {
        let (u, v) = entry.edge;
        println!(
            "    {:.3}  {} -> {}",
            entry.opacity,
            snapshot.graph.node(u).label,
            snapshot.graph.node(v).label
        );
    }
    Ok(())
}
