//! `serve-mixed`: closed-loop clients sending `POST /query` over loopback
//! TCP to a real `serve::spawn` accept loop, every 200 body checked
//! byte-for-byte (the wall-clock `timings` object aside) against an
//! in-process `PreparedQuery::report().to_json()` of the same statement.
//! Also the serve-layer measurement a traced run of every workload makes.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use causal::Dag;
use causumx::Session;
use serve::{Handler, RunningServer, ServeOptions};
use table::Table;

use crate::layers::{layer_metrics, traced_query};
use crate::stream::{ClientStream, Request, Rng, Statement};
use crate::trace::Trace;
use crate::{
    generate, guarded, latency_metrics, median, new_session, timed_setup, Options, Outcome,
    Workload,
};

/// How long a client waits for a response before counting a failure.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// A running server over its own session.
struct Served {
    handler: Arc<Handler>,
    server: RunningServer,
}

fn serve_env(table: Table, dag: Dag) -> Served {
    let handler = Arc::new(Handler::new(
        Arc::new(new_session(table, dag)),
        ServeOptions::default(),
    ));
    let server = serve::spawn(Arc::clone(&handler), "127.0.0.1:0")
        .expect("binding an ephemeral loopback port succeeds");
    Served { handler, server }
}

/// One response as a client saw it.
struct Reply {
    status: u16,
    body: String,
    ms: f64,
}

/// Send one `POST /query` and read the whole response.
fn post(addr: SocketAddr, sql: &str) -> Result<(u16, String), String> {
    let io = |e: std::io::Error| format!("request to {addr}: {e}");
    let mut conn = TcpStream::connect(addr).map_err(io)?;
    conn.set_read_timeout(Some(CLIENT_TIMEOUT)).map_err(io)?;
    let head = format!(
        "POST /query HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        sql.len()
    );
    conn.write_all(head.as_bytes()).map_err(io)?;
    conn.write_all(sql.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).map_err(io)?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let status = text.get(9..12).and_then(|s| s.parse().ok());
    match (status, text.split_once("\r\n\r\n")) {
        (Some(status), Some((_, body))) => Ok((status, body.to_string())),
        _ => Err(format!("malformed response: {:.80}", text)),
    }
}

/// Run one client thread per source against `addr`. A client sends its
/// source's requests in order, each after the previous reply, until the
/// source ends or `deadline` passes. Returns each client's requests and
/// replies; with `trace`, a `serve.client` span per request (query id
/// `index × clients + client`) is appended to it.
fn tcp_clients<S>(
    addr: SocketAddr,
    sources: Vec<S>,
    deadline: Option<Instant>,
    mut trace: Option<&mut Trace>,
) -> Vec<Vec<(Request, Reply)>>
where
    S: Iterator<Item = Request> + Send,
{
    let clients = sources.len();
    let origin = Instant::now();
    let per_client: Vec<(Vec<(Request, Reply)>, Trace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .into_iter()
            .enumerate()
            .map(|(c, source)| {
                scope.spawn(move || {
                    let mut spans = Trace::new(origin);
                    let mut sent = Vec::new();
                    for req in source {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        let q = sent.len() * clients + c;
                        let t0 = Instant::now();
                        let (result, _) =
                            spans.time("serve.client", q, None, false, || post(addr, &req.sql));
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let (status, body) = result.unwrap_or_else(|e| (0, e));
                        sent.push((req, Reply { status, body, ms }));
                    }
                    (sent, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    per_client
        .into_iter()
        .map(|(sent, spans)| {
            if let Some(t) = trace.as_deref_mut() {
                t.absorb(spans);
            }
            sent
        })
        .collect()
}

/// Replay each client's request list through [`Handler::handle`] in
/// process, one thread per client as over TCP; `serve.handle` spans go
/// to `trace`.
fn handle_clients(handler: &Handler, lists: &[Vec<Request>], trace: &mut Trace) -> Vec<Vec<Reply>> {
    let clients = lists.len();
    let origin = Instant::now();
    let per_client: Vec<(Vec<Reply>, Trace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(c, list)| {
                scope.spawn(move || {
                    let mut spans = Trace::new(origin);
                    let replies = list
                        .iter()
                        .enumerate()
                        .map(|(i, req)| {
                            let http = serve::Request {
                                method: "POST".into(),
                                target: "/query".into(),
                                headers: Vec::new(),
                                body: req.sql.as_bytes().to_vec(),
                            };
                            let t0 = Instant::now();
                            let (resp, _) =
                                spans.time("serve.handle", i * clients + c, None, false, || {
                                    handler.handle(&http)
                                });
                            Reply {
                                status: resp.status,
                                body: String::from_utf8_lossy(&resp.body).into_owned(),
                                ms: t0.elapsed().as_secs_f64() * 1e3,
                            }
                        })
                        .collect();
                    (replies, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay threads do not panic"))
            .collect()
    });
    per_client
        .into_iter()
        .map(|(replies, spans)| {
            trace.absorb(spans);
            replies
        })
        .collect()
}

/// Drop the report's `"timings":{…}` object: wall-clock stage timings are
/// the one field of the report JSON that may differ between two runs.
fn strip_timings(body: &str) -> String {
    let Some(start) = body.find("\"timings\":{") else {
        return body.into();
    };
    let Some(len) = body[start..].find('}') else {
        return body.into();
    };
    let mut end = start + len + 1;
    if body[end..].starts_with(',') {
        end += 1;
    }
    format!("{}{}", &body[..start], &body[end..])
}

/// Reference answers: each statement's report JSON (timings stripped)
/// from an uncached prepare on a session of its own.
pub(crate) struct References {
    session: Session,
    answers: HashMap<String, Result<String, String>>,
}

impl References {
    fn new(table: &Table, dag: &Dag) -> Self {
        References {
            session: new_session(table.clone(), dag.clone()),
            answers: HashMap::new(),
        }
    }

    fn get(&mut self, stmt: &Statement) -> &Result<String, String> {
        let sql = stmt.canonical();
        let session = &self.session;
        self.answers.entry(sql.clone()).or_insert_with(|| {
            guarded(|| {
                let prepared = session.sql(&sql).map_err(|e| e.to_string())?;
                let summary = prepared.try_run().map_err(|e| e.to_string())?;
                Ok(strip_timings(&prepared.report(&summary).to_json()))
            })
        })
    }

    /// Check one served answer against the reference.
    fn check(&mut self, stmt: &Statement, status: u16, body: &str) -> Result<(), String> {
        if status != 200 {
            return Err(format!(
                "status {status} for `{}`: {:.160}",
                stmt.canonical(),
                body
            ));
        }
        match self.get(stmt) {
            Ok(expected) if *expected == strip_timings(body) => Ok(()),
            Ok(_) => Err(format!("served body differs for `{}`", stmt.canonical())),
            Err(e) => Err(format!("reference for `{}` failed: {e}", stmt.canonical())),
        }
    }
}

/// The statement sent once, untimed, before the measured pass. It is
/// neither a repeat nor a unique of the stream.
fn warm_statement() -> Statement {
    Statement {
        group_by: &["Continent"],
        avg: "Salary",
        from: "so",
        preds: vec![crate::stream::Pred {
            attr: "Age",
            op: ">=",
            value: 18,
        }],
    }
}

pub(crate) fn run(opts: &Options, out: &mut Outcome) {
    let w = Workload::ServeMixed;
    let clients = w.clients();
    let env = timed_setup(out, || {
        let (table, dag) = generate(w, opts.scale, opts.seed);
        serve_env(table, dag)
    });
    let addr = env.server.addr;
    let session = Arc::clone(env.handler.session());
    let warm = warm_statement();
    let warm_reply = post(addr, &warm.canonical());

    let sources: Vec<ClientStream> = (0..clients)
        .map(|c| ClientStream::new(opts.seed, c, clients))
        .collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let sent = tcp_clients(addr, sources, Some(deadline), None);
    let secs = start.elapsed().as_secs_f64();
    let cache = session.prepared_cache_stats();
    let peak = mining::sched::guard::peak_rss_mb().unwrap_or(0.0);

    let mut refs = References::new(session.table(), session.dag());
    out.tally(warm_reply.and_then(|(status, body)| refs.check(&warm, status, &body)));
    let mut latencies = Vec::new();
    let mut completed = 0;
    for (req, reply) in sent.iter().flatten() {
        latencies.push(reply.ms);
        let checked = refs.check(&req.stmt, reply.status, &reply.body);
        completed += usize::from(checked.is_ok());
        out.tally(checked);
    }
    latency_metrics(out, &latencies, completed, secs);
    out.metric("peak_rss_mb", peak);
    let repeats = sent.iter().flatten().filter(|(r, _)| r.repeat).count();
    out.note(format!(
        "{} requests from {clients} clients, {repeats} repeats; prepared cache: {} hits, {} misses, {} evictions (capacity {})",
        latencies.len(),
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.capacity
    ));

    if opts.trace {
        let untraced_p50 = median(&latencies);
        let lists: Vec<Vec<Request>> = sent
            .into_iter()
            .map(|c| c.into_iter().map(|(req, _)| req).collect())
            .collect();
        let table = session.table().clone();
        let dag = session.dag().clone();
        drop(session);
        drop(env);
        let client_ms = serve_layer(out, &table, &dag, &lists, Some(&mut refs));
        out.metric("trace.query_p50_ms", median(&client_ms));
        out.metric("trace.overhead_ms", median(&client_ms) - untraced_p50);
        layered_pass(out, &table, &dag, &lists, &mut refs, client_ms.iter().sum());
    }
}

/// Replay the requests, round-robin across clients as they interleaved,
/// layer by layer on one thread over a fresh session's prepared-statement
/// cache. The serve layer's share is what the clients saw beyond it.
fn layered_pass(
    out: &mut Outcome,
    table: &Table,
    dag: &Dag,
    lists: &[Vec<Request>],
    refs: &mut References,
    client_total_ms: f64,
) {
    let session = new_session(table.clone(), dag.clone());
    let mut trace = Trace::new(Instant::now());
    let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
    let mut samples = Vec::new();
    for i in 0..longest {
        for list in lists {
            let Some(req) = list.get(i) else { continue };
            let q = samples.len();
            let checked = traced_query(&mut trace, q, &session, &req.sql, true).and_then(|s| {
                let result = refs.check(&req.stmt, 200, &s.json);
                samples.push(s);
                result
            });
            out.tally(checked);
        }
    }
    let layered: f64 = samples.iter().map(|s| s.total_ms).sum();
    layer_metrics(
        out,
        &samples,
        client_total_ms,
        &[("serve", client_total_ms - layered)],
    );
    out.spans_jsonl += &trace.to_jsonl("layers");
}

/// The probe a traced run of a direct workload makes: its first
/// `statements` statements over one client, each sent twice in different
/// spellings (a prepared-cache miss, then a hit).
pub(crate) fn probe_lists(stmts: &[Statement], statements: usize, seed: u64) -> Vec<Vec<Request>> {
    let mut rng = Rng::new(seed ^ 0x7072_6f62);
    let list = stmts
        .iter()
        .take(statements)
        .flat_map(|stmt| [false, true].map(|repeat| (stmt, repeat)))
        .map(|(stmt, repeat)| Request {
            stmt: stmt.clone(),
            sql: stmt.respelled(&mut rng),
            repeat,
        })
        .collect();
    vec![list]
}

/// Measure the serve layer on `lists` (one list per client): over TCP to
/// a fresh server, then through `Handler::handle` in process on another
/// fresh server's handler. Records the `serve.*` metrics — and, when
/// `refs` is given (serve-mixed), the server session's cache and work
/// counters — checks every answer, and returns each request's client
/// latency in `(client, index)` order.
pub(crate) fn serve_layer(
    out: &mut Outcome,
    table: &Table,
    dag: &Dag,
    lists: &[Vec<Request>],
    refs: Option<&mut References>,
) -> Vec<f64> {
    let mut own_refs;
    let (refs, server_counters) = match refs {
        Some(r) => (r, true),
        None => {
            own_refs = References::new(table, dag);
            (&mut own_refs, false)
        }
    };
    let mut trace = Trace::new(Instant::now());

    let tcp = serve_env(table.clone(), dag.clone());
    let before = tcp.handler.session().counters();
    let sources: Vec<_> = lists.iter().map(|l| l.clone().into_iter()).collect();
    let sent = tcp_clients(tcp.server.addr, sources, None, Some(&mut trace));
    let after = tcp.handler.session().counters();
    let cache = tcp.handler.session().prepared_cache_stats();
    drop(tcp);

    let local = serve_env(table.clone(), dag.clone());
    let handled = handle_clients(&local.handler, lists, &mut trace);
    drop(local);

    let mut client_ms = Vec::new();
    let (mut repeat_ms, mut unique_ms, mut handle_ms, mut transport_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rejected = 0;
    for (client, handled) in sent.iter().zip(&handled) {
        for ((req, reply), local) in client.iter().zip(handled) {
            client_ms.push(reply.ms);
            if req.repeat {
                repeat_ms.push(reply.ms);
            } else {
                unique_ms.push(reply.ms);
            }
            handle_ms.push(local.ms);
            transport_ms.push(reply.ms - local.ms);
            rejected += usize::from(reply.status == 429);
            out.tally(refs.check(&req.stmt, reply.status, &reply.body));
            out.tally(refs.check(&req.stmt, local.status, &local.body));
        }
    }
    let n = client_ms.len().max(1) as f64;
    out.metric("serve.handle_ms", median(&handle_ms));
    out.metric("serve.transport_ms", median(&transport_ms));
    out.metric("serve.repeat_p50_ms", median(&repeat_ms));
    out.metric("serve.unique_p50_ms", median(&unique_ms));
    out.metric("serve.rejected_frac", rejected as f64 / n);
    if server_counters {
        let lookups = cache.hits + cache.misses;
        out.metric(
            "core.prepared_cache_hit_rate",
            cache.hits as f64 / lookups.max(1) as f64,
        );
        out.metric("core.prepared_cache_evictions", cache.evictions as f64);
        out.metric(
            "core.fd_closures_per_query",
            (after.fd_closures_computed - before.fd_closures_computed) as f64 / n,
        );
        out.metric(
            "core.backdoor_walks_per_query",
            (after.backdoor_walks - before.backdoor_walks) as f64 / n,
        );
    }
    out.spans_jsonl += &trace.to_jsonl("serve");
    client_ms
}
