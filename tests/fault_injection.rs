//! Fault-injection integration tests: transient server errors vs the retry
//! policy, unavailability windows, redirect chains and loops, and slow
//! servers vs the I/O timeout. These are the failure modes §2.4 motivates
//! ("the unavailability of an input data … is often the main cause of
//! [job] failure").

use bytes::Bytes;
use davix::{Config, DavixClient, DavixError, PreparedRequest, RetryPolicy};
use davix_repro::testbed::{Testbed, TestbedConfig};
use davix_sync::{AtomicU32, Ordering};
use httpd::{HttpServer, Response, ServerConfig};
use httpwire::multipart::{MultipartWriter, MULTIPART_BYTERANGES};
use httpwire::range::parse_range_header;
use httpwire::{ContentRange, Method, StatusCode};
use netsim::{LinkSpec, Runtime as _, SimNet, SimStream, Stream as _};
use std::io::{BufReader, Read, Write};
use std::sync::Arc;
use std::time::Duration;

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 73 + 5) % 251) as u8).collect()
}

fn one_node(data: &[u8]) -> Testbed {
    Testbed::start(TestbedConfig {
        replicas: vec![("dpm1.cern.ch".to_string(), LinkSpec::lan())],
        data: Bytes::from(data.to_vec()),
        ..Default::default()
    })
}

#[test]
fn transient_500s_are_absorbed_by_retries() {
    let data = payload(10_000);
    let tb = one_node(&data);
    tb.nodes[0].handler.fail_next(2); // exactly as many as the retry budget
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default()); // retries: 2
    let file = client.open(&tb.url(0)).unwrap();
    let mut buf = vec![0u8; 100];
    file.pread(0, &mut buf).unwrap();
    assert_eq!(&buf, &data[..100]);
    let m = client.metrics();
    assert!(m.retries >= 2, "retries must be recorded (got {})", m.retries);
}

#[test]
fn errors_beyond_the_retry_budget_surface() {
    let data = payload(10_000);
    let tb = one_node(&data);
    tb.nodes[0].handler.fail_next(10);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default());
    let err = client.open(&tb.url(0)).unwrap_err();
    assert!(
        matches!(err, DavixError::Http { status, .. } if status.is_server_error()),
        "got {err}"
    );
}

#[test]
fn retry_backoff_spends_virtual_time() {
    let data = payload(1_000);
    let tb = one_node(&data);
    tb.nodes[0].handler.fail_next(2);
    let _g = tb.net.enter();
    let backoff = Duration::from_millis(100);
    let client =
        tb.davix_client(Config { retry: RetryPolicy { retries: 2, backoff }, ..Config::default() });
    let t0 = tb.net.now();
    client.open(&tb.url(0)).unwrap();
    // Two retries: backoff + 2*backoff doubling.
    assert!(
        tb.net.now() - t0 >= backoff * 3,
        "backoff must be observed in virtual time ({:?})",
        tb.net.now() - t0
    );
}

#[test]
fn unavailability_window_fails_then_recovers() {
    let data = payload(5_000);
    let tb = one_node(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default().no_retry());
    tb.nodes[0].handler.set_unavailable(true);
    assert!(client.open(&tb.url(0)).is_err());
    tb.nodes[0].handler.set_unavailable(false);
    let f = client.open(&tb.url(0)).unwrap();
    assert_eq!(f.size_hint().unwrap(), data.len() as u64);
}

/// A hand-mounted handler that 302-redirects `/old/*` to `/data/*` on a
/// second host, then serves normally there: the executor must follow.
#[test]
fn redirects_are_followed_across_hosts() {
    let data = payload(20_000);
    let tb = one_node(&data);
    let net = &tb.net;
    net.add_host("redirector.cern.ch");
    net.set_link("worker-node", "redirector.cern.ch", LinkSpec::lan());
    let target = tb.url(0);
    let redirect = HttpServer::new(
        Arc::new(move |req: httpd::Request| {
            let _ = &req;
            Response::empty(StatusCode::FOUND).header("Location", target.clone())
        }),
        ServerConfig::default(),
    );
    redirect.serve(Box::new(net.bind("redirector.cern.ch", 80).unwrap()), net.runtime());

    let _g = net.enter();
    let client = tb.davix_client(Config::default());
    let file = client.open("http://redirector.cern.ch/old/events.root").unwrap();
    let mut buf = vec![0u8; 64];
    file.pread(512, &mut buf).unwrap();
    assert_eq!(&buf, &data[512..576]);
    // The handle adopts the redirect target, so later reads go direct
    // (davix's "avoid useless … redirections" criterion, §2.2).
    assert_eq!(file.uri().host, tb.hosts[0]);
}

#[test]
fn redirect_loops_are_cut_off() {
    let net = SimNet::new();
    net.add_host("client");
    net.add_host("loopy.cern.ch");
    net.set_link("client", "loopy.cern.ch", LinkSpec::lan());
    let hops = Arc::new(AtomicU32::new(0));
    let hops2 = Arc::clone(&hops);
    let server = HttpServer::new(
        Arc::new(move |req: httpd::Request| {
            let n = hops2.fetch_add(1, Ordering::SeqCst);
            let _ = &req;
            Response::empty(StatusCode::FOUND)
                .header("Location", format!("http://loopy.cern.ch/hop{n}"))
        }),
        ServerConfig::default(),
    );
    server.serve(Box::new(net.bind("loopy.cern.ch", 80).unwrap()), net.runtime());

    let _g = net.enter();
    let client = DavixClient::new(
        net.connector("client"),
        net.runtime(),
        Config { max_redirects: 4, ..Config::default() }.no_retry(),
    );
    let err = client.open("http://loopy.cern.ch/start").unwrap_err();
    assert!(matches!(err, DavixError::RedirectLoop(4)), "got {err}");
    assert!(hops.load(Ordering::SeqCst) >= 4);
}

#[test]
fn slow_server_hits_io_timeout() {
    let data = payload(1_000);
    let tb = Testbed::start(TestbedConfig {
        replicas: vec![("dpm1.cern.ch".to_string(), LinkSpec::lan())],
        data: Bytes::from(data),
        server_delay: Duration::from_secs(10),
        ..Default::default()
    });
    let _g = tb.net.enter();
    let client =
        tb.davix_client(Config { io_timeout: Duration::from_secs(2), ..Config::default() });
    let t0 = tb.net.now();
    let err = client.open(&tb.url(0)).unwrap_err();
    assert!(matches!(err, DavixError::Timeout(_)), "got {err}");
    // Default retry policy re-tries timeouts: 3 attempts × 2 s + backoffs.
    let elapsed = tb.net.now() - t0;
    assert!(elapsed >= Duration::from_secs(6), "all attempts must time out ({elapsed:?})");
}

#[test]
fn head_requests_survive_fault_free_path_without_body() {
    let data = payload(4_096);
    let tb = one_node(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default());
    let uri = client.parse_url(&tb.url(0)).unwrap();
    let resp = client.executor().execute_expect(&PreparedRequest::head(uri), "head").unwrap();
    assert!(resp.body.is_empty(), "HEAD must not carry a body");
    assert_eq!(resp.head.headers.content_length(), Some(4096));
}

#[test]
fn idempotent_put_is_retried_but_post_is_not() {
    let data = payload(1_000);

    // PUT is idempotent (RFC 7231 §4.2.2): one injected 500 is absorbed.
    let tb = one_node(&data);
    tb.nodes[0].handler.fail_next(1);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default());
    client
        .posix()
        .put(&format!("http://{}{}", tb.hosts[0], "/new-object"), vec![1u8; 10])
        .expect("idempotent PUT retries through a transient 500");
    assert!(client.metrics().retries >= 1);

    // POST is not: the same injected 500 surfaces immediately.
    tb.nodes[0].handler.fail_next(1);
    let uri = client.parse_url(&format!("http://{}{}", tb.hosts[0], "/post-target")).unwrap();
    let before = client.metrics().retries;
    let resp = client
        .executor()
        .execute(&PreparedRequest::new(Method::Post, uri))
        .expect("transport ok; server answered 500");
    assert!(resp.head.status.is_server_error(), "the 500 must surface for POST");
    assert_eq!(client.metrics().retries, before, "no retry may be recorded for POST");
}

// ---- exact retry-policy pins ----------------------------------------------
//
// One hand-rolled server with a per-request fault script drives every
// executor entry point through the same failure shapes, and each case
// asserts exact counts: requests the server saw, requests the client sent,
// and the `retries` / `upload_retries` / `redirects` metrics. `retries: 2`
// throughout, so a one-failure script is absorbed and a three-failure
// script exhausts the shared budget.

/// What the scripted server does to one request that reaches the object.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Answer `503` (small body, keep-alive).
    Status5xx,
    /// Read the request, then reset the connection before any response.
    ResetBeforeHead,
    /// Send the head and half the body, then reset the connection.
    ResetMidBody,
    /// Serve normally, then close without announcing it: the client pools
    /// a session that is already dead.
    CloseAfter,
    /// Send an interim `103 Early Hints` head before the real response.
    EarlyHints,
}

/// Serves one object on host `s` at any path. `HEAD` always succeeds and
/// is not counted. Any other request for `/r/<name>` is answered
/// `307 Location: http://s/<name>`; every other request consumes the next
/// [`Fault`] of the script (served normally once the script runs out).
/// `GET` honours single and multi-range `Range` headers; `PUT` drains its
/// body and answers `201`.
struct ScriptedServer {
    net: SimNet,
    data: Vec<u8>,
    script: Vec<Fault>,
    /// Non-HEAD requests received, redirected ones included.
    served: AtomicU32,
    /// Script position: requests that reached the object.
    next: AtomicU32,
}

impl ScriptedServer {
    fn start(net: &SimNet, data: Vec<u8>, script: Vec<Fault>) -> Arc<ScriptedServer> {
        let server = Arc::new(ScriptedServer {
            net: net.clone(),
            data,
            script,
            served: AtomicU32::new(0),
            next: AtomicU32::new(0),
        });
        let listener = net.bind("s", 80).unwrap();
        let srv = Arc::clone(&server);
        net.spawn("scripted-accept", move || {
            let mut conn_id = 0u32;
            while let Ok((stream, _)) = listener.accept_sim() {
                conn_id += 1;
                let srv2 = Arc::clone(&srv);
                srv.net.spawn(&format!("scripted-conn-{conn_id}"), move || srv2.serve(stream));
            }
        });
        server
    }

    fn served(&self) -> u32 {
        self.served.load(Ordering::SeqCst)
    }

    /// Reset every live connection of host `s`: its peers see
    /// `ConnectionReset`, not a clean EOF.
    fn reset(&self) {
        self.net.set_host_down("s", true);
        self.net.set_host_down("s", false);
    }

    fn serve(&self, stream: SimStream) {
        let mut w = stream.try_clone().unwrap();
        let mut r = BufReader::new(stream);
        while let Ok(Some(head)) = httpwire::parse::read_request_head(&mut r) {
            let mut body = vec![0u8; head.headers.content_length().unwrap_or(0) as usize];
            if r.read_exact(&mut body).is_err() {
                return;
            }
            if head.method == Method::Head {
                let _ = write!(w, "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", self.data.len());
                continue;
            }
            self.served.fetch_add(1, Ordering::SeqCst);
            if let Some(name) = head.target.strip_prefix("/r/") {
                let _ = write!(
                    w,
                    "HTTP/1.1 307 Temporary Redirect\r\nLocation: http://s/{name}\r\n\
                     Content-Length: 0\r\n\r\n"
                );
                continue;
            }
            let (resp_head, resp_body) = self.response(&head);
            let n = self.next.fetch_add(1, Ordering::SeqCst) as usize;
            match self.script.get(n) {
                Some(Fault::Status5xx) => {
                    let _ = w.write_all(
                        b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\n\r\nbusy",
                    );
                }
                Some(Fault::ResetBeforeHead) => return self.reset(),
                Some(Fault::ResetMidBody) => {
                    let _ = w.write_all(resp_head.as_bytes());
                    let _ = w.write_all(&resp_body[..resp_body.len() / 2]);
                    // Let the partial body land before the reset.
                    self.net.runtime().sleep(Duration::from_millis(20));
                    return self.reset();
                }
                Some(Fault::CloseAfter) => {
                    let _ = w.write_all(resp_head.as_bytes());
                    let _ = w.write_all(&resp_body);
                    return;
                }
                Some(Fault::EarlyHints) => {
                    let _ =
                        w.write_all(b"HTTP/1.1 103 Early Hints\r\nLink: </f>; rel=preload\r\n\r\n");
                    let _ = w.write_all(resp_head.as_bytes());
                    let _ = w.write_all(&resp_body);
                }
                None => {
                    let _ = w.write_all(resp_head.as_bytes());
                    let _ = w.write_all(&resp_body);
                }
            }
        }
    }

    fn response(&self, head: &httpwire::RequestHead) -> (String, Vec<u8>) {
        let total = self.data.len() as u64;
        if head.method == Method::Put {
            let body = b"created\n".to_vec();
            let h = format!("HTTP/1.1 201 Created\r\nContent-Length: {}\r\n\r\n", body.len());
            return (h, body);
        }
        let Some(range) = head.headers.get("range") else {
            let h = format!("HTTP/1.1 200 OK\r\nContent-Length: {total}\r\n\r\n");
            return (h, self.data.clone());
        };
        let windows: Vec<(u64, u64)> = parse_range_header(range)
            .unwrap()
            .into_iter()
            .map(|spec| spec.resolve(total).unwrap())
            .collect();
        if let [(first, last)] = windows[..] {
            let body = self.data[first as usize..=last as usize].to_vec();
            let h = format!(
                "HTTP/1.1 206 Partial Content\r\nContent-Length: {}\r\n\
                 Content-Range: bytes {first}-{last}/{total}\r\n\r\n",
                body.len()
            );
            return (h, body);
        }
        let mut parts = MultipartWriter::new(Vec::new(), "PIN");
        for (first, last) in windows {
            let cr = ContentRange { first, last, total: Some(total) };
            let data = &self.data[first as usize..=last as usize];
            parts.write_part("application/octet-stream", cr, data).unwrap();
        }
        let body = parts.finish().unwrap();
        let h = format!(
            "HTTP/1.1 206 Partial Content\r\nContent-Length: {}\r\n\
             Content-Type: {MULTIPART_BYTERANGES}; boundary=PIN\r\n\r\n",
            body.len()
        );
        (h, body)
    }
}

/// The executor entry points the pins cover.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Execute,
    Streaming,
    Upload,
    Pread,
    PreadVec,
}

/// A failure shape: the fault script, whether the request goes through a
/// `307` first, and how many times the operation runs (a stale session
/// needs a first run to leave the dead connection in the pool).
#[derive(Clone, Copy, Debug)]
enum Shape {
    Head5xx,
    ResetBeforeHead,
    ResetMidBody,
    StaleSession,
    RedirectThen5xx,
    RedirectThenMidBody,
    BudgetExhausted,
}

impl Shape {
    fn script(self) -> Vec<Fault> {
        match self {
            Shape::Head5xx | Shape::RedirectThen5xx => vec![Fault::Status5xx],
            Shape::ResetBeforeHead => vec![Fault::ResetBeforeHead],
            Shape::ResetMidBody | Shape::RedirectThenMidBody => vec![Fault::ResetMidBody],
            Shape::StaleSession => vec![Fault::CloseAfter],
            Shape::BudgetExhausted => {
                vec![Fault::Status5xx, Fault::ResetMidBody, Fault::ResetMidBody]
            }
        }
    }

    fn path(self) -> &'static str {
        match self {
            Shape::RedirectThen5xx | Shape::RedirectThenMidBody => "/r/f",
            _ => "/f",
        }
    }

    fn runs(self) -> u32 {
        match self {
            Shape::StaleSession => 2,
            _ => 1,
        }
    }
}

/// Exact outcome of one pinned case.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    /// Non-HEAD requests the server received.
    served: u32,
    /// Requests the client sent (stale-session attempts included).
    requests: u64,
    retries: u64,
    upload_retries: u64,
    redirects: u64,
    /// Every run delivered the right bytes.
    ok: bool,
}

const fn counts(
    served: u32,
    requests: u64,
    retries: u64,
    upload_retries: u64,
    redirects: u64,
    ok: bool,
) -> Counts {
    Counts { served, requests, retries, upload_retries, redirects, ok }
}

const PIN_FRAGMENTS: [(u64, usize); 3] = [(0, 100), (4000, 100), (8000, 100)];

/// Run `entry` `runs` times against a fresh [`ScriptedServer`] and count.
fn run_pinned(entry: Entry, script: Vec<Fault>, path: &str, runs: u32) -> Counts {
    let net = SimNet::new();
    net.add_host("c");
    net.add_host("s");
    net.set_link("c", "s", LinkSpec { delay: Duration::from_millis(1), ..Default::default() });
    let data = payload(8192);
    let server = ScriptedServer::start(&net, data.clone(), script);
    let _g = net.enter();
    let client = DavixClient::new(
        net.connector("c"),
        net.runtime(),
        Config {
            retry: RetryPolicy { retries: 2, backoff: Duration::from_millis(1) },
            ..Config::default()
        },
    );
    let url = format!("http://s{path}");
    let file = match entry {
        Entry::Pread | Entry::PreadVec => Some(client.open(&url).unwrap()),
        _ => None,
    };
    let uri = client.parse_url(&url).unwrap();
    let ex = client.executor();
    let before = client.metrics();
    let mut ok = true;
    for _ in 0..runs {
        ok &= match entry {
            Entry::Execute => ex
                .execute(&PreparedRequest::get(uri.clone()))
                .is_ok_and(|r| r.head.status == StatusCode::OK && r.body == data),
            Entry::Streaming => {
                ex.execute_streaming(&PreparedRequest::get(uri.clone())).is_ok_and(|mut s| {
                    let mut got = Vec::new();
                    s.status() == StatusCode::OK && s.read_to_end(&mut got).is_ok() && got == data
                })
            }
            Entry::Upload => ex
                .execute_upload(
                    &PreparedRequest::new(Method::Put, uri.clone()),
                    &Bytes::from(vec![7u8; 1000]),
                )
                .is_ok_and(|r| r.head.status == StatusCode::CREATED && r.body == b"created\n"),
            Entry::Pread => {
                let mut buf = vec![0u8; 1000];
                let f = file.as_ref().unwrap();
                f.pread(3000, &mut buf).is_ok_and(|n| n == 1000 && buf == data[3000..4000])
            }
            Entry::PreadVec => file.as_ref().unwrap().pread_vec(&PIN_FRAGMENTS).is_ok_and(|got| {
                got.iter()
                    .zip(PIN_FRAGMENTS)
                    .all(|(g, (off, len))| g[..] == data[off as usize..off as usize + len])
            }),
        };
    }
    let after = client.metrics();
    Counts {
        served: server.served(),
        requests: after.requests - before.requests,
        retries: after.retries - before.retries,
        upload_retries: after.upload_retries - before.upload_retries,
        redirects: after.redirects - before.redirects,
        ok,
    }
}

/// The executor's retry policy, pinned exactly for every entry point and
/// failure shape: 5xx and transport failures burn the shared budget, a
/// failure after the head retries the whole exchange from the original
/// URI (so a redirect is followed again and resets the budget), stale
/// recycled sessions retry for free, and `upload_retries` counts the
/// retries of streaming uploads. `execute_streaming` hands body failures
/// to its caller.
#[test]
fn retry_policy_is_pinned_per_entry_point_and_failure_shape() {
    use Entry::*;
    use Shape::*;
    let table: &[(Entry, Shape, Counts)] = &[
        (Execute, Head5xx, counts(2, 2, 1, 0, 0, true)),
        (Execute, ResetBeforeHead, counts(2, 2, 1, 0, 0, true)),
        (Execute, ResetMidBody, counts(2, 2, 1, 0, 0, true)),
        (Execute, StaleSession, counts(2, 3, 0, 0, 0, true)),
        (Execute, RedirectThen5xx, counts(3, 3, 1, 0, 1, true)),
        (Execute, RedirectThenMidBody, counts(4, 4, 1, 0, 2, true)),
        (Execute, BudgetExhausted, counts(3, 3, 2, 0, 0, false)),
        (Streaming, Head5xx, counts(2, 2, 1, 0, 0, true)),
        (Streaming, ResetBeforeHead, counts(2, 2, 1, 0, 0, true)),
        (Streaming, ResetMidBody, counts(1, 1, 0, 0, 0, false)),
        (Streaming, StaleSession, counts(2, 3, 0, 0, 0, true)),
        (Streaming, RedirectThen5xx, counts(3, 3, 1, 0, 1, true)),
        (Streaming, RedirectThenMidBody, counts(2, 2, 0, 0, 1, false)),
        (Streaming, BudgetExhausted, counts(2, 2, 1, 0, 0, false)),
        (Upload, Head5xx, counts(2, 2, 1, 1, 0, true)),
        (Upload, ResetBeforeHead, counts(2, 2, 1, 1, 0, true)),
        (Upload, ResetMidBody, counts(2, 2, 1, 1, 0, true)),
        (Upload, StaleSession, counts(2, 3, 0, 0, 0, true)),
        (Upload, RedirectThen5xx, counts(3, 3, 1, 1, 1, true)),
        (Upload, BudgetExhausted, counts(3, 3, 2, 2, 0, false)),
        (Pread, Head5xx, counts(2, 2, 1, 0, 0, true)),
        (Pread, ResetBeforeHead, counts(2, 2, 1, 0, 0, true)),
        (Pread, ResetMidBody, counts(2, 2, 1, 0, 0, true)),
        (Pread, StaleSession, counts(2, 3, 0, 0, 0, true)),
        (Pread, RedirectThen5xx, counts(3, 3, 1, 0, 1, true)),
        (Pread, RedirectThenMidBody, counts(4, 4, 1, 0, 2, true)),
        (Pread, BudgetExhausted, counts(3, 3, 2, 0, 0, false)),
        (PreadVec, Head5xx, counts(2, 2, 1, 0, 0, true)),
        (PreadVec, ResetBeforeHead, counts(2, 2, 1, 0, 0, true)),
        (PreadVec, ResetMidBody, counts(2, 2, 1, 0, 0, true)),
        (PreadVec, StaleSession, counts(2, 3, 0, 0, 0, true)),
        (PreadVec, RedirectThen5xx, counts(3, 3, 1, 0, 1, true)),
        (PreadVec, RedirectThenMidBody, counts(4, 4, 1, 0, 2, true)),
        (PreadVec, BudgetExhausted, counts(3, 3, 2, 0, 0, false)),
    ];
    let mut mismatches = Vec::new();
    for (entry, shape, want) in table {
        let got = run_pinned(*entry, shape.script(), shape.path(), shape.runs());
        if got != *want {
            mismatches.push(format!("{entry:?} × {shape:?}: want {want:?}, got {got:?}"));
        }
    }
    assert!(mismatches.is_empty(), "retry-policy drift:\n{}", mismatches.join("\n"));
}

/// An upload whose response body fails after a redirect restarts from the
/// original URI like every other entry point: the redirect is followed
/// again (resetting the budget) before the body is replayed.
#[test]
fn upload_body_failure_after_redirect_restarts_at_the_original_uri() {
    let got = run_pinned(Entry::Upload, vec![Fault::ResetMidBody], "/r/f", 1);
    assert_eq!(got, counts(4, 4, 1, 1, 2, true));
}

/// An interim `103 Early Hints` before a `206` must be skipped: `pread`
/// gets the real response, and the recycled session stays positioned at a
/// message boundary for the next request.
#[test]
fn interim_1xx_before_a_range_response_is_skipped() {
    let net = SimNet::new();
    net.add_host("c");
    net.add_host("s");
    net.set_link("c", "s", LinkSpec { delay: Duration::from_millis(1), ..Default::default() });
    let data = payload(8192);
    let server = ScriptedServer::start(&net, data.clone(), vec![Fault::EarlyHints]);
    let _g = net.enter();
    let client = DavixClient::new(net.connector("c"), net.runtime(), Config::default().no_retry());
    let f = client.open("http://s/f").unwrap();
    let mut buf = vec![0u8; 500];
    assert_eq!(f.pread(1000, &mut buf).unwrap(), 500);
    assert_eq!(buf, data[1000..1500]);
    assert_eq!(f.pread(6000, &mut buf).unwrap(), 500);
    assert_eq!(buf, data[6000..6500]);
    let m = client.metrics();
    assert_eq!(server.served(), 2);
    assert_eq!(m.sessions_created, 1, "the session must be recycled after the 1xx exchange");
    assert_eq!(m.retries, 0);
}
