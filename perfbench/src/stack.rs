//! The stack under test, assembled from public pieces: an `objstore`
//! storage handler served by `httpd`, and a `davix::DavixClient`, either on
//! real loopback TCP or on a fresh `netsim::SimNet`, over a store the
//! caller fills once. With a probe, the
//! handler and the client's connector are wrapped (see `probe`).

use crate::probe::{Probe, TimedConnector, TimedHandler};
use davix_repro::davix::{Config, DavixClient};
use davix_repro::httpd::{Handler, HttpServer, ServerConfig};
use davix_repro::netsim::{
    Connector, LinkSpec, RealRuntime, Runtime, SimNet, TcpConnector, TcpListenerWrap,
};
use davix_repro::objstore::{ObjectStore, StorageHandler, StorageOptions};
use std::io;
use std::sync::Arc;

fn storage_server(store: &Arc<ObjectStore>, probe: Option<&Arc<Probe>>) -> Arc<HttpServer> {
    let mut handler: Arc<dyn Handler> =
        Arc::new(StorageHandler::new(Arc::clone(store), StorageOptions::default()));
    if let Some(p) = probe {
        handler = Arc::new(TimedHandler { inner: handler, probe: Arc::clone(p) });
    }
    HttpServer::new(handler, ServerConfig::default())
}

fn client(
    connector: Arc<dyn Connector>,
    rt: Arc<dyn Runtime>,
    probe: Option<&Arc<Probe>>,
) -> DavixClient {
    let connector: Arc<dyn Connector> = match probe {
        Some(p) => Arc::new(TimedConnector { inner: connector, probe: Arc::clone(p) }),
        None => connector,
    };
    DavixClient::new(connector, rt, Config::default())
}

/// A storage node and a client on real loopback TCP.
pub struct Loopback {
    pub server: Arc<HttpServer>,
    pub client: DavixClient,
    base: String,
}

impl Loopback {
    pub fn start(store: &Arc<ObjectStore>, probe: Option<&Arc<Probe>>) -> io::Result<Loopback> {
        let server = storage_server(store, probe);
        let listener = TcpListenerWrap::bind("127.0.0.1:0")?;
        let base = format!("http://{}", listener.local_addr()?);
        server.serve(Box::new(listener), Arc::new(RealRuntime::new()));
        let client = client(Arc::new(TcpConnector), Arc::new(RealRuntime::new()), probe);
        Ok(Loopback { server, client, base })
    }

    pub fn url(&self, path: &str) -> String {
        format!("{}{path}", self.base)
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        self.server.stop();
    }
}

/// Host names on the simulated network.
const CLIENT_HOST: &str = "worker-node";
const SERVER_HOST: &str = "dpm1.cern.ch";

/// A storage node and a client on a fresh simulated network, the client's
/// link set to `link`. The calling thread is registered with the virtual
/// clock while this lives.
pub struct Sim {
    pub server: Arc<HttpServer>,
    pub client: Option<DavixClient>,
    pub rt: Arc<dyn Runtime>,
    guard: Option<davix_repro::netsim::sim::EnterGuard>,
    pub net: SimNet,
}

impl Sim {
    pub fn start(
        store: &Arc<ObjectStore>,
        link: LinkSpec,
        probe: Option<&Arc<Probe>>,
    ) -> io::Result<Sim> {
        let net = SimNet::new();
        net.add_host(CLIENT_HOST);
        net.add_host(SERVER_HOST);
        net.set_link(CLIENT_HOST, SERVER_HOST, link);
        let server = storage_server(store, probe);
        let rt: Arc<dyn Runtime> = net.runtime();
        server.serve(Box::new(net.bind(SERVER_HOST, 80)?), Arc::clone(&rt));
        let guard = Some(net.enter());
        let client = Some(client(net.connector(CLIENT_HOST), Arc::clone(&rt), probe));
        Ok(Sim { server, client, rt, guard, net })
    }

    pub fn url(&self, path: &str) -> String {
        format!("http://{SERVER_HOST}{path}")
    }

    pub fn client(&self) -> &DavixClient {
        self.client.as_ref().expect("client lives until drop")
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Close the client's connections, then stop the server while this
        // thread can still wait on virtual time, then release the clock.
        self.client = None;
        self.server.stop();
        self.guard = None;
    }
}
