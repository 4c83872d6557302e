//! `coord_server` — one coordination-ensemble member as a real OS process.
//!
//! This is the out-of-process deployment of [`dufs_coord::tcp::TcpServer`]: the
//! kill-9 recovery harness spawns three of these, SIGKILLs them mid-workload,
//! respawns them over the same WAL directories, and checks the namespace
//! digest against an uncrashed control. It is deliberately thin — every
//! interesting behaviour lives in the library so the in-process
//! `TcpCluster` tests cover the same code.
//!
//! ```text
//! coord_server --me 0 --peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//!              [--wal-dir /var/lib/dufs/server-0]
//! ```
//!
//! Runs until killed. Prints one `READY <addr>` line on stdout once the
//! listener is bound (the harness waits for it before dialing).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::exit;

use dufs_coord::tcp::{TcpServer, TcpServerConfig};
use dufs_net::Listener;
use dufs_zab::PeerId;

fn usage() -> ! {
    eprintln!("usage: coord_server --me N --peers ADDR,ADDR,... [--wal-dir DIR]");
    exit(2);
}

fn main() {
    let mut me: Option<u32> = None;
    let mut peers: Vec<SocketAddr> = Vec::new();
    let mut wal_dir: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("coord_server: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--me" => {
                me = Some(val("--me").parse().unwrap_or_else(|_| {
                    eprintln!("coord_server: --me must be an integer");
                    usage()
                }))
            }
            "--peers" => {
                peers = val("--peers")
                    .split(',')
                    .map(|a| {
                        a.parse().unwrap_or_else(|_| {
                            eprintln!("coord_server: bad peer address {a:?}");
                            usage()
                        })
                    })
                    .collect()
            }
            "--wal-dir" => wal_dir = Some(PathBuf::from(val("--wal-dir"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("coord_server: unknown argument {other:?}");
                usage()
            }
        }
    }

    let Some(me) = me else { usage() };
    if peers.is_empty() || (me as usize) >= peers.len() {
        eprintln!("coord_server: --me must index into --peers");
        usage();
    }

    let listener = Listener::bind(peers[me as usize]).unwrap_or_else(|e| {
        eprintln!("coord_server: bind {}: {e}", peers[me as usize]);
        exit(1);
    });
    let addr = listener.local_addr();

    let voters = peers.len();
    let server = TcpServer::spawn(
        listener,
        TcpServerConfig { me: PeerId(me), peer_addrs: peers, voters, wal_dir },
    );

    // The harness (and humans) wait for this line before dialing.
    println!("READY {addr}");

    server.run(); // until killed
}
