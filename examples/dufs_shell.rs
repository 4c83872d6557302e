//! `dufs-shell` — an interactive shell over a live DUFS deployment: a
//! 3-server replicated coordination ensemble merging two in-memory
//! parallel-filesystem mounts.
//!
//! ```text
//! cargo run --release --example dufs_shell
//! dufs> mkdir /data
//! dufs> put /data/hello.txt Hello, decentralized world!
//! dufs> ls -l /data
//! dufs> cat /data/hello.txt
//! dufs> mv /data/hello.txt /data/greeting.txt
//! dufs> stat /data/greeting.txt
//! dufs> help
//! ```
//!
//! Also accepts a script on stdin (used by the self-test below), so
//! `echo "mkdir /x" | cargo run --example dufs_shell` works.

use std::io::{BufRead, Write};
use std::time::Duration;

use dufs_repro::backendfs::ParallelFs;
use dufs_repro::coord::{ClientOptions, ClusterBuilder};
use dufs_repro::core::services::LocalBackends;
use dufs_repro::core::vfs::{Dufs, NodeKind};

fn kind_char(k: NodeKind) -> char {
    match k {
        NodeKind::Dir => 'd',
        NodeKind::File => '-',
        NodeKind::Symlink => 'l',
    }
}

fn help() {
    println!(
        "commands:\n  \
         mkdir <path>            create a directory (metadata only)\n  \
         rmdir <path>            remove an empty directory\n  \
         ls [-l] <path>          list a directory (-l: one batched readdir_plus)\n  \
         put <path> <text...>    create/overwrite a file with text\n  \
         cat <path>              print a file\n  \
         mv <src> <dst>          rename (atomic; data never moves)\n  \
         ln <target> <link>      symlink\n  \
         rm <path>               unlink a file/symlink\n  \
         stat <path>             attributes\n  \
         chmod <octal> <path>    change mode\n  \
         fid <path>              show a file's FID, back-end and shard path\n  \
         sync                    flush this client's server to the leader\n  \
         help                    this text\n  \
         quit / EOF              exit"
    );
}

fn main() {
    println!("starting a 3-server coordination ensemble + 2 Lustre-profile mounts…");
    let cluster = ClusterBuilder::new().voters(3).tcp();
    cluster.await_leader(Duration::from_secs(10)).expect("leader elected");
    let mounts = vec![ParallelFs::lustre().into_shared(), ParallelFs::lustre().into_shared()];
    let mut fs = Dufs::new(
        1,
        cluster.client(ClientOptions::at(0)).unwrap(),
        LocalBackends::from_mounts(mounts),
    );
    println!("ready. type 'help' for commands.\n");

    let stdin = std::io::stdin();
    let interactive = atty_guess();
    loop {
        if interactive {
            print!("dufs> ");
            std::io::stdout().flush().ok();
        }
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let Some((&cmd, rest)) = parts.split_first() else { continue };
        let r: Result<(), String> = match (cmd, rest) {
            ("help", _) => {
                help();
                Ok(())
            }
            ("quit" | "exit", _) => break,
            ("mkdir", [p]) => fs.mkdir(p, 0o755).map_err(|e| e.to_string()),
            ("rmdir", [p]) => fs.rmdir(p).map_err(|e| e.to_string()),
            ("ls", ["-l", p]) => fs.readdir_plus(p).map_err(|e| e.to_string()).map(|entries| {
                for (name, a) in entries {
                    println!("{}{:03o} {:>8}  {}", kind_char(a.kind), a.mode & 0o777, a.size, name);
                }
            }),
            ("ls", [p]) => fs.readdir(p).map_err(|e| e.to_string()).map(|names| {
                for n in names {
                    println!("{n}");
                }
            }),
            ("put", [p, text @ ..]) if !text.is_empty() => {
                let body = text.join(" ");
                let create = match fs.create(p, 0o644) {
                    Ok(_) => Ok(()),
                    Err(dufs_repro::core::DufsError::Exists) => fs.truncate(p, 0),
                    Err(e) => Err(e),
                };
                create
                    .and_then(|()| fs.write(p, 0, body.as_bytes()).map(|_| ()))
                    .map_err(|e| e.to_string())
            }
            ("cat", [p]) => fs
                .read(p, 0, 1 << 20)
                .map_err(|e| e.to_string())
                .map(|d| println!("{}", String::from_utf8_lossy(&d))),
            ("mv", [a, b]) => fs.rename(a, b).map_err(|e| e.to_string()),
            ("ln", [t, l]) => fs.symlink(t, l).map_err(|e| e.to_string()),
            ("rm", [p]) => fs.unlink(p).map_err(|e| e.to_string()),
            ("stat", [p]) => fs.stat(p).map_err(|e| e.to_string()).map(|a| {
                println!(
                    "kind={:?} mode={:o} size={} nlink={} mtime={}ns",
                    a.kind, a.mode, a.size, a.nlink, a.mtime_ns
                );
            }),
            ("chmod", [mode, p]) => u32::from_str_radix(mode, 8)
                .map_err(|e| e.to_string())
                .and_then(|m| fs.chmod(p, m).map_err(|e| e.to_string())),
            ("fid", [p]) => {
                use dufs_repro::core::mapping::BackendMapper;
                use dufs_repro::core::{shard, Md5Mapping, NodeMeta};
                match fs.node_meta(p) {
                    Err(e) => Err(e.to_string()),
                    Ok(NodeMeta::File { fid, .. }) => {
                        let mapper = Md5Mapping::new(2);
                        println!("FID          : {fid}");
                        println!("  client id  : {}", fid.client_id());
                        println!("  counter    : {}", fid.counter());
                        println!("  back-end   : #{} (MD5(fid) mod 2)", mapper.backend_of(fid));
                        println!("  shard path : {}", shard::physical_path("/", fid));
                        Ok(())
                    }
                    Ok(meta) => {
                        println!("not a regular file: {meta:?}");
                        Ok(())
                    }
                }
            }
            ("sync", _) => fs.coord_mut().sync().map(|_| ()).map_err(|e| e.to_string()),
            _ => {
                println!("unrecognized command; try 'help'");
                Ok(())
            }
        };
        if let Err(e) = r {
            println!("error: {e}");
        }
    }
    println!("bye.");
    cluster.shutdown();
}

/// Crude interactivity guess without libc: honor DUFS_SHELL_BATCH=1.
fn atty_guess() -> bool {
    std::env::var("DUFS_SHELL_BATCH").map(|v| v != "1").unwrap_or(true)
}
