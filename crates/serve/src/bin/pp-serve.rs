//! `pp-serve` — run the simulation service.
//!
//! ```text
//! pp-serve [--addr HOST:PORT] [--backend fs|mem|log] [--store PATH]
//!          [--queue N] [--workers N] [--metrics PATH] [--flight-dump PATH]
//! ```
//!
//! Backend selection: `--backend`/`--store` when given, otherwise the
//! file store at `<results>/store`, the sweep CLI's store. Port
//! `0` binds a free port; the actual address is printed on startup
//! (machine-greppable `listening on` line). SIGTERM/SIGINT trigger the
//! same graceful shutdown as `POST /shutdown`: drain workers, flush
//! the store, optionally export metrics, and dump the flight recorder.
//!
//! `--flight-dump PATH` names where the flight-recorder NDJSON lands —
//! written on clean shutdown *and* by the panic hook, so a crashed or
//! killed server leaves its last spans behind. Without the flag only a
//! panic dumps, to `pp-flight-<pid>.ndjson` in the temp dir.

#![deny(unsafe_code)]

use std::process::ExitCode;

use pp_serve::server::{ServeConfig, Server};
use pp_serve::telemetry::serve_metrics;
use pp_sweep::plan::results_dir;
use pp_sweep::store::ResultStore;

// The only unsafe in the whole binary lives in this module: one FFI
// declaration plus two calls to install it.
#[cfg(unix)]
#[allow(unsafe_code)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set from the signal handler; polled by a watcher thread.
    pub static TRIPPED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        TRIPPED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // libc's signal(2); the handler slot is ABI-compatible with a
        // plain `extern "C" fn(i32)`. Declared by hand — the build
        // environment has no libc crate, and this is the only symbol
        // the service needs from it.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Install handlers for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        // SAFETY: `signal` is declared with the exact libc ABI
        // (`sighandler_t` is pointer-sized and a plain
        // `extern "C" fn(i32)` is a valid handler value), and `on_signal`
        // is async-signal-safe: its only effect is a store to a static
        // `AtomicBool`, which is a single atomic instruction — no
        // allocation, locking, or reentrant libc calls can occur in
        // handler context.
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: pp-serve [--addr HOST:PORT] [--backend fs|mem|log] [--store PATH] \
         [--queue N] [--workers N] [--metrics PATH] [--flight-dump PATH]"
    );
    std::process::exit(2)
}

struct Args {
    cfg: ServeConfig,
    backend: Option<String>,
    store_path: Option<String>,
    metrics: Option<String>,
    flight_dump: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        cfg: ServeConfig::default(),
        backend: None,
        store_path: None,
        metrics: None,
        flight_dump: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => args.cfg.addr = val("--addr"),
            "--backend" => args.backend = Some(val("--backend")),
            "--store" => args.store_path = Some(val("--store")),
            "--queue" => args.cfg.queue = val("--queue").parse().unwrap_or_else(|_| usage()),
            "--workers" => args.cfg.workers = val("--workers").parse().unwrap_or_else(|_| usage()),
            "--metrics" => args.metrics = Some(val("--metrics")),
            "--flight-dump" => args.flight_dump = Some(val("--flight-dump")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn open_store(args: &Args) -> std::io::Result<ResultStore> {
    let store_dir = || {
        args.store_path
            .clone()
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| results_dir().join("store"))
    };
    match args.backend.as_deref() {
        None | Some("fs") => Ok(ResultStore::at(store_dir())),
        Some("mem") => Ok(ResultStore::in_memory()),
        Some("log") => ResultStore::log_at(
            args.store_path
                .clone()
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| results_dir().join("store.log")),
        ),
        Some(other) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unknown backend {other:?} (expected fs, mem, or log)"),
        )),
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let store = match open_store(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pp-serve: cannot open store: {e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = serve_metrics(); // register serve.* before any export
    if let Some(path) = args.flight_dump.as_deref() {
        pp_obs::set_dump_path(path);
    }
    // A panicking daemon still leaves its last recorded spans behind.
    pp_obs::install_panic_hook();

    let server = match Server::bind(args.cfg.clone(), store.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pp-serve: cannot bind {}: {e}", args.cfg.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pp-serve: no local addr: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "pp-serve listening on http://{addr} (backend={} at {}, queue={}, workers={})",
        store.kind(),
        store.location(),
        args.cfg.queue,
        args.cfg.workers,
    );

    // Bridge SIGTERM/SIGINT onto the server's shutdown flag. The
    // handler itself only flips an atomic; this watcher does the rest.
    let flag = server.shutdown_flag();
    #[cfg(unix)]
    {
        sig::install();
        std::thread::spawn(move || loop {
            if sig::TRIPPED.load(std::sync::atomic::Ordering::SeqCst) {
                flag.trip();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
    }
    #[cfg(not(unix))]
    let _ = flag;

    match server.run() {
        Ok(summary) => {
            println!(
                "pp-serve: clean shutdown — {} handled, {} rejected, {} store flushed",
                summary.handled,
                summary.rejected,
                store.kind(),
            );
            if let Some(path) = args.metrics.as_deref() {
                if let Err(e) = pp_sweep::telemetry::write_metrics(std::path::Path::new(path)) {
                    eprintln!("pp-serve: metrics export failed: {e}");
                    return ExitCode::FAILURE;
                }
                println!("pp-serve: metrics written to {path}");
            }
            if args.flight_dump.is_some() {
                let path = pp_obs::default_dump_path();
                match pp_obs::recorder().dump_to(&path) {
                    Ok(()) => println!("pp-serve: flight recorder dumped to {}", path.display()),
                    Err(e) => {
                        eprintln!("pp-serve: flight dump failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pp-serve: server error: {e}");
            ExitCode::FAILURE
        }
    }
}
