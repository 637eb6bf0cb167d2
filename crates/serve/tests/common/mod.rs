//! Shared helpers for the serve integration tests. Each test binary
//! uses a subset of them.
#![allow(dead_code)]

use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

/// Runs `body` under a hard watchdog: if it neither finishes nor
/// panics within `secs`, the *test* fails loudly instead of hanging
/// the suite. Every chaos/hardening test runs inside one — "never a
/// hang" is an acceptance criterion, so a hang must be a failure, not
/// a timeout in CI three layers up.
pub fn watchdog<F>(secs: u64, name: &str, body: F)
where
    F: FnOnce() + Send + 'static,
{
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let runner = std::thread::Builder::new()
        .name(format!("watchdog-{name}"))
        .spawn(move || {
            body();
            let _ = done_tx.send(());
        })
        .expect("spawn watchdog body");
    match done_rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => runner.join().expect("test body panicked after finishing"),
        Err(RecvTimeoutError::Disconnected) => {
            // The body panicked (sender dropped without sending):
            // propagate the panic.
            runner.join().expect("test body panicked");
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("{name}: watchdog fired after {secs}s — the test hung");
        }
    }
}

/// The exact envelope payload a server sends for `results` (JSON text),
/// written out by hand as the pinned literal — no call into the
/// crate's writer — so comparing against it checks the wire bytes.
pub fn wire_envelope(
    command: &str,
    ok: bool,
    results: &str,
    id: u64,
    micros: u64,
    bytes_in: u64,
) -> Vec<u8> {
    let (status, exit, errors) = if ok { ("ok", 0, 0) } else { ("error", 2, 1) };
    format!(
        "{{\"tool\":\"hwperm\",\"version\":\"{}\",\"command\":\"{command}\",\
         \"status\":\"{status}\",\"exit\":{exit},\"errors\":{errors},\
         \"results\":[{results}],\"metrics\":{{\"id\":{id},\"micros\":{micros},\
         \"bytes_in\":{bytes_in}}}}}\n",
        env!("CARGO_PKG_VERSION"),
    )
    .into_bytes()
}
