//! Concurrent clients quickstart: `Session::submit` → `QueryHandle`.
//!
//! Three things the blocking `Session::run` cannot do:
//!
//! 1. overlap several queries over the shared exchange fabric (the
//!    dispatcher admits up to `max_concurrent` at once and the network
//!    scheduler arbitrates among them),
//! 2. poll a query for its result instead of blocking on it,
//! 3. cancel a query and keep the engine healthy.
//!
//! ```bash
//! cargo run --release --example concurrent_clients
//! ```

use std::time::Instant;

use hsqp::engine::cluster::QueryHandle;
use hsqp::engine::error::EngineError;
use hsqp::engine::queries::tpch_logical;
use hsqp::engine::session::Session;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::builder()
        .nodes(4)
        .max_concurrent(4)
        .tpch(0.01)
        .build()?;

    // --- submit/wait: four clients' worth of queries in flight at once --
    let started = Instant::now();
    let handles: Vec<(u32, QueryHandle)> = [3u32, 5, 10, 12, 14, 18]
        .iter()
        .map(|&n| Ok((n, session.submit(&tpch_logical(n)?)?)))
        .collect::<Result<_, EngineError>>()?;
    for (n, handle) in handles {
        let id = handle.id();
        let result = handle.wait()?;
        println!(
            "Q{n:<2} ({id}) {:>8.1} ms  {:>5} rows  {:>9} bytes shuffled (this query only)",
            result.elapsed.as_secs_f64() * 1e3,
            result.row_count(),
            result.bytes_shuffled,
        );
    }
    println!(
        "6 queries, 4 at a time, in {:.1} ms wall clock\n",
        started.elapsed().as_secs_f64() * 1e3
    );

    // --- try_result: poll instead of blocking ---------------------------
    let handle = session.submit(&tpch_logical(21)?)?;
    let mut polls = 0u32;
    let result = loop {
        if let Some(result) = handle.try_result() {
            break result?;
        }
        polls += 1;
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    println!(
        "Q21 finished after {polls} polls; it sent {} messages",
        result.messages_sent
    );
    println!("Q21 rows: {}\n", result.row_count());

    // --- cancel: cooperative, never wedges the fabric -------------------
    let doomed: Vec<QueryHandle> = (0..8)
        .map(|_| session.submit(&tpch_logical(2)?))
        .collect::<Result<_, EngineError>>()?;
    for h in &doomed {
        h.cancel();
    }
    let (mut cancelled, mut completed) = (0, 0);
    for h in doomed {
        match h.wait() {
            Err(EngineError::Cancelled) => cancelled += 1,
            Ok(_) => completed += 1, // already past its last stage boundary
            Err(e) => return Err(e.into()),
        }
    }
    println!("cancelled {cancelled}, completed {completed} — and the engine still answers:");
    let after = session.run(&tpch_logical(6)?)?;
    println!("Q6 rows: {}", after.row_count());

    session.shutdown();
    Ok(())
}
