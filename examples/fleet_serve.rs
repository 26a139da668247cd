//! Serving a fleet over TCP: a [`NetServer`] hosts the engine on a
//! loopback socket and a [`NetClient`] in the same process plays the
//! remote producer — warming a handful of series over the wire,
//! pipelining steady-state batches through the client window, spiking
//! one series to draw an anomaly verdict, and finishing with a
//! forecast and a stats read, all in binary frames.
//!
//! In production the client half runs in another process (or another
//! host); everything below the `connect` call is exactly what that
//! process would do.
//!
//! ```sh
//! cargo run --release --example fleet_serve
//! ```

use oneshotstl_suite::fleet::{
    FleetConfig, FleetEngine, NetClient, NetServer, PeriodPolicy, Record, SeriesKey,
};

fn main() {
    let period = 24;
    let n_series = 8;

    // server side: build the engine, move it behind a socket
    let engine = FleetEngine::new(FleetConfig {
        shards: 2,
        period: PeriodPolicy::Fixed(period),
        ..Default::default()
    })
    .expect("engine");
    let server = NetServer::serve("127.0.0.1:0", engine).expect("bind loopback");
    println!("serving fleet on {}", server.local_addr());

    // client side: connect and warm the fleet over the wire
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let batch_at = |t: u64| -> Vec<Record> {
        (0..n_series)
            .map(|s| {
                let w = 2.0 * std::f64::consts::PI * t as f64 / period as f64;
                let mut v =
                    3.0 * (w + s as f64 * 0.5).sin() + 0.1 * (t as f64 * 9.3 + s as f64).sin();
                if t == 150 && s == 3 {
                    v += 40.0; // inject a spike on one series
                }
                Record::new(format!("host-{s}/rps"), t, v)
            })
            .collect()
    };

    let warmup = 3 * period as u64; // init_len = 3·T points per series
    for t in 0..warmup {
        client.ingest(batch_at(t)).expect("warm-up batch");
    }
    println!("warmed {n_series} series ({warmup} points each)");

    // steady state: pipeline batches through the client window instead
    // of paying a full round trip per batch
    let mut anomalies = Vec::new();
    let mut collect = |scored: Vec<oneshotstl_suite::fleet::ScoredPoint>| {
        anomalies.extend(scored.into_iter().filter(|p| p.is_anomaly()));
    };
    for t in warmup..200 {
        if let Some(scored) = client.submit(batch_at(t)).expect("pipelined batch") {
            collect(scored);
        }
    }
    while let Some(scored) = client.drain().expect("drain") {
        collect(scored);
    }
    for p in &anomalies {
        println!(
            "anomaly: {} t={} value={:.2} score={:.1}",
            p.key,
            p.t,
            p.value,
            p.score().unwrap_or(f64::NAN)
        );
    }
    assert!(
        anomalies.iter().any(|p| p.key.as_str() == "host-3/rps" && p.t == 150),
        "the injected spike must be flagged"
    );

    // forecast the spiked series a day ahead, over the wire
    let key = SeriesKey::new("host-3/rps");
    let fc = client.forecast(&[key], period as u32).expect("forecast");
    let head = &fc[0].as_ref().expect("series is live")[..4];
    println!("host-3/rps forecast head: {head:?}");

    let stats = client.stats().expect("stats");
    println!(
        "fleet: {} live series, {} points ingested, {} anomalies flagged",
        stats.live, stats.points, stats.anomalies
    );
    assert_eq!(stats.live, n_series);

    server.shutdown();
    println!("server drained and shut down");
}
