//! Micro-benchmarks of the wire datagram codec (also the archive's
//! record payload) on realistic report sizes (the paper's reports
//! carry ~40-partner lists).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use magellan_netsim::{PeerAddr, SimTime};
use magellan_trace::{wire, BufferMap, PartnerRecord, PeerReport};
use magellan_workload::ChannelId;
use std::hint::black_box;

fn synthetic_report(partners: usize) -> PeerReport {
    PeerReport {
        time: SimTime::at(3, 21, 0),
        addr: PeerAddr::from_u32(0x0B01_0203),
        channel: ChannelId::CCTV1,
        buffer_map: BufferMap::new(123_456, 150),
        download_capacity_kbps: 2_048.5,
        upload_capacity_kbps: 512.25,
        recv_throughput_kbps: 398.0,
        send_throughput_kbps: 610.0,
        partners: (0..partners)
            .map(|k| PartnerRecord {
                addr: PeerAddr::from_u32(0x0C00_0000 + k as u32),
                tcp_port: 16_800 + k as u16,
                udp_port: 26_800 + k as u16,
                segments_sent: (k as u32 * 37) % 500,
                segments_received: (k as u32 * 17) % 500,
            })
            .collect(),
    }
}

fn bench_codecs(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec_micro");
    g.sample_size(60);
    for &partners in &[0usize, 10, 40, 120] {
        let report = synthetic_report(partners);
        let datagram = wire::encode(&report);
        g.bench_with_input(
            BenchmarkId::new("wire_encode", partners),
            &report,
            |b, r| b.iter(|| black_box(wire::encode(black_box(r)))),
        );
        g.bench_with_input(
            BenchmarkId::new("wire_decode", partners),
            &datagram,
            |b, d| b.iter(|| black_box(wire::decode(&mut d.clone()).unwrap())),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_codecs);
criterion_main!(benches);
