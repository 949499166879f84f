//! Checkpoint-path benchmarks: serialize/parse throughput of the
//! `TrainCheckpoint` codec and the end-to-end atomic save/load round
//! trip (temp file + fsync + rename), at growing parameter counts.
//!
//! Checkpoints are built synthetically — codec cost depends only on
//! shapes, so seeded uniform parameters and Adam moments stand in for
//! trained state. `from_bytes` includes the full validation walk
//! (checksum, header bounds, shape tables), which is the cost a resume
//! actually pays. Rows are archived in `results/bench_checkpoint.json`.
//!
//! Run with `cargo bench -p gnmr-bench --bench checkpoint`.
//! `-- --quick-smoke` short-runs the smallest cell and leaves the
//! archive untouched (see `gnmr_bench::harness`).

use std::hint::black_box;

use gnmr::autograd::AdamState;
use gnmr::core::TrainCheckpoint;
use gnmr::tensor::{init, rng};
use gnmr_bench::harness::{self, Mode, Row};

/// Embedding width for the synthetic parameter set.
const DIM: usize = 16;

/// Entity counts: each cell carries two `n x DIM` parameter matrices
/// plus first and second Adam moments for each (6x the payload).
const CELLS: [usize; 3] = [4_096, 32_768, 262_144];

/// A synthetic checkpoint shaped like a trained model's: two parameter
/// matrices with full Adam moment pairs and a short loss history.
fn synthetic(entities: usize) -> TrainCheckpoint {
    let mut r = rng::seeded(0xc4b7 + entities as u64);
    let params = vec![
        ("item_embedding".to_string(), init::uniform(entities, DIM, -0.1, 0.1, &mut r)),
        ("user_embedding".to_string(), init::uniform(entities, DIM, -0.1, 0.1, &mut r)),
    ];
    let moments = params
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                init::uniform(m.rows(), m.cols(), 0.0, 0.01, &mut r),
                init::uniform(m.rows(), m.cols(), 0.0, 0.001, &mut r),
            )
        })
        .collect();
    TrainCheckpoint {
        epochs_done: 8,
        steps: 8 * 64,
        epoch_losses: vec![0.5; 8],
        rng_state: 0x7212,
        opt: AdamState { t: 8 * 64, lr: 0.001, moments },
        params,
    }
}

fn main() {
    let mode = Mode::from_args();
    let cells: &[usize] = if mode == Mode::Smoke { &CELLS[..1] } else { &CELLS };
    harness::banner("checkpoint", mode);

    let dir = std::env::temp_dir().join(format!("gnmr_bench_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("bench.ckpt");

    let mut rows = Vec::new();
    for &entities in cells {
        let ckpt = synthetic(entities);
        let bytes = ckpt.to_bytes();
        let ns = harness::time_interleaved(mode, 3, |i| match i {
            0 => {
                black_box(ckpt.to_bytes());
            }
            1 => {
                black_box(TrainCheckpoint::from_bytes(&bytes).expect("parse"));
            }
            // The end-to-end durable round trip: atomic save (write temp,
            // fsync, rename, fsync dir) then validated load.
            _ => {
                ckpt.save(&path).expect("save");
                black_box(TrainCheckpoint::load(&path).expect("load"));
            }
        });
        for (op, ns) in ["serialize", "parse", "file_roundtrip"].into_iter().zip(ns) {
            rows.push(
                Row::new()
                    .str("op", &format!("checkpoint_{op}"))
                    .num("entities", entities)
                    .num("dim", DIM)
                    .num("bytes", bytes.len())
                    .num("ns_per_op", ns)
                    .num("mb_per_sec", (bytes.len() as u128 * 1_000_000_000) / (ns.max(1) * 1_048_576)),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    harness::print_table(&rows);
    harness::write_archive(mode, "bench_checkpoint.json", rows);
}
