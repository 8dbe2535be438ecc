//! Simulator throughput benches: world construction, per-dataset engines,
//! DNS resolution, catalog sampling, and the delay model.

use std::hint::black_box;

use ytcdn_bench::{bench_scenario, Bench, BENCH_SEED};
use ytcdn_cdnsim::{diurnal_factor, ScenarioConfig, SimRng, StandardScenario, VideoCatalog};
use ytcdn_geomodel::CityDb;
use ytcdn_netsim::{AccessKind, DelayModel, Endpoint, NoiseRng};
use ytcdn_tstat::DatasetName;

/// Calls per round of the per-call micro benches: a single call is far
/// below the span timer's microsecond resolution.
const MICRO_CALLS: u32 = 100_000;

fn bench_world_build(b: &Bench) {
    b.run("scenario/build_world", || {
        StandardScenario::build(ScenarioConfig::with_scale(0.001, BENCH_SEED))
    });
}

fn bench_dataset_simulation(b: &Bench) {
    let scenario = bench_scenario();
    for name in [DatasetName::Eu1Ftth, DatasetName::Eu1Adsl, DatasetName::Eu2] {
        b.run(&format!("scenario/simulate_week/{name}"), || {
            scenario.run(name).0
        });
    }
}

fn bench_catalog_sampling(b: &Bench) {
    let catalog = VideoCatalog::standard();
    let mut rng = SimRng::seed_from_u64(1);
    b.run(&format!("catalog/sample/x{MICRO_CALLS}"), || {
        for _ in 0..MICRO_CALLS {
            black_box(catalog.sample(86_400_000, &mut rng));
        }
    });
}

fn bench_delay_model(b: &Bench) {
    let db = CityDb::builtin();
    let model = DelayModel::default();
    let a = Endpoint::new(db.named("Turin").coord, AccessKind::Adsl);
    let dc = Endpoint::new(db.named("Ashburn").coord, AccessKind::DataCenter);
    b.run(&format!("delay/floor_rtt/x{MICRO_CALLS}"), || {
        for _ in 0..MICRO_CALLS {
            black_box(model.floor_rtt_ms(black_box(&a), &dc));
        }
    });
    let mut rng = NoiseRng::seed_from_u64(2);
    b.run(&format!("delay/sample_rtt/x{MICRO_CALLS}"), || {
        for _ in 0..MICRO_CALLS {
            black_box(model.sample_rtt_ms(&a, &dc, &mut rng));
        }
    });
}

fn bench_diurnal(b: &Bench) {
    b.run(&format!("workload/diurnal_factor/x{MICRO_CALLS}"), || {
        for _ in 0..MICRO_CALLS {
            black_box(diurnal_factor(black_box(13.37)));
        }
    });
}

fn main() {
    let b = Bench::from_args();
    bench_world_build(&b);
    bench_dataset_simulation(&b);
    bench_catalog_sampling(&b);
    bench_delay_model(&b);
    bench_diurnal(&b);
    b.finish();
}
