//! Geolocate YouTube servers with CBG, compare against the database
//! baseline, and cluster servers into data centers by city — the paper's
//! Section V pipeline end to end.
//!
//! ```sh
//! cargo run --release --example geolocate_servers
//! ```

// Narrated output to stdout is the point of this target.
#![allow(clippy::print_stdout)]

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
use ytcdn_core::geo_analysis::{continent_counts, geolocate_servers};
use ytcdn_core::observatory::GroundTruth;
use ytcdn_core::Observatory;
use ytcdn_geoloc::{cluster_by_city, MaxmindLike};
use ytcdn_geomodel::CityDb;
use ytcdn_netsim::planetlab_landmarks;
use ytcdn_tstat::DatasetName;

fn main() {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.01, 9));
    let (dataset, _) = scenario.run(DatasetName::Eu1Campus);
    println!(
        "dataset {}: {} distinct servers",
        dataset.name(),
        dataset.server_ips().len()
    );

    // The database baseline fails: every server "is" in Mountain View.
    let maxmind = MaxmindLike::with_hq_default();
    let a_server = *dataset.server_ips().iter().next().expect("servers seen");
    println!(
        "MaxMind-like answer for {a_server}: {} (same for every server — useless for a CDN)",
        maxmind.geolocate(a_server)
    );

    // CBG with the 215-landmark PlanetLab-like set.
    println!("\ncalibrating CBG on 215 landmarks…");
    let observatory = Observatory::new(scenario.world());
    let cbg = observatory.calibrate_cbg(planetlab_landmarks(1), 3, 17);
    let locations = geolocate_servers(observatory, &dataset, &cbg, 5, 1);
    let counts = continent_counts(&locations);
    println!(
        "servers per continent (Table III row): N.America={} Europe={} Others={}",
        counts.north_america, counts.europe, counts.others
    );

    // Cluster into data centers by city.
    let estimates: Vec<_> = locations.iter().map(|l| (l.ip, l.cbg.estimate)).collect();
    let clusters = cluster_by_city(&estimates, &CityDb::builtin());
    println!("\ninferred data centers (top 10 by /24 representatives):");
    for c in clusters.iter().take(10) {
        println!("  {:<16} {} representative /24s", c.city_name, c.len());
    }

    // Validation against the simulator's ground truth, which the pipeline
    // above never read.
    let truth = GroundTruth::new(scenario.world());
    let errors: Vec<f64> = locations.iter().filter_map(|l| truth.error_km(l)).collect();
    let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
    println!("\nmean CBG error vs ground truth: {mean_err:.0} km");
}
