//! Routing benchmarks and the path-cache ablation: BFS-on-demand vs the
//! cached distance fields, on fat-tree and BCube. A cold router runs one
//! BFS per new destination; a warm one answers every route from the
//! distance fields it already holds, which is the cost the simulator pays
//! once its cache has seen each destination.
//!
//! Run with `cargo bench --bench routing` (add `-- --quick` for a reduced
//! sample count); compiled in CI via `cargo bench --no-run`.

use holdcsim_bench::{bench, quick_mode};
use holdcsim_des::rng::SimRng;
use holdcsim_network::routing::Router;
use holdcsim_network::topologies::{bcube, fat_tree, LinkSpec};

fn main() {
    let samples = if quick_mode() { 3 } else { 15 };
    let ft = fat_tree(8, LinkSpec::ten_gigabit());
    let bc = bcube(4, 2, LinkSpec::gigabit());
    let n_pairs = 256u64;

    for (name, built) in [("fat_tree_k8", &ft), ("bcube_4_2", &bc)] {
        // Ablation arm 1: cold cache per batch (dynamic routing).
        bench(
            &format!("routing/{name}_cold_cache"),
            samples,
            Some(n_pairs),
            || {
                let mut router = Router::new();
                let mut rng = SimRng::seed_from(7);
                for i in 0..n_pairs {
                    let a = *rng.choose(&built.hosts).unwrap();
                    let z = *rng.choose(&built.hosts).unwrap();
                    let _ = router.route(&built.topology, a, z, i);
                }
            },
        );
        // Ablation arm 2: warm cache (static routes).
        let mut router = Router::new();
        // Pre-warm every destination.
        for &h in &built.hosts {
            let _ = router.distance(&built.topology, built.hosts[0], h);
        }
        bench(
            &format!("routing/{name}_warm_cache"),
            samples,
            Some(n_pairs),
            || {
                let mut rng = SimRng::seed_from(7);
                for i in 0..n_pairs {
                    let a = *rng.choose(&built.hosts).unwrap();
                    let z = *rng.choose(&built.hosts).unwrap();
                    let _ = router.route(&built.topology, a, z, i);
                }
            },
        );
    }
}
