//! The deployment under test: one `NetServer` (default `ServerConfig`) in
//! front of one `ShardRouter` (default `RouterConfig`) with a single local
//! engine shard (`EngineConfig::default()`), serving
//! `FvParams::hpca19_batching()`.

use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::router::ShardSpec;
use hefv_net::{NetServer, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Name of the parameter set every workload runs at.
pub const PARAMS_NAME: &str = "hpca19_batching";

/// One registered tenant and the secret key the benchmark decrypts with.
pub struct Tenant {
    pub id: TenantId,
    pub sk: SecretKey,
    pub pk: Arc<PublicKey>,
    pub rlk: Arc<RelinKey>,
    pub galois: Option<Arc<GaloisKeySet>>,
}

pub struct Deployment {
    pub ctx: Arc<FvContext>,
    pub router: Arc<ShardRouter>,
    pub server: NetServer,
    pub tenants: Vec<Tenant>,
}

/// A tenant to create: its id and whether it needs the slot-sum Galois
/// key set (rotations and slot sums).
#[derive(Clone, Copy)]
pub struct TenantSpec {
    pub id: TenantId,
    pub galois: bool,
}

impl Deployment {
    /// Builds the context, generates every tenant's keys from `seed`,
    /// starts the engine, router and server and registers the tenants.
    /// Returns the deployment and its set-up time in seconds, which ends
    /// when the first request can be sent.
    pub fn start(seed: u64, specs: &[TenantSpec]) -> (Deployment, f64) {
        let t0 = Instant::now();
        let ctx = Arc::new(
            FvContext::new(FvParams::hpca19_batching()).expect("hpca19_batching is a valid set"),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let tenants: Vec<Tenant> = specs
            .iter()
            .map(|spec| {
                let (sk, pk, rlk) = keygen(&ctx, &mut rng);
                let galois = spec
                    .galois
                    .then(|| Arc::new(GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng)));
                Tenant {
                    id: spec.id,
                    sk,
                    pk: Arc::new(pk),
                    rlk: Arc::new(rlk),
                    galois,
                }
            })
            .collect();
        let router = Arc::new(ShardRouter::with_config(RouterConfig::default()));
        router
            .add_shard(ShardSpec {
                name: "local".into(),
                ctx: Arc::clone(&ctx),
                config: EngineConfig::default(),
            })
            .expect("a first shard is always accepted");
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&router), ServerConfig::default())
            .expect("bind a loopback port");
        for t in &tenants {
            router
                .register_tenant(t.id, t.keys())
                .expect("register a tenant on a local shard");
        }
        let setup_s = t0.elapsed().as_secs_f64();
        (
            Deployment {
                ctx,
                router,
                server,
                tenants,
            },
            setup_s,
        )
    }

    /// Stops the server (draining in-flight jobs) and then the engine.
    pub fn shutdown(self) {
        self.server.shutdown();
        drop(self.router);
    }
}

impl Tenant {
    /// The key material the engine evaluates this tenant's jobs with.
    pub fn keys(&self) -> TenantKeys {
        TenantKeys {
            pk: Some(Arc::clone(&self.pk)),
            rlk: Some(Arc::clone(&self.rlk)),
            galois: self.galois.clone(),
        }
    }
}
