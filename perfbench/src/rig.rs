//! The systems under test, built from the scenario registry and started
//! through their public entry points.

use smacs_chain::{Chain, SignedTransaction, Transaction};
use smacs_contracts::{Airdrop, PriceOracle, SessionGame, SmacsAmm};
use smacs_core::{build_call_data, ClientWallet, ShieldParams};
use smacs_crypto::{Keypair, Signature};
use smacs_driver::scenario::{self, OWNER_SECRET};
use smacs_primitives::Address;
use smacs_token::{ArgBinding, Token, TokenRequest, TokenType};
use smacs_ts::front::FrontEnd;
use smacs_ts::{
    FailoverClient, HttpClient, HttpServer, InProcessClient, ReplicaSet, ReplicaSetConfig,
    RuleBook, TokenService, TokenServiceConfig, TsApi,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::gen::Rng;

/// One HTTP Token Service (`FrontEnd` + `HttpServer`) enforcing the merged
/// rules of the `oracle`, `amm` and `game` scenarios.
pub struct HttpRig {
    /// Expiry-token requests cycled from the three scenarios' templates.
    pub templates: Vec<TokenRequest>,
    pub base_rules: RuleBook,
    pub oracle: Address,
    pub ts: Address,
    pub signer: Keypair,
    pub front: Arc<FrontEnd>,
    pub server: HttpServer,
}

impl HttpRig {
    pub fn start(seed: u64) -> HttpRig {
        let worlds: Vec<_> = ["oracle", "amm", "game"]
            .iter()
            .zip(0u64..)
            .map(|(name, i)| scenario::build(name, seed * 4 + i).expect("scenario builds"))
            .collect();
        let mut rules = worlds[0].rules.clone();
        for world in &worlds[1..] {
            for (ttype, incoming) in &world.rules.types {
                let merged = rules.rules_mut(*ttype);
                if merged.sender.is_none() {
                    merged.sender = incoming.sender.clone();
                }
                for (k, v) in &incoming.method {
                    merged.method.insert(k.clone(), v.clone());
                }
                for (k, v) in &incoming.argument {
                    merged.argument.insert(k.clone(), v.clone());
                }
            }
        }
        let templates = worlds.iter().flat_map(|w| w.requests.clone()).collect();
        let keypair = worlds[0].toolkit.ts_keypair().clone();
        let ts = keypair.address();
        let service = TokenService::new(
            keypair.clone(),
            rules.clone(),
            TokenServiceConfig::default(),
        );
        let front = Arc::new(FrontEnd::new(service, OWNER_SECRET, worlds[0].now()));
        let server = HttpServer::start(front.clone()).expect("bind loopback");
        HttpRig {
            templates,
            base_rules: rules,
            oracle: worlds[0].contract("oracle").expect("oracle deployed"),
            ts,
            signer: keypair,
            front,
            server,
        }
    }

    pub fn client(&self) -> HttpClient {
        HttpClient::connect(self.server.addr())
    }

    /// The same front end without the wire.
    pub fn in_process(&self) -> InProcessClient {
        InProcessClient::from_front(self.front.clone())
    }

    /// The base rules plus one extra `postPrice` operator.
    pub fn rules_with_operator(&self, operator: Address) -> RuleBook {
        let mut rules = self.base_rules.clone();
        rules
            .rules_mut(TokenType::Method)
            .method
            .get_mut(PriceOracle::POST_SIG)
            .expect("oracle rules name postPrice")
            .insert(operator.to_hex());
        rules
    }

    pub fn stop(self) {
        self.server.shutdown();
    }
}

/// A 3-replica `ReplicaSet` (wire counter votes, one WAL fsync per vote)
/// serving the `airdrop` scenario's one-time claim tokens.
pub struct OneTimeRig {
    pub templates: Vec<TokenRequest>,
    pub ts: Address,
    pub set: ReplicaSet,
    wal_dir: PathBuf,
}

impl OneTimeRig {
    pub fn start(seed: u64, wal_dir: &Path) -> OneTimeRig {
        let world = scenario::build("airdrop", seed * 4 + 3).expect("scenario builds");
        let _ = std::fs::remove_dir_all(wal_dir);
        let set = ReplicaSet::start(
            world.toolkit.ts_keypair().clone(),
            world.rules.clone(),
            ReplicaSetConfig {
                replicas: 3,
                now: world.now(),
                wal_dir: Some(wal_dir.to_path_buf()),
                ..ReplicaSetConfig::default()
            },
        )
        .expect("bind replica set");
        OneTimeRig {
            templates: world.requests.clone(),
            ts: set.ts_address(),
            set,
            wal_dir: wal_dir.to_path_buf(),
        }
    }

    pub fn client(&self) -> FailoverClient {
        FailoverClient::new(self.set.addrs())
    }

    pub fn stop(self) {
        self.set.shutdown();
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

/// What a transaction in a verify block does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxKind {
    /// `SessionGame.play`: writes the player's own score slot (and the
    /// shared high score when beaten).
    Play,
    /// `SmacsAmm.swap`: writes the shared reserves — conflicts.
    Swap,
    /// `Airdrop.claim` with a one-time token: writes the shield's bitmap.
    Claim,
}

/// One transaction as parts, so every execution starts from a cold
/// sender cache.
pub struct TxParts {
    pub tx: Transaction,
    pub signature: Signature,
    pub kind: TxKind,
    /// Index into [`ChainRig::tokens`] of the token this call carries.
    pub token: usize,
}

impl TxParts {
    pub fn cold(&self) -> SignedTransaction {
        SignedTransaction::from_parts(self.tx.clone(), self.signature)
    }
}

/// A chain with the `game`, `amm` and `airdrop` contracts behind shields,
/// and blocks of token-bearing transactions that are valid, in order, on
/// a fresh fork of it.
pub struct ChainRig {
    pub base: Chain,
    pub blocks: Vec<Vec<TxParts>>,
    /// Every token the blocks carry, with the request it answered.
    pub tokens: Vec<(TokenRequest, Token)>,
    pub ts: Address,
}

pub const BLOCK_TXS: usize = 64;

impl ChainRig {
    pub fn build(seed: u64, blocks: usize) -> ChainRig {
        let world = scenario::build("amm", seed * 4 + 1).expect("scenario builds");
        let amm = world.contract("amm").expect("amm deployed");
        let toolkit = world.toolkit;
        let mut chain = world.chain;
        let shield = ShieldParams {
            token_lifetime_secs: 3_600,
            max_tx_per_second: 0.35,
            disable_one_time: false,
        };
        let (game, _) = toolkit
            .deploy_shielded(&mut chain, Arc::new(SessionGame), &shield)
            .expect("deploy game");
        let (drop, _) = toolkit
            .deploy_shielded(&mut chain, Arc::new(Airdrop::granting(100)), &shield)
            .expect("deploy airdrop");
        let (game, drop) = (game.address, drop.address);
        let ts_key = toolkit.ts_keypair().clone();
        let ts = ts_key.address();
        let api = InProcessClient::new(
            TokenService::new(
                ts_key,
                RuleBook::permissive(),
                TokenServiceConfig::default(),
            ),
            OWNER_SECRET,
            chain.pending_env().timestamp,
        );
        let mut tokens = Vec::new();
        let mut mint = |req: TokenRequest| {
            let token = api.issue(&req).expect("permissive TS issues");
            tokens.push((req, token));
            (tokens.len() - 1, token)
        };

        let mut rng = Rng::new(seed ^ 0xb10c);
        let wei = 10u128.pow(22);
        let players: Vec<ClientWallet> = (0..32)
            .map(|i| ClientWallet::new(chain.funded_keypair(seed * 1_000 + 500 + i, wei)))
            .collect();
        let traders: Vec<ClientWallet> = (0..16)
            .map(|i| ClientWallet::new(chain.funded_keypair(seed * 1_000 + 600 + i, wei)))
            .collect();
        let signer = |w: &ClientWallet| ClientWallet::new(w.keypair().clone());
        let mut sessions = Vec::new();
        for p in &players {
            let (_, join) = mint(p.method_request(game, SessionGame::JOIN_SIG));
            let receipt = p
                .call_with_token(&mut chain, game, 0, &SessionGame::join_payload(), join)
                .expect("join executes");
            assert!(receipt.status.is_success(), "join failed");
            sessions.push(mint(p.method_request(game, SessionGame::PLAY_SIG)));
        }
        chain.seal_block();

        let mut nonces = std::collections::HashMap::new();
        let mut claimer = 0u64;
        let blocks = (0..blocks)
            .map(|_| {
                // Every block has the same mix, in a seeded order: half
                // plays, a quarter swaps, a quarter claims.
                let mut mix: Vec<usize> = (0..BLOCK_TXS).map(|i| i % 4).collect();
                for i in (1..mix.len()).rev() {
                    mix.swap(i, rng.below(i + 1));
                }
                mix.into_iter()
                    .map(|roll| {
                        let (wallet, to, payload, kind, token) = if roll < 2 {
                            let p = rng.below(players.len());
                            let payload = SessionGame::play_payload(1 + rng.below(50) as u64);
                            (
                                signer(&players[p]),
                                game,
                                payload,
                                TxKind::Play,
                                sessions[p],
                            )
                        } else if roll == 2 {
                            let t = &traders[rng.below(traders.len())];
                            let amount_in = 100 + rng.below(900) as u64;
                            let payload = SmacsAmm::swap_payload(amount_in, 1);
                            let req = TokenRequest::argument_token(
                                amm,
                                t.address(),
                                SmacsAmm::SWAP_SIG,
                                vec![
                                    ArgBinding {
                                        name: "arg0".into(),
                                        value: amount_in.to_string(),
                                    },
                                    ArgBinding {
                                        name: "arg1".into(),
                                        value: "1".into(),
                                    },
                                ],
                                payload.clone(),
                            );
                            (signer(t), amm, payload, TxKind::Swap, mint(req))
                        } else {
                            claimer += 1;
                            let c = ClientWallet::new(
                                chain.funded_keypair(seed * 1_000_000 + 10_000 + claimer, wei),
                            );
                            let req = c.method_request(drop, Airdrop::CLAIM_SIG).one_time();
                            let token = mint(req);
                            (c, drop, Airdrop::claim_payload(), TxKind::Claim, token)
                        };
                        let nonce = nonces
                            .entry(wallet.address())
                            .or_insert_with(|| chain.state().nonce(wallet.address()));
                        let tx = Transaction::call(
                            *nonce,
                            to,
                            0,
                            build_call_data(&payload, to, token.1),
                        );
                        *nonce += 1;
                        let signature = wallet.keypair().sign_digest(&tx.signing_digest());
                        TxParts {
                            tx,
                            signature,
                            kind,
                            token: token.0,
                        }
                    })
                    .collect()
            })
            .collect();
        ChainRig {
            base: chain,
            blocks,
            tokens,
            ts,
        }
    }

    pub fn txs(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }
}
