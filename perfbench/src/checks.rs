//! Output checks: every issued token must verify, one-time indexes must be
//! unique, and the parallel block result must equal the sequential one.

use smacs_crypto::recover_address;
use smacs_primitives::{Address, H256};
use smacs_token::{signing_digest, PayloadContext, Token, TokenRequest, TokenType};
use std::collections::HashSet;

/// Tally of output checks made and those that failed, with a note per
/// kind of failure.
#[derive(Default)]
pub struct Checks {
    pub made: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Count `bad` failures out of `made` checks of one kind.
    pub fn add(&mut self, what: &str, made: u64, bad: u64) {
        self.made += made;
        self.failed += bad;
        if bad > 0 {
            self.notes.push(format!("{what}: {bad} of {made} failed"));
        }
    }

    pub fn expect(&mut self, what: &str, ok: bool) {
        self.add(what, 1, u64::from(!ok));
    }
}

/// The digest the Token Service signs for `token` issued on `req` — the
/// same bytes a shielded contract reconstructs on chain.
pub fn token_digest(req: &TokenRequest, token: &Token) -> H256 {
    let ctx = PayloadContext {
        sender: req.sender,
        contract: req.contract,
        selector: req.selector(),
        calldata: if req.ttype == TokenType::Argument {
            req.calldata.clone()
        } else {
            None
        },
    };
    signing_digest(token.ttype, token.expire, token.index, &ctx)
}

/// Whether `token` answers `req` and its signature recovers to `ts`.
pub fn token_ok(req: &TokenRequest, token: &Token, ts: Address) -> bool {
    token.ttype == req.ttype
        && token.is_one_time() == req.one_time
        && recover_address(&token_digest(req, token), &token.signature) == Some(ts)
}

/// Count tokens that fail [`token_ok`], spreading the recoveries over
/// `threads` threads.
pub fn count_bad_tokens(
    issued: &[(u32, Token)],
    templates: &[TokenRequest],
    ts: Address,
    threads: usize,
) -> u64 {
    let chunk = issued.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = issued
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter(|(t, token)| !token_ok(&templates[*t as usize], token, ts))
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .sum()
    })
}

/// Number of one-time indexes that were handed out more than once.
pub fn duplicate_indexes<'a>(tokens: impl IntoIterator<Item = &'a Token>) -> u64 {
    let mut seen = HashSet::new();
    tokens
        .into_iter()
        .filter(|t| t.is_one_time() && !seen.insert(t.index))
        .count() as u64
}

/// Show that the token checks catch what they exist to catch: a corrupted
/// signature, an altered expiry, a token presented for another request
/// and a reused one-time index. (`verify::self_test` does the same for a
/// block pass that differs from the reference.)
pub fn self_test(req: &TokenRequest, token: &Token, ts: Address) -> Result<(), String> {
    if !token_ok(req, token, ts) {
        return Err("a genuine token failed its check".into());
    }
    let mut corrupted = *token;
    let mut bytes = corrupted.signature.to_bytes();
    bytes[7] ^= 0x40;
    if let Ok(sig) = smacs_crypto::Signature::from_bytes(&bytes) {
        corrupted.signature = sig;
        if token_ok(req, &corrupted, ts) {
            return Err("a corrupted signature passed".into());
        }
    }
    let mut expired = *token;
    expired.expire ^= 1;
    if token_ok(req, &expired, ts) {
        return Err("a token with an altered expiry passed".into());
    }
    let mut other = req.clone();
    other.sender = Address::from_low_u64(0xbad);
    if token_ok(&other, token, ts) {
        return Err("a token passed for another sender".into());
    }
    let mut reused = *token;
    reused.index = 5;
    if duplicate_indexes([&reused, &reused]) != 1 {
        return Err("a reused one-time index went unnoticed".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smacs_crypto::Keypair;

    #[test]
    fn self_test_passes_on_a_genuine_token_and_catches_corruption() {
        let kp = Keypair::from_seed(3);
        let req = TokenRequest::method_token(
            Address::from_low_u64(1),
            Address::from_low_u64(2),
            "claim()",
        )
        .one_time();
        let mut token = Token {
            ttype: req.ttype,
            expire: 4_000,
            index: 9,
            signature: kp.sign_message(b"placeholder"),
        };
        token.signature = kp.sign_digest(&token_digest(&req, &token));
        self_test(&req, &token, kp.address()).unwrap();
        // A wrong Token Service key is a failed check, not a pass.
        assert!(!token_ok(&req, &token, Keypair::from_seed(4).address()));
        assert!(self_test(&req, &token, Keypair::from_seed(4).address()).is_err());
    }

    #[test]
    fn duplicates_count_only_one_time_indexes() {
        let kp = Keypair::from_seed(1);
        let t = |index| Token {
            ttype: TokenType::Method,
            expire: 1,
            index,
            signature: kp.sign_message(b"x"),
        };
        let tokens = [t(-1), t(-1), t(1), t(2), t(1)];
        assert_eq!(duplicate_indexes(&tokens), 1);
    }
}
