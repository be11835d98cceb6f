//! Base value types shared across the SMACS workspace.
//!
//! The types here mirror the primitives of the Ethereum execution layer that
//! the paper's prototype runs on: 256-bit words ([`U256`]), 32-byte hashes
//! ([`H256`]), 20-byte account addresses ([`Address`]), cheap byte buffers
//! ([`Bytes`]), and the RLP encoding used to serialize transactions
//! ([`rlp`]).

pub mod address;
pub mod bytes;
pub mod epoch;
pub mod hash;
pub mod json;
pub mod pool;
pub mod rlp;
pub mod u256;

pub use address::Address;
pub use bytes::Bytes;
pub use epoch::EpochCell;
pub use hash::H256;
pub use pool::WorkerPool;
pub use u256::U256;

/// One ether, in wei.
pub const ETHER: u128 = 1_000_000_000_000_000_000;
/// One gwei, in wei.
pub const GWEI: u128 = 1_000_000_000;

/// Convert a wei amount to a fractional ether value (for reporting only).
pub fn wei_to_ether(wei: u128) -> f64 {
    wei as f64 / ETHER as f64
}

/// Convert an ether amount to wei, saturating on overflow.
pub fn ether_to_wei(ether: f64) -> u128 {
    (ether * ETHER as f64) as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ether_round_trip() {
        assert_eq!(wei_to_ether(ETHER), 1.0);
        assert_eq!(ether_to_wei(2.0), 2 * ETHER);
        assert_eq!(wei_to_ether(GWEI), 1e-9);
    }
}
