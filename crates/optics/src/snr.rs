//! SNR / OSNR conversions and operating-margin helpers.
//!
//! The paper reports link quality as an electrical SNR; optical equipment
//! more often reports OSNR over the conventional 0.1 nm (12.5 GHz) reference
//! bandwidth. The two differ by the ratio of symbol rate to reference
//! bandwidth, so converting is a one-line log-domain shift — but one that is
//! easy to get backwards, hence these named helpers.

use rwc_util::units::Db;

/// The conventional OSNR reference bandwidth: 0.1 nm at 1550 nm ≈ 12.5 GHz.
pub(crate) const OSNR_REF_BANDWIDTH_GHZ: f64 = 12.5;

/// The symbol rate of the paper-era coherent transceivers (GBd). All ladder
/// rates run at the same baud; capacity changes come from bit loading.
pub const DEFAULT_BAUD_GBD: f64 = 32.0;

/// Converts OSNR (0.1 nm reference) to electrical SNR at the given symbol
/// rate: `SNR = OSNR - 10·log10(baud / 12.5 GHz)`.
pub fn osnr_to_snr(osnr: Db, baud_gbd: f64) -> Db {
    assert!(baud_gbd > 0.0, "symbol rate must be positive");
    osnr - Db(10.0 * (baud_gbd / OSNR_REF_BANDWIDTH_GHZ).log10())
}

/// Headroom between a measured SNR and a threshold. Positive = above
/// threshold.
pub fn margin(snr: Db, threshold: Db) -> Db {
    snr - threshold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn osnr_exceeds_snr_at_wideband_rates() {
        // At 32 GBd the signal bandwidth exceeds the 12.5 GHz reference, so
        // OSNR reads higher than SNR by 10·log10(32/12.5) ≈ 4.08 dB.
        let snr = osnr_to_snr(Db(10.58), DEFAULT_BAUD_GBD);
        assert!((snr.value() - 6.5).abs() < 0.01, "snr={snr}");
    }

    #[test]
    fn reference_baud_is_identity() {
        let snr = Db(9.0);
        assert_eq!(osnr_to_snr(snr, OSNR_REF_BANDWIDTH_GHZ), snr);
    }

    #[test]
    fn margin_sign_convention() {
        assert_eq!(margin(Db(8.0), Db(6.5)), Db(1.5));
        assert_eq!(margin(Db(5.0), Db(6.5)), Db(-1.5));
    }
}
