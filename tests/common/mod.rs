//! Helpers shared by the integration tests that pin report bytes.

/// 64-bit FNV-1a over the report bytes, hex.
pub fn fnv1a64(json: &str) -> String {
    let h = json.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}
