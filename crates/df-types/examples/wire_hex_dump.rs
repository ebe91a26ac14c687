//! Print the worked DFW example used by `docs/WIRE_FORMAT.md`: a real
//! two-span batch, hex-dumped with 16 bytes per line. Regenerate the
//! doc's hex block with:
//!
//! ```text
//! cargo run -p df-types --example wire_hex_dump
//! ```

use df_types::span::{Span, TapSide};
use df_types::wire;

fn main() {
    let mut a = Span::synthetic(TapSide::ClientProcess, 1_000, 5_000);
    a.endpoint = "GET /api/v1/products".into();
    let b = Span::synthetic(TapSide::ServerProcess, 2_000, 4_000);

    let bytes = wire::encode_batch(&[a, b]);
    println!("{} bytes", bytes.len());
    for (i, chunk) in bytes.chunks(16).enumerate() {
        let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
        let ascii: String = chunk
            .iter()
            .map(|&b| {
                if (0x20..0x7f).contains(&b) {
                    b as char
                } else {
                    '.'
                }
            })
            .collect();
        println!("{:04x}  {:<47}  |{}|", i * 16, hex.join(" "), ascii);
    }
}
