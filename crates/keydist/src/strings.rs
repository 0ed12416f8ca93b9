//! Order-preserving string → ring-position encoding.
//!
//! Range-queriable overlays index *unhashed* keys: if `a < b` as strings
//! then `encode(a) <= encode(b)` on the (linearised) ring, so peers own
//! contiguous lexical ranges and prefix/range queries touch contiguous
//! peers. The encoding takes the first eight bytes of the string as a
//! big-endian base-256 fraction — exactly the standard prefix fixed-point
//! embedding.

use oscar_types::Id;

/// Encodes a byte string order-preservingly into a ring position.
///
/// Properties (see tests):
/// * `a <= b` (bytewise) implies `encode(a).raw() <= encode(b).raw()`;
/// * strings sharing an 8-byte prefix collide (acceptable: the corpus
///   generator keeps discriminating bytes early, and ties are broken by
///   the caller where uniqueness matters).
fn encode_string_key(s: &str) -> Id {
    let bytes = s.as_bytes();
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    Id::new(u64::from_be_bytes(buf))
}

/// Case-normalising variant: Gnutella clients match filenames
/// case-insensitively, so the corpus is indexed lowercased.
pub fn encode_filename_key(name: &str) -> Id {
    let lowered: String = name
        .chars()
        .take(8)
        .flat_map(|c| c.to_lowercase())
        .collect();
    encode_string_key(&lowered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn preserves_lexicographic_order() {
        let words = ["", "a", "aa", "ab", "abba", "b", "ba", "zz"];
        let keys: Vec<Id> = words.iter().map(|w| encode_string_key(w)).collect();
        for w in keys.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn prefix_extension_does_not_decrease() {
        assert!(encode_string_key("abc") <= encode_string_key("abcd"));
    }

    #[test]
    fn filename_encoding_is_case_insensitive() {
        assert_eq!(
            encode_filename_key("MyFile.MP3"),
            encode_filename_key("myfile.mp3")
        );
    }

    #[test]
    fn long_strings_use_first_eight_bytes() {
        assert_eq!(
            encode_string_key("abcdefghSUFFIX1"),
            encode_string_key("abcdefghSUFFIX2")
        );
    }

    proptest! {
        #[test]
        fn prop_order_preserving(a in "[ -~]{0,16}", b in "[ -~]{0,16}") {
            // ASCII printable strings: bytewise order == char order
            let (ka, kb) = (encode_string_key(&a), encode_string_key(&b));
            if a.as_bytes() <= b.as_bytes() {
                prop_assert!(ka <= kb || a.as_bytes().iter().take(8).eq(b.as_bytes().iter().take(8)));
            }
        }

        #[test]
        fn prop_deterministic(s in "\\PC{0,32}") {
            prop_assert_eq!(encode_string_key(&s), encode_string_key(&s));
        }
    }
}
