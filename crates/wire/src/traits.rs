use crate::{Reader, WireError, Writer};
use std::collections::BTreeMap;

/// A value with a canonical wire encoding.
///
/// Implementations must be *canonical*: decoding the bytes produced by
/// `encode` yields an equal value, and equal values produce identical
/// bytes. The platform relies on this for signing extension packages.
///
/// # Examples
///
/// ```
/// use pmp_wire::{Wire, Writer, Reader, WireError};
///
/// struct Point { x: i64, y: i64 }
///
/// impl Wire for Point {
///     fn encode(&self, w: &mut Writer) {
///         w.put_vari64(self.x);
///         w.put_vari64(self.y);
///     }
///     fn decode(r: &mut Reader) -> Result<Self, WireError> {
///         Ok(Point { x: r.get_vari64()?, y: r.get_vari64()? })
///     }
/// }
/// ```
pub trait Wire {
    /// Appends the canonical encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes a value of this type from `r`.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] describing malformed input.
    fn decode(r: &mut Reader) -> Result<Self, WireError>
    where
        Self: Sized;

    /// Appends the encodings of `items` back to back, with no count
    /// prefix; `Vec<T>` encodes its elements through this. The result
    /// must equal encoding each item in turn. `u8` overrides it with
    /// one raw copy, so a byte vector costs a `memcpy`, not a push per
    /// byte. Decoding stays per element, so error offsets are unchanged.
    #[doc(hidden)]
    fn encode_slice(items: &[Self], w: &mut Writer)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(w);
        }
    }
}

macro_rules! wire_int {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Wire for $ty {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn decode(r: &mut Reader) -> Result<Self, WireError> {
                r.$get()
            }
        }
    };
}

impl Wire for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        r.get_u8()
    }
    fn encode_slice(items: &[u8], w: &mut Writer) {
        w.put_raw(items);
    }
}

wire_int!(u16, put_u16, get_u16);
wire_int!(u32, put_u32, get_u32);
wire_int!(u64, put_u64, get_u64);
wire_int!(bool, put_bool, get_bool);
wire_int!(f64, put_f64, get_f64);

impl Wire for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_vari64(*self);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        r.get_vari64()
    }
}

impl Wire for i32 {
    fn encode(&self, w: &mut Writer) {
        w.put_vari64(i64::from(*self));
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let v = r.get_vari64()?;
        i32::try_from(v).map_err(|_| WireError::Invalid {
            type_name: "i32",
            reason: "value out of range",
        })
    }
}

impl Wire for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_varu64(*self as u64);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let v = r.get_varu64()?;
        usize::try_from(v).map_err(|_| WireError::Invalid {
            type_name: "usize",
            reason: "value out of range",
        })
    }
}

impl Wire for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        r.get_str()
    }
}

/// Generic sequence encoding: count prefix, then the elements. For
/// `Vec<u8>` this is byte-identical to [`Writer::put_bytes`] because a
/// `u8` element encodes as one raw byte.
impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_varu64(self.len() as u64);
        T::encode_slice(self, w);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let len = r.get_len()?;
        // One byte is the minimum encoding per element; a hostile count
        // can never force allocation beyond the remaining input.
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(r.bad_tag("Option", tag)),
        }
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.put_varu64(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let len = r.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            if out.insert(k, v).is_some() {
                return Err(WireError::Invalid {
                    type_name: "BTreeMap",
                    reason: "duplicate key",
                });
            }
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// Implements [`Wire`] for a struct by listing its fields in order.
///
/// ```
/// use pmp_wire::{wire_struct, Wire};
///
/// #[derive(Debug, PartialEq, Clone)]
/// pub struct Beacon { pub id: u64, pub name: String }
/// wire_struct!(Beacon { id: u64, name: String });
///
/// let b = Beacon { id: 4, name: "base".into() };
/// let bytes = pmp_wire::to_bytes(&b);
/// assert_eq!(pmp_wire::from_bytes::<Beacon>(&bytes).unwrap(), b);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident : $ty:ty),* $(,)? }) => {
        impl $crate::Wire for $name {
            fn encode(&self, w: &mut $crate::Writer) {
                $( <$ty as $crate::Wire>::encode(&self.$field, w); )*
            }
            fn decode(r: &mut $crate::Reader) -> Result<Self, $crate::WireError> {
                Ok($name {
                    $( $field: <$ty as $crate::Wire>::decode(r)?, )*
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Clone)]
    struct Sample {
        a: u32,
        b: String,
        c: Vec<u64>,
        d: Option<i64>,
    }
    wire_struct!(Sample {
        a: u32,
        b: String,
        c: Vec<u64>,
        d: Option<i64>
    });

    #[test]
    fn struct_macro_roundtrip() {
        let s = Sample {
            a: 9,
            b: "x".into(),
            c: vec![1, 2, 3],
            d: Some(-5),
        };
        let bytes = crate::to_bytes(&s);
        assert_eq!(crate::from_bytes::<Sample>(&bytes).unwrap(), s);
    }

    #[test]
    fn duplicate_map_keys_rejected() {
        let mut w = Writer::new();
        w.put_varu64(2);
        w.put_str("k");
        w.put_u32(1);
        w.put_str("k");
        w.put_u32(2);
        let bytes = w.into_bytes();
        assert!(crate::from_bytes::<BTreeMap<String, u32>>(&bytes).is_err());
    }

    /// The per-element loop `Vec<T>::encode` used before
    /// [`Wire::encode_slice`]: the reference the fast paths must match.
    fn per_element<T: Wire>(items: &[T]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varu64(items.len() as u64);
        for item in items {
            item.encode(&mut w);
        }
        w.into_bytes()
    }

    #[test]
    fn byte_vectors_encode_like_put_bytes() {
        for len in [0usize, 1, 127, 128, 16_383, 16_384, 100_000] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let mut w = Writer::new();
            w.put_bytes(&bytes);
            let expected = w.into_bytes();
            assert_eq!(crate::to_bytes(&bytes), expected, "length {len}");
            assert_eq!(per_element(&bytes), expected, "length {len}");
            assert_eq!(crate::from_bytes::<Vec<u8>>(&expected).unwrap(), bytes);
        }
    }

    #[test]
    fn other_vectors_encode_like_the_per_element_loop() {
        let strings: Vec<String> = (0..300).map(|i| "x".repeat(i % 17)).collect();
        assert_eq!(crate::to_bytes(&strings), per_element(&strings));
        let nested: Vec<Vec<u8>> = (0..40).map(|i| vec![i as u8; i * 5]).collect();
        assert_eq!(crate::to_bytes(&nested), per_element(&nested));
        let samples: Vec<Sample> = (0..50)
            .map(|i| Sample {
                a: i,
                b: format!("s{i}"),
                c: vec![u64::from(i); i as usize % 4],
                d: (i % 2 == 0).then_some(-i64::from(i)),
            })
            .collect();
        assert_eq!(crate::to_bytes(&samples), per_element(&samples));
    }

    // -- Seeded property suites: each case draws from one splitmix64
    // seed, so a failing case reproduces exactly from the seed in its
    // message. The generator is local because the simulator's `SimRng`
    // lives in pmp-net, which depends on this crate. --

    mod props {
        use super::*;

        /// Seeded cases per property (proptest's default case count).
        const CASES: u64 = 256;

        /// splitmix64, the same mixer as pmp-net's `SimRng`.
        struct Rng(u64);

        impl Rng {
            fn next_u64(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }

            /// Uniform in `0..n` (`n > 0`).
            fn below(&mut self, n: u64) -> u64 {
                ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
            }

            /// Any magnitude: a random value shifted right by a random
            /// amount, so every varint length shows up.
            fn int(&mut self) -> u64 {
                let shift = self.below(64);
                self.next_u64() >> shift
            }

            /// Up to `max - 1` random bytes.
            fn bytes(&mut self, max: u64) -> Vec<u8> {
                (0..self.below(max)).map(|_| self.next_u64() as u8).collect()
            }

            /// Up to 31 chars mixing ASCII, 2-, 3- and 4-byte UTF-8.
            fn string(&mut self) -> String {
                (0..self.below(32))
                    .map(|_| {
                        let limit = [0x80, 0x800, 0x1_0000, 0x11_0000][self.below(4) as usize];
                        loop {
                            if let Some(c) = char::from_u32(self.below(limit) as u32) {
                                break c;
                            }
                        }
                    })
                    .collect()
            }
        }

        /// Runs `case` once per seed in `0..CASES`.
        fn for_each_seed(mut case: impl FnMut(u64, &mut Rng)) {
            for seed in 0..CASES {
                case(seed, &mut Rng(seed));
            }
        }

        fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(seed: u64, v: &T) {
            let back = crate::from_bytes::<T>(&crate::to_bytes(v));
            assert_eq!(back.as_ref(), Ok(v), "seed {seed}");
        }

        #[test]
        fn u64_roundtrip() {
            for_each_seed(|seed, rng| roundtrip(seed, &rng.int()));
        }

        #[test]
        fn i64_roundtrip() {
            for_each_seed(|seed, rng| {
                let v = rng.int() as i64;
                roundtrip(seed, &v);
                roundtrip(seed, &v.wrapping_neg());
            });
        }

        #[test]
        fn string_roundtrip() {
            for_each_seed(|seed, rng| roundtrip(seed, &rng.string()));
        }

        #[test]
        fn bytes_roundtrip() {
            for_each_seed(|seed, rng| roundtrip(seed, &rng.bytes(512)));
        }

        #[test]
        fn vec_string_roundtrip() {
            for_each_seed(|seed, rng| {
                let v: Vec<String> = (0..rng.below(16)).map(|_| rng.string()).collect();
                roundtrip(seed, &v);
            });
        }

        #[test]
        fn map_roundtrip() {
            for_each_seed(|seed, rng| {
                let m: BTreeMap<u64, String> =
                    (0..rng.below(16)).map(|_| (rng.int(), rng.string())).collect();
                roundtrip(seed, &m);
            });
        }

        /// Random bytes, and valid encodings with one byte overwritten,
        /// never panic a decoder.
        #[test]
        fn decoding_random_bytes_never_panics() {
            for_each_seed(|_, rng| {
                let mut inputs = vec![rng.bytes(256)];
                let sample = Sample {
                    a: rng.next_u64() as u32,
                    b: rng.string(),
                    c: (0..rng.below(8)).map(|_| rng.int()).collect(),
                    d: (rng.below(2) == 0).then(|| rng.int() as i64),
                };
                let mut valid = crate::to_bytes(&sample);
                let at = rng.below(valid.len() as u64) as usize;
                valid[at] = rng.next_u64() as u8;
                inputs.push(valid);
                for b in &inputs {
                    let _ = crate::from_bytes::<Sample>(b);
                    let _ = crate::from_bytes::<Vec<String>>(b);
                    let _ = crate::from_bytes::<BTreeMap<String, u64>>(b);
                }
            });
        }

        /// Equal values encode to equal bytes whatever order built them,
        /// and decode → encode reproduces the bytes exactly.
        #[test]
        fn canonical_equal_values_equal_bytes() {
            for_each_seed(|seed, rng| {
                let v: Vec<i64> = (0..rng.below(32)).map(|_| rng.int() as i64).collect();
                let pairs: Vec<(u64, i64)> = v.iter().map(|&x| (x as u64 % 64, x)).collect();
                let forward: BTreeMap<u64, i64> = pairs.iter().copied().collect();
                let mut backward = BTreeMap::new();
                for &(k, x) in pairs.iter().rev() {
                    backward.entry(k).or_insert(x);
                }
                assert_eq!(crate::to_bytes(&forward), crate::to_bytes(&backward), "seed {seed}");
                let bytes = crate::to_bytes(&v);
                let back = crate::from_bytes::<Vec<i64>>(&bytes).unwrap();
                assert_eq!(crate::to_bytes(&back), bytes, "seed {seed}");
            });
        }
    }
}
