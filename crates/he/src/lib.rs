//! # vfps-he — homomorphic encryption substrate for VFPS-SM
//!
//! Everything VFPS-SM's privacy layer needs, built from scratch:
//!
//! * [`bigint`] — arbitrary-precision unsigned/signed integers (Knuth-D
//!   division, Karatsuba multiplication, Miller–Rabin primality, modular
//!   exponentiation and inverse).
//! * [`paillier`] — the Paillier cryptosystem: exact additively homomorphic
//!   encryption over `Z_n`.
//! * [`fixed`] — fixed-point real↔integer codec for exact schemes.
//! * [`packing`] — shift-and-pack slot layout so one Paillier noise
//!   exponentiation amortizes over a whole group of values.
//! * [`scheme`] — the [`scheme::AdditiveHe`] trait unifying Paillier and a
//!   pass-through [`scheme::PlainHe`] used for cost-accounted large-scale
//!   simulation.
//!
//! ## Example
//!
//! ```
//! use vfps_he::scheme::{AdditiveHe, PaillierHe};
//!
//! let he = PaillierHe::generate(256, 8, 42).unwrap();
//! let a = he.encrypt(&[1.0, 2.0]).unwrap();
//! let b = he.encrypt(&[0.5, 0.25]).unwrap();
//! let sum = he.decrypt(&he.add(&a, &b), 2);
//! assert!((sum[0] - 1.5).abs() < 1e-6);
//! assert!((sum[1] - 2.25).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod bigint;
pub mod error;
pub mod fixed;
pub mod keys;
pub mod packing;
pub mod paillier;
pub mod scheme;

pub use bigint::{BigInt, BigUint};
pub use error::{Error, Result};
pub use fixed::FixedPoint;
