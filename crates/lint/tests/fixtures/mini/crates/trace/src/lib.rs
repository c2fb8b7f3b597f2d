//! Mini trace crate (golden fixture). Missing one hygiene header on
//! purpose: H1 must fire exactly once here.
#![forbid(unsafe_code)]

pub mod store;
