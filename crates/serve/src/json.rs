//! The JSON kit, re-exported from where it lives: [`fdc_codec::json`].

pub use fdc_codec::json::*;
