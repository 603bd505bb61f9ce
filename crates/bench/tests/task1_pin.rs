//! Pins the Task 1 setup bit for bit at `PRDNN_SCALE=tiny`: the trained
//! CNN's parameters and the Δ of one point repair of its first
//! convolution.
//!
//! Training, the repair pool and the DDNN Jacobians all run through the
//! `Conv2d` and pooling kernels of `prdnn-nn`, so any change to the order in
//! which those kernels accumulate their sums moves these hashes.  The
//! constants come from the per-connection loop that `layer.rs` keeps as its
//! test oracle; the direct loops must reproduce them exactly.

use prdnn_bench::scale::{Scale, Task1Params};
use prdnn_bench::task1;
use prdnn_core::{repair_points, PointSpec, RepairConfig};
use prdnn_datasets::imagenet_like::NUM_CLASSES;

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn tiny_task1_setup_and_repair_are_bit_identical() {
    let setup = task1::setup(&Task1Params::for_scale(Scale::Tiny));
    let params = (0..setup.network.num_layers()).flat_map(|i| setup.network.layer(i).params());
    assert_eq!(
        fnv1a(params),
        0x36ac_722f_b72b_e8a9,
        "trained Task 1 network parameters moved"
    );

    let set = setup.repair_pool.take(6);
    let spec = PointSpec::from_classification(&set.inputs, &set.labels, NUM_CLASSES, 1e-4);
    let outcome = repair_points(&setup.network, 0, &spec, &RepairConfig::default())
        .expect("layer 0 repair of 6 points succeeds");
    assert_eq!(
        fnv1a(outcome.delta.iter().copied()),
        0x76ea_a04b_e721_af6d,
        "layer 0 repair delta moved"
    );
}
