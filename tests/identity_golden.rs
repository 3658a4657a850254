//! Golden pins for checkpoint identity: `kernel_identity_hash` of
//! every suite kernel (both compile flavors) and the exact bytes of
//! one checkpoint per machine policy. Spooled `.ckpt` files outlive
//! the process that wrote them, so any drift here breaks resume of
//! checkpoints already on disk.
//!
//! The identity hash is memoized lazily on the shared predecoded
//! image; the remaining tests check that the memo is bound to the
//! right kernel across shared images, resumes, and mismatches.

use std::sync::Arc;

use rfv_bench::harness::{compile_full, compile_plain, Machine};
use rfv_sim::{
    kernel_identity_hash, simulate_resumable_traced, PredecodedKernel, SimError, SlicedSim,
};
use rfv_trace::wire::fnv1a;
use rfv_workloads::suite;

/// `(benchmark, full-compile hash, plain-compile hash)` in Table 1
/// order, as [`suite::all`] yields them.
const IDENTITY: [(&str, u64, u64); 16] = [
    ("MatrixMul", 0x0674f3ec51db71de, 0x15b777e2be4bc65c),
    ("BlackScholes", 0xe975cbfab148e2e6, 0x39b18f9d7e4ef902),
    ("DCT8x8", 0xe8b0cee210e536ff, 0x464dadc5946ef1ef),
    ("Reduction", 0x530d37227b1016bb, 0x99e4af2e9844156e),
    ("VectorAdd", 0x84691d80bb319782, 0x1812ad3b21773ee9),
    ("BackProp", 0xd98c1a85d45d7d73, 0x6a23a10dd2d4b23c),
    ("BFS", 0x4489302bd675e5a9, 0x8259972617eb0f38),
    ("Heartwall", 0xa3597f838fda62fa, 0xede3bc4c0d98d868),
    ("HotSpot", 0x532fc9a2ee3a52c2, 0xd19215f71beb56c9),
    ("LUD", 0xcb061e3ad4c61f0d, 0xa94b3d39af439b8d),
    ("Gaussian", 0x83587a65519323c4, 0x3513e60c37388d34),
    ("LIB", 0xa73184dc37dcce03, 0xe8cd74d761aed464),
    ("LPS", 0x1978a664e71e4cef, 0xedb6502e7c88fa54),
    ("NN", 0x1353819e87658d86, 0x5733b973c9da7cfd),
    ("MUM", 0x2867cd6b08d9472f, 0x896ac6cf72a0d853),
    ("ScalarProd", 0xa18e700ce990a2f9, 0x028b77c0c86a0fd8),
];

/// `(machine, FNV-1a of the container, container length)` for a
/// VectorAdd checkpoint taken at [`BOUNDARY`].
const CHECKPOINTS: [(Machine, u64, usize); 4] = [
    (Machine::Conventional, 0x917457265f60e033, 541429),
    (Machine::Full128, 0x0a0c48b23f03b4f5, 540855),
    (Machine::Shrink64, 0xc7c3b468b8cc4f06, 475271),
    (Machine::HardwareOnly, 0xf97199d38220a3cf, 541231),
];

/// The cycle boundary the per-policy checkpoints are taken at.
const BOUNDARY: u64 = 300;

#[test]
fn identity_hashes_match_golden() {
    let suite = suite::all();
    assert_eq!(suite.len(), IDENTITY.len());
    for (w, &(name, full, plain)) in suite.iter().zip(&IDENTITY) {
        assert_eq!(w.name(), name);
        assert_eq!(
            kernel_identity_hash(&compile_full(w)),
            full,
            "{name}: full-compile identity hash drifted"
        );
        assert_eq!(
            kernel_identity_hash(&compile_plain(w)),
            plain,
            "{name}: plain-compile identity hash drifted"
        );
    }
}

#[test]
fn checkpoint_bytes_match_golden() {
    let w = suite::vectoradd();
    for (m, want_fnv, want_len) in CHECKPOINTS {
        let ck = m.compile(&w);
        let mut sim = SlicedSim::new(&ck, &m.config(), &[], 0).unwrap();
        assert!(
            !sim.advance(BOUNDARY).unwrap(),
            "{m:?}: ran out before the boundary"
        );
        let bytes = sim.checkpoint().to_bytes();
        assert_eq!(bytes.len(), want_len, "{m:?}: checkpoint length drifted");
        assert_eq!(fnv1a(&bytes), want_fnv, "{m:?}: checkpoint bytes drifted");
    }
}

#[test]
fn shared_image_checkpoints_carry_the_kernel_identity() {
    let w = suite::vectoradd();
    let m = Machine::Full128;
    let (ck, config) = (m.compile(&w), m.config());
    let want = kernel_identity_hash(&ck);
    let prog = Arc::new(PredecodedKernel::new(&ck));

    // two machines sharing one image: whichever hashes first fills
    // the memo, both must carry the identity
    let mut a = SlicedSim::with_predecoded(&ck, &config, &[], 0, Arc::clone(&prog)).unwrap();
    let mut b = SlicedSim::with_predecoded(&ck, &config, &[], 0, Arc::clone(&prog)).unwrap();
    a.advance(BOUNDARY).unwrap();
    b.advance(2 * BOUNDARY).unwrap();
    let ck_a = a.checkpoint();
    assert_eq!(ck_a.kernel_hash, want);
    assert_eq!(b.checkpoint().kernel_hash, want);

    // and so does a machine resumed from one of those checkpoints
    let mut resumed = SlicedSim::resume_with_predecoded(&ck, &config, &ck_a, prog).unwrap();
    resumed.advance(BOUNDARY).unwrap();
    let again = resumed.checkpoint();
    assert_eq!(again.kernel_hash, want);
    assert_eq!(again.cycle, 2 * BOUNDARY);
}

#[test]
fn mismatched_kernel_is_rejected() {
    let m = Machine::Full128;
    let config = m.config();
    let ck = m.compile(&suite::vectoradd());
    let mut sim = SlicedSim::new(&ck, &config, &[], 0).unwrap();
    sim.advance(BOUNDARY).unwrap();
    let checkpoint = sim.checkpoint();

    let other = m.compile(&suite::reduction());
    let other_prog = Arc::new(PredecodedKernel::new(&other));
    assert!(matches!(
        SlicedSim::resume_with_predecoded(&other, &config, &checkpoint, Arc::clone(&other_prog)),
        Err(SimError::BadCheckpoint(_))
    ));
    assert!(matches!(
        simulate_resumable_traced(&other, &config, &checkpoint),
        Err(SimError::BadCheckpoint(_))
    ));
    // the rejected image still hashes its own kernel afterwards
    assert_eq!(
        SlicedSim::with_predecoded(&other, &config, &[], 0, other_prog)
            .unwrap()
            .checkpoint()
            .kernel_hash,
        kernel_identity_hash(&other)
    );
}
